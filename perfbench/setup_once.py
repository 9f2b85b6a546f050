"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_once.py <workload> <seed>

Set-up is ``import charops`` plus building the workload's seeded inputs, up
to the first timed op.  run.py starts this several times per run, scales
each time by reference-kernel runs of its own (see calibrate.py) and
reports the median as ``setup_s``.
"""

import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(name, seed, workdir):
    sys.path.insert(0, str(ROOT / "src"))
    import charops  # noqa: F401  (the import is part of set-up)
    import workloads
    workloads.build(name, seed, str(workdir))


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workdir = ROOT / ".perfbench_out" / f"setup-{name}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        setup(name, seed, workdir)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
