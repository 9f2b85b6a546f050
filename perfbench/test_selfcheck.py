"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

A planted defect must make ops fail, a pass on a seed that was not used while
the benchmark was written must pass every check except the known defect, and
a directory without the charops source must be refused.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from charops import cyclic_group, quaternion_group, symmetric_group  # noqa: E402
from charops.verify import buggy_adams_full_degree  # noqa: E402
from spans import NullTracer  # noqa: E402

FRESH_SEED = 90817


def one_pass(ops):
    return run.run_pass(ops, NullTracer(), 0).failures


def test_planted_adams_defect_fails_the_adams_ops():
    # height 2: the wrong degree scaling n^deg cannot show on degree 0
    ops = workloads.build_elliptic(FRESH_SEED, adams_impl=buggy_adams_full_degree)
    failed = {op.name for op, _ in one_pass(ops)}
    assert failed == {op.name for op in ops if op.name.startswith("adams ")}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_fresh_seed_passes_every_check(name, tmp_path):
    ops = workloads.build(name, FRESH_SEED, str(tmp_path))
    failed = {op.name for op, _ in one_pass(ops)}
    known = {op.name for op in ops if op.known_defect}
    # the known defect still fails; once fixed, its marker must go
    assert failed == known


def test_class_count_oracle():
    assert oracles.commuting_class_count(symmetric_group(3), 2) == 8
    assert oracles.commuting_class_count(quaternion_group(), 1) == 5
    c2 = cyclic_group(2)
    assert oracles.wreath_class_count(oracles.commuting_class_count(c2, 1), 2, 1) == 5
    assert oracles.wreath_class_count(oracles.commuting_class_count(c2, 2), 2, 2) == 22


def test_refuses_a_directory_without_charops(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
