#!/usr/bin/env python3
"""charops benchmark runner.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a charops checkout: the package is imported from
that checkout's ``src/``, and scratch files go to ``.perfbench_out/``.  One
workload runs in one single-threaded process.  It builds the seeded inputs,
then runs the workload's fixed op list in passes for ``--seconds`` seconds:
one warm-up pass (q-kernel memos fill, lazy set-up finishes), then timed
passes.  Every op's output is checked in every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (span self time
and call counts per pass, kernel probe rates, tracing overhead).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--workload all`` runs the four workloads one after
the other, each in its own process, and reports every metric under
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("classify", "relations", "elliptic", "cli")
WARMUP_PASSES = 1
MIN_TIMED_PASSES = 4
HARD_LIMIT_S = 120.0      # stop adding passes past this, whatever --seconds says
SETUP_SAMPLES = 7
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 50)
CHILD_TIMEOUT_S = 175

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span metrics are per pass of the op list; "_s" is self time, "_calls" the
# number of spans; counters are summed per pass; "_per_s" are kernel probes.
PER_LAYER_UNITS = {
    "groups.classes_s": "s",
    "groups.classes_found": "count",
    "groups.mul_per_s": "1/s",
    "lattices.hnf_per_s": "1/s",
    "lattices.sublattices_s": "s",
    "orbits.reduce_tuple_s": "s",
    "orbits.reduce_tuple_calls": "count",
    "orbits.reduce_tuple_per_s": "1/s",
    "orbits.transport_s": "s",
    "coefficients.at_tau_s": "s",
    "coefficients.at_tau_calls": "count",
    "coefficients.at_tau_per_s": "1/s",
    "classfn.inclusion_s": "s",
    "classfn.evaluate_s": "s",
    "classfn.evaluate_calls": "count",
    "classfn.canonical_key_per_s": "1/s",
    "classfn.materialize_s": "s",
    "classfn.is_invariant_s": "s",
    "classfn.json_s": "s",
    "powerops.power_operation_s": "s",
    "powerops.adams_via_power_s": "s",
    "powerops.hecke_like_s": "s",
    "reporacle.tensor_trace_s": "s",
    "cli.classes_s": "s",
    "cli.power_s": "s",
    "cli.adams_s": "s",
    "cli.pseudo_s": "s",
    "cli.hecke_s": "s",
    "cli.bytes_out": "bytes",
    "trace_overhead_frac": "1",
}


class Unavailable(Exception):
    """The checkout cannot be benchmarked (no charops source)."""


def load_charops():
    package = SRC / "charops"
    if not (package / "__init__.py").is_file():
        raise Unavailable(f"no charops source at {package}")
    sys.path.insert(0, str(SRC))
    import charops
    if Path(charops.__file__).resolve().parent != package.resolve():
        raise Unavailable(f"charops imported from {charops.__file__}, not {package}")
    return charops


def source_commit():
    """Commit id from .git when the checkout has one, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "charops").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Pass:
    traced: bool
    wall: float            # raw elapsed seconds, reference-kernel runs included
    raw: list              # raw op latencies
    scaled: list           # op latencies scaled by the reference kernel
    factor: float          # the pass's mean scale factor
    failures: list


def run_pass(ops, tracer, pass_index):
    """Run every op once, with a reference-kernel run before the first op
    and after each op."""
    from workloads import CheckFailed
    kernel = [calibrate.kernel_seconds()]
    raw = []
    failures = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op_id = (pass_index, i)
        t0 = time.perf_counter()
        try:
            op.fn(tracer)
        except CheckFailed as exc:
            failures.append((op, str(exc)))
        except Exception:
            # an unexpected exception is a failed op, kept with its traceback
            failures.append((op, traceback.format_exc()))
        raw.append(time.perf_counter() - t0)
        kernel.append(calibrate.kernel_seconds())
    wall = time.perf_counter() - start
    # op i ran between kernel[i] and kernel[i + 1]; scale it by those two and
    # their outer neighbours
    scaled = [t * calibrate.factor(kernel[max(0, i - 1):i + 3])
              for i, t in enumerate(raw)]
    return Pass(tracer.enabled, wall, raw, scaled, calibrate.factor(kernel), failures)


def time_setup(name, seed):
    """Median reference-scaled set-up time over fresh interpreters (import
    charops, build the workload's seeded inputs), and the raw samples.  The
    kernel runs here, warm, rather than in the cold child interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        kernel = [calibrate.kernel_seconds() for _ in range(3)]
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), name, str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        kernel += [calibrate.kernel_seconds() for _ in range(3)]
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * calibrate.factor(kernel))
    return statistics.median(scaled), raw


def tail_percentile(ops_per_pass):
    """Highest ladder percentile with at least ten ops beyond it at the
    minimum number of timed passes."""
    n_min = ops_per_pass * MIN_TIMED_PASSES
    for p in TAIL_LADDER:
        if n_min * (100 - p) / 100 >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def report_failures(failures):
    seen = set()
    for op, message in failures:
        if op.name in seen:
            continue
        seen.add(op.name)
        tag = f" [known defect: {op.known_defect}]" if op.known_defect else ""
        print(f"FAILED {op.name}{tag}: {message.strip()}", file=sys.stderr)


def run_workload(args, provenance):
    import workloads
    from spans import NullTracer, Tracer
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        setup_s = setup_samples = None
        if not args.trace:
            setup_s, setup_samples = time_setup(args.workload, args.seed)
        null = NullTracer()
        tracer = Tracer()
        start = time.perf_counter()
        passes = [run_pass(ops, null, i) for i in range(WARMUP_PASSES)]
        while True:
            passes.append(run_pass(ops, null, len(passes)))
            if args.trace:
                passes.append(run_pass(ops, tracer, len(passes)))
            timed = sum(1 for p in passes[WARMUP_PASSES:] if p.traced == bool(args.trace))
            elapsed = time.perf_counter() - start
            if timed >= MIN_TIMED_PASSES and elapsed >= args.seconds:
                break
            if elapsed + (elapsed - passes[0].wall) / timed > HARD_LIMIT_S:
                break
        failures = [f for p in passes for f in p.failures]
        attempted = len(ops) * len(passes)
        unexpected = [f for f in failures if not f[0].known_defect]
        report_failures(failures)

        provenance.update(ops_per_pass=len(ops), passes=len(passes),
                          warmup_passes=WARMUP_PASSES)
        passes = passes[WARMUP_PASSES:]
        if args.trace:
            metrics = per_layer_metrics(args, passes, tracer)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            provenance["spans"] = str(spans_path.relative_to(ROOT))
        else:
            metrics = end_to_end_metrics(passes, len(ops), setup_s, provenance)
            provenance["raw_setup_samples_s"] = setup_samples
        provenance["failed_frac"] = len(failures) / attempted
        return {"correct": not unexpected, "attempted": attempted,
                "failed": len(failures), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(passes, ops_per_pass, setup_s, provenance):
    latencies = sorted(x for p in passes for x in p.scaled)
    wall_s = statistics.median(sum(p.scaled) for p in passes)
    tail_p = tail_percentile(ops_per_pass)
    provenance.update(
        op_tail_percentile=tail_p, op_samples=len(latencies),
        op_tail_beyond=len(latencies) - math.ceil(tail_p / 100 * len(latencies)),
        raw_wall_s=statistics.median(sum(p.raw) for p in passes),
        raw_op_p50_ms=1e3 * statistics.median(x for p in passes for x in p.raw),
        pass_scale_factors=[round(p.factor, 4) for p in passes])
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": ops_per_pass / wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * nearest_rank(latencies, tail_p),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(args, passes, tracer):
    from probes import run_probes
    traced = [p for p in passes if p.traced]
    factors = {i: p.factor for i, p in enumerate(passes, WARMUP_PASSES) if p.traced}
    self_s, calls = tracer.self_seconds(lambda op_id: factors[op_id[0]])
    values = dict(run_probes(args.seed))
    for name in PER_LAYER_UNITS:
        if name in values:
            continue
        if name.endswith("_s"):
            values[name] = self_s.get(name[:-2], 0.0) / len(traced)
        elif name.endswith("_calls"):
            values[name] = calls.get(name[:-6], 0) / len(traced)
        elif name != "trace_overhead_frac":
            values[name] = tracer.counts.get(name, 0) / len(traced)
    walls = lambda traced_: statistics.median(sum(p.scaled) for p in passes
                                              if p.traced == traced_)
    values["trace_overhead_frac"] = walls(True) / walls(False) - 1
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'attempted':34s} {result['attempted']}")
    print(f"  {'failed':34s} {result['failed']}  "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        charops = load_charops()
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": source_commit(),
        "source_sha256": source_digest(), "charops": charops.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args, provenance)
    print(json.dumps({"provenance": provenance}))
    print_metrics(result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
