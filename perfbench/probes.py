"""Kernel probes: a fixed seeded batch of calls into one public function,
reported as calls per second (median over repeats).  They run only in traced
runs and use the groups the per-layer table names, so the rates compare
across workloads."""

from __future__ import annotations

import random
import statistics

import calibrate
import charops.verify as verify
from charops import (
    cyclic_group,
    hnf,
    power_operation,
    quaternion_group,
    reduce_tuple,
    symmetric_group,
    wreath,
)

REPEATS = 5


def _run_all(calls):
    for call in calls:
        call()


def _rate(calls):
    """calls: list of zero-argument callables, one batch.  Calls per
    reference-scaled second, median over repeats."""
    times = [calibrate.scaled_seconds(_run_all, calls) for _ in range(REPEATS)]
    return len(calls) / statistics.median(times)


def _mul_rate(rng):
    calls = []
    for base in (cyclic_group(2), symmetric_group(3), quaternion_group()):
        for n in (2, 3, 4):
            W = wreath(base, n)
            calls += [lambda W=W, a=rng.randrange(W.size), b=rng.randrange(W.size):
                      W.mul(a, b) for _ in range(500)]
    return _rate(calls)


def _hnf_rate(rng):
    calls = []
    while len(calls) < 2000:
        M = ((rng.randint(-9, 9), rng.randint(-9, 9)),
             (rng.randint(-9, 9), rng.randint(-9, 9)))
        if M[0][0] * M[1][1] != M[0][1] * M[1][0]:
            calls.append(lambda M=M: hnf(M))
    return _rate(calls)


def _reduce_rate(rng):
    calls = []
    for W in (wreath(cyclic_group(2), 4), wreath(symmetric_group(3), 3)):
        for H in verify.sample_commuting_pairs(W, 100, rng):
            calls.append(lambda H=H: reduce_tuple(H))
    return _rate(calls)


def _at_tau_rate(rng):
    """Weight-graded components of height-2 P_3 values on C2, each read at
    fresh tau so every repeat misses the q-kernel memo."""
    C2 = cyclic_group(2)
    P3 = power_operation(verify.random_height2_function(C2, rng), 3, mode="lazy")
    W = P3.group
    trees = []
    for H in verify.sample_commuting_pairs(W, 8, rng):
        value = P3.evaluate(H, 0)
        trees += [value.component(j) for j in value.degrees if j]
    calls = []
    for _ in range(REPEATS):
        taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(1.2, 2.0)) for _ in range(10)]
        calls.append([lambda F=F, tau=tau: F.at_tau(tau) for F in trees for tau in taus])
    times = [calibrate.scaled_seconds(_run_all, batch) for batch in calls]
    return len(calls[0]) / statistics.median(times)


def _canonical_key_rate(rng):
    W = wreath(symmetric_group(3), 2)
    f = verify.random_height1_function(W, rng)
    keys = [((rng.randrange(W.size),), 0) for _ in range(60)]
    return _rate([lambda k=k: f.canonical_key(*k) for k in keys])


PROBES = {
    "groups.mul_per_s": _mul_rate,
    "lattices.hnf_per_s": _hnf_rate,
    "orbits.reduce_tuple_per_s": _reduce_rate,
    "coefficients.at_tau_per_s": _at_tau_rate,
    "classfn.canonical_key_per_s": _canonical_key_rate,
}


def run_probes(seed):
    rng = random.Random(seed)
    return {name: probe(rng) for name, probe in PROBES.items()}

