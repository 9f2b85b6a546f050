"""Machine-speed reference kernel.

The benchmark machine shares its cores with other tenants, and the speed a
process gets drifts by up to 2x over tens of seconds; CPU time drifts with
wall time, and the slow spells often outlast a whole run.  Raw timings of
the same code on the same seed then spread by about 20 % from run to run.

Every timing is therefore taken next to a short fixed kernel of pure-Python
tuple and dict work, the kind of work charops does, and scaled by it:

    scaled = measured * REFERENCE_S / (kernel time measured alongside)

``REFERENCE_S`` is the kernel's time on an uncontended core of the machine
the benchmark was defined on (x86_64, Python 3.11), so on a quiet machine the
scaled times are close to the raw ones.  The kernel does not use charops, so
a change to charops cannot move it.  Raw times are printed as well.
"""

from __future__ import annotations

import itertools
import statistics
import time

REFERENCE_S = 0.0015

_PERMS = list(itertools.permutations(range(5)))
_INDEX = {p: i for i, p in enumerate(_PERMS)}
_RIGHT = _PERMS[::12]


def kernel_seconds():
    """Time one run of the kernel: compose permutations, look them up."""
    start = time.perf_counter()
    acc = 0
    for p in _PERMS:
        for q in _RIGHT:
            acc += _INDEX[tuple(p[q[i]] for i in range(5))]
    return time.perf_counter() - start


def factor(kernel_times):
    """Scale factor for a timing taken between these kernel runs."""
    return REFERENCE_S / statistics.mean(kernel_times)


def scaled_seconds(fn, *args):
    """Scaled duration of one call, with the kernel run twice before and
    twice after it."""
    around = [kernel_seconds(), kernel_seconds()]
    start = time.perf_counter()
    fn(*args)
    elapsed = time.perf_counter() - start
    around += [kernel_seconds(), kernel_seconds()]
    return elapsed * factor(around)
