"""Independent reference values the workloads check charops outputs against.

Nothing here calls the code paths under test: class counts come from a
generating function fed by brute-force Burnside counts on the small base
groups, Eisenstein coefficients from divisor sums, and representations are
assembled from the built-in irreducibles by block sums.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np


def sigma(k, n):
    """Divisor power sum sigma_k(n)."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def commuting_class_count(G, d):
    """Classes of commuting d-tuples of G under simultaneous conjugation.

    Burnside: the number of orbits is the number of pairwise commuting
    (d+1)-tuples divided by |G|.  Brute force over G.mul, so only for the
    small base groups.
    """
    n = G.size
    commute = [[G.mul(a, b) == G.mul(b, a) for b in range(n)] for a in range(n)]
    count = 0
    for t in itertools.product(range(n), repeat=d + 1):
        if all(commute[t[i]][t[j]] for i in range(d + 1) for j in range(i + 1, d + 1)):
            count += 1
    if count % n:
        raise ArithmeticError("Burnside count is not divisible by |G|")
    return count // n


def wreath_class_count(base_count, n, d):
    """Classes of commuting d-tuples of G wr Sigma_n, for d in {1, 2}.

    The t^n coefficient of prod_m (1 - t^m)^(-s_d(m) c_d(G)) with s_1 = 1 and
    s_2 = sigma_1 (Macdonald, App. B, for d = 1; Dijkgraaf-Moore-Verlinde-
    Verlinde, hep-th/9608096, for d = 2).  base_count is c_d(G).
    """
    if d not in (1, 2):
        raise ValueError("generating function is stated for d in {1, 2}")
    series = [1] + [0] * n
    for m in range(1, n + 1):
        a = base_count * (1 if d == 1 else sigma(1, m))
        # (1 - t^m)^(-a) = sum_k C(a + k - 1, k) t^(mk)
        factor = [0] * (n + 1)
        for k in range(n // m + 1):
            factor[m * k] = comb(a + k - 1, k)
        series = [sum(series[i] * factor[j - i] for i in range(j + 1))
                  for j in range(n + 1)]
    return series[n]


def eisenstein_coefficients(weight, n_terms):
    """q-expansion coefficients of the normalized E4 or E6."""
    c = {4: 240, 6: -504}[weight]
    return [1] + [c * sigma(weight - 1, m) for m in range(1, n_terms)]


def direct_sum(reps):
    """Matrices of the block-diagonal sum of representations of one group."""
    mats = []
    for g in range(reps[0].group.size):
        blocks = [r.matrices[g] for r in reps]
        dim = sum(b.shape[0] for b in blocks)
        m = np.zeros((dim, dim), dtype=complex)
        at = 0
        for b in blocks:
            k = b.shape[0]
            m[at:at + k, at:at + k] = b
            at += k
        mats.append(m)
    return mats
