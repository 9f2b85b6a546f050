"""Power operations on class functions.

The n-th power operation sends a function on (tuples in G, points of X) to a
function on (tuples in G wr Sigma_n, points of X^n).  Its value at (H, x) is
a product over the orbits of H's permutation action: the orbit of size m
with stabilizer basis matrix M contributes

    height 1:   m^(deg/2)  f(h_k, x_{i_k})
    height 2:   det(M)^(deg/2) M* f(h_k, x_{i_k})      (det M = m),

one degree scaling in either case.  Adams operations arise three ways: the
direct formula n^(deg/2) f(h o n, x), the canonical-cover factorization
through the n^d-th power operation, and (degree 0, p-typical) the
section-dependent pseudo-power operation.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .classfn import ClassFunction
from .coefficients import (
    GradedValue,
    _check_term_count,
    graded_product,
    scale_by_degree,
    weight_slash_graded,
)
from .groups import CommutingTuple, GroupError, GSet, PowerGSet, wreath
from .lattices import sublattices_of_index
from .orbits import _reduction

ADAMS_WREATH_BUDGET = 9

# Most values one rule-backed power operation keeps, keyed on the pair
# (els, x); the least recently used goes first.  The package's one memo of
# rule results: a warm pass of the `relations` benchmark workload (seed 1)
# reads power values 2,584 times and hits 630, while restrictions and Adams
# operations, cheap compositions around it, are almost never read twice at
# one pair.  `charops verify` at seed 0 leaves at most 165 values in any one
# power operation, and one pass of each benchmark workload at most 84.
_RULE_CACHE_BOUND = 4096


def _power_value(f, W, els, x_points, basepoint_rng=None, basis=None):
    """Value of the power operation at a tuple over W and product point."""
    red = _reduction(W, els, basepoint_rng, basis)
    acc = GradedValue(f.kind, {0: 1})
    for k, orbit in enumerate(red.orbits):
        v = f._value(red.reduced[k].elements, x_points[red.basepoints[k]])
        if f.kind == "lat":
            v = weight_slash_graded(red.matrices[k], v)
        v = scale_by_degree(len(orbit), v)
        acc = graded_product(acc, v)
    return acc


def power_operation(f, n, mode="lazy", basepoint_rng=None, basis=None):
    """The n-th power operation: class functions over G to class functions
    over G wr Sigma_n, rule-backed with its values memoized (at most
    `_RULE_CACHE_BOUND`), or with mode "eager" its `materialize()` on every
    pair orbit.  The randomization hooks re-run the orbit reduction
    with random basepoints or with the stabilizer bases picked by `basis`
    (see `reduce_tuple`); outputs must not depend on them.

    A non-invariant input draws a warning and the computation proceeds;
    violations then propagate to the invariance report of the output.  A
    stored input is checked once: it keeps its report
    (`ClassFunction.is_invariant`), and every call on a non-invariant input
    warns again.
    """
    if n < 0:
        raise GroupError("power operation arity must be >= 0")
    if mode not in ("lazy", "eager"):
        raise ValueError(f'mode is "lazy" or "eager", not {mode!r}')
    if f.values is not None:
        rep = f.is_invariant()
        if not rep.ok:
            warnings.warn(f"power operation applied to a non-invariant input: {rep}")
    G = f.group
    W = wreath(G, n)
    power = PowerGSet(f.space, W)

    @functools.lru_cache(maxsize=_RULE_CACHE_BOUND)
    def rule(els, x):
        return _power_value(f, W, els, power.decode_point(x), basepoint_rng, basis)

    out_space = GSet.point(W) if f.space.size == 1 else power
    out = ClassFunction.from_rule(W, f.d, rule, space=out_space, kind=f.kind)
    return out.materialize() if mode == "eager" else out


def adams(f, n):
    """The n-th Adams operation: value at (h, x) is n^(deg/2) f(h o n, x).

    h o n raises every tuple entry to the n-th power; x stays valid because
    anything fixed by the entries is fixed by their powers.  The degree
    scaling is n^(deg/2) = n^j on the degree-2j component, matching the
    classical operation on even cohomology at both heights.
    """
    if n < 1:
        raise GroupError("adams operation needs n >= 1")

    def rule(els, x):
        G = f.group
        return scale_by_degree(n, f._value(tuple(G.power(e, n) for e in els), x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space, kind=f.kind)


def cayley_torsion_tuple(H, n):
    """The canonical-cover tuple over G wr Sigma_{n^d} attached to h: Z^d -> G.

    Entry j is the pair (diagonal tuple of h_j, Cayley translation by e_j on
    Z^d / n Z^d).  The kernel of the permutation part is n Z^d.
    """
    W = wreath(H.group, n ** H.d)
    # point v of Z^d / n Z^d has code sum_i v_i n^i; e_j moves digit j
    codes = np.arange(W.n, dtype=np.int64)
    entries = []
    for j, h in enumerate(H.elements):
        digit = codes // n ** j % n
        translation = codes + ((digit + 1) % n - digit) * n ** j
        entries.append(W.encode((h,) * W.n, translation.tolist()))
    return CommutingTuple(W, tuple(entries))


def adams_via_power(f, n):
    """Adams operation computed through the n^d-th power operation on the
    canonical torsion cover.  Contract: equals adams(f, n) exactly at height
    1 (degree 0) and within tolerance at height 2."""
    if n < 1:
        raise GroupError("adams operation needs n >= 1")
    npts = n ** f.d
    if npts > ADAMS_WREATH_BUDGET:
        raise GroupError(
            f"wreath budget exceeded: n^d = {npts} > {ADAMS_WREATH_BUDGET}")
    G = f.group
    W = wreath(G, npts)

    def rule(els, x):
        tau = cayley_torsion_tuple(CommutingTuple(G, els), n)
        return _power_value(f, W, tau.elements, (x,) * npts)

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space, kind=f.kind)


# ---------------------------------------------------------------------------
# E-theory pseudo-power operation


def _is_prime_power_order(W, element, p):
    k = W.order(element)
    while k % p == 0:
        k //= p
    return k == 1


def _is_prime(p):
    """Whether p is prime: Miller-Rabin on the witnesses 2, 3, ..., 37,
    at most twelve modular powers, exact for every p below 3.1e23."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in witnesses):
        return p in witnesses
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def pseudo_power_etheory(f, n, p, basis=None):
    """The section-dependent power operation on degree-0 class functions of
    p-power-order tuples: the power operation's orbit product with the
    stabilizer bases picked by the section basis(L) -> rows (the
    `reduce_tuple` hook), so on the p-power locus its values equal
    `power_operation(f, n, basis=basis)`; with the default HNF basis, the
    degree-0 power operation.  Orbit k contributes f([psi* h_k]), psi:
    Z^d -> L_k sending e_j to the j-th row the section picks for the
    stabilizer L_k.  Raises on tuples whose entries do not have p-power
    order (a reduced entry, a coordinate of a product of commuting p-power
    elements, then has p-power order too), and at once when p is not a
    prime or a stored input has a component in positive degree.
    """
    if not _is_prime(p):
        raise GroupError(f"the pseudo-power operation needs a prime p, got {p}")
    if f.space.size != 1:
        raise GroupError("the pseudo-power operation takes functions on the point")
    if f.values is not None and any(j > 0 for v in f.values.values() for j in v.components):
        raise GroupError("the pseudo-power operation takes degree-0 functions")
    W = wreath(f.group, n)

    def rule(els, x):
        for e in els:
            if not _is_prime_power_order(W, e, p):
                raise GroupError(f"tuple entry of non-{p}-power order")
        return _power_value(f, W, els, (0,) * n, basis=basis)

    return ClassFunction.from_rule(W, f.d, rule, kind=f.kind)


# ---------------------------------------------------------------------------
# Hecke-type operator on lattice functions


def hecke_like(F, n):
    """Sum of pullbacks of F over all index-n sublattices (HNF bases).

    S_n(F)(Lambda) = sum over sublattices L' of index n of F(L' basis of
    Lambda).  On a weight-w modular form this equals n^(1-w) T_n F for the
    classical Hecke operator T_n, so S_2(E4) = (9/8) E4 and
    S_3(E4) = (28/27) E4.  (The power-operation orbit factor would add a
    det^w twist; that variant is n^w S_n and has the same eigenvectors.)
    An index with more sublattices than a lattice function may hold terms
    is refused before they are enumerated.
    """
    if n < 1:
        raise GroupError("hecke operator needs index >= 1")
    if n == 1:
        return F
    # sigma_1(n) sublattices, summed over divisor pairs (a, n/a) and checked
    # as the sum grows: a = 1 alone adds n + 1
    count = 0
    for a in range(1, math.isqrt(n) + 1):
        if n % a == 0:
            count += a + n // a if a * a != n else a
            _check_term_count(count)
    out = None
    for L in sublattices_of_index(2, n):
        term = F.slash(L.basis)
        out = term if out is None else out + term
    return out


def hecke_q_oracle(coeffs, weight, n):
    """q-expansion of the classical T_n on a level-1 form of given weight.

    a_m(T_n f) = sum over d | gcd(m, n) of d^(weight-1) a_{mn/d^2}; used as an
    independent check of hecke_like's normalization.
    """
    m_max = (len(coeffs) - 1) // n
    out = []
    for m in range(m_max + 1):
        acc = 0j
        divisors = range(1, n + 1) if m == 0 else range(1, math.gcd(m, n) + 1)
        for d in divisors:
            if n % d == 0 and (m == 0 or m % d == 0):
                idx = (m // d) * (n // d)
                if idx < len(coeffs):
                    acc += d ** (weight - 1) * complex(coeffs[idx])
        out.append(acc)
    return out
