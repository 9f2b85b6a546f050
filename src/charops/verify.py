"""Verification suites: every checkable identity in the package, bundled.

Each suite returns a SuiteResult with a pass flag and the worst deviation it
saw.  The suites are used twice: the acceptance tests assert them one by one,
and the command line runs them all and exits nonzero on any failure.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .classfn import (
    ClassFunction,
    external_product,
    restrict_along,
    wreath_block_inclusion,
    wreath_composition_inclusion,
    wreath_diagonal,
)
from .coefficients import (
    DEFAULT_TAU_SAMPLES,
    GradedValue,
    LatFunction,
    eisenstein_series,
    graded_deviation,
    scale_by_degree,
    worst_deviation,
)
from .groups import (
    GROUP_SHORTHANDS,
    CommutingTuple,
    GroupError,
    GSet,
    build_group,
    commuting_tuples,
    pair_orbits,
    tuple_conjugacy_classes,
    wreath,
)
from .lattices import LatticeError, mat_mul, random_unimodular, sublattices_of_index
from .orbits import _reduce
from .powerops import (
    _is_prime_power_order,
    adams,
    adams_via_power,
    hecke_like,
    hecke_q_oracle,
    power_operation,
    pseudo_power_etheory,
)
from .reporacle import (
    adams_character_check,
    builtin_representations,
    compare_with_geometric,
)

E4 = eisenstein_series(4, 400)
E6 = eisenstein_series(6, 400)


def _group(name):
    return build_group(GROUP_SHORTHANDS[name])


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str = ""
    seconds: float = 0.0
    checks: int = 0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: max deviation {self.max_deviation:.3e} "
                f"({self.checks} checks, {self.seconds:.1f}s) {self.detail}")


def _graded_result(name, worst, tol, checks):
    """Result of a suite that holds exactly at height 1 and within tol at
    height 2; worst maps each height to its largest deviation."""
    return SuiteResult(
        name, worst[1] == 0.0 and worst[2] < tol, max(worst[1], worst[2]),
        detail=f"height-1 exact dev {worst[1]:.1e}, height-2 dev {worst[2]:.3e}",
        checks=checks)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        out.seconds = time.perf_counter() - t0
        return out
    return wrapper


# ---------------------------------------------------------------------------
# random invariant inputs


def random_height1_function(G, rng, degrees=(0,)):
    """Random conjugation-invariant function with small Gaussian-integer
    values; exact float products make exactness assertions meaningful."""
    values = {}
    for cls in tuple_conjugacy_classes(G, 1):
        comp = {j: complex(rng.randint(-3, 3), rng.randint(-3, 3))
                for j in degrees}
        values[(cls.representative.elements, 0)] = GradedValue("complex", comp)
    return ClassFunction.from_values(G, 1, values)


def random_height2_function(G, rng):
    """Random invariant elliptic function: constant on joint conjugation +
    basis-change orbits, with modular forms in the weight slots."""
    values = {}
    for orbit in pair_orbits(G, 2, GSet.point(G), elliptic=True):
        comp = {
            0: complex(rng.randint(-3, 3), rng.randint(-3, 3)),
            4: E4.scale(complex(rng.randint(-3, 3), rng.randint(-3, 3))),
            6: E6.scale(complex(rng.randint(-3, 3), rng.randint(-3, 3))),
        }
        val = GradedValue("lat", comp)
        for key in orbit:
            values[key] = val
    return ClassFunction.from_values(G, 2, values, kind="lat")


def sample_commuting_pairs(W, count, rng):
    """Random commuting pairs in W (identity pair included)."""
    out = [CommutingTuple(W, (W.identity, W.identity))]
    elements = np.arange(W.size, dtype=np.int64)
    for _ in range(count):
        a = rng.randrange(W.size)
        cent = np.flatnonzero(W.mul_array(a, elements) == W.mul_array(elements, a))
        out.append(CommutingTuple(W, (a, rng.choice(cent.tolist()))))
    return out


def _d1_class_points(W):
    """Class representatives of W, thinned evenly to at most 80."""
    reps = [c.representative for c in tuple_conjugacy_classes(W, 1)]
    return reps[::-(-len(reps) // 80)]


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence


@_timed
def suite_oracle_equivalence(tol=1e-9, arities=(2, 3)):
    """Tensor-power trace oracle vs geometric power operation of characters."""
    worst = 0.0
    checks = 0
    for gname in ("C2", "C3", "S3", "Q8"):
        G = _group(gname)
        for rep in builtin_representations(G, max_dim=3):
            for n in arities:
                dev = compare_with_geometric(rep, n)
                worst = max(worst, dev)
                checks += 1
    return SuiteResult("oracle-equivalence", worst < tol, worst, checks=checks)


# ---------------------------------------------------------------------------
# criterion 2: consistency relations


def _relation_points(source, height, rng):
    if height == 1:
        return _d1_class_points(source)
    return sample_commuting_pairs(source, 6, rng)


def _compare_at(points, lhs, rhs):
    return max((graded_deviation(lhs.evaluate(t, 0), rhs.evaluate(t, 0))
                for t in points), default=0.0)


@_timed
def suite_consistency_relations(seed=0, tol=1e-9, n_funcs=20):
    """The three restriction relations of the power operations on C2 and
    S3 for (j, k) in (1, 1), (2, 1), (1, 2), (2, 2).

    Height 1 degree 0 must hold exactly (deviation 0.0); height 2 within
    tolerance at the published tau samples.
    """
    rng = random.Random(seed)
    P = power_operation
    jk_list = ((1, 1), (2, 1), (1, 2), (2, 2))
    worst = {1: 0.0, 2: 0.0}
    checks = 0
    for gname in ("C2", "S3"):
        G = _group(gname)
        homs = {}
        for (j, k) in jk_list:
            homs[(j, k)] = (
                wreath_block_inclusion(G, j, k),
                wreath_composition_inclusion(G, j, k) if (j, k) != (1, 1) else None,
                wreath_diagonal(G, G, k),
            )
        for height in (1, 2):
            make = (random_height1_function if height == 1
                    else random_height2_function)
            funcs = [(make(G, rng), make(G, rng)) for _ in range(n_funcs)]
            for (j, k) in jk_list:
                alpha, beta, delta = homs[(j, k)]
                pts_alpha = _relation_points(alpha.source, height, rng)
                pts_beta = (_relation_points(beta.source, height, rng)
                            if beta is not None else None)
                pts_delta = _relation_points(delta.source, height, rng)
                for f, g in funcs:
                    Pk = P(f, k)
                    # relation 1: alpha* P_{j+k}(f) = P_j(f) x P_k(f)
                    relations = [(pts_alpha, restrict_along(P(f, j + k), alpha),
                                  external_product(P(f, j), Pk))]
                    # relation 2: beta* P_{jk}(f) = P_j(P_k(f))
                    if beta is not None:
                        relations.append((pts_beta, restrict_along(P(f, j * k), beta),
                                          P(Pk, j)))
                    # relation 3: delta*(P_k(f) x P_k(g)) = P_k(f x g)
                    relations.append((pts_delta,
                                      restrict_along(external_product(Pk, P(g, k)), delta),
                                      P(external_product(f, g), k)))
                    for points, lhs, rhs in relations:
                        worst[height] = max(worst[height],
                                            _compare_at(points, lhs, rhs))
                        checks += 1
    return _graded_result("consistency-relations", worst, tol, checks)


# ---------------------------------------------------------------------------
# criterion 3: Adams coherence


@_timed
def suite_adams_coherence(seed=0, tol=1e-9, adams_impl=None, arities=(2, 3)):
    """adams_via_power must equal adams on C2, C4 and S3: exactly at height 1
    degree 0, within tolerance at height 2."""
    adams_impl = adams_impl or adams
    rng = random.Random(seed)
    worst = {1: 0.0, 2: 0.0}
    checks = 0
    for gname in ("C2", "C4", "S3"):
        G = _group(gname)
        f1 = random_height1_function(G, rng)
        f2 = random_height2_function(G, rng)
        for n in arities:
            via = adams_via_power(f1, n)
            ref = adams_impl(f1, n)
            for t in [c.representative for c in tuple_conjugacy_classes(G, 1)]:
                dev = graded_deviation(via.evaluate(t, 0), ref.evaluate(t, 0))
                worst[1] = max(worst[1], dev)
                checks += 1
            via = adams_via_power(f2, n)
            ref = adams_impl(f2, n)
            for t in commuting_tuples(G, 2):
                dev = graded_deviation(via.evaluate(t, 0), ref.evaluate(t, 0))
                worst[2] = max(worst[2], dev)
                checks += 1
    return _graded_result("adams-coherence", worst, tol, checks)


# ---------------------------------------------------------------------------
# criterion 4: Adams character formula


@_timed
def suite_adams_character(tol=1e-9, max_n=4):
    worst = 0.0
    checks = 0
    for gname in ("C2", "C3", "C4", "S3", "Q8"):
        G = _group(gname)
        for rep in builtin_representations(G):
            for n in range(1, max_n + 1):
                worst = max(worst, adams_character_check(rep, n))
                checks += 1
    return SuiteResult("adams-character", worst < tol, worst, checks=checks)


# ---------------------------------------------------------------------------
# criterion 5: fixed point bijection


@_timed
def suite_fixed_point_bijection(max_n=4, max_d=2):
    """OrbitReduction.transport verifies the two-sided inverse internally;
    this suite sweeps every commuting tuple of C2 wr Sigma_n over three
    spaces, reducing each tuple's checked elements once past the memo: its
    8,646 tuples would only push out the reductions other suites reuse."""
    C2 = _group("C2")
    spaces = [
        GSet.trivial(C2, 2),
        GSet(C2, 2, [[0, 1], [1, 0]]),
        GSet(C2, 3, [[0, 1], [1, 0], [2, 2]]),
    ]
    checks = 0
    for n in range(1, max_n + 1):
        W = wreath(C2, n)
        tuples = [CommutingTuple(W, (a,)) for a in range(W.size)]
        if max_d >= 2:
            tuples += commuting_tuples(W, 2)
        for H in tuples:
            red = _reduce(W, H.elements, None, None)
            for X in spaces:
                red.transport(X)   # raises on any mismatch
                checks += 1
    return SuiteResult("fixed-point-bijection", True, 0.0, checks=checks)


# ---------------------------------------------------------------------------
# criterion 6: SL2 invariance propagation


@_timed
def suite_sl2_invariance(seed=0, tol=1e-9, arities=(2, 3)):
    rng = random.Random(seed)
    worst = 0.0
    checks = 0
    for gname in ("C1", "C2"):
        G = _group(gname)
        f = random_height2_function(G, rng)
        rep = f.is_invariant(tol=tol)
        if not rep.ok:
            return SuiteResult("sl2-invariance", False, rep.max_deviation,
                               detail=f"{gname} input", checks=checks)
        for n in arities:
            Pn = power_operation(f, n).materialize()
            rep = Pn.is_invariant(tol=tol)
            worst = max(worst, rep.max_deviation)
            checks += rep.checked
            if not rep.ok:
                return SuiteResult("sl2-invariance", False, rep.max_deviation,
                                   detail=f"{gname} n={n}", checks=checks)
    return SuiteResult("sl2-invariance", worst < tol, worst, checks=checks)


# ---------------------------------------------------------------------------
# criterion 7: Hecke eigenvalues


@_timed
def suite_hecke(tol=1e-6):
    worst = 0.0
    checks = 0
    expected = {2: 9 / 8, 3: 28 / 27}
    for n, eig in expected.items():
        Sn = hecke_like(E4, n)
        ratios = [Sn.at_tau(t) / E4.at_tau(t) for t in DEFAULT_TAU_SAMPLES]
        for r in ratios:
            worst = worst_deviation(worst, abs(r - eig))
            checks += 1
        # independent q-expansion oracle for the normalization S_n = n^(1-w) T_n
        Tn = LatFunction.from_q_expansion(4, hecke_q_oracle(E4.q_coefficients(), 4, n))
        for t in DEFAULT_TAU_SAMPLES:
            worst = worst_deviation(worst, abs(Sn.at_tau(t) - n ** (1 - 4) * Tn.at_tau(t)))
            checks += 1
    return SuiteResult("hecke-eigencheck", worst < tol, worst, checks=checks)


# ---------------------------------------------------------------------------
# criterion 8: choice independence


@_timed
def suite_choice_independence(seed=0, tol=1e-9, runs=50):
    """Randomized basepoints (and bases at height 2) must not change the
    power operation's output on C2 and S3: exactly at height 1, within
    tolerance at height 2."""
    rng = random.Random(seed)
    worst = {1: 0.0, 2: 0.0}
    checks = 0
    for gname in ("C2", "S3"):
        G = _group(gname)
        # height 1
        f = random_height1_function(G, rng)
        W = wreath(G, 2)
        pts = [c.representative for c in tuple_conjugacy_classes(W, 1)]
        ref = power_operation(f, 2)
        ref_vals = [ref.evaluate(t, 0) for t in pts]
        for _ in range(runs):
            alt = power_operation(f, 2, basepoint_rng=random.Random(rng.randrange(10 ** 9)))
            for t, v in zip(pts, ref_vals):
                dev = graded_deviation(alt.evaluate(t, 0), v)
                worst[1] = max(worst[1], dev)
                checks += 1
        # height 2
        f2 = random_height2_function(G, rng)
        pairs = sample_commuting_pairs(W, 4, rng)
        ref = power_operation(f2, 2)
        ref_vals = [ref.evaluate(t, 0) for t in pairs]
        for _ in range(runs):
            twist_rng = random.Random(rng.randrange(10 ** 9))
            # small unimodular twists U . HNF: large entries drag the
            # q-expansion evaluation out of its accurate range
            alt = power_operation(
                f2, 2, basepoint_rng=random.Random(rng.randrange(10 ** 9)),
                basis=lambda L: mat_mul(random_unimodular(
                    2, twist_rng, steps=2, max_coeff=1), L.basis))
            for t, v in zip(pairs, ref_vals):
                dev = graded_deviation(alt.evaluate(t, 0), v)
                worst[2] = max(worst[2], dev)
                checks += 1
    return _graded_result("choice-independence", worst, tol, checks)


# ---------------------------------------------------------------------------
# criterion 9: E-theory agreement


def aut_invariant_height1_function(G, rng):
    """Random degree-0 function invariant under entry inversion (the
    automorphism action of GL_1(Z))."""
    reps = [cls.representative.elements for cls in tuple_conjugacy_classes(G, 1)]
    f = ClassFunction.from_values(G, 1, {
        (els, 0): GradedValue("complex", {0: complex(rng.randint(-3, 3),
                                                     rng.randint(-3, 3))})
        for els in reps})

    def canon_value(g):
        a = f.evaluate((g,), 0).components[0]
        b = f.evaluate((G.inv(g),), 0).components[0]
        return (a + b) / 2

    return ClassFunction.from_values(G, 1, {
        (els, 0): GradedValue("complex", {0: canon_value(els[0])}) for els in reps})


@_timed
def suite_etheory(seed=0, p=2, arities=(2, 4)):
    """Section independence of the pseudo-power operation, and agreement
    with the height-1 power operation, both exact on the p-power locus."""
    rng = random.Random(seed)
    worst = 0.0
    checks = 0
    for gname in ("C2", "C4", "Q8"):
        G = _group(gname)
        f = aut_invariant_height1_function(G, rng)
        for n in arities:
            Q1 = pseudo_power_etheory(f, n, p=p)
            Q2 = pseudo_power_etheory(f, n, p=p, basis=lambda L: mat_mul(((-1,),), L.basis))
            Pn = power_operation(f, n)
            W = Q1.group
            for cls in tuple_conjugacy_classes(W, 1):
                t = cls.representative
                if not all(_is_prime_power_order(W, e, p) for e in t.elements):
                    continue
                a = Q1.evaluate(t, 0).components[0]
                b = Q2.evaluate(t, 0).components[0]
                c = Pn.evaluate(t, 0).components[0]
                worst = worst_deviation(worst, abs(a - b), abs(a - c))
                checks += 1
    # d = 2 cross-check with an SL_2(Z) unit on a small group; the input is
    # a function of the generated subgroup, hence automorphism invariant
    C2 = _group("C2")
    vals = {}
    for t in commuting_tuples(C2, 2):
        sub = t.image_subgroup()
        vals[(t.elements, 0)] = GradedValue("complex", {0: float(len(sub))})
    f2 = ClassFunction.from_values(C2, 2, vals)
    Qs = [pseudo_power_etheory(f2, 2, p=p),
          pseudo_power_etheory(f2, 2, p=p, basis=lambda L: mat_mul(((1, 1), (0, 1)), L.basis))]
    W = Qs[0].group
    for t in commuting_tuples(W, 2):
        if not all(_is_prime_power_order(W, e, p) for e in t.elements):
            continue
        a = Qs[0].evaluate(t, 0).components[0]
        b = Qs[1].evaluate(t, 0).components[0]
        worst = worst_deviation(worst, abs(a - b))
        checks += 1
    passed = worst == 0.0
    return SuiteResult("etheory-agreement", passed, worst, checks=checks)


# ---------------------------------------------------------------------------
# criterion 10: count checks


def wreath_class_count(base_count, n, d):
    """Number of classes of commuting d-tuples in G wr Sigma_n, d in {1, 2}.

    The t^n coefficient of prod_m (1 - t^m)^(-s_d(m) c) with s_1 = 1,
    s_2 = sigma_1 and c = base_count, the number of classes of commuting
    d-tuples in G.
    """
    series = [1] + [0] * n
    for m in range(1, n + 1):
        a = base_count * (1 if d == 1 else
                          sum(k for k in range(1, m + 1) if m % k == 0))
        # (1 - t^m)^(-a) = sum_k C(a + k - 1, k) t^(mk)
        factor = [0] * (n + 1)
        for k in range(n // m + 1):
            factor[m * k] = math.comb(a + k - 1, k)
        series = [sum(series[i] * factor[j - i] for i in range(j + 1))
                  for j in range(n + 1)]
    return series[n]


@_timed
def suite_counts():
    """Class and sublattice counts against closed formulas.

    For G in {C2, C3, S3} and n <= 4, the class count of W = G wr Sigma_n
    must match `wreath_class_count`, fed by the BFS count on G, and the
    class sizes must sum to |W| at d = 1 and to |W| k(W) at d = 2
    (Burnside; k(W) the number of classes at d = 1), which checks the
    centralizer formula behind the sizes.
    """
    S3 = _group("S3")
    ok = len(tuple_conjugacy_classes(S3, 2)) == 8
    detail = []
    if not ok:
        detail.append("commuting-pair class count of S3 is wrong")
    for n in range(1, 7):
        sigma1 = sum(d for d in range(1, n + 1) if n % d == 0)
        if len(sublattices_of_index(2, n)) != sigma1:
            ok = False
            detail.append(f"sublattice count at index {n} is wrong")
    checks = 7
    for gname in ("C2", "C3", "S3"):
        G = _group(gname)
        base_counts = {d: len(tuple_conjugacy_classes(G, d)) for d in (1, 2)}
        for n in range(1, 5):
            W = wreath(G, n)
            by_d = {d: tuple_conjugacy_classes(W, d) for d in (1, 2)}
            for d, classes in by_d.items():
                if len(classes) != wreath_class_count(base_counts[d], n, d):
                    ok = False
                    detail.append(f"class count of {gname} wr {n} at d={d}")
                expected = W.size if d == 1 else W.size * len(by_d[1])
                if sum(c.size for c in classes) != expected:
                    ok = False
                    detail.append(f"class sizes of {gname} wr {n} at d={d}")
                checks += 2
    return SuiteResult("count-checks", ok, 0.0 if ok else 1.0,
                       detail="; ".join(detail), checks=checks)


# ---------------------------------------------------------------------------


ALL_SUITES = [
    ("oracle-equivalence", suite_oracle_equivalence),
    ("consistency-relations", suite_consistency_relations),
    ("adams-coherence", suite_adams_coherence),
    ("adams-character", suite_adams_character),
    ("fixed-point-bijection", suite_fixed_point_bijection),
    ("sl2-invariance", suite_sl2_invariance),
    ("hecke-eigencheck", suite_hecke),
    ("choice-independence", suite_choice_independence),
    ("etheory-agreement", suite_etheory),
    ("count-checks", suite_counts),
]


def run_all_suites(seed=0, mutate=None):
    """Run every suite, passing `seed` to each one whose signature takes it;
    `mutate` optionally injects a known bug (used to demonstrate that the
    checks can fail).  A GroupError or LatticeError raised inside a suite
    means a construction it checks broke: it is recorded as that suite's
    FAIL result, carrying the message, and the remaining suites still run."""
    results = []
    for name, suite in ALL_SUITES:
        kwargs = {"seed": seed} if "seed" in inspect.signature(suite).parameters else {}
        if name == "adams-coherence" and mutate == "adams-exponent":
            kwargs["adams_impl"] = buggy_adams_full_degree
        t0 = time.perf_counter()
        try:
            results.append(suite(**kwargs))
        except (GroupError, LatticeError) as exc:
            results.append(SuiteResult(
                name, False, math.inf, detail=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - t0))
    return results


def buggy_adams_full_degree(f, n):
    """Adams with the wrong scaling n^deg = n^(2j) instead of n^(deg/2);
    kept only so the verification suite can demonstrate a failure."""

    def rule(els, x):
        G = f.group
        return scale_by_degree(n * n, f._value(tuple(G.power(e, n) for e in els), x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space, kind=f.kind)
