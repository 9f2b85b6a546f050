import json
import random

import pytest

from charops.classfn import ClassFunction
from charops.coefficients import (
    DEFAULT_TAU_SAMPLES,
    GradedValue,
    eisenstein_series,
    graded_deviation,
)
from charops.groups import (
    CommutingTuple,
    GroupError,
    GSet,
    commuting_tuples,
    cyclic_group,
    symmetric_group,
    tuple_conjugacy_classes,
    wreath,
)
from charops.powerops import (
    adams,
    adams_via_power,
    cayley_torsion_tuple,
    hecke_like,
    hecke_q_oracle,
    power_operation,
    pseudo_power_etheory,
)
from charops.classfn import add, multiply, pair_orbits
from charops.lattices import LatticeError, mat_mul
from charops.orbits import reduce_tuple
from charops.verify import random_height1_function, random_height2_function
from references import check_weight_homogeneity, conj, eisenstein_e2

E4 = eisenstein_series(4, 400)
E6 = eisenstein_series(6, 400)


def c2_regular_character(C2=None):
    C2 = C2 or cyclic_group(2)
    return ClassFunction.from_values(
        C2, 1, {((0,), 0): GradedValue("complex", {0: 2.0}),
                ((1,), 0): GradedValue("complex", {0: 0.0})})


def test_power_of_one_is_one():
    S3 = symmetric_group(3)
    one = ClassFunction.constant(S3, 1, 1.0)
    for n in (0, 1, 2, 3):
        Pn = power_operation(one, n)
        W = Pn.group
        for cls in tuple_conjugacy_classes(W, 1):
            assert Pn.evaluate(cls.representative, 0).components[0] == 1.0


def test_power_c2_regular_worked_example():
    f = c2_regular_character()
    P2 = power_operation(f, 2)
    W = P2.group
    swap = (1, 0)
    ident = (0, 1)
    val = lambda b, s: P2.evaluate(
        CommutingTuple(W, (W.encode(b, s),)), 0).components[0]
    assert val((0, 0), swap) == 2.0   # f(e)
    assert val((1, 0), swap) == 0.0   # f(a)
    assert val((0, 0), ident) == 4.0  # f(e)^2


@pytest.mark.parametrize("n,orbits", [(2, 9), (3, 22)])
def test_power_is_multiplicative_on_one_g_set(n, orbits):
    """Two power operations of functions on one G-set land on one space, so
    P_n(f g) = P_n(f) P_n(g) holds exactly at every pair orbit, and their sum
    evaluates."""
    C2 = cyclic_group(2)
    X = GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])
    rng = random.Random(n)
    f, g = [ClassFunction.from_values(C2, 1, {
        o[0]: GradedValue("complex", {0: complex(rng.randint(-3, 3), rng.randint(-3, 3)),
                                      2: complex(rng.randint(-3, 3), rng.randint(-3, 3))})
        for o in pair_orbits(C2, 1, X)}, space=X) for _ in range(2)]
    lhs = power_operation(multiply(f, g), n)
    rhs = multiply(power_operation(f, n), power_operation(g, n))
    total = add(power_operation(f, n), power_operation(g, n))
    keys = [o[0] for o in pair_orbits(lhs.group, 1, lhs.space)]
    assert len(keys) == orbits
    for key in keys:
        assert graded_deviation(lhs.evaluate(*key), rhs.evaluate(*key)) == 0.0
        assert total.evaluate(*key).kind == "complex"


def test_power_at_n0_is_constant_one():
    f = c2_regular_character()
    P0 = power_operation(f, 0)
    W = P0.group
    assert W.size == 1
    assert P0.evaluate(CommutingTuple(W, (W.identity,)), 0).components[0] == 1.0


def test_power_warns_on_non_invariant_input():
    """A non-modular coefficient slot (the quasimodular E2) breaks
    basis-change invariance; the power operation must warn and then proceed
    (canonical storage makes plain conjugation invariance automatic, so
    only the elliptic side can fail)."""
    import warnings as w
    C1 = cyclic_group(1)
    bad = ClassFunction.from_values(
        C1, 2, {((0, 0), 0): GradedValue("lat", {2: eisenstein_e2()})},
        kind="lat")
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        power_operation(bad, 2, mode="lazy")
    assert [c for c in caught if "non-invariant" in str(c.message)]


def test_input_invariance_report_is_computed_once_per_stored_input(monkeypatch):
    """The default report of a stored input is kept on it: later power
    operations on the same input reuse it and still warn, a second input
    gets its own report and warning, and other samples or tolerances are
    checked afresh."""
    import warnings as w
    from charops import classfn
    C1 = cyclic_group(1)

    def non_invariant():
        return ClassFunction.from_values(
            C1, 2, {((0, 0), 0): GradedValue("lat", {2: eisenstein_e2()})},
            kind="lat")

    checks = []
    report = classfn.ClassFunction._invariance_report
    monkeypatch.setattr(classfn.ClassFunction, "_invariance_report",
                        lambda self, *args: checks.append(self) or report(self, *args))
    first, second = non_invariant(), non_invariant()
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        for f in (first, first, second, first):
            power_operation(f, 2, mode="lazy")
    assert checks == [first, second]
    assert len([c for c in caught if "non-invariant" in str(c.message)]) == 4
    assert first.is_invariant() is first.is_invariant()
    assert not first.is_invariant(tol=1e-3).ok
    assert first.is_invariant(tau_samples=(1j,)) is not first.is_invariant()
    assert checks[2:] == [first, first]


def test_stored_inputs_of_any_size_are_checked():
    """The invariance check of a stored input has no size limit: an E2 slot
    on the 84 commuting-pair classes of C2 wr 3 draws the warning."""
    import warnings as w
    W = wreath(cyclic_group(2), 3)
    classes = tuple_conjugacy_classes(W, 2)
    bad = ClassFunction.from_values(
        W, 2, {(c.representative.elements, 0): GradedValue("lat", {2: eisenstein_e2()})
               for c in classes}, kind="lat")
    assert len(bad.values) == len(classes) == 84
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        power_operation(bad, 2)
    assert [c for c in caught if "non-invariant" in str(c.message)]


def test_memoized_reduction_hit_checks_the_key_once(monkeypatch):
    """At a d = 2 key whose reduction is already memoized, evaluation checks
    the key once, where `ClassFunction.evaluate` takes it in: one
    commutation test per pair of entries, and no second CommutingTuple."""
    from charops.groups import WreathGroup
    W = wreath(cyclic_group(2), 2)
    keys = [H.elements for H in commuting_tuples(W, 2)]
    for els in keys:
        reduce_tuple(CommutingTuple(W, els))
    f = ClassFunction.constant(cyclic_group(2), 2, 2.0)
    P = power_operation(f, 2, mode="lazy")
    calls = []
    commutes = WreathGroup.commutes
    monkeypatch.setattr(WreathGroup, "commutes",
                        lambda self, a, b: calls.append((a, b)) or commutes(self, a, b))
    for els in keys:
        P.evaluate(els, 0)
    assert calls == keys


def test_commuting_tuple_keys_are_not_checked_again(monkeypatch):
    """Warm evaluation of a rule-backed power operation at the 40 commuting
    pairs of C2 wr 2, given as CommutingTuples, tests no commutation: each
    tuple was checked when it was built."""
    from charops.groups import WreathGroup
    W = wreath(cyclic_group(2), 2)
    tuples = commuting_tuples(W, 2)
    assert len(tuples) == 40
    P = power_operation(ClassFunction.constant(cyclic_group(2), 2, 2.0), 2)
    warm = [P.evaluate(H, 0) for H in tuples]
    calls = []
    commutes = WreathGroup.commutes
    monkeypatch.setattr(WreathGroup, "commutes",
                        lambda self, a, b: calls.append((a, b)) or commutes(self, a, b))
    assert [P.evaluate(H, 0) for H in tuples] == warm
    assert calls == []


def test_reduction_miss_builds_no_tuple_over_the_wreath(monkeypatch):
    """A plain-reduction miss reached through `power_operation` reduces the
    checked elements: it builds CommutingTuples over the base group only."""
    from charops import orbits
    C2 = cyclic_group(2)
    W = wreath(C2, 3)
    tuples = commuting_tuples(W, 2)
    P = power_operation(ClassFunction.constant(C2, 2, 2.0), 3)
    orbits._plain_reduction.cache_clear()
    built = []
    post_init = CommutingTuple.__post_init__
    monkeypatch.setattr(CommutingTuple, "__post_init__",
                        lambda self: built.append(self.group) or post_init(self))
    for H in tuples:
        P.evaluate(H, 0)
    assert orbits._plain_reduction.cache_info().misses == len(tuples)
    assert built and set(built) == {C2}


@pytest.mark.parametrize("G,n", [(symmetric_group(3), 2), (cyclic_group(2), 3)],
                         ids=["S3 wr 2", "C2 wr 3"])
def test_default_and_eager_power_operations_agree_exactly(G, n):
    """The default (rule-backed) output and its materialization agree
    exactly on every class for Gaussian-integer degree-0 inputs, whose
    products are exact in floating point."""
    from charops.verify import random_height1_function
    f = random_height1_function(G, random.Random(6))
    lazy, eager = power_operation(f, n), power_operation(f, n, mode="eager")
    assert lazy.values is None and eager.values is not None
    for cls in tuple_conjugacy_classes(lazy.group, 1):
        t = cls.representative
        assert lazy.evaluate(t, 0).components == eager.evaluate(t, 0).components
    with pytest.raises(ValueError, match="lazy"):
        power_operation(f, n, mode="auto")


def test_slash_preserves_weight_homogeneity():
    F = E4.slash(((2, 1), (0, 3)))
    assert F.weight == 4
    assert check_weight_homogeneity(F, random.Random(3)) < 1e-9


def test_power_is_identity_at_n1():
    f = c2_regular_character()
    P1 = power_operation(f, 1)
    W = P1.group
    for g in range(2):
        v = P1.evaluate(CommutingTuple(W, (W.encode((g,), (0,)),)), 0)
        assert graded_deviation(v, f.evaluate(CommutingTuple(f.group, (g,)), 0)) == 0.0


def test_power_height2_trivial_group_example():
    """Slot-4 E4 under P_2 at the tuple whose kernel is [[2,0],[0,1]]."""
    C1 = cyclic_group(1)
    f = ClassFunction.from_values(
        C1, 2, {((0, 0), 0): GradedValue("lat", {4: E4})},
        kind="lat")
    P2 = power_operation(f, 2, mode="eager")
    W = P2.group
    swap_el = W.encode((0, 0), (1, 0))
    id_el = W.identity
    H = CommutingTuple(W, (swap_el, id_el))
    v = P2.evaluate(H, 0)
    assert v.degrees == [4]
    # det^('deg/2') * M* with det = 2 on weight 4: 2^4 * 2^-4 * f(tau/2) = f(tau/2)
    for tau in DEFAULT_TAU_SAMPLES:
        lhs = v.components[4].at_tau(tau)
        rhs = E4.at_tau(tau / 2) * 2 ** 4 * (2) ** (-4)
        assert abs(lhs - rhs) < 1e-9


def test_power_lazy_scales_to_large_wreath():
    """Pointwise evaluation works far beyond any materializable group."""
    from charops.verify import random_height1_function
    C2 = cyclic_group(2)
    f = random_height1_function(C2, random.Random(0))
    P9 = power_operation(f, 9, mode="lazy")
    W = P9.group
    assert W.size == 2 ** 9 * 362880
    nine_cycle = tuple(range(1, 9)) + (0,)
    w = W.encode((1,) * 9, nine_cycle)
    v = P9.evaluate(CommutingTuple(W, (w,)), 0)
    # single orbit of size 9; the cycle product is a^9 = a
    assert v.components[0] == f.evaluate(CommutingTuple(C2, (1,)), 0).components[0]


def test_power_height1_graded_scaling():
    """The orbit of size m scales the degree-2j component by m^j."""
    C2 = cyclic_group(2)
    f = ClassFunction.from_values(
        C2, 1, {((0,), 0): GradedValue("complex", {0: 2.0, 1: 5.0}),
                ((1,), 0): GradedValue("complex", {0: 0.0, 1: 3.0})})
    P2 = power_operation(f, 2)
    W = P2.group
    # single orbit of size 2 through the swap, reduced element e
    v = P2.evaluate(CommutingTuple(W, (W.encode((0, 0), (1, 0)),)), 0)
    assert v.components[0] == 2.0
    assert v.components[1] == 2.0 * 5.0          # 2^1 * f(e)_1
    # two singleton orbits: the graded square of f(e)
    v = P2.evaluate(CommutingTuple(W, (W.identity,)), 0)
    assert v.components[0] == 4.0
    assert v.components[1] == 2 * 2.0 * 5.0      # cross terms 2 * f0 * f1
    assert v.components[2] == 25.0
    # swap with base (a, e): reduced element a, scaled by 2^j
    v = P2.evaluate(CommutingTuple(W, (W.encode((1, 0), (1, 0)),)), 0)
    assert v.components[0] == 0.0
    assert v.components[1] == 2.0 * 3.0


def test_power_not_additive_witness():
    f = c2_regular_character()
    g = c2_regular_character(f.group)
    s = add(f, g)
    P2sum = power_operation(s, 2)
    P2f = power_operation(f, 2)
    W = P2f.group
    H = CommutingTuple(W, (W.identity,))
    lhs = P2sum.evaluate(H, 0).components[0]
    rhs = P2f.evaluate(H, 0).components[0] + P2f.evaluate(H, 0).components[0]
    assert lhs == 16.0 and rhs == 8.0
    assert lhs != rhs


# --- Adams ------------------------------------------------------------------


def test_adams_identity_at_n1():
    f = c2_regular_character()
    psi = adams(f, 1)
    for g in range(2):
        t = CommutingTuple(f.group, (g,))
        assert graded_deviation(psi.evaluate(t, 0), f.evaluate(t, 0)) == 0.0


def test_adams_c4_character():
    C4 = cyclic_group(4)
    vals = {((k,), 0): GradedValue("complex", {0: 1j ** k}) for k in range(4)}
    f = ClassFunction.from_values(C4, 1, vals)
    psi2 = adams(f, 2)
    v = psi2.evaluate(CommutingTuple(C4, (1,)), 0)
    assert abs(v.components[0] - (-1.0)) < 1e-12


def test_adams_degree0_height2_no_scaling():
    C2 = cyclic_group(2)
    vals = {}
    for t in commuting_tuples(C2, 2):
        vals[(t.elements, 0)] = GradedValue(
            "lat", {0: __import__("charops.coefficients", fromlist=["LatFunction"])
                    .LatFunction.constant(float(sum(t.elements)))})
    f = ClassFunction.from_values(C2, 2, vals, kind="lat")
    psi = adams(f, 3)
    for t in commuting_tuples(C2, 2):
        lhs = psi.evaluate(t, 0).component(0).at_tau(1j)
        rhs = f.evaluate(tuple(C2.power(e, 3) for e in t.elements), 0).component(0).at_tau(1j)
        assert lhs == rhs


def test_adams_composition_degree0():
    S3 = symmetric_group(3)
    rng = random.Random(3)
    vals = {}
    for cls in tuple_conjugacy_classes(S3, 1):
        vals[(cls.representative.elements, 0)] = GradedValue(
            "complex", {0: complex(rng.randint(-3, 3), rng.randint(-3, 3))})
    f = ClassFunction.from_values(S3, 1, vals)
    lhs = adams(adams(f, 2), 3)
    rhs = adams(f, 6)
    for t in commuting_tuples(S3, 1):
        assert graded_deviation(lhs.evaluate(t, 0), rhs.evaluate(t, 0)) == 0.0


def test_cayley_torsion_tuple_shape():
    C2 = cyclic_group(2)
    h = CommutingTuple(C2, (1,))
    tau = cayley_torsion_tuple(h, 2)
    W = tau.group
    assert W.n == 2
    bases, perm = W.decode(tau.elements[0])
    assert bases == (1, 1) and perm == (1, 0)

    h2 = CommutingTuple(C2, (1, 0))
    tau2 = cayley_torsion_tuple(h2, 2)
    assert tau2.group.n == 4
    b0, p0 = tau2.group.decode(tau2.elements[0])
    assert b0 == (1, 1, 1, 1)
    assert p0 == (1, 0, 3, 2)  # translation by e1 on Z^2 / 2Z^2


def test_adams_via_power_d1_exhaustive():
    S3 = symmetric_group(3)
    rng = random.Random(5)
    vals = {}
    for cls in tuple_conjugacy_classes(S3, 1):
        vals[(cls.representative.elements, 0)] = GradedValue(
            "complex", {0: complex(rng.randint(-3, 3), rng.randint(-3, 3))})
    f = ClassFunction.from_values(S3, 1, vals)
    for n in (2, 3):
        via = adams_via_power(f, n)
        direct = adams(f, n)
        for t in commuting_tuples(S3, 1):
            a = via.evaluate(t, 0)
            b = direct.evaluate(t, 0)
            assert graded_deviation(a, b) == 0.0


def test_adams_via_power_d2_height2():
    C2 = cyclic_group(2)
    vals = {}
    for t in commuting_tuples(C2, 2):
        c = 1.0 + t.elements[0] + 2 * t.elements[1]
        vals[(t.elements, 0)] = GradedValue("lat", {4: E4.scale(c)})
    f = ClassFunction.from_values(C2, 2, vals, kind="lat")
    for n in (2, 3):
        via = adams_via_power(f, n)
        direct = adams(f, n)
        for t in commuting_tuples(C2, 2):
            dev = graded_deviation(via.evaluate(t, 0), direct.evaluate(t, 0))
            assert dev < 1e-9


def test_adams_preserves_elliptic_invariance():
    from charops.verify import random_height2_function
    C2 = cyclic_group(2)
    f = random_height2_function(C2, random.Random(3))
    for n in (2, 3):
        rep = adams(f, n).is_invariant()
        assert rep.ok and rep.max_deviation < 1e-9


def test_adams_via_power_budget():
    C2 = cyclic_group(2)
    f = ClassFunction.constant(C2, 2, 1.0, kind="lat")
    with pytest.raises(GroupError):
        adams_via_power(f, 4)  # 4^2 = 16 > 9


# --- pseudo power operation ---------------------------------------------------


def test_pseudo_power_matches_height1():
    f = c2_regular_character()
    P2 = power_operation(f, 2)
    Q2 = pseudo_power_etheory(f, 2, p=2)
    W = P2.group
    for cls in tuple_conjugacy_classes(W, 1):
        a = P2.evaluate(cls.representative, 0).components[0]
        b = Q2.evaluate(cls.representative, 0).components[0]
        assert a == b


def test_pseudo_power_takes_functions_on_the_point():
    C2 = cyclic_group(2)
    swap = GSet(C2, 2, [[0, 1], [1, 0]])
    with pytest.raises(GroupError, match="on the point"):
        pseudo_power_etheory(ClassFunction.constant(C2, 1, 1.0, space=swap), 2, p=2)


@pytest.mark.parametrize("f", [
    lambda: random_height1_function(cyclic_group(2), random.Random(1), degrees=(0, 2)),
    lambda: random_height2_function(cyclic_group(2), random.Random(1))],
    ids=["height 1 degree 2", "height 2"])
def test_pseudo_power_refuses_positive_degrees(f):
    """The operation is defined on degree-0 functions; a stored input with a
    component in positive degree is refused at construction."""
    with pytest.raises(GroupError, match="degree-0 functions"):
        pseudo_power_etheory(f(), 2, p=2)


@pytest.mark.parametrize("p", [-2, 0, 1, 4])
def test_pseudo_power_refuses_a_p_that_is_not_prime(p):
    """The refusal comes at construction, before any value is evaluated."""
    with pytest.raises(GroupError, match="needs a prime p"):
        pseudo_power_etheory(c2_regular_character(), 2, p=p)


def test_pseudo_power_of_one():
    C4 = cyclic_group(4)
    one = ClassFunction.constant(C4, 1, 1.0)
    Q = pseudo_power_etheory(one, 2, p=2)
    W = Q.group
    for cls in tuple_conjugacy_classes(W, 1):
        assert Q.evaluate(cls.representative, 0).components[0] == 1.0


def test_pseudo_power_section_independence():
    C4 = cyclic_group(4)
    # automorphism-invariant: f(g) = f(g^-1)
    vals = {}
    rng = random.Random(7)
    raw = {g: complex(rng.randint(-3, 3), rng.randint(-3, 3)) for g in range(4)}
    for g in range(4):
        sym = (raw[g] + raw[C4.inv(g)]) / 2
        vals[((g,), 0)] = GradedValue("complex", {0: sym})
    f = ClassFunction.from_values(C4, 1, vals)
    for n in (2, 4):
        Q1 = pseudo_power_etheory(f, n, p=2)
        # rows negated: same span
        Q2 = pseudo_power_etheory(f, n, p=2, basis=lambda L: mat_mul(((-1,),), L.basis))
        W = Q1.group
        for cls in tuple_conjugacy_classes(W, 1):
            els = cls.representative.elements
            if not all(_pow2_order(W, e) for e in els):
                continue
            a = Q1.evaluate(cls.representative, 0).components[0]
            b = Q2.evaluate(cls.representative, 0).components[0]
            assert a == b


def _pow2_order(W, e):
    k = W.order(e)
    while k % 2 == 0:
        k //= 2
    return k == 1


def test_pseudo_power_rejects_a_section_off_the_stabilizer():
    """A section whose rows span another lattice than the stabilizer raises
    GroupError, at d = 1 (rows Z instead of 2Z) and at d = 2."""
    from charops.lattices import mat_identity
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    swap = W.encode((0, 0), (1, 0))
    for d, els in ((1, (swap,)), (2, (swap, W.identity))):
        Q = pseudo_power_etheory(ClassFunction.constant(C2, d, 1.0), 2, p=2,
                                 basis=lambda L: mat_identity(L.d))
        with pytest.raises(GroupError):
            Q.evaluate(CommutingTuple(W, els), 0)
        # on a tuple whose orbits all have stabilizer Z^d the section is fine
        assert Q.evaluate(CommutingTuple(W, (W.identity,) * d), 0).components[0] == 1.0


def test_pseudo_power_rejects_bad_order():
    S3 = symmetric_group(3)
    one = ClassFunction.constant(S3, 1, 1.0)
    Q = pseudo_power_etheory(one, 2, p=2)
    W = Q.group
    three_cycle = S3.perms.index((1, 2, 0))
    bad = CommutingTuple(W, (W.encode((three_cycle, 0), (0, 1)),))
    with pytest.raises(GroupError):
        Q.evaluate(bad, 0)


def test_power_invariance_bigger_groups_height2():
    """Invariance propagation for C3 and S3 at height 2, sampled (the
    acceptance criterion covers the trivial group and C2 exhaustively)."""
    from charops.verify import random_height2_function, sample_commuting_pairs
    from charops.groups import cyclic_group as cg
    for G in (cg(3), symmetric_group(3)):
        f = random_height2_function(G, random.Random(G.size))
        for n in (2, 3):
            Pn = power_operation(f, n, mode="lazy")
            W = Pn.group
            pairs = sample_commuting_pairs(W, 5, random.Random(n))
            rep = Pn.is_invariant(sample_pairs=[(t.elements, 0) for t in pairs])
            assert rep.ok and rep.max_deviation < 1e-9


def test_power_invariance_height1_exact():
    """Height-1 conjugation invariance of outputs is exact, S3, n <= 3."""
    from charops.verify import random_height1_function
    S3 = symmetric_group(3)
    f = random_height1_function(S3, random.Random(5))
    for n in (2, 3):
        Pn = power_operation(f, n, mode="lazy")
        W = Pn.group
        rng = random.Random(n)
        for _ in range(40):
            w = rng.randrange(W.size)
            z = rng.randrange(W.size)
            a = Pn.evaluate(CommutingTuple(W, (w,)), 0)
            b = Pn.evaluate(CommutingTuple(W, (conj(W, z, w),)), 0)
            assert graded_deviation(a, b) == 0.0


def test_power_over_nontrivial_space():
    """P_2 over a two-point swap space, against hand-computed values."""
    from charops.groups import GSet
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    # only the identity fixes points of X; conjugation by a swaps the two
    # points, so (e,0) and (e,1) are one orbit and may not differ in value
    with pytest.raises(GroupError, match="orbit of .* carry different values"):
        ClassFunction.from_values(
            C2, 1,
            {((0,), 0): GradedValue("complex", {0: 5.0}),
             ((0,), 1): GradedValue("complex", {0: 7.0})},
            space=X)
    # equal values on two keys of the orbit give the invariant input
    f = ClassFunction.from_values(
        C2, 1,
        {((0,), 0): GradedValue("complex", {0: 5.0}),
         ((0,), 1): GradedValue("complex", {0: 5.0})},
        space=X)
    assert f.is_invariant().ok
    v0 = f.evaluate(CommutingTuple(C2, (0,)), 0).components[0]
    v1 = f.evaluate(CommutingTuple(C2, (0,)), 1).components[0]
    assert v0 == v1 == 5.0

    P2 = power_operation(f, 2, mode="eager")
    W = P2.group
    PX = P2.space
    # H = ((a,a), swap) fixes the point (0,1): coordinates swap and flip
    H = CommutingTuple(W, (W.encode((1, 1), (1, 0)),))
    code = PX.encode_point((0, 1))
    # single orbit {0,1}, reduced element a*a = e, basepoint coordinate x_0 = 0
    expected = f.evaluate(CommutingTuple(C2, (0,)), 0).components[0]
    assert P2.evaluate(H, code).components[0] == expected
    # H = identity, point (1,0): two singleton orbits, product of the values
    H = CommutingTuple(W, (W.identity,))
    code = PX.encode_point((1, 0))
    lhs = P2.evaluate(H, code).components[0]
    assert lhs == v1 * v0


def test_restrict_with_space_map():
    from charops.groups import GroupHomomorphism, GSet
    from charops.classfn import restrict_along
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    f = ClassFunction.from_values(
        C2, 1, {((0,), 0): GradedValue("complex", {0: 3.0})}, space=X)
    ident = GroupHomomorphism(C2, C2, C2.generators())
    g = restrict_along(f, ident, space_map=(X, lambda x: x))
    assert g.evaluate(CommutingTuple(C2, (0,)), 1).components[0] == 3.0
    # a non-equivariant map must be rejected
    Y = GSet.trivial(C2, 2)
    with pytest.raises(GroupError):
        restrict_along(f, ident, space_map=(Y, lambda x: 0 if x else 1))
    # a map that is wrong at two of 384 points: the regular C2 wr Sigma_4-set
    # with points 2 and 3 swapped
    W = wreath(C2, 4)
    R = GSet(W, W.size, [[W.mul(g, x) for g in range(W.size)] for x in range(W.size)])
    h = ClassFunction.constant(W, 1, 1.0, space=R)
    swap = {2: 3, 3: 2}
    with pytest.raises(GroupError):
        restrict_along(h, GroupHomomorphism(W, W, W.generators()),
                       space_map=(R, lambda x: swap.get(x, x)))


def test_class_function_json_roundtrip():
    from charops.classfn import ClassFunction as CF
    C2 = cyclic_group(2)
    vals = {}
    for t in commuting_tuples(C2, 2):
        vals[(t.elements, 0)] = GradedValue("lat", {4: E4.scale(sum(t.elements))})
    f = CF.from_values(C2, 2, vals, kind="lat")
    back = CF.from_json(C2, f.to_json())
    for t in commuting_tuples(C2, 2):
        assert graded_deviation(f.evaluate(t, 0), back.evaluate(t, 0)) < 1e-9
    # every height-2 output serializes exactly: sums of products of slashed
    # q-expansions, with each kernel written once
    from charops.verify import random_height2_function
    P2 = power_operation(random_height2_function(C2, random.Random(4)), 2)
    data = json.loads(json.dumps(P2.to_json()))
    assert len(data["kernels"]) == 2                # E4 and E6
    assert CF.from_json(wreath(C2, 2), data).to_json() == data


def test_relation3_k3_small():
    """delta* (P_3(f) x P_3(g)) = P_3(f x g) over C2, beyond the acceptance
    range (k = 3)."""
    from charops.classfn import external_product, restrict_along, wreath_diagonal
    from charops.verify import random_height1_function
    C2 = cyclic_group(2)
    rng = random.Random(17)
    f = random_height1_function(C2, rng)
    g = random_height1_function(C2, rng)
    delta = wreath_diagonal(C2, C2, 3)
    lhs = restrict_along(
        external_product(power_operation(f, 3, mode="lazy"),
                         power_operation(g, 3, mode="lazy")), delta)
    rhs = power_operation(external_product(f, g), 3, mode="lazy")
    S = delta.source
    for cls in tuple_conjugacy_classes(S, 1):
        t = cls.representative
        assert graded_deviation(lhs.evaluate(t, 0), rhs.evaluate(t, 0)) == 0.0


# --- Hecke-type operator ----------------------------------------------------------


def test_hecke_s1_identity():
    S1 = hecke_like(E4, 1)
    for tau in DEFAULT_TAU_SAMPLES:
        assert abs(S1.at_tau(tau) - E4.at_tau(tau)) < 1e-12


def test_hecke_eigenvalue_s2():
    S2 = hecke_like(E4, 2)
    for tau in DEFAULT_TAU_SAMPLES:
        ratio = S2.at_tau(tau) / E4.at_tau(tau)
        assert abs(ratio - 9 / 8) < 1e-6


def test_hecke_eigenvalue_s3():
    S3op = hecke_like(E4, 3)
    ratios = [S3op.at_tau(t) / E4.at_tau(t) for t in DEFAULT_TAU_SAMPLES]
    for r in ratios:
        assert abs(r - ratios[0]) < 1e-6
    assert abs(ratios[0] - 28 / 27) < 1e-6


def test_hecke_eigenvalue_e6():
    # T_2 eigenvalue on E6 is sigma_5(2) = 33, so S_2 gives 33 * 2^-5.
    # E6 vanishes at tau = i (square lattice), so test away from that zero.
    S2 = hecke_like(E6, 2)
    for tau in (2j, 0.5 + 1j, 0.25 + 2j):
        ratio = S2.at_tau(tau) / E6.at_tau(tau)
        assert abs(ratio - 33 / 32) < 1e-6


def test_hecke_matches_q_expansion_oracle():
    """S_n agrees with n^(1-w) T_n, T_n computed purely on q-coefficients."""
    from charops.coefficients import LatFunction
    for n in (2, 3):
        coeffs = hecke_q_oracle(E4.q_coefficients(), 4, n)
        Tn = LatFunction.from_q_expansion(4, coeffs)
        Sn = hecke_like(E4, n)
        scale = n ** (1 - 4)
        for tau in DEFAULT_TAU_SAMPLES:
            assert abs(Sn.at_tau(tau) - scale * Tn.at_tau(tau)) < 1e-6


@pytest.mark.parametrize("n", [2520, 10 ** 6])
def test_hecke_refuses_more_sublattices_than_terms_before_enumerating(monkeypatch, n):
    """sigma_1(2520) = 9360 and sigma_1(10**6) = 2480437 both pass the
    4096-term bound; neither index is enumerated."""
    import charops.powerops as powerops

    def enumerate_sublattices(d, n):
        raise AssertionError("the sublattices were enumerated")

    monkeypatch.setattr(powerops, "sublattices_of_index", enumerate_sublattices)
    with pytest.raises(LatticeError, match="more than 4096 terms"):
        hecke_like(E4, n)


def _is_transitive(W, els):
    """True when the permutation parts of the entries generate a transitive
    group on the n points, read off W.decode alone."""
    perms = [W.decode(a)[1] for a in els]
    seen, frontier = {0}, [0]
    while frontier:
        p = frontier.pop()
        for s in perms:
            if s[p] not in seen:
                seen.add(s[p])
                frontier.append(s[p])
    return len(seen) == W.n


@pytest.mark.parametrize("weight", [4, 6])
def test_power_operation_sums_to_hecke_operator_over_transitive_pairs(weight):
    """On the trivial group, the weight-w part of P_n(F) summed over the
    classes of transitive commuting pairs of Sigma_n is n^w S_n(F) = n T_n(F)
    (Ganter, arXiv:0706.2898): each index-n sublattice is the stabilizer of
    exactly one such class.  The classes come from the BFS oracle and the
    Hecke side from hecke_like and the q-expansion oracle."""
    from charops.coefficients import LatFunction
    from charops.groups import tuple_conjugacy_classes_bfs
    F = E4 if weight == 4 else E6
    C1 = cyclic_group(1)
    f = ClassFunction.from_values(C1, 2, {((0, 0), 0): GradedValue("lat", {weight: F})},
                                  kind="lat")
    for n in range(2, 6):
        W = wreath(C1, n)
        P = power_operation(f, n)
        transitive = [c.representative for c in tuple_conjugacy_classes_bfs(W, 2)
                      if _is_transitive(W, c.representative.elements)]
        assert len(transitive) == sum(d for d in range(1, n + 1) if n % d == 0)
        total = [sum(vals) for vals in zip(*(P.evaluate(t, 0).component(weight).values()
                                              for t in transitive))]
        Tn = LatFunction.from_q_expansion(weight, hecke_q_oracle(F.q_coefficients(), weight, n))
        for expected in ([n ** weight * s for s in hecke_like(F, n).values()],
                         [n * t for t in Tn.values()]):
            for a, b in zip(total, expected):
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1)
