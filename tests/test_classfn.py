import random

import pytest

from charops.classfn import (
    ClassFunction,
    InvarianceViolation,
    add,
    external_product,
    multiply,
    pair_orbits,
    restrict_along,
    wreath_block_inclusion,
    wreath_composition_inclusion,
    wreath_diagonal,
)
from charops.coefficients import (
    GradedValue,
    eisenstein_series,
    graded_deviation,
    weight_slash_graded,
)
from charops.powerops import adams, power_operation
from charops.reporacle import character, regular_representation
from charops.verify import random_height2_function
from charops.groups import (
    SL2_S,
    SL2_T,
    CommutingTuple,
    DirectProductGroup,
    GroupError,
    GroupHomomorphism,
    GSet,
    commuting_tuples,
    cyclic_group,
    symmetric_group,
    tuple_conjugacy_classes,
    wreath,
)

from references import conj, eisenstein_e2, gl_act_on_tuple

E4 = eisenstein_series(4, 400)


def regular_values(G):
    vals = {}
    for cls in tuple_conjugacy_classes(G, 1):
        g = cls.representative.elements[0]
        vals[(cls.representative.elements, 0)] = GradedValue(
            "complex", {0: float(G.size) if g == G.identity else 0.0})
    return vals


def test_constant_function():
    S3 = symmetric_group(3)
    one = ClassFunction.constant(S3, 1, 1.0)
    for t in commuting_tuples(S3, 1):
        v = one.evaluate(t, 0)
        assert v.components[0] == 1.0


def test_lookup_and_canonicalization():
    C2 = cyclic_group(2)
    f = ClassFunction.from_values(C2, 1, {((0,), 0): GradedValue("complex", {0: 2.0}),
                                          ((1,), 0): GradedValue("complex", {0: 0.0})})
    assert f.evaluate(CommutingTuple(C2, (1,)), 0).components[0] == 0.0

    S3 = symmetric_group(3)
    vals = regular_values(S3)
    g = ClassFunction.from_values(S3, 1, vals)
    rng = random.Random(0)
    for _ in range(50):
        z = rng.randrange(6)
        h = rng.randrange(6)
        a = g.evaluate(CommutingTuple(S3, (conj(S3, z, h),)), 0)
        b = g.evaluate(CommutingTuple(S3, (h,)), 0)
        assert graded_deviation(a, b) == 0.0


def test_evaluate_rejects_unfixed_point():
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    f = ClassFunction.from_rule(C2, 1, lambda els, x: GradedValue.unit(), space=X)
    with pytest.raises(GroupError):
        f.evaluate(CommutingTuple(C2, (1,)), 0)
    # identity fixes everything
    f.evaluate(CommutingTuple(C2, (0,)), 1)


def test_missing_orbit_warns_and_defaults_zero():
    S3 = symmetric_group(3)
    f = ClassFunction.from_values(
        S3, 1, {((0,), 0): GradedValue("complex", {0: 1.0})})
    with pytest.warns(UserWarning):
        v = f.evaluate(CommutingTuple(S3, (3,)), 0)
    assert v.components == {}


def test_stored_read_at_an_unfixed_point_raises():
    """`_value`, which rules call without checking their keys, refuses a
    point the tuple does not fix and leaves that orbit out of the canonical
    map; a fixed pair of an orbit with no stored value still warns and
    reads 0."""
    C2 = cyclic_group(2)
    X = GSet(C2, 3, [[0, 0], [1, 2], [2, 1]])     # the generator swaps 1 and 2
    f = ClassFunction.from_values(
        C2, 1, {((0,), 1): GradedValue("complex", {0: 1.0})}, space=X)
    with pytest.raises(GroupError, match="not fixed"):
        f._value((1,), 1)
    assert ((1,), 1) not in f._canon
    with pytest.warns(UserWarning, match="no value stored"):
        assert f._value((1,), 0).components == {}
    assert f._value((0,), 2).components == {0: 1.0}


def _s3_stored_pairs():
    S3 = symmetric_group(3)
    return ClassFunction.from_values(
        S3, 2, {((0, 0), 0): GradedValue("complex", {0: 1.0})})


def _regular_power_s3():
    return power_operation(character(regular_representation(symmetric_group(3))), 2,
                           mode="lazy")


# (label, function builder, tuple, point) of pairs outside the domain
OUT_OF_DOMAIN = [
    ("negative index", _regular_power_s3, (-1,), 0),
    ("index past the wreath order", _regular_power_s3, (72,), 0),
    ("index far past the wreath order", _regular_power_s3, (10 ** 6,), 0),
    ("entry past the group order",
     lambda: ClassFunction.constant(symmetric_group(3), 2, 1.0), (99, 0), 0),
    ("non-commuting entries of a rule",
     lambda: ClassFunction.constant(symmetric_group(3), 2, 1.0), (1, 2), 0),
    ("negative entry",
     lambda: ClassFunction.constant(symmetric_group(3), 2, 1.0), (-1, 0), 0),
    ("entry outside C2 on two points",
     lambda: ClassFunction.constant(cyclic_group(2), 1, 1.0,
                                    space=GSet(cyclic_group(2), 2, [[0, 1], [1, 0]])),
     (5,), 0),
    ("point outside two points",
     lambda: ClassFunction.constant(cyclic_group(2), 1, 1.0,
                                    space=GSet(cyclic_group(2), 2, [[0, 1], [1, 0]])),
     (0,), 7),
    ("non-commuting entries of stored values", _s3_stored_pairs, (1, 2), 0),
]


@pytest.mark.parametrize("label,build,els,x", OUT_OF_DOMAIN,
                         ids=[case[0] for case in OUT_OF_DOMAIN])
def test_evaluate_rejects_pairs_outside_the_domain(label, build, els, x):
    """Both storage paths check the key: no index aliases another element,
    and no lookup fails with IndexError or falls back to a warning."""
    with pytest.raises(GroupError):
        build().evaluate(els, x)


def test_is_invariant_constant():
    S3 = symmetric_group(3)
    one = ClassFunction.constant(S3, 2, 1.0, kind="lat")
    rep = one.is_invariant()
    assert rep.ok


def test_is_invariant_e4_trivial_group():
    one = cyclic_group(1)
    f = ClassFunction.from_values(
        one, 2, {((0, 0), 0): GradedValue("lat", {4: E4})},
        kind="lat")
    rep = f.is_invariant()
    assert rep.ok
    assert rep.max_deviation < 1e-9


def test_is_invariant_detects_tau_violation():
    one = cyclic_group(1)
    f = ClassFunction.from_values(
        one, 2, {((0, 0), 0): GradedValue("lat", {2: eisenstein_e2()})},
        kind="lat")
    rep = f.is_invariant()
    assert not rep.ok
    assert any(v.kind == "sl2" for v in rep.violations)
    assert {v.move for v in rep.violations} == {SL2_S, SL2_T}
    once = f.is_invariant(tau_samples=iter([1j, 2j]))     # spent by one comparison
    assert once.violations == f.is_invariant(tau_samples=[1j, 2j]).violations


def reference_is_invariant(f):
    """is_invariant pair by pair with scalar moves: G.conj and
    gl_act_on_tuple."""
    G = f.group
    if f.values is not None:
        pairs = list(f.values)
    else:
        pairs = [orbit[0] for orbit in pair_orbits(G, f.d, f.space)]
    violations, worst, checked = [], 0.0, 0
    for els, x in pairs:
        base = f.evaluate(els, x)
        checks = [("conjugation", z, tuple(conj(G, z, e) for e in els), f.space.apply(z, x),
                   base) for z in G.generators()]
        if f.elliptic and f.d == 2:
            checks += [("sl2", gamma, gl_act_on_tuple(gamma, CommutingTuple(G, els)).elements,
                        x, weight_slash_graded(gamma, base)) for gamma in (SL2_S, SL2_T)]
        for kind, move, moved, y, expected in checks:
            dev = graded_deviation(f.evaluate(moved, y), expected)
            checked += 1
            worst = max(worst, dev)
            if dev > 1e-9:
                violations.append(InvarianceViolation(kind, (els, x), move, dev))
    return violations, worst, checked


def _invariance_cases():
    C2, S3 = cyclic_group(2), symmetric_group(3)
    stored = {name: random_height2_function(G, random.Random(3))
              for name, G in (("C2", C2), ("S3", S3))}
    E2 = eisenstein_e2()
    tau_slot = ClassFunction.from_values(
        C2, 2, {(t.elements, 0): GradedValue("lat", {2: E2, 4: E4})
                for t in commuting_tuples(C2, 2)}, kind="lat")
    first_entry = ClassFunction.from_rule(
        S3, 2, lambda els, x: GradedValue("lat", {4: E4.scale(els[0] + 1)}),
        kind="lat")
    return [pytest.param(stored["C2"], id="C2 stored"),
            pytest.param(stored["S3"], id="S3 stored"),
            pytest.param(multiply(stored["C2"], stored["C2"]), id="C2 rule"),
            pytest.param(multiply(stored["S3"], stored["S3"]), id="S3 rule"),
            pytest.param(tau_slot, id="C2 tau slot"),
            pytest.param(first_entry, id="S3 rule not invariant")]


@pytest.mark.parametrize("f", _invariance_cases())
def test_is_invariant_matches_scalar_reference(f):
    rep = f.is_invariant()
    assert (rep.violations, rep.max_deviation, rep.checked) == reference_is_invariant(f)


def test_invariance_report_samples_each_lattice_function_once(monkeypatch):
    """One report reads the samples of each lattice function once, though
    stored values recur as S/T images of other keys and constants slash to
    themselves."""
    from collections import Counter

    from charops.coefficients import LatFunction

    P = power_operation(random_height2_function(cyclic_group(2), random.Random(5)), 2)
    f = P.materialize()
    sampled = Counter()         # holds every sampled function, so no id is reused
    sample_vector = LatFunction._sample_vector

    def spy(F, samples):
        sampled[F] += 1
        return sample_vector(F, samples)

    monkeypatch.setattr(LatFunction, "_sample_vector", spy)
    rep = f.is_invariant()
    assert rep.ok and rep.checked > len(f.values)
    assert sampled and max(sampled.values()) == 1


def test_restrict_identity():
    S3 = symmetric_group(3)
    f = ClassFunction.from_values(S3, 1, regular_values(S3))
    ident = GroupHomomorphism(S3, S3, S3.generators())
    g = restrict_along(f, ident)
    for t in commuting_tuples(S3, 1):
        assert graded_deviation(f.evaluate(t, 0), g.evaluate(t, 0)) == 0.0


def test_restrict_from_trivial():
    S3 = symmetric_group(3)
    C1 = cyclic_group(1)
    f = ClassFunction.from_values(S3, 1, regular_values(S3))
    incl = GroupHomomorphism(C1, S3, [S3.identity])
    g = restrict_along(f, incl)
    assert g.evaluate(CommutingTuple(C1, (0,)), 0).components[0] == 6.0


def test_restrict_c2_in_s3():
    S3 = symmetric_group(3)
    C2 = cyclic_group(2)
    transposition = S3.perms.index((1, 0, 2))
    phi = GroupHomomorphism(C2, S3, [transposition])
    f = ClassFunction.from_values(S3, 1, regular_values(S3))
    g = restrict_along(f, phi)
    assert g.evaluate(CommutingTuple(C2, (0,)), 0).components[0] == 6.0
    assert g.evaluate(CommutingTuple(C2, (1,)), 0).components[0] == 0.0


def test_from_values_refuses_a_space_over_another_group():
    S3 = symmetric_group(3)
    v = GradedValue("complex", {0: 1.0})
    with pytest.raises(GroupError, match="not a G-set over its group"):
        ClassFunction.from_values(S3, 1, {((0,), 0): v},
                                  space=GSet.trivial(cyclic_group(2), 2))


def test_constant_refuses_a_space_over_another_group():
    with pytest.raises(GroupError, match="not a G-set over its group"):
        ClassFunction.constant(symmetric_group(3), 1, space=GSet.trivial(cyclic_group(4), 1))


def _two_point_function_and_identity():
    C2 = cyclic_group(2)
    f = ClassFunction.constant(C2, 1, space=GSet.trivial(C2, 2))
    return f, GroupHomomorphism(C2, C2, C2.generators())


def test_restrict_refuses_map_values_outside_the_function_space():
    f, ident = _two_point_function_and_identity()
    X = GSet.trivial(ident.source, 1)
    with pytest.raises(GroupError, match="leaves the 2 points"):
        restrict_along(f, ident, (X, lambda x: 5))
    with pytest.raises(GroupError, match="non-index"):
        restrict_along(f, ident, (X, lambda x: 0.5))


def test_restrict_refuses_a_source_space_over_another_group():
    f, ident = _two_point_function_and_identity()
    with pytest.raises(GroupError, match="homomorphism's source"):
        restrict_along(f, ident, (GSet.trivial(symmetric_group(3), 2), lambda x: x))


def test_restrict_functorial():
    S3 = symmetric_group(3)
    C2 = cyclic_group(2)
    C1 = cyclic_group(1)
    transposition = S3.perms.index((1, 0, 2))
    phi = GroupHomomorphism(C2, S3, [transposition])
    psi = GroupHomomorphism(C1, C2, [0])
    f = ClassFunction.from_values(S3, 1, regular_values(S3))
    lhs = restrict_along(restrict_along(f, phi), psi)
    rhs = restrict_along(f, GroupHomomorphism(C1, S3, [phi(psi(a)) for a in C1.generators()]))
    t = CommutingTuple(C1, (0,))
    assert graded_deviation(lhs.evaluate(t, 0), rhs.evaluate(t, 0)) == 0.0


# --- wreath inclusions ------------------------------------------------------


def test_block_inclusion_j0():
    C2 = cyclic_group(2)
    phi = wreath_block_inclusion(C2, 0, 2)
    W2 = wreath(C2, 2)
    # source is (trivial) x W2; the map is an isomorphism onto W2
    images = sorted(phi.image)
    assert images == list(range(W2.size))


def test_block_inclusion_1_1():
    C2 = cyclic_group(2)
    phi = wreath_block_inclusion(C2, 1, 1)
    P, W = phi.source, phi.target
    a = P.encode(P.g1.encode((1,), (0,)), P.g2.encode((0,), (0,)))
    assert W.decode(phi(a)) == ((1, 0), (0, 1))


def test_block_inclusion_hom_exhaustive():
    C2 = cyclic_group(2)
    phi = wreath_block_inclusion(C2, 2, 1)
    P, W = phi.source, phi.target
    for x in range(P.size):
        for y in range(P.size):
            assert phi(P.mul(x, y)) == W.mul(phi(x), phi(y))


def test_composition_inclusion_degenerate():
    C2 = cyclic_group(2)
    # j = 1: isomorphism (G wr S_k) wr S_1 onto G wr S_k
    phi = wreath_composition_inclusion(C2, 1, 2)
    assert sorted(phi.image) == list(range(phi.target.size))
    # k = 1: isomorphism (G wr S_1) wr S_j onto G wr S_j
    phi = wreath_composition_inclusion(C2, 2, 1)
    assert sorted(phi.image) == list(range(phi.target.size))


def test_composition_inclusion_hom_exhaustive():
    C2 = cyclic_group(2)
    phi = wreath_composition_inclusion(C2, 2, 2)
    S, W = phi.source, phi.target
    assert S.size == (4 * 2) ** 2 * 2
    rng = random.Random(1)
    for _ in range(4000):
        x, y = rng.randrange(S.size), rng.randrange(S.size)
        assert phi(S.mul(x, y)) == W.mul(phi(x), phi(y))


def test_diagonal_split():
    C2 = cyclic_group(2)
    phi = wreath_diagonal(C2, C2, 2)
    WP, T = phi.source, phi.target
    P = WP.base
    for a in range(WP.size):
        bases, s = WP.decode(a)
        t1, t2 = T.decode(phi(a))
        b1, s1 = T.g1.decode(t1)
        b2, s2 = T.g2.decode(t2)
        assert s1 == s == s2
        assert b1 == tuple(P.decode(b)[0] for b in bases)
        assert b2 == tuple(P.decode(b)[1] for b in bases)


def test_diagonal_hom_exhaustive():
    C2 = cyclic_group(2)
    phi = wreath_diagonal(C2, C2, 2)
    S, T = phi.source, phi.target
    for x in range(S.size):
        for y in range(0, S.size, 3):
            assert phi(S.mul(x, y)) == T.mul(phi(x), phi(y))


# --- products ---------------------------------------------------------------


def test_multiply_unit_and_commutative():
    S3 = symmetric_group(3)
    f = ClassFunction.from_values(S3, 1, regular_values(S3))
    one = ClassFunction.constant(S3, 1, 1.0)
    fg = multiply(f, one)
    gf = multiply(one, f)
    for t in commuting_tuples(S3, 1):
        assert graded_deviation(fg.evaluate(t, 0), f.evaluate(t, 0)) == 0.0
        assert graded_deviation(fg.evaluate(t, 0), gf.evaluate(t, 0)) == 0.0


def test_multiply_degree_additivity():
    C2 = cyclic_group(2)
    f = ClassFunction.from_rule(
        C2, 1, lambda els, x: GradedValue("complex", {1: 2.0}))
    out = multiply(f, f)
    v = out.evaluate(CommutingTuple(C2, (1,)), 0)
    assert v.degrees == [2] and v.components[2] == 4.0


def test_external_product():
    C2 = cyclic_group(2)
    S3 = symmetric_group(3)
    f = ClassFunction.from_values(C2, 1, regular_values(C2))
    g = ClassFunction.from_values(S3, 1, regular_values(S3))
    fg = external_product(f, g)
    P = fg.group
    t = CommutingTuple(P, (P.encode(0, 0),))
    assert fg.evaluate(t, 0).components[0] == 12.0
    t = CommutingTuple(P, (P.encode(1, 0),))
    assert fg.evaluate(t, 0).components[0] == 0.0


def test_power_operation_holds_the_one_rule_memo():
    """A rule-backed function calls its rule on every read, and so do
    restrictions, external products and Adams operations; only the power
    operation memoizes its values, bounded at `powerops._RULE_CACHE_BOUND`."""
    from charops import powerops
    S3 = symmetric_group(3)
    calls = []

    def rule(els, x):
        calls.append(els)
        return GradedValue("complex", {0: 2.0})

    f = ClassFunction.from_rule(S3, 1, rule)
    ident = GroupHomomorphism(S3, S3, S3.generators())
    for g in (f, restrict_along(f, ident), external_product(f, f), adams(f, 2)):
        reads = []
        for _ in range(3):
            before = len(calls)
            g.evaluate((g.group.size - 1,), 0)
            reads.append(len(calls) - before)
        assert reads[0] > 0 and reads == reads[:1] * 3
    P = power_operation(f, 2)
    assert P.rule.cache_info().maxsize == powerops._RULE_CACHE_BOUND
    P.evaluate((P.group.size - 1,), 0)
    before = len(calls)
    P.evaluate((P.group.size - 1,), 0)
    assert len(calls) == before and P.rule.cache_info().hits == 1


def test_pair_orbits_counts():
    S3 = symmetric_group(3)
    orbits = pair_orbits(S3, 2, GSet.point(S3))
    assert len(orbits) == 8
    assert sum(len(o) for o in orbits) == 18


def test_add_is_pointwise():
    C2 = cyclic_group(2)
    f = ClassFunction.from_values(C2, 1, regular_values(C2))
    s = add(f, f)
    assert s.evaluate(CommutingTuple(C2, (0,)), 0).components[0] == 4.0


def test_add_rejects_functions_on_different_spaces():
    C2 = cyclic_group(2)
    swap = GSet(C2, 2, [[0, 1], [1, 0]])
    with pytest.raises(GroupError, match="different spaces"):
        add(ClassFunction.constant(C2, 1, 1.0, space=swap),
            ClassFunction.constant(C2, 1, 1.0, space=GSet.trivial(C2, 3)))


def test_evaluate_rejects_wrong_group():
    C2 = cyclic_group(2)
    C4 = cyclic_group(4)
    f = ClassFunction.from_values(C2, 1, regular_values(C2))
    with pytest.raises(GroupError):
        f.evaluate(CommutingTuple(C4, (1,)), 0)


# --- the inclusions against their element-by-element formulas -------------


def block_inclusion_formula(G, j, k):
    """Image of every source element, decoded and re-encoded one by one."""
    Wj, Wk, W = wreath(G, j), wreath(G, k), wreath(G, j + k)
    P = DirectProductGroup(Wj, Wk)

    def fn(a):
        a1, a2 = P.decode(a)
        b1, s1 = Wj.decode(a1)
        b2, s2 = Wk.decode(a2)
        return W.encode(b1 + b2, tuple(s1) + tuple(p + j for p in s2))

    return [fn(a) for a in range(P.size)]


def composition_inclusion_formula(G, j, k):
    Wk, WW, W = wreath(G, k), wreath(wreath(G, k), j), wreath(G, j * k)

    def fn(a):
        inner, pi = WW.decode(a)
        decoded = [Wk.decode(i) for i in inner]
        bases = [decoded[b][0][c] for b in range(j) for c in range(k)]
        perm = [pi[b] * k + decoded[pi[b]][1][c] for b in range(j) for c in range(k)]
        return W.encode(tuple(bases), tuple(perm))

    return [fn(a) for a in range(WW.size)]


def diagonal_formula(G, k):
    P = DirectProductGroup(G, G)
    WP, W1 = wreath(P, k), wreath(G, k)
    T = DirectProductGroup(W1, W1)

    def fn(a):
        bases, s = WP.decode(a)
        return T.encode(W1.encode(tuple(P.decode(b)[0] for b in bases), s),
                        W1.encode(tuple(P.decode(b)[1] for b in bases), s))

    return [fn(a) for a in range(WP.size)]


JK = [(1, 1), (2, 1), (1, 2), (2, 2)]
INCLUSION_CASES = (
    [("block", G, j, k) for G in ("C2", "S3") for j, k in JK + [(0, 2)]]
    + [("composition", G, j, k) for G in ("C2", "S3") for j, k in JK]
    + [("diagonal", G, 1, k) for G in ("C2", "S3") for k in (1, 2)]
    + [("diagonal", "C2", 1, 3)])


@pytest.mark.parametrize("kind,name,j,k", INCLUSION_CASES,
                         ids=["-".join(map(str, case)) for case in INCLUSION_CASES])
def test_inclusions_from_generators_match_formulas(kind, name, j, k):
    G = cyclic_group(2) if name == "C2" else symmetric_group(3)
    if kind == "block":
        hom, expected = wreath_block_inclusion(G, j, k), block_inclusion_formula(G, j, k)
    elif kind == "composition":
        hom = wreath_composition_inclusion(G, j, k)
        expected = composition_inclusion_formula(G, j, k)
    else:
        hom, expected = wreath_diagonal(G, G, k), diagonal_formula(G, k)
    assert hom.image == expected
    assert all(type(x) is int for x in hom.image)


def test_from_generators_rejects_images_that_extend_to_no_homomorphism():
    """A transposition t of S3 sent to c in C3: t^2 = e but c^2 != e."""
    S3, C3 = symmetric_group(3), cyclic_group(3)
    images = [1 if S3.perms[g] in ((0, 2, 1), (1, 0, 2)) else 0
              for g in S3.generators()]
    assert images == [1, 1]
    with pytest.raises(GroupError, match="not a homomorphism"):
        GroupHomomorphism(S3, C3, images)
    with pytest.raises(GroupError, match="leave the target"):
        GroupHomomorphism(S3, C3, [0, 3])
    sign = GroupHomomorphism(S3, cyclic_group(2), [1, 1])
    assert sign.image == [0, 1, 1, 0, 0, 1]


def test_a_nan_value_conflicts_with_a_number_on_its_orbit():
    """A NaN deviation counts as infinite, so NaN and 1.0 on the conjugate
    keys (1,) and (2,) of S3 are refused in either order; one value object
    compared with itself still deviates by 0.0."""
    S3 = symmetric_group(3)
    nan = GradedValue("complex", {0: float("nan")})
    one = GradedValue("complex", {0: 1.0})
    assert graded_deviation(nan, one) == graded_deviation(one, nan) == float("inf")
    assert graded_deviation(nan, GradedValue("complex", {0: float("nan")})) == float("inf")
    assert graded_deviation(nan, nan) == 0.0
    for first, second in ((nan, one), (one, nan)):
        with pytest.raises(GroupError, match="carry different values"):
            ClassFunction.from_values(S3, 1, {((1,), 0): first, ((2,), 0): second})


def test_a_value_of_another_kind_is_refused_at_construction():
    C2 = cyclic_group(2)
    with pytest.raises(GroupError, match="a 'lat' value in a 'complex' function"):
        ClassFunction.from_values(C2, 2, {((0, 0), 0): GradedValue("lat", {4: E4})})
    with pytest.raises(GroupError, match='a "lat" function lives at d = 2'):
        ClassFunction.constant(C2, 1, 1.0, kind="lat")


def test_elliptic_is_the_lat_kind_on_every_operation():
    C2 = cyclic_group(2)
    for f in (ClassFunction.from_values(C2, 1, regular_values(C2)),
              ClassFunction.constant(C2, 2, 2.0, kind="lat")):
        trivial = GroupHomomorphism(cyclic_group(1), C2, [C2.identity])
        outputs = [f, power_operation(f, 2), adams(f, 3), restrict_along(f, trivial),
                   external_product(f, f), multiply(f, f)]
        assert [g.elliptic for g in outputs] == [f.kind == "lat"] * len(outputs)
