import itertools
import math
import random

import numpy as np
import pytest

from charops import groups
from charops.groups import (
    CommutingTuple,
    GroupError,
    GroupHomomorphism,
    GSet,
    PowerGSet,
    TableGroup,
    build_group,
    commuting_tuples,
    conjugation_orbits,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixed_points,
    perm_compose,
    perm_group,
    quaternion_group,
    symmetric_group,
    tuple_conjugacy_classes,
    tuple_conjugacy_classes_bfs,
    wreath,
)
from charops.lattices import sublattices_of_index
from charops.orbits import reduce_tuple
from references import (
    QUATERNION_UNITS,
    centralizer,
    conj,
    conjugate_tuple,
    gl_act_on_tuple,
    quaternion_table,
)


def class_members(cls):
    """The sorted tuples of a class: its representative's conjugation orbit."""
    rep = cls.representative
    [orbit] = conjugation_orbits(rep.group, [(rep.elements, 0)], GSet.point(rep.group))
    return [els for els, _ in orbit]


def brute_conjugacy_classes(G):
    """Independent oracle: partition by the full conjugation orbit."""
    seen = set()
    classes = []
    for g in range(G.size):
        if g in seen:
            continue
        orbit = {conj(G, z, g) for z in range(G.size)}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def check_group_axioms(G):
    assert G.size <= 64
    for x, y, z in itertools.product(range(G.size), repeat=3):
        assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
    e = G.identity
    for x in range(G.size):
        assert G.mul(x, e) == x == G.mul(e, x)
        assert G.mul(x, G.inv(x)) == e


# --- builders ---------------------------------------------------------------

def test_cyclic_2():
    G = cyclic_group(2)
    assert G.size == 2
    a = 1
    assert G.mul(a, a) == G.identity


def test_symmetric_3_classes():
    G = symmetric_group(3)
    assert G.size == 6
    assert len(brute_conjugacy_classes(G)) == 3
    assert len(tuple_conjugacy_classes(G, 1)) == 3


def test_table_groups_compare_by_table():
    """Two builds of one group are equal and hash equal, so memos keyed on a
    group hit across rebuilds; labels and names do not take part."""
    a, b = symmetric_group(3), symmetric_group(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert wreath(a, 2) == wreath(b, 2) and hash(wreath(a, 2)) == hash(wreath(b, 2))
    plain = TableGroup([[0, 1], [1, 0]])
    assert plain == cyclic_group(2) and hash(plain) == hash(cyclic_group(2))
    assert cyclic_group(2) != cyclic_group(3)
    assert cyclic_group(6) != symmetric_group(3) and cyclic_group(4) != dihedral_group(2)
    assert cyclic_group(2) != wreath(cyclic_group(2), 1)


def test_int64_table_is_not_copied():
    t = (np.arange(5)[:, None] + np.arange(5)) % 5
    assert t.dtype == np.int64
    G = TableGroup(t)
    assert np.shares_memory(G._table, t) and not G._table.flags.writeable
    assert t.flags.writeable                  # the caller's array is left as it was
    small = TableGroup(t.astype(np.int32))
    assert small._table.dtype == np.int64 and small == G


def test_non_associative_table_rejected():
    # start from C3 and corrupt one entry
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    table[2][2] = 2  # breaks associativity / inverse structure
    with pytest.raises(GroupError):
        build_group({"type": "table", "table": table})


@pytest.mark.parametrize("G", [cyclic_group(4), dihedral_group(4),
                               symmetric_group(3), quaternion_group()])
def test_axioms_builtin(G):
    check_group_axioms(G)


def test_dihedral_relation():
    n = 5
    G = dihedral_group(n)
    r, s = 1, n
    assert G.order(r) == n and G.order(s) == 2
    assert G.mul(G.mul(s, r), G.inv(s)) == G.inv(r)


def test_quaternion_relations():
    Q = quaternion_group()
    lab = {name: i for i, name in enumerate(Q.labels)}
    assert Q.mul(lab["i"], lab["i"]) == lab["-1"]
    assert Q.mul(lab["i"], lab["j"]) == lab["k"]
    assert Q.mul(lab["j"], lab["i"]) == lab["-k"]
    check_group_axioms(Q)


def test_quaternion_table_matches_reference():
    """The formula-built table equals the one parsed from the unit labels."""
    Q = quaternion_group()
    assert Q.labels == QUATERNION_UNITS
    assert np.array_equal(Q._table, np.array(quaternion_table()))


def test_build_group_descriptors():
    assert build_group({"type": "cyclic", "n": 4}).size == 4
    assert build_group({"type": "symmetric", "n": 3}).size == 6
    assert build_group({"type": "dihedral", "n": 4}).size == 8
    assert build_group({"type": "quaternion"}).size == 8
    G = build_group({"type": "perm", "degree": 3,
                     "generators": [[1, 0, 2], [1, 2, 0]]})
    assert G.size == 6
    # S8: the closure is refused once it passes TABLE_ORDER_BOUND elements
    with pytest.raises(GroupError, match="more than 5040 elements"):
        perm_group(8, [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]])


@pytest.mark.parametrize("kind,field", [("symmetric", "n"), ("perm", "degree")])
def test_negative_degrees_are_refused(kind, field):
    """As cyclic and dihedral orders below 1 are; degree 0 is the trivial group."""
    with pytest.raises(GroupError, match="must be >= 0"):
        build_group({"type": kind, field: -2, "generators": []})
    assert build_group({"type": kind, field: 0, "generators": []}).size == 1


def test_orders_past_64_bit_indices_are_refused():
    """|G|^n n! and |G1| |G2| are compared with 2**63 factor by factor, so
    even an arity of a million is refused before anything is built."""
    C2, C3 = cyclic_group(2), cyclic_group(3)
    W = wreath(C2, 16)
    assert W.size == 2 ** 16 * math.factorial(16) < 2 ** 63
    assert wreath(cyclic_group(1), 20).size == math.factorial(20)
    for build in (lambda: wreath(C2, 17), lambda: wreath(cyclic_group(1), 21),
                  lambda: wreath(C3, 10 ** 6), lambda: direct_product(W, W)):
        with pytest.raises(GroupError, match=r"more than 2\*\*63 elements"):
            build()


# The per-entry formulas the builders used before they built their tables as
# arrays, kept as the reference.

def _full_table(G):
    els = np.arange(G.size)
    return G.mul_array(els[:, None], els).tolist()


def _reference_dihedral_mul(n, a, b):
    fa, ka = divmod(a, n)[0], a % n
    fb, kb = divmod(b, n)[0], b % n
    if fa == 0 and fb == 0:
        return (ka + kb) % n
    if fa == 0 and fb == 1:
        return n + (kb - ka) % n
    if fa == 1 and fb == 0:
        return n + (ka + kb) % n
    return (kb - ka) % n


@pytest.mark.parametrize("G", [cyclic_group(12), dihedral_group(8), symmetric_group(4),
                               quaternion_group(),
                               build_group({"type": "table", "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                                                       [2, 3, 0, 1], [3, 2, 1, 0]]})],
                         ids=lambda G: G.name or "table")
def test_scalar_law_matches_the_batched_law(G):
    """mul and inv read the one stored table: they agree with mul_array and
    inv_array on every pair and return Python ints, so no numpy integer
    reaches a key or a JSON document."""
    table = _full_table(G)
    inverses = G.inv_array(np.arange(G.size)).tolist()
    for a in range(G.size):
        assert type(G.inv(a)) is int and G.inv(a) == inverses[a]
        for b in range(G.size):
            assert type(G.mul(a, b)) is int and G.mul(a, b) == table[a][b]


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_table_matches_reference(n):
    G = cyclic_group(n)
    assert _full_table(G) == [[(a + b) % n for b in range(n)] for a in range(n)]
    assert G.labels == ["e"] + [f"c^{k}" if k > 1 else "c" for k in range(1, n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_table_matches_reference(n):
    G = dihedral_group(n)
    assert _full_table(G) == [[_reference_dihedral_mul(n, a, b) for b in range(2 * n)]
                              for a in range(2 * n)]
    assert G.labels == ["e"] + [f"r^{k}" for k in range(1, n)] + [f"sr^{k}" for k in range(n)]


@pytest.mark.parametrize("G", [symmetric_group(n) for n in range(6)] + [
    build_group({"type": "perm", "degree": 6,
                 "generators": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]}),
    perm_group(7, [[1, 2, 3, 4, 5, 6, 0], [0, 6, 5, 4, 3, 2, 1]]),      # D7
    perm_group(17, [list(range(1, 17)) + [0]])], ids=lambda G: f"{G.name}-order{G.size}")
def test_perm_table_matches_reference(G):
    """Elements are the sorted permutations, entry [a, b] the index of
    perms[a] after perms[b]; degree 17 puts 17**17 past 64-bit codes."""
    perms = G.perms
    assert perms == sorted(set(perms))
    assert G.labels == ["".join(map(str, p)) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    assert _full_table(G) == [[index[perm_compose(p, q)] for q in perms] for p in perms]


# --- wreath products ----------------------------------------------------------

def test_wreath_size_and_product():
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    assert W.size == 8
    a, e = 1, 0
    swap = (1, 0)
    w = W.encode((a, e), swap)
    sq = W.mul(w, w)
    assert W.decode(sq) == ((a, a), (0, 1))


def test_wreath_untwisted_product():
    C2 = cyclic_group(2)
    W = wreath(C2, 3)
    ident = (0, 1, 2)
    rng = random.Random(1)
    for _ in range(50):
        g = tuple(rng.randrange(2) for _ in range(3))
        h = tuple(rng.randrange(2) for _ in range(3))
        prod = W.mul(W.encode(g, ident), W.encode(h, ident))
        assert W.decode(prod) == (tuple(C2.mul(x, y) for x, y in zip(g, h)), ident)


def test_wreath_inverse_law():
    """(g, s)^-1 = (s^-1 . g^-1, s^-1), elementwise over C2 wr S3."""
    from charops.groups import perm_inverse
    C2 = cyclic_group(2)
    W = wreath(C2, 3)
    for w in range(W.size):
        g, s = W.decode(w)
        si = perm_inverse(s)
        expected = (tuple(C2.inv(g[s[b]]) for b in range(3)), si)
        assert W.decode(W.inv(w)) == expected
        assert W.mul(w, W.inv(w)) == W.identity
        assert W.mul(W.inv(w), w) == W.identity


def test_wreath_associativity_sampled():
    W = wreath(cyclic_group(2), 3)
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (rng.randrange(W.size) for _ in range(3))
        assert W.mul(W.mul(x, y), z) == W.mul(x, W.mul(y, z))


def test_perm_rank_unrank_roundtrip():
    import itertools as it
    from charops.groups import _sigma, perm_rank, perm_unrank
    for n in (1, 2, 3, 4):
        for i, p in enumerate(it.permutations(range(n))):
            assert perm_rank(p) == i
            assert perm_unrank(n, i) == p
    # the per-call codec of wreath products above the table arity agrees
    # with the Sigma_n tables where both exist
    for n in (5, 6, 7):
        index = _sigma(n).index
        assert all(perm_rank(p) == i for p, i in index.items())
    # the large-n path used by 9-point wreath groups
    rng = random.Random(2)
    for _ in range(50):
        p = list(range(9))
        rng.shuffle(p)
        p = tuple(p)
        assert perm_unrank(9, perm_rank(p)) == p


def test_sigma_product_table_is_built_on_demand_and_shared():
    """The product table that a batched wreath product reads is the table of
    symmetric_group(n), not a copy of it; importing the package builds none
    (`test_importing_the_cli_fills_no_cache` in test_cli.py)."""
    W = wreath(cyclic_group(2), 6)
    W.mul_array(np.arange(50), np.arange(50)[::-1])
    assert np.shares_memory(symmetric_group(6)._table, groups._sigma(6).products)


def test_wreath_large_n_uses_arith_codec():
    C2 = cyclic_group(2)
    W = wreath(C2, 9)
    assert not hasattr(W, "_perm_array")   # no cached table at this size
    rng = random.Random(0)
    for _ in range(30):
        a = rng.randrange(10 ** 6)
        bases, perm = W.decode(a)
        assert W.encode(bases, perm) == a
    x, y, z = (rng.randrange(10 ** 6) for _ in range(3))
    assert W.mul(W.mul(x, y), z) == W.mul(x, W.mul(y, z))


def test_wreath_encode_decode_roundtrip():
    W = wreath(symmetric_group(3), 4)
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(W.size)
        bases, perm = W.decode(a)
        assert W.encode(bases, perm) == a


def test_nested_wreath():
    W2 = wreath(cyclic_group(2), 2)
    WW = wreath(W2, 2)
    assert WW.size == 8 ** 2 * 2
    rng = random.Random(5)
    for _ in range(100):
        x, y, z = (rng.randrange(WW.size) for _ in range(3))
        assert WW.mul(WW.mul(x, y), z) == WW.mul(x, WW.mul(y, z))


# --- commuting tuples -----------------------------------------------------------

def test_commuting_tuple_counts():
    S3 = symmetric_group(3)
    # oracle: number of commuting pairs = sum over g of |centralizer(g)|
    expected = sum(len(centralizer(S3, g)) for g in range(S3.size))
    assert expected == 18
    assert len(commuting_tuples(S3, 2)) == expected

    C2 = cyclic_group(2)
    assert len(commuting_tuples(C2, 2)) == 4
    for G in (C2, S3):
        assert len(commuting_tuples(G, 1)) == G.size
    assert len(commuting_tuples(S3, 0)) == 1


def test_tuple_class_counts():
    S3 = symmetric_group(3)
    # oracle: classes of pairs = sum over conj classes [g] of the number of
    # conjugacy classes of the centralizer C(g)
    total = 0
    for cls in brute_conjugacy_classes(S3):
        g = cls[0]
        cent = centralizer(S3, g)
        # conjugacy classes of the centralizer acting on itself
        seen = set()
        for h in cent:
            if h in seen:
                continue
            orbit = {conj(S3, z, h) for z in cent}
            seen |= orbit
            total += 1
    assert total == 8
    assert len(tuple_conjugacy_classes(S3, 2)) == 8
    assert len(tuple_conjugacy_classes(cyclic_group(2), 2)) == 4


def test_tuple_classes_partition():
    S3 = symmetric_group(3)
    classes = tuple_conjugacy_classes(S3, 2)
    assert sum(c.size for c in classes) == len(commuting_tuples(S3, 2))
    members = [m for c in classes for m in class_members(c)]
    assert len(members) == len(set(members))


def test_d4_isomorphic_to_wreath():
    W = wreath(cyclic_group(2), 2)
    classes = tuple_conjugacy_classes(W, 1)
    assert sum(c.size for c in classes) == 8
    assert len(classes) == len(brute_conjugacy_classes(W)) == 5


# --- constructive wreath classes against the BFS oracle -----------------------

def _assert_matches_bfs(W, d):
    built = tuple_conjugacy_classes(W, d)
    oracle = tuple_conjugacy_classes_bfs(W, d)
    assert len(built) == len(oracle)
    orbit_of = {m: k for k, c in enumerate(oracle) for m in class_members(c)}
    hit = [orbit_of[c.representative.elements] for c in built]
    assert len(set(hit)) == len(hit)
    assert [c.size for c in built] == [oracle[k].size for k in hit]


# Q8 wr 3 is left out at d = 2: the oracle enumerates its 199680 commuting
# pairs and runs the conjugation BFS over all of them, which takes tens of
# seconds; S3 wr 3 (28512 pairs, 344 classes) takes a few seconds.
WREATH_ORACLE_CASES = [
    (name, n, d)
    for name in ("C2", "C3", "S3", "Q8") for n in (1, 2, 3) for d in (1, 2)
    if (name, n, d) != ("Q8", 3, 2)
]


@pytest.mark.parametrize("name,n,d", WREATH_ORACLE_CASES)
def test_wreath_classes_match_bfs(name, n, d):
    G = {"C2": lambda: cyclic_group(2), "C3": lambda: cyclic_group(3),
         "S3": lambda: symmetric_group(3), "Q8": quaternion_group}[name]()
    _assert_matches_bfs(wreath(G, n), d)


@pytest.mark.parametrize("d", [1, 2])
def test_nested_and_product_wreath_classes_match_bfs(d):
    _assert_matches_bfs(wreath(wreath(cyclic_group(2), 2), 2), d)
    _assert_matches_bfs(wreath(direct_product(cyclic_group(2), cyclic_group(3)), 2), d)


@pytest.mark.parametrize("d", [1, 2])
def test_single_block_representatives_reduce_to_their_type(d):
    """A class with one orbit on the points was built from one (L, h): its
    representative reduces to exactly that pair at basepoint 0, and every
    pair occurs once."""
    G = symmetric_group(3)
    base_reps = [c.representative.elements for c in tuple_conjugacy_classes(G, d)]
    for m in (1, 2, 3):
        found = []
        for cls in tuple_conjugacy_classes(wreath(G, m), d):
            red = reduce_tuple(cls.representative)
            if len(red.orbits) == 1:
                assert red.basepoints == (0,)
                found.append((red.stabilizers[0], red.reduced[0].elements))
        expected = [(L, h) for L in sublattices_of_index(d, m) for h in base_reps]
        assert sorted(found, key=repr) == sorted(expected, key=repr)


@pytest.mark.parametrize("d", [1, 2])
def test_wreath_classes_empty_wreath(d):
    W = wreath(symmetric_group(3), 0)
    built = tuple_conjugacy_classes(W, d)
    oracle = tuple_conjugacy_classes_bfs(W, d)
    assert [(c.representative.elements, c.size) for c in built] == \
        [(c.representative.elements, c.size) for c in oracle] == [((0,) * d, 1)]


@pytest.mark.parametrize("d", [0, 3])
def test_wreath_classes_other_arities_use_bfs(d):
    W = wreath(cyclic_group(2), 2)
    built = tuple_conjugacy_classes(W, d)
    oracle = tuple_conjugacy_classes_bfs(W, d)
    assert [(c.representative.elements, c.size) for c in built] == \
        [(c.representative.elements, c.size) for c in oracle]
    assert all(c.representative.elements == class_members(c)[0] for c in built)


# --- GL_2(Z) action (the scalar oracle of the S and T moves) ----------------------

def test_gl_action_s_matrix():
    S3 = symmetric_group(3)
    for h in commuting_tuples(S3, 2):
        g, gp = h.elements
        out = gl_act_on_tuple(((0, -1), (1, 0)), h)
        assert out.elements == (gp, S3.inv(g))


def test_gl_action_identity():
    S3 = symmetric_group(3)
    for h in commuting_tuples(S3, 2)[:6]:
        assert gl_act_on_tuple(((1, 0), (0, 1)), h).elements == h.elements


def test_gl_action_axiom_random():
    S3 = symmetric_group(3)
    tuples = commuting_tuples(S3, 2)
    rng = random.Random(11)

    def random_sl2():
        mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]
        out = ((1, 0), (0, 1))
        from charops.lattices import mat_mul
        for _ in range(rng.randrange(1, 4)):
            out = mat_mul(out, rng.choice(mats))
        return out

    from charops.lattices import mat_mul
    for _ in range(100):
        g1, g2 = random_sl2(), random_sl2()
        h = rng.choice(tuples)
        # contravariant composition: applying g2 then g1 realizes g2 * g1
        lhs = gl_act_on_tuple(g1, gl_act_on_tuple(g2, h))
        rhs = gl_act_on_tuple(mat_mul(g2, g1), h)
        assert lhs.elements == rhs.elements


def test_gl_action_commutes_with_conjugation():
    S3 = symmetric_group(3)
    gamma = ((1, 1), (0, 1))
    for h in commuting_tuples(S3, 2):
        for z in range(S3.size):
            lhs = gl_act_on_tuple(gamma, conjugate_tuple(h, z))
            rhs = conjugate_tuple(gl_act_on_tuple(gamma, h), z)
            assert lhs.elements == rhs.elements


def test_gl_action_rejects_non_unimodular():
    C2 = cyclic_group(2)
    h = CommutingTuple(C2, (1, 1))
    with pytest.raises(GroupError):
        gl_act_on_tuple(((2, 0), (0, 1)), h)


# --- G-sets and fixed points ------------------------------------------------------

def test_fixed_points_trivial_tuple():
    S3 = symmetric_group(3)
    X = GSet.trivial(S3, 5)
    h = CommutingTuple(S3, (S3.identity,))
    assert fixed_points(X, h) == list(range(5))


def test_fixed_points_free_action():
    S3 = symmetric_group(3)
    X = GSet.left_translation(S3)
    for g in range(1, S3.size):
        assert fixed_points(X, CommutingTuple(S3, (g,))) == []


def test_fixed_points_swap():
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    assert fixed_points(X, CommutingTuple(C2, (1,))) == []
    assert fixed_points(X, CommutingTuple(C2, (0,))) == [0, 1]


def test_fixed_points_closure_not_just_entries():
    # entries (g, g^-1) generate <g>; a point fixed by both is fixed by all
    C4 = cyclic_group(4)
    X = GSet(C4, 2, [[0, 1, 0, 1], [1, 0, 1, 0]])  # c acts by swap
    h = CommutingTuple(C4, (1, 3))
    assert fixed_points(X, h) == []


def test_fixed_points_intersection_of_cyclic_closures():
    """X^<h> equals the intersection over entries of the fixed sets of the
    cyclic groups they generate."""
    import charops.groups as gr
    S3 = symmetric_group(3)
    X = GSet(S3, 3, [[p[x] for p in S3.perms] for x in range(3)])
    for h in commuting_tuples(S3, 2):
        direct = set(fixed_points(X, h))
        inter = set(range(X.size))
        for e in h.elements:
            cyc = gr.mulclose_indices(S3, [e])
            inter &= {x for x in range(X.size)
                      if all(X.apply(g, x) == x for g in cyc)}
        assert direct == inter


def test_commuting_tuple_rejects_non_commuting():
    S3 = symmetric_group(3)
    a = S3.perms.index((1, 0, 2))
    b = S3.perms.index((0, 2, 1))
    with pytest.raises(GroupError):
        CommutingTuple(S3, (a, b))


@pytest.mark.parametrize("els", [(-1,), (6,), (1.5,), (0, 6), ("a",)])
def test_commuting_tuple_rejects_entries_outside_the_group(els):
    """Every entry is an integer index in [0, |G|): -1 would otherwise
    alias the last element of S3."""
    with pytest.raises(GroupError):
        CommutingTuple(symmetric_group(3), els)


def test_commuting_tuple_keeps_python_int_entries():
    h = CommutingTuple(symmetric_group(3), (np.int64(1), True))
    assert h.elements == (1, 1) and all(type(e) is int for e in h.elements)


def test_reducing_an_out_of_range_wreath_tuple_raises_group_error():
    W = wreath(cyclic_group(2), 3)
    for els in ((W.size,), (-1,), (0, W.size)):
        with pytest.raises(GroupError):
            reduce_tuple(CommutingTuple(W, els))


def test_homomorphism_validation():
    """Built from the image of the generator c of C4: reduction mod 2 extends,
    c -> c in C3 does not (c^4 = e but c^4 != e in C3), and an image outside
    the target, a float or boolean one, or a nested list, is refused before
    the walk."""
    C4, C2 = cyclic_group(4), cyclic_group(2)
    assert C4.generators() == [1]
    assert GroupHomomorphism(C4, C2, [1]).image == [0, 1, 0, 1]
    with pytest.raises(GroupError, match="not a homomorphism"):
        GroupHomomorphism(C4, cyclic_group(3), [1])
    with pytest.raises(GroupError, match="leave the target"):
        GroupHomomorphism(C4, C2, [2])
    for images in ([1.7], [1.0], [True]):
        with pytest.raises(GroupError, match="not integer indices"):
            GroupHomomorphism(C4, C2, images)
    with pytest.raises(GroupError, match="not a flat sequence"):
        GroupHomomorphism(C4, C2, [[1]])


def test_homomorphism_validation_is_exact_on_large_sources():
    """The block inclusion of (S3 wr 2) x (S3 wr 2) has 5184 source elements
    and six generators; sending the first to the identity while keeping the
    other five images extends to no homomorphism, and the walk finds it."""
    from charops.classfn import wreath_block_inclusion
    hom = wreath_block_inclusion(symmetric_group(3), 2, 2)
    images = [hom(g) for g in hom.source.generators()]
    assert len(images) == 6
    images[0] = hom.target.identity
    with pytest.raises(GroupError, match="not a homomorphism"):
        GroupHomomorphism(hom.source, hom.target, images)


def test_validation_rejects_non_generating_generators(monkeypatch):
    """Both checks run over the generators, so generators that miss part of
    the group must be rejected: c^2 -> 1 in C2 respects multiplication on the
    subgroup {e, c^2}, yet reaches only half of C4."""
    C4, C2 = cyclic_group(4), cyclic_group(2)
    monkeypatch.setattr(C4, "generators", lambda: [2])
    with pytest.raises(GroupError, match="generators reach 2 of 4"):
        GroupHomomorphism(C4, C2, [1])
    with pytest.raises(GroupError, match="generators reach 2 of 4"):
        GSet(C4, 2, [[0, 1, 0, 1], [1, 0, 1, 0]])


def test_gset_validation_is_exact_on_large_groups():
    """|G|^2 |X| = 5184^2 * 2: an action table in which only element 6 moves
    the points is caught, while the honest tables pass."""
    G = direct_product(wreath(symmetric_group(3), 2), wreath(symmetric_group(3), 2))
    act = [[x] * G.size for x in range(2)]
    GSet(G, 2, act)
    act[0][6], act[1][6] = 1, 0
    with pytest.raises(GroupError, match="action not compatible"):
        GSet(G, 2, act)
    W = wreath(symmetric_group(3), 2)
    GSet(W, W.size, GSet.left_translation(W).table)


@pytest.mark.parametrize("size,act", [
    (2, [[1, 1, 0, 1], [0, 0, 1, 0]]),     # the identity moves the points
    (2, [[0, 1, 0, 1], [1, 0, 1, 2]]),     # an image outside the set
    (2, [[0, 1, 0, 1]]),                   # one row for two points
    (2, [[0, 1, 0, 1], [1, 0, 1, 0.5]]),   # a float, which an int cast reads as 0
    (2, [[0, 1, 0, 1.0], [1, 0, 1, 0]]),   # even an integral float
    (2, [[False, True, False, True], [True, False, True, False]]),   # booleans
    (2, [[0, 1, 0, 1], [1, 0, 1]]),        # a ragged table
    (2.0, [[0, 1, 0, 1], [1, 0, 1, 0]]),   # a float size: (2, 4) == (2.0, 4)
    (True, [[0, 0, 0, 0]]),                # a boolean size
], ids=[f"act{i}" for i in range(9)])
def test_gset_validation_rejects_malformed_tables(size, act):
    with pytest.raises(GroupError):
        GSet(cyclic_group(4), size, act)


def test_gset_keeps_a_read_only_copy_of_its_table():
    """Editing the caller's rows after construction changes neither apply
    nor apply_array, and the stored table refuses writes."""
    C2 = cyclic_group(2)
    rows = [[0, 1], [1, 0]]
    X = GSet(C2, 2, rows)
    rows[0][1] = 0
    assert [X.apply(g, x) for x in range(2) for g in range(2)] == [0, 1, 1, 0]
    assert X.apply_array(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])).tolist() == \
        [0, 1, 1, 0]
    assert X.table.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="read-only"):
        X.table[0, 1] = 0


def test_left_translation_is_checked(monkeypatch):
    """C4 whose batched law reads one product wrong (c^3 c^3 = e, not c^2):
    its left translation table is no action, and the builder says so."""
    C4 = cyclic_group(4)
    table = np.array([[(a + b) % 4 for b in range(4)] for a in range(4)])
    table[3, 3] = 0
    monkeypatch.setattr(C4, "mul_array", lambda a, b: table[a, b])
    with pytest.raises(GroupError, match="action not compatible"):
        GSet.left_translation(C4)


def test_trivial_and_product_gsets_are_checked(monkeypatch):
    calls = []
    check = groups._extend_action

    def spy(G, perms, npoints):
        calls.append((G, npoints))
        return check(G, perms, npoints)

    monkeypatch.setattr(groups, "_extend_action", spy)
    C2, S3 = cyclic_group(2), symmetric_group(3)
    X = GSet.trivial(C2, 2)
    assert calls == [(C2, 2)]
    Y = GSet(S3, 3, [[S3.perms[g][x] for g in range(S3.size)] for x in range(3)])
    Z = X.product(Y)
    assert calls[1:] == [(S3, 3), (Z.group, 6)]


def test_power_gset_needs_a_wreath_product_over_its_base_group():
    X = GSet.trivial(cyclic_group(2), 2)
    PowerGSet(X, wreath(cyclic_group(2), 2))
    for W in (wreath(cyclic_group(3), 2), symmetric_group(3)):
        with pytest.raises(GroupError, match="wreath product over the base space's group"):
            PowerGSet(X, W)


@pytest.mark.parametrize("G", [cyclic_group(2), symmetric_group(3)], ids=repr)
def test_power_gset_apply_array_matches_apply_at_arity_0(G):
    """X^0 is one point under the trivial group G wr 0, on the Sigma_0 tables."""
    for X in (GSet.trivial(G, 2), GSet.left_translation(G)):
        power = PowerGSet(X, wreath(G, 0))
        assert power.size == power.group.size == 1
        assert power.apply_array(np.array([0]), np.array([0])).tolist() == [power.apply(0, 0)]


def _mul_array_groups():
    C1, C2, S3, Q8 = (cyclic_group(1), cyclic_group(2), symmetric_group(3),
                      quaternion_group())
    out = [wreath(G, n) for G in (C1, C2, S3, Q8) for n in range(5)]
    # composite ranks from the Sigma_n tables, C1 wr 5 and C1 wr 6
    # exhaustively; scalar mul ranks by dict, so it checks those tables
    out += [wreath(C1, 5), wreath(C2, 5), wreath(C1, 6), wreath(C1, 7)]
    out.append(wreath(wreath(S3, 2), 2))
    out.append(direct_product(wreath(S3, 2), wreath(Q8, 2)))
    out.append(wreath(cyclic_group(2), 8))     # above the permutation tables
    return out


def _pairs(G, exhaustive_bound):
    """Every pair of elements up to exhaustive_bound elements, 3000 seeded
    pairs above."""
    if G.size <= exhaustive_bound:
        return zip(*itertools.product(range(G.size), repeat=2))
    rng = random.Random(11)
    return ([rng.randrange(G.size) for _ in range(3000)],
            [rng.randrange(G.size) for _ in range(3000)])


@pytest.mark.parametrize("G", _mul_array_groups(), ids=repr)
def test_mul_array_matches_scalar_mul(G):
    """Exhaustive up to 1000 elements, 3000 seeded pairs above; also checks
    broadcasting of a column against a row."""
    a, b = _pairs(G, 1000)
    got = G.mul_array(np.array(a), np.array(b))
    assert got.tolist() == [G.mul(x, y) for x, y in zip(a, b)]
    col, row = np.array(a[:20])[:, None], np.array(b[-5:])
    assert G.mul_array(col, row).tolist() == \
        [[G.mul(x, y) for y in b[-5:]] for x in a[:20]]


@pytest.mark.parametrize("G", _mul_array_groups(), ids=repr)
def test_inv_array_and_conj_array_match_scalar(G):
    """inv_array against inv on every element up to 5040 (seeded above);
    conj_array against conj on every pair up to 144 elements, 3000 seeded
    pairs above, and on a column against a row."""
    els = range(G.size) if G.size <= 5040 else _pairs(G, 0)[0]
    assert G.inv_array(np.array(els)).tolist() == [G.inv(x) for x in els]
    z, a = _pairs(G, 144)
    assert G.conj_array(np.array(z), np.array(a)).tolist() == \
        [conj(G, x, y) for x, y in zip(z, a)]
    col, row = np.array(z[:20])[:, None], np.array(a[-5:])
    assert G.conj_array(col, row).tolist() == \
        [[conj(G, x, y) for y in a[-5:]] for x in z[:20]]


def test_direct_product():
    P = direct_product(cyclic_group(2), symmetric_group(3))
    assert P.size == 12
    check_group_axioms(P)


def _c2_spaces():
    C2 = cyclic_group(2)
    return [GSet.trivial(C2, 2), GSet(C2, 2, [[0, 1], [1, 0]]),
            GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])]


@pytest.mark.parametrize("G", [symmetric_group(3), wreath(quaternion_group(), 2)],
                         ids=repr)
def test_left_translation_matches_scalar_definition(G):
    X = GSet.left_translation(G)
    assert X.table.tolist() == [[G.mul(g, x) for g in range(G.size)] for x in range(G.size)]
    assert all(type(X.apply(g, 0)) is int for g in range(G.size))
    GSet(G, G.size, X.table)


@pytest.mark.parametrize("pair", range(4))
def test_gset_product_matches_scalar_definition(pair):
    S3 = symmetric_group(3)
    spaces = _c2_spaces() + [GSet.left_translation(S3)]
    X, Y = [(spaces[0], spaces[1]), (spaces[1], spaces[2]), (spaces[2], spaces[2]),
            (spaces[2], spaces[3])][pair]
    Z = X.product(Y)
    P = Z.group
    expected = [[X.apply(P.decode(g)[0], x1) + Y.apply(P.decode(g)[1], x2) * X.size
                 for g in range(P.size)]
                for x2 in range(Y.size) for x1 in range(X.size)]
    assert Z.table.tolist() == expected
    GSet(P, Z.size, Z.table)


def test_associativity_check_is_exact_above_64_elements():
    """C256 with one product changed (3 + 5 = 9) keeps its identity and
    inverses, and a sample of 20,000 triples misses the defect; Light's test
    over the generator does not."""
    n = 256
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    build_group({"type": "table", "table": table})
    table[3][5] = 9
    with pytest.raises(GroupError, match="non-associative"):
        build_group({"type": "table", "table": table})
