import itertools
import random
import re

import numpy as np
import pytest

from charops import orbits
from charops.groups import (
    CommutingTuple,
    GroupError,
    GSet,
    PowerGSet,
    commuting_tuples,
    cyclic_group,
    perm_inverse,
    quaternion_group,
    symmetric_group,
    tuple_conjugacy_classes,
    wreath,
)
from charops.lattices import mat_identity, mat_mul, random_unimodular
from charops.powerops import cayley_torsion_tuple
from charops.orbits import fixed_point_transport, reduce_tuple
from references import cycle_product


def conjugate_in(G, a, b):
    return any(G.conj(z, a) == b for z in range(G.size))


# --- reduce ---------------------------------------------------------------


def test_reduce_single_2cycle():
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    h = CommutingTuple(W, (W.encode((1, 0), (1, 0)),))
    red = reduce_tuple(h)
    assert red.orbits == ((0, 1),)
    assert red.stabilizers[0].basis == ((2,),)
    assert red.matrices[0] == ((2,),)
    assert red.reduced[0].elements == (1,)   # a * e = a


def test_reduce_d2_mixed():
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    h1 = W.encode((1, 0), (1, 0))   # (a, e) with swap
    h2 = W.encode((1, 1), (0, 1))   # (a, a) with identity
    H = CommutingTuple(W, (h1, h2))
    red = reduce_tuple(H)
    assert red.orbits == ((0, 1),)
    assert red.stabilizers[0].basis == ((2, 0), (0, 1))
    # h(2 e1) = ((a,e),(01))^2 = ((a,a), id), projected at 0 gives a
    assert red.reduced[0].elements == (1, 1)


def test_reduce_trivial_sigma():
    S3 = symmetric_group(3)
    W = wreath(S3, 3)
    ident = (0, 1, 2)
    rng = random.Random(2)
    for _ in range(20):
        g = tuple(rng.randrange(6) for _ in range(3))
        H = CommutingTuple(W, (W.encode(g, ident),))
        red = reduce_tuple(H)
        assert red.orbits == ((0,), (1,), (2,))
        for k in range(3):
            assert red.stabilizers[k].basis == ((1,),)
            assert red.reduced[k].elements == (g[k],)


def test_reduce_det_equals_orbit_size():
    for G in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        for n in (2, 3, 4):
            W = wreath(G, n)
            rng = random.Random(G.size * n)
            for _ in range(30):
                a = rng.randrange(W.size)
                red = reduce_tuple(CommutingTuple(W, (a,)))
                total = 0
                for orbit, M in zip(red.orbits, red.matrices):
                    det = M[0][0]
                    assert det == len(orbit)
                    total += len(orbit)
                assert total == n


# --- the decoded walk against the wreath group law -----------------------------


def block_sum(W, tuples):
    """Commuting tuple over W = G wr Sigma_n placing the given tuples (over
    smaller wreath products of G) on consecutive blocks of points."""
    d = tuples[0].d
    entries = []
    for j in range(d):
        bases, perm = [], []
        for H in tuples:
            b, s = H.group.decode(H.elements[j])
            perm += [len(bases) + q for q in s]
            bases += b
        entries.append(W.encode(bases, perm))
    return CommutingTuple(W, tuple(entries))


def walk_cases():
    """(tuple, vectors) over S3 wr 3, Q8 wr 2, C2 wr 9, S3 wr 8 and the
    3-torsion covers of S3, each tuple conjugated by a random element so
    that its orbits are not consecutive blocks."""
    rng = random.Random(5)
    S3, Q8, C2 = symmetric_group(3), quaternion_group(), cyclic_group(2)
    box1 = [(k,) for k in range(-4, 5)]
    box2 = list(itertools.product(range(-4, 5), repeat=2))
    cases = []
    for G, n in ((S3, 3), (Q8, 2)):
        W = wreath(G, n)
        for d, box in ((1, box1), (2, box2)):
            reps = [c.representative for c in tuple_conjugacy_classes(W, d)]
            cases += [(H, box) for H in rng.sample(reps, 4)]
    for G, parts in ((C2, (4, 5)), (S3, (3, 5))):
        W = wreath(G, sum(parts))
        for d, box in ((1, box1), (2, box2)):
            for _ in range(2):
                blocks = [rng.choice([c.representative for c in
                                      tuple_conjugacy_classes(wreath(G, m), d)])
                          for m in parts]
                cases.append((block_sum(W, blocks), box))
    # a transposition, a 3-cycle, and two commuting pairs
    for els in ((1,), (3,), (1, 0), (3, 4)):
        H = CommutingTuple(S3, els)
        cases.append((cayley_torsion_tuple(H, 3), box1 if H.d == 1 else box2))
    out = []
    for H, box in cases:
        W = H.group
        z = rng.randrange(W.size)
        out.append((H.conjugate(z), rng.sample(box, min(len(box), 20))))
    return out


def test_decoded_walk_matches_wreath_law():
    """Coordinate p of H(v) from the decoded walk equals the one read off the
    wreath element H(v) built by repeated squaring, for negative v too."""
    checked = 0
    for H, vectors in walk_cases():
        red = reduce_tuple(H)
        W = H.group
        for v in vectors:
            bases = W.decode(H.at(v))[0]
            for p in range(W.n):
                assert red.coordinate(v, p) == bases[p]
                checked += 1
        for orbit, rows, h_k, i_k in zip(red.orbits, red.matrices, red.reduced,
                                         red.basepoints):
            assert h_k.elements == tuple(W.decode(H.at(r))[0][i_k] for r in rows)
    assert checked > 1500


def test_basis_hook_must_span_the_stabilizer():
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    H = CommutingTuple(W, (W.encode((1, 0), (1, 0)), W.encode((1, 1), (0, 1))))
    # the stabilizer is spanned by (2, 0) and (0, 1)
    assert reduce_tuple(H, basis=lambda L: ((0, 1), (2, 0))).reduced[0].elements == (1, 1)
    for rows in (mat_identity(2), ((2, 0), (0, 2)), ((2, 0), (4, 0)),
                 ((2, 0),), ((2, 0), (0, 1), (0, 1))):
        with pytest.raises(GroupError):
            reduce_tuple(H, basis=lambda L: rows)


# --- cycle products ------------------------------------------------------------


def test_cycle_product_matches_reduce_d1():
    """The d=1 reduction equals the cycle product for every wreath element."""
    S3 = symmetric_group(3)
    for n in (2, 3):
        W = wreath(S3, n)
        rng = random.Random(n)
        for _ in range(150):
            w = rng.randrange(W.size)
            bases, sigma = W.decode(w)
            red = reduce_tuple(CommutingTuple(W, (w,)))
            for orbit, h_k, i_k in zip(red.orbits, red.reduced, red.basepoints):
                assert cycle_product(S3, bases, sigma, orbit, i_k) == h_k.elements[0]


def test_cycle_product_abelian_order_free():
    """For commuting entries the product is just the product over the cycle."""
    C4 = cyclic_group(4)
    rng = random.Random(0)
    sigma = (1, 2, 0)  # 3-cycle 0 -> 1 -> 2 -> 0
    for _ in range(20):
        g = tuple(rng.randrange(4) for _ in range(3))
        expected = (g[0] + g[1] + g[2]) % 4
        assert cycle_product(C4, g, sigma, [0, 1, 2], 0) == expected


def test_cycle_product_identity_sigma():
    S3 = symmetric_group(3)
    g = (1, 2, 3)
    assert cycle_product(S3, g, (0, 1, 2), [1], 1) == 2


def test_cycle_product_is_wreath_power_coordinate():
    """Cross-check against the honest wreath power, basepoint by basepoint."""
    S3 = symmetric_group(3)
    W = wreath(S3, 3)
    rng = random.Random(13)
    for _ in range(100):
        w = rng.randrange(W.size)
        bases, sigma = W.decode(w)
        red = reduce_tuple(CommutingTuple(W, (w,)))
        for orbit in red.orbits:
            m = len(orbit)
            power = W.power(w, m)
            pow_bases, pow_sigma = W.decode(power)
            for i in orbit:
                assert cycle_product(S3, bases, sigma, orbit, i) == pow_bases[i]


def test_cycle_product_basepoints_conjugate():
    S3 = symmetric_group(3)
    W = wreath(S3, 3)
    rng = random.Random(4)
    for _ in range(100):
        w = rng.randrange(W.size)
        bases, sigma = W.decode(w)
        red = reduce_tuple(CommutingTuple(W, (w,)))
        for orbit in red.orbits:
            prods = [cycle_product(S3, bases, sigma, orbit, i) for i in orbit]
            for p in prods[1:]:
                assert conjugate_in(S3, prods[0], p)


def test_cycle_product_errors():
    S3 = symmetric_group(3)
    with pytest.raises(GroupError):
        cycle_product(S3, (0, 0, 0), (1, 2, 0), [0, 1, 2], 5)
    with pytest.raises(GroupError):
        cycle_product(S3, (0, 0, 0), (1, 0, 2), [0, 1, 2], 0)


# --- choice robustness -----------------------------------------------------------


def test_reduce_choice_robustness_basepoints():
    S3 = symmetric_group(3)
    W = wreath(S3, 3)
    rng = random.Random(21)
    for _ in range(40):
        w = rng.randrange(W.size)
        H = CommutingTuple(W, (w,))
        red0 = reduce_tuple(H)
        red1 = reduce_tuple(H, basepoint_rng=random.Random(rng.randrange(10**6)))
        assert red0.orbits == red1.orbits
        for h0, h1 in zip(red0.reduced, red1.reduced):
            assert conjugate_in(S3, h0.elements[0], h1.elements[0])


def test_reduce_choice_robustness_bases():
    C2 = cyclic_group(2)
    W = wreath(C2, 4)
    rng = random.Random(33)
    pairs = []
    for _ in range(20):
        a = rng.randrange(W.size)
        cent = [x for x in range(W.size) if W.commutes(a, x)]
        pairs.append(CommutingTuple(W, (a, rng.choice(cent))))
    for H in pairs:
        red0 = reduce_tuple(H)
        twists = []

        def basis(L):
            twists.append(random_unimodular(2, rng))
            return mat_mul(twists[-1], L.basis)

        red1 = reduce_tuple(H, basis=basis)
        assert len(twists) == len(red0.orbits)
        for k in range(len(red0.orbits)):
            # M' = U . M for the supplied unimodular U
            assert red1.matrices[k] == mat_mul(twists[k], red0.matrices[k])
            # twisted reduced tuples still commute and have conjugate entries'
            # generated subgroup data; here entries are related by the unimodular
            # change of basis of the stabilizer lattice
            assert red1.stabilizers[k] == red0.stabilizers[k]


def test_reduce_conjugation_equivariance():
    S3 = symmetric_group(3)
    W = wreath(S3, 3)
    rng = random.Random(8)
    for _ in range(40):
        w = rng.randrange(W.size)
        z = rng.randrange(W.size)
        red0 = reduce_tuple(CommutingTuple(W, (w,)))
        red1 = reduce_tuple(CommutingTuple(W, (W.conj(z, w),)))
        # orbit size multisets agree and reduced tuples match up to conjugacy
        sizes0 = sorted(len(o) for o in red0.orbits)
        sizes1 = sorted(len(o) for o in red1.orbits)
        assert sizes0 == sizes1
        used = set()
        for k0, h0 in enumerate(red0.reduced):
            found = None
            for k1, h1 in enumerate(red1.reduced):
                if k1 in used or len(red1.orbits[k1]) != len(red0.orbits[k0]):
                    continue
                if conjugate_in(S3, h0.elements[0], h1.elements[0]):
                    found = k1
                    break
            assert found is not None
            used.add(found)


# --- fixed point transport ----------------------------------------------------------


def test_transport_two_points_diagonal():
    C2 = cyclic_group(2)
    X = GSet.trivial(C2, 2)
    W = wreath(C2, 2)
    H = CommutingTuple(W, (W.encode((1, 1), (1, 0)),))
    data = fixed_point_transport(X, H)
    # reduced element is a^2 = e, so the orbit fixed set is all of X
    assert data.reduction.reduced[0].elements == (0,)
    assert len(data.product_fixed) == 2
    assert [len(f) for f in data.orbit_fixed] == [2]


def test_transport_trivial_tuple():
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    W = wreath(C2, 3)
    H = CommutingTuple(W, (W.identity,))
    data = fixed_point_transport(X, H)
    assert len(data.product_fixed) == X.size ** 3
    for xt in data.product_fixed[:8]:
        assert data.inverse(data.forward(xt)) == xt


def test_transport_free_action_empty():
    C2 = cyclic_group(2)
    X = GSet.left_translation(C2)
    W = wreath(C2, 2)
    # single 2-cycle with base product a: reduced tuple acts freely
    H = CommutingTuple(W, (W.encode((1, 0), (1, 0)),))
    data = fixed_point_transport(X, H)
    assert data.product_fixed == []
    assert data.orbit_fixed == [[]]


def product_fixed_oracle(X, H):
    """Enumerate X^n and keep the tuples every entry of H fixes."""
    W = H.group
    parts = [(bases, perm_inverse(sigma))
             for bases, sigma in (W.decode(e) for e in H.elements)]

    def is_fixed(xt):
        for bases, si in parts:
            for a in range(W.n):
                if X.apply(bases[a], xt[si[a]]) != xt[a]:
                    return False
        return True

    return [xt for xt in itertools.product(range(X.size), repeat=W.n)
            if is_fixed(xt)]


def test_transport_product_fixed_matches_enumeration():
    C2, S3 = cyclic_group(2), symmetric_group(3)
    natural = GSet(S3, 3, [[p[x] for p in S3.perms] for x in range(3)])
    cases = [(X, n) for n in (1, 2, 3)
             for X in (GSet.trivial(C2, 2), GSet(C2, 2, [[0, 1], [1, 0]]),
                       GSet(C2, 3, [[0, 1], [1, 0], [2, 2]]))]
    cases.append((natural, 2))
    for X, n in cases:
        W = wreath(X.group, n)
        for d in (1, 2):
            for H in commuting_tuples(W, d):
                assert fixed_point_transport(X, H).product_fixed == \
                    product_fixed_oracle(X, H)


def test_transport_bijection_sweep_small():
    C2 = cyclic_group(2)
    spaces = [GSet.trivial(C2, 2), GSet(C2, 2, [[0, 1], [1, 0]]),
              GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])]
    for n in (1, 2, 3):
        W = wreath(C2, n)
        for X in spaces:
            for a in range(W.size):
                fixed_point_transport(X, CommutingTuple(W, (a,)))


@pytest.mark.parametrize("fault,match", [
    ("merge", "bijection"), ("miss", "bijection"), ("leave", "bijection"),
    ("swap", "forward . inverse")])
def test_transport_refuses_a_broken_inverse(monkeypatch, fault, match):
    """The sorted images of the inverse must be the product fixed set, which
    catches an inverse that merges two points, misses a point of the
    n-tuple or leaves the fixed set; a bijection that is not forward's
    inverse fails forward . inverse."""
    C2 = cyclic_group(2)
    W = wreath(C2, 2)
    X = GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])
    red = reduce_tuple(CommutingTuple(W, (W.encode((1, 0), (0, 1)),)))
    assert red.transport(X).product_fixed == [(2, 0), (2, 1), (2, 2)]
    inverse = orbits.TransportData.inverse
    swap = {(2, 0): (2, 1), (2, 1): (2, 0)}
    broken = {"merge": lambda data, ys: inverse(data, (2, 0) if ys == (2, 1) else ys),
              "miss": lambda data, ys: inverse(data, ys)[:-1],
              "leave": lambda data, ys: (0,) + inverse(data, ys)[1:],
              "swap": lambda data, ys: inverse(data, swap.get(ys, ys))}[fault]
    monkeypatch.setattr(orbits.TransportData, "inverse", broken)
    with pytest.raises(GroupError, match=re.escape(match)):
        red.transport(X)


def test_transport_with_random_basepoints():
    """Labels are relative to each orbit's basepoint, also a random one:
    transport passes on every tuple of C2 wr n <= 3 at d <= 2 over the
    three spaces, with the product fixed set of the plain reduction."""
    rng = random.Random(3)
    moved = 0
    for n in (1, 2, 3):
        W = wreath(cyclic_group(2), n)
        for d in (1, 2):
            for H in commuting_tuples(W, d):
                red = reduce_tuple(H, basepoint_rng=rng)
                plain = reduce_tuple(H)
                moved += red.basepoints != plain.basepoints
                for X in C2_SPACES:
                    assert red.transport(X).product_fixed == \
                        plain.transport(X).product_fixed
    assert moved > 0


# --- shared reductions and fixed tables ---------------------------------------------


REDUCTION_FIELDS = ("group", "elements", "orbits", "basepoints", "stabilizers",
                    "matrices", "reduced", "labels")


def _memo_cases():
    """Every element of C2 wr 4 and every commuting pair of C2 wr 3 and
    S3 wr 2, over groups built afresh for each case list."""
    W4 = wreath(cyclic_group(2), 4)
    cases = [CommutingTuple(W4, (a,)) for a in range(W4.size)]
    for W in (wreath(cyclic_group(2), 3), wreath(symmetric_group(3), 2)):
        cases += commuting_tuples(W, 2)
    return cases


def test_memoized_reductions_equal_fresh_ones():
    """A memo hit, also through rebuilt groups, is the stored reduction and
    equals a reduction computed afresh, field by field."""
    orbits._plain_reduction.cache_clear()
    first = [reduce_tuple(H) for H in _memo_cases()]
    assert orbits._plain_reduction.cache_info().currsize == len(first)
    for H, red in zip(_memo_cases(), first):
        hit = reduce_tuple(H)
        assert hit is red
        fresh = orbits._reduce(H.group, H.elements, None, None)
        for name in REDUCTION_FIELDS:
            assert getattr(hit, name) == getattr(fresh, name), name
        assert hit.to_json() == fresh.to_json()


def test_shared_reductions_cannot_be_mutated():
    W = wreath(symmetric_group(3), 3)
    red = reduce_tuple(CommutingTuple(W, (W.encode((1, 2, 0), (1, 2, 0)),)))
    hash(red)       # every field, nested, is immutable
    with pytest.raises(AttributeError):
        red.orbits = ()
    # no slot to add one to (Python 3.11 raises TypeError from the frozen
    # __setattr__ of a slotted dataclass, later versions AttributeError)
    with pytest.raises((AttributeError, TypeError)):
        red.extra = 1
    with pytest.raises(TypeError):
        red.orbits[0] = (0,)
    with pytest.raises(AttributeError):
        red.stabilizers[0].basis = ()
    with pytest.raises(AttributeError):
        red.reduced[0].elements = ()


def test_reduction_memo_holds_its_bound():
    """Past the bound the least recently used entries go first and the memo
    stays at it: an insert-only stream keeps its last `bound` tuples, and a
    hit saves an entry from the next eviction."""
    memo = orbits._plain_reduction
    memo.cache_clear()
    bound = orbits._REDUCTION_MEMO_BOUND
    assert memo.cache_info().maxsize == bound
    W = wreath(cyclic_group(2), 4)
    tuples = commuting_tuples(W, 2)[:bound + 100]
    assert len(tuples) == bound + 100
    for H in tuples:
        reduce_tuple(H)
    assert memo.cache_info().currsize == bound
    for H in tuples[100:]:
        reduce_tuple(H)
    assert memo.cache_info()[:2] == (bound, bound + 100)      # hits, misses
    reduce_tuple(tuples[0])                 # evicts tuples[100], the least recent
    reduce_tuple(tuples[101])
    assert memo.cache_info()[:2] == (bound + 1, bound + 101)
    reduce_tuple(tuples[1])                 # evicts tuples[102], not tuples[101]
    reduce_tuple(tuples[101])
    reduce_tuple(tuples[100])
    assert memo.cache_info()[:4] == (bound + 2, bound + 103, bound, bound)


def test_randomized_and_hook_reductions_bypass_the_memo(monkeypatch):
    """A reduction with either hook is computed afresh from the caller's
    tuple, checked when it was built and not again: it carries the caller's
    elements and builds tuples only over the base group, one per orbit.
    Only a plain reduction enters the memo, keyed on (W, elements)."""
    memo = orbits._plain_reduction
    memo.cache_clear()
    W = wreath(cyclic_group(2), 3)
    rng = random.Random(4)
    pairs = commuting_tuples(W, 2)[:40]
    built = []      # the group of every CommutingTuple built from here on
    post_init = CommutingTuple.__post_init__
    monkeypatch.setattr(CommutingTuple, "__post_init__",
                        lambda self: built.append(self.group) or post_init(self))
    expected = 0
    for H in pairs:
        red = reduce_tuple(H, basepoint_rng=rng)
        hooked = reduce_tuple(H, basis=lambda L: L.basis)
        assert red.elements is H.elements and hooked.elements is H.elements
        expected += len(red.orbits) + len(hooked.orbits)
    assert built == [W.base] * expected     # one per reduced orbit, none over W
    assert memo.cache_info().currsize == 0
    H = CommutingTuple(W, (W.encode((1, 0, 0), (1, 2, 0)),))
    plain = reduce_tuple(H)
    assert reduce_tuple(H, basepoint_rng=rng) is not plain
    assert reduce_tuple(H, basis=lambda L: L.basis) is not plain
    assert memo.cache_info().currsize == 1 and memo(W, H.elements) is plain


def test_fixed_point_bijection_suite_reduces_past_the_memo():
    """The suite's tuples each occur once, so it neither stores them nor
    pushes out the reductions that other callers left."""
    from charops.verify import suite_fixed_point_bijection

    memo = orbits._plain_reduction
    memo.cache_clear()
    W = wreath(cyclic_group(2), 3)
    kept = reduce_tuple(CommutingTuple(W, (W.encode((1, 0, 0), (1, 2, 0)),)))
    assert suite_fixed_point_bijection(max_n=3).passed
    assert memo.cache_info()[1:] == (1, orbits._REDUCTION_MEMO_BOUND, 1)
    assert memo(W, kept.elements) is kept


C2_SPACES = [GSet.trivial(cyclic_group(2), 2),
             GSet(cyclic_group(2), 2, [[0, 1], [1, 0]]),
             GSet(cyclic_group(2), 3, [[0, 1], [1, 0], [2, 2]])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_table_matches_per_tuple_action(n):
    """The one table per (W, X), built once, equals the rows `apply_array`
    gives each element alone, and a tuple's rows are read off it."""
    memo = orbits._fixed_table
    memo.cache_clear()
    W = wreath(C2_SPACES[0].group, n)
    for X in C2_SPACES:
        power = PowerGSet(X, W)
        codes = np.arange(power.size)
        rows = orbits._fixed_rows(power, tuple(range(W.size)))
        table = memo(W, X)      # a hit: the table `_fixed_rows` read
        assert table.shape == (W.size, power.size) and not table.flags.writeable
        for w in range(W.size):
            expected = power.apply_array(np.array([[w]]), codes)[0] == codes
            assert (table[w] == expected).all() and (rows[w] == expected).all()
        for H in commuting_tuples(W, 2)[::7]:
            expected = (power.apply_array(np.array(H.elements)[:, None], codes)
                        == codes)
            assert (orbits._fixed_rows(power, H.elements) == expected).all()
    assert memo.cache_info().misses == memo.cache_info().currsize == len(C2_SPACES)


def test_fixed_rows_above_the_table_bound_are_not_kept(monkeypatch):
    orbits._fixed_table.cache_clear()
    monkeypatch.setattr(orbits, "_FIXED_TABLE_BOUND", 0)
    W = wreath(cyclic_group(2), 3)
    X = C2_SPACES[2]
    for H in commuting_tuples(W, 2):
        assert fixed_point_transport(X, H).product_fixed == product_fixed_oracle(X, H)
    assert orbits._fixed_table.cache_info().currsize == 0
