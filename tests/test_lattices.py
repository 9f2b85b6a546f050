import itertools
import random

import pytest

from charops.groups import commuting_tuple_array, wreath, cyclic_group, symmetric_group
from charops.lattices import (
    LatticeError,
    Sublattice,
    hnf,
    int_mat_det,
    mat_identity,
    orbit_lattice,
    random_unimodular,
    stabilizer_lattice,
    sublattices_of_index,
)


def spans_equal(A, B, box=8):
    """Oracle: two 2x2 bases span the same lattice iff membership agrees on a
    box of vectors.  Membership of v in span(rows M): v adj(M) = 0 mod det."""

    def member(M, v):
        det = int_mat_det([list(r) for r in M])
        adj = ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))
        x = (v[0] * adj[0][0] + v[1] * adj[1][0],
             v[0] * adj[0][1] + v[1] * adj[1][1])
        return x[0] % det == 0 and x[1] % det == 0

    for v in itertools.product(range(-box, box + 1), repeat=2):
        if member(A, v) != member(B, v):
            return False
    return True


def test_hnf_example():
    out = hnf(((1, 2), (3, 4)))
    assert out == ((1, 0), (0, 2))
    assert spans_equal(((1, 2), (3, 4)), out)


def test_hnf_identity():
    assert hnf(((1, 0), (0, 1))) == ((1, 0), (0, 1))


def test_hnf_sign_normalization():
    assert hnf(((2, 0), (0, -1))) == ((2, 0), (0, 1))


def test_hnf_idempotent_and_det():
    rng = random.Random(0)
    for _ in range(200):
        M = tuple(tuple(rng.randrange(-5, 6) for _ in range(2)) for _ in range(2))
        det = int_mat_det([list(r) for r in M])
        if det == 0:
            with pytest.raises(LatticeError):
                hnf(M)
            continue
        H = hnf(M)
        assert hnf(H) == H
        assert int_mat_det([list(r) for r in H]) == abs(det)
        assert spans_equal(M, H)
        # shape: upper triangular, positive diagonal, reduced corner
        assert H[1][0] == 0 and H[0][0] > 0 and H[1][1] > 0
        assert 0 <= H[0][1] < H[1][1]


def test_hnf_rank3():
    M = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
    H = hnf(M)
    assert all(H[i][j] == 0 for j in range(3) for i in range(j + 1, 3))
    assert int_mat_det([list(r) for r in H]) == abs(int_mat_det([list(r) for r in M]))


def sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sublattices_of_index_2():
    subs = sublattices_of_index(2, 2)
    bases = [L.basis for L in subs]
    assert bases == [((1, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 0), (0, 1))]
    assert len(subs) == sigma1(2) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_sublattice_counts_and_distinct_spans(n):
    subs = sublattices_of_index(2, n)
    assert len(subs) == sigma1(n)
    for L in subs:
        assert L.index == n
    for A, B in itertools.combinations(subs, 2):
        assert not spans_equal(A.basis, B.basis)


def test_sublattices_rank1():
    subs = sublattices_of_index(1, 5)
    assert len(subs) == 1 and subs[0].basis == ((5,),)


def test_sublattices_bad_rank():
    with pytest.raises(LatticeError):
        sublattices_of_index(3, 2)


def test_membership():
    L = Sublattice(((1, 1), (0, 2)))
    # oracle: integer combinations of the rows, brute force over a box
    inside = {(a * 1 + b * 0, a * 1 + b * 2)
              for a in range(-10, 11) for b in range(-10, 11)}
    for v in itertools.product(range(-4, 5), repeat=2):
        assert L.contains(v) == (v in inside)


# --- stabilizer lattices ------------------------------------------------------


def test_stabilizer_parity_kernel():
    # two points, first generator swaps them, second is trivial
    L = stabilizer_lattice([(1, 0), (0, 1)], 0)
    assert L.basis == ((2, 0), (0, 1))
    assert L.index == 2


def test_stabilizer_diagonal_parity():
    # both generators swap: kernel is {v1 + v2 even}
    L = stabilizer_lattice([(1, 0), (1, 0)], 0)
    assert L.basis == ((1, 1), (0, 2))
    # brute-force oracle over representatives of Z^2 / (2Z)^2
    for v1, v2 in itertools.product(range(2), repeat=2):
        fixes = (v1 + v2) % 2 == 0
        assert L.contains((v1, v2)) == fixes


def test_stabilizer_cycle():
    n = 5
    cyc = tuple((i + 1) % n for i in range(n))
    L = stabilizer_lattice([cyc], 0)
    assert L.basis == ((n,),)


def test_stabilizer_requires_transitive():
    with pytest.raises(LatticeError):
        stabilizer_lattice([(0, 1, 2)], 0)  # identity on 3 points


def test_stabilizer_requires_commuting():
    s = (1, 0, 2)
    t = (0, 2, 1)
    with pytest.raises(LatticeError):
        stabilizer_lattice([s, t], 0)


@pytest.mark.parametrize("entry,args", [
    (stabilizer_lattice, ([(1, 1)], 0)),             # not a permutation: the walk never ended
    (stabilizer_lattice, ([(0, 1)], -1)),            # basepoint never revisited
    (stabilizer_lattice, ([(1, 0), (0, 1, 2)], 0)),  # lengths differ
    (stabilizer_lattice, ([(1, 0, 2), (0, 1)], 0)),
    (stabilizer_lattice, ([(0, 1)], 5)),             # basepoint out of range
    (hnf, (((0.5, 0.3), (0.2, 1)),)),                # floats were reduced as if exact
    (hnf, (((1.5, 0), (0, 1)),)),
    (hnf, (((True, 0), (0, 1)),)),
], ids=["repeated-point", "basepoint-minus-1", "longer-second", "shorter-second",
        "basepoint-5", "float-matrix", "float-pivot", "bool-entry"])
def test_lattice_entry_points_refuse_malformed_input(entry, args):
    with pytest.raises(LatticeError):
        entry(*args)


def test_stabilizer_of_no_permutations_is_the_rank_0_lattice():
    assert stabilizer_lattice([], 0) == Sublattice((), d=0)


def test_stabilizer_index_equals_orbit_size_wreath():
    """For tuples from wreath products, the kernel index equals the orbit size."""
    from charops.orbits import reduce_tuple
    for G in (cyclic_group(2), symmetric_group(3)):
        for n in (2, 3, 4):
            W = wreath(G, n)
            rng = random.Random(n)
            for _ in range(25):
                a = rng.randrange(W.size)
                b = rng.choice([x for x in range(W.size)
                                if W.commutes(a, x)]) if W.size <= 400 else None
                from charops.groups import CommutingTuple
                tuples = [CommutingTuple(W, (a,))]
                if b is not None:
                    tuples.append(CommutingTuple(W, (a, b)))
                for H in tuples:
                    red = reduce_tuple(H)
                    for orbit, stab in zip(red.orbits, red.stabilizers):
                        assert stab.index == len(orbit)


def _walk(perms, v, p):
    """sigma^v(p) for v >= 0, one permutation step at a time."""
    for sigma, k in zip(perms, v):
        for _ in range(k):
            p = sigma[p]
    return p


def _permutation_parts():
    """(n, sigma tuple) of every commuting tuple of C2 wr n <= 4 and S3 wr
    n <= 3 at d <= 2, and of C2 wr 3 at d = 3, without repeats: the walk
    sees only the permutations."""
    cases = [(G, n, d) for G, top in ((cyclic_group(2), 4), (symmetric_group(3), 3))
             for n in range(1, top + 1) for d in (0, 1, 2)]
    cases.append((cyclic_group(2), 3, 3))
    parts = set()
    for G, n, d in cases:
        W = wreath(G, n)
        for row in commuting_tuple_array(W, d).tolist():
            parts.add((n, tuple(W.decode(a)[1] for a in row)))
    return sorted(parts)


def test_orbit_lattice_matches_brute_force():
    """At every basepoint b of every case: the labels cover the closure of b
    under the generators, lie in the box of L's diagonal and each maps b to
    its point; every HNF row fixes b; the index is the orbit size m; and
    every v in [0, 2m)^d with sigma^v(b) = b lies in L."""
    for n, perms in _permutation_parts():
        d = len(perms)
        for b in range(n):
            labels, L = orbit_lattice(perms, b)
            orbit = [b]
            for p in orbit:
                for s in perms:
                    if s[p] not in orbit:
                        orbit.append(s[p])
            m = len(orbit)
            assert sorted(labels) == sorted(orbit) and L.d == d and L.index == m
            for p, v in labels.items():
                assert all(0 <= v[i] < L.basis[i][i] for i in range(d))
                assert _walk(perms, v, b) == p
            for row in L.basis:
                assert min(row) >= 0 and _walk(perms, row, b) == b
            for v in itertools.product(range(2 * m), repeat=d):
                if _walk(perms, v, b) == b:
                    assert L.contains(v), (perms, b, v)


def test_oriented_basis_matrix():
    assert Sublattice(mat_identity(2), d=2).basis == ((1, 0), (0, 1))
    assert Sublattice(((2,),)).basis == ((2,),)
    L = stabilizer_lattice([(1, 0), (0, 1)], 0)
    M = L.basis
    assert M == ((2, 0), (0, 1))
    assert int_mat_det([list(r) for r in M]) == 2


def test_random_unimodular():
    rng = random.Random(9)
    for _ in range(50):
        U = random_unimodular(2, rng)
        assert int_mat_det([list(r) for r in U]) == 1
