import itertools
import random

import numpy as np
import pytest

from charops.groups import (
    CommutingTuple,
    GroupError,
    GSet,
    cyclic_group,
    quaternion_group,
    symmetric_group,
    wreath,
)
from charops.orbits import reduce_tuple
from references import cycle_product
from charops.reporacle import (
    Representation,
    adams_character_check,
    builtin_representations,
    character,
    compare_with_geometric,
    cyclic_character,
    permutation_representation,
    quaternion_2d,
    regular_representation,
    standard_s3,
    tensor_power_trace,
    tensor_power_trace_wreath,
    trivial_representation,
)


def test_regular_character_c2():
    C2 = cyclic_group(2)
    chi = character(regular_representation(C2))
    assert chi.evaluate(CommutingTuple(C2, (0,)), 0).components[0] == 2.0
    assert chi.evaluate(CommutingTuple(C2, (1,)), 0).components[0] == 0.0


def test_trivial_character():
    S3 = symmetric_group(3)
    chi = character(trivial_representation(S3))
    for g in range(6):
        assert chi.evaluate(CommutingTuple(S3, (g,)), 0).components[0] == 1.0


def test_standard_s3_character():
    S3 = symmetric_group(3)
    chi = character(standard_s3(S3))
    vals = {}
    for g in range(6):
        vals[S3.perms[g]] = chi.evaluate(CommutingTuple(S3, (g,)), 0).components[0]
    assert abs(vals[(0, 1, 2)] - 2.0) < 1e-12
    assert abs(vals[(1, 0, 2)]) < 1e-12          # transposition
    assert abs(vals[(1, 2, 0)] + 1.0) < 1e-12    # 3-cycle


def test_quaternion_rep():
    Q8 = quaternion_group()
    rho = quaternion_2d(Q8)
    chi = character(rho)
    lab = {name: i for i, name in enumerate(Q8.labels)}
    assert abs(chi.evaluate(CommutingTuple(Q8, (lab["1"],)), 0).components[0] - 2) < 1e-12
    assert abs(chi.evaluate(CommutingTuple(Q8, (lab["-1"],)), 0).components[0] + 2) < 1e-12
    assert abs(chi.evaluate(CommutingTuple(Q8, (lab["i"],)), 0).components[0]) < 1e-12


def test_character_of_direct_sum_is_sum():
    C3 = cyclic_group(3)
    r1 = cyclic_character(C3, 1)
    r2 = cyclic_character(C3, 2)
    mats = [np.block([[r1.matrices[g], np.zeros((1, 1))],
                      [np.zeros((1, 1)), r2.matrices[g]]]) for g in range(3)]
    rsum = Representation(C3, mats, name="sum")
    chi1, chi2, chis = character(r1), character(r2), character(rsum)
    for g in range(3):
        t = CommutingTuple(C3, (g,))
        lhs = chis.evaluate(t, 0).components[0]
        rhs = chi1.evaluate(t, 0).components[0] + chi2.evaluate(t, 0).components[0]
        assert abs(lhs - rhs) < 1e-12


# --- tensor power traces -----------------------------------------------------


def test_tensor_trace_identity_element():
    C2 = cyclic_group(2)
    rho = regular_representation(C2)
    for n in (1, 2, 3):
        tr = tensor_power_trace(rho, n, (0,) * n, tuple(range(n)))
        assert abs(tr - rho.dim ** n) < 1e-12


def test_tensor_trace_swap():
    C2 = cyclic_group(2)
    rho = regular_representation(C2)
    tr = tensor_power_trace(rho, 2, (0, 0), (1, 0))
    assert abs(tr - 2.0) < 1e-12   # trace of the swap on C^2 x C^2


def test_tensor_trace_2cycle_is_product_trace():
    S3 = symmetric_group(3)
    rho = standard_s3(S3)
    rng = random.Random(0)
    for _ in range(30):
        g1, g2 = rng.randrange(6), rng.randrange(6)
        tr = tensor_power_trace(rho, 2, (g1, g2), (1, 0))
        expected = np.trace(rho.matrices[g1] @ rho.matrices[g2])
        assert abs(tr - expected) < 1e-9


def test_tensor_trace_factorizes_over_cycles():
    """The honest tensor trace equals the product of cycle-product traces."""
    S3 = symmetric_group(3)
    rho = standard_s3(S3)
    W = wreath(S3, 3)
    rng = random.Random(1)
    for _ in range(60):
        w = rng.randrange(W.size)
        bases, sigma = W.decode(w)
        tr = tensor_power_trace_wreath(rho, W, w)
        red = reduce_tuple(CommutingTuple(W, (w,)))
        prod = 1.0 + 0j
        for orbit, i_k in zip(red.orbits, red.basepoints):
            cp = cycle_product(S3, bases, sigma, orbit, i_k)
            prod *= np.trace(rho.matrices[cp])
        assert abs(tr - prod) < 1e-9


def test_tensor_budget():
    C2 = cyclic_group(2)
    rho = regular_representation(C2)
    with pytest.raises(GroupError):
        tensor_power_trace(rho, 5, (0,) * 5, tuple(range(5)))


# --- the main comparisons ------------------------------------------------------


def test_compare_trivial_rep():
    S3 = symmetric_group(3)
    for n in (2, 3):
        assert compare_with_geometric(trivial_representation(S3), n) < 1e-12


def test_compare_c2_regular():
    C2 = cyclic_group(2)
    assert compare_with_geometric(regular_representation(C2), 2) < 1e-9


def test_compare_s3_standard_n3():
    S3 = symmetric_group(3)
    assert compare_with_geometric(standard_s3(S3), 3) < 1e-9


def test_compare_permutation_rep():
    C2 = cyclic_group(2)
    X = GSet(C2, 2, [[0, 1], [1, 0]])
    assert compare_with_geometric(permutation_representation(X), 3) < 1e-9


def test_adams_character_check_n1():
    # stored values sit on canonical class representatives; traces of
    # conjugate float matrices agree only to machine precision
    S3 = symmetric_group(3)
    assert adams_character_check(standard_s3(S3), 1) < 1e-12


def test_adams_character_check_c4():
    C4 = cyclic_group(4)
    assert adams_character_check(cyclic_character(C4, 1), 2) < 1e-12


def test_adams_character_check_s3():
    S3 = symmetric_group(3)
    rho = standard_s3(S3)
    for n in (2, 3):
        assert adams_character_check(rho, n) < 1e-9


def test_builtin_representations_lists():
    S3 = symmetric_group(3)
    names = [r.name for r in builtin_representations(S3)]
    assert "trivial" in names and "sign" in names and "standard" in names
    Q8 = quaternion_group()
    names = [r.name for r in builtin_representations(Q8)]
    assert "irrep2" in names
    small = builtin_representations(S3, max_dim=3)
    assert all(r.dim <= 3 for r in small)


def kron_tensor_power_trace(rep, n, bases, perm):
    """Reference: build the dim^n x dim^n matrix of (bases, perm) on V
    tensor n column by column, each column the Kronecker product over slots
    a of column j_{perm^-1(a)} of rho(g_a), and take its trace."""
    dim = rep.dim
    si = [perm.index(a) for a in range(n)]
    idx = list(itertools.product(range(dim), repeat=n))
    M = np.zeros((dim ** n, dim ** n), dtype=complex)
    for col, jt in enumerate(idx):
        vec = rep.matrices[bases[0]][:, jt[si[0]]]
        for a in range(1, n):
            vec = np.kron(vec, rep.matrices[bases[a]][:, jt[si[a]]])
        M[:, col] = vec
    return complex(np.trace(M))


@pytest.mark.parametrize("G", [cyclic_group(2), cyclic_group(3), symmetric_group(3),
                               quaternion_group()], ids=lambda G: G.name)
def test_tensor_trace_matches_kron_matrix(G):
    """Every built-in representation within the dimension budget, n <= 3,
    every element of G wr Sigma_n."""
    for rep in builtin_representations(G, max_dim=3):
        for n in (1, 2, 3):
            W = wreath(G, n)
            for w in range(W.size):
                bases, perm = W.decode(w)
                assert abs(tensor_power_trace(rep, n, bases, perm)
                           - kron_tensor_power_trace(rep, n, bases, perm)) < 1e-12


def test_regular_representation_is_left_translation():
    for G in (cyclic_group(3), symmetric_group(3)):
        rho = regular_representation(G)
        assert rho.name == "regular"
        for g in range(G.size):
            expected = np.zeros((G.size, G.size))
            for x in range(G.size):
                expected[G.mul(g, x), x] = 1.0
            assert np.array_equal(rho.matrices[g], expected)


def test_validate_is_batched_and_rejects_a_bad_non_generator_matrix(monkeypatch):
    """Validation compares rho(x g) with rho(x) rho(g) for generators g in
    batched products, never by scalar multiplication, and still catches a
    corrupted matrix of an element that is no generator."""
    G = wreath(symmetric_group(3), 2)
    mats = [m.copy() for m in regular_representation(G).matrices]
    bad = max(set(range(G.size)) - set(G.generators()) - {G.identity})
    mats[bad] = mats[bad][::-1]
    monkeypatch.setattr(G, "mul", lambda a, b: pytest.fail("scalar multiplication"))
    with pytest.raises(GroupError, match="not a representation"):
        Representation(G, mats)
