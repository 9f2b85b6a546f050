import cmath
import math
import random

import pytest

from charops import coefficients
from charops.coefficients import (
    DEFAULT_TAU_SAMPLES,
    GradedValue,
    LatFunction,
    TOL,
    divisor_power_sums,
    eisenstein_series,
    graded_deviation,
    graded_product,
    graded_sum,
    graded_to_json,
    graded_from_json,
    kernel_table,
    kernels_from_json,
    scale_by_degree,
    weight_slash_graded,
)
from charops.classfn import ClassFunction
from charops.groups import cyclic_group
from charops.lattices import LatticeError, mat_mul
from charops.powerops import hecke_like, power_operation
from charops.verify import random_height2_function, sample_commuting_pairs
from references import check_weight_homogeneity, eisenstein_e2

E4 = eisenstein_series(4, 400)
E6 = eisenstein_series(6, 400)


def brute_sigma(n, k):
    """sigma_k(n), brute force over divisors: the reference for the sieve."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_eisenstein_coefficients():
    assert E4.q_coefficients()[1] == 240           # 240 * sigma3(1)
    assert E4.q_coefficients()[2] == 2160          # 240 * sigma3(2) = 240 * 9
    assert E6.q_coefficients()[1] == -504
    assert len(E4.q_coefficients()) == len(E6.q_coefficients()) == 400
    for n in range(1, 400):
        assert E4.q_coefficients()[n] == 240 * brute_sigma(n, 3)
        assert E6.q_coefficients()[n] == -504 * brute_sigma(n, 5)


def test_divisor_power_sum():
    assert brute_sigma(12, 1) == 1 + 2 + 3 + 4 + 6 + 12
    assert brute_sigma(0, 3) == 0
    for k in (1, 3, 5):
        assert divisor_power_sums(400, k) == [brute_sigma(n, k) for n in range(400)]
    assert divisor_power_sums(1, 3) == [0]


def test_weight_homogeneity():
    rng = random.Random(0)
    assert check_weight_homogeneity(E4, rng) < 1e-9
    assert check_weight_homogeneity(E6, rng) < 1e-9


def test_weight_slash_scalar_matrix():
    # n * Id acts by n^-weight (weight homogeneity)
    for tau in DEFAULT_TAU_SAMPLES:
        lhs = E4.slash(((3, 0), (0, 3))).at_tau(tau)
        rhs = 3 ** (-4) * E4.at_tau(tau)
        assert abs(lhs - rhs) < 1e-9


def test_weight_slash_identity():
    F = E4.slash(((1, 0), (0, 1)))
    for tau in DEFAULT_TAU_SAMPLES:
        assert abs(F.at_tau(tau) - E4.at_tau(tau)) < 1e-12


def test_weight_slash_example():
    # rows (2,0),(0,1) on E4 at (l, l') = (1, 2i): F(2, 2i) = 2^-4 E4(i)
    F = E4.slash(((2, 0), (0, 1)))
    lhs = F.evaluate(1.0, 2j)
    rhs = 2 ** (-4) * E4.at_tau(1j)
    assert abs(lhs - rhs) < 1e-6


def test_weight_slash_rejects_negative_det():
    with pytest.raises(LatticeError):
        E4.slash(((0, 1), (1, 0)))


def test_slash_functorial():
    rng = random.Random(5)
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1)), ((1, 0), (0, 2))]
    for _ in range(30):
        M1, M2 = rng.choice(mats), rng.choice(mats)
        lhs = E4.slash(M1).slash(M2)
        rhs = E4.slash(mat_mul(M1, M2))
        for tau in DEFAULT_TAU_SAMPLES:
            assert abs(lhs.at_tau(tau) - rhs.at_tau(tau)) < 1e-9


def test_e4_modular_invariance():
    # SL2(Z) generators act trivially on a modular form
    for gamma in (((0, -1), (1, 0)), ((1, 1), (0, 1))):
        G4 = E4.slash(gamma)
        G6 = E6.slash(gamma)
        for tau in DEFAULT_TAU_SAMPLES:
            assert abs(G4.at_tau(tau) - E4.at_tau(tau)) < 1e-9
            assert abs(G6.at_tau(tau) - E6.at_tau(tau)) < 1e-9


def test_tau_function_not_invariant():
    # the quasimodular E2 in weight 2 must break under S
    F = eisenstein_e2()
    S = ((0, -1), (1, 0))
    devs = [abs(F.slash(S).at_tau(t) - F.at_tau(t)) for t in DEFAULT_TAU_SAMPLES]
    assert max(devs) > 0.5


# --- graded values ---------------------------------------------------------


def test_scale_by_degree():
    v = GradedValue("complex", {0: 3.0, 1: 2.0, 2: 5.0})
    out = scale_by_degree(2.0, v)
    assert out.components[0] == 3.0
    assert out.components[1] == 4.0
    assert out.components[2] == 20.0
    assert scale_by_degree(1.0, v) is v
    w = GradedValue("complex", {0: 7.0})
    assert scale_by_degree(3.0, w).components[0] == 7.0


def test_scale_by_degree_composes():
    v = GradedValue("complex", {1: 1.0, 3: 2.0})
    a = scale_by_degree(6.0, v)
    b = scale_by_degree(2.0, scale_by_degree(3.0, v))
    assert graded_deviation(a, b) <= TOL


def test_graded_product_unit():
    u = GradedValue.unit("complex")
    v = GradedValue("complex", {0: 2.0, 2: 1.5})
    assert graded_deviation(graded_product(u, v), v) <= TOL


def test_graded_product_degree_additivity():
    a = GradedValue("complex", {1: 2.0})
    b = GradedValue("complex", {1: 3.0})
    out = graded_product(a, b)
    assert out.degrees == [2]
    assert out.components[2] == 6.0


def test_graded_product_commutative_associative():
    rng = random.Random(2)
    for _ in range(20):
        vals = [GradedValue("complex",
                            {j: complex(rng.randint(-3, 3), rng.randint(-3, 3))
                             for j in range(3)})
                for _ in range(3)]
        a, b, c = vals
        assert graded_deviation(graded_product(a, b), graded_product(b, a)) == 0
        assert graded_deviation(graded_product(graded_product(a, b), c),
                                graded_product(a, graded_product(b, c))) <= 1e-12


def test_graded_product_lat_oracle():
    # (E4 in slot 4) * (E4 in slot 4) evaluated at 2i equals E4(2i)^2
    v = GradedValue("lat", {4: E4})
    out = graded_product(v, v)
    assert out.degrees == [8]
    lhs = out.components[8].at_tau(2j)
    rhs = E4.at_tau(2j) ** 2
    assert abs(lhs - rhs) < 1e-6


def test_weight_slash_graded():
    v = GradedValue("lat", {0: LatFunction.constant(2.0), 4: E4})
    out = weight_slash_graded(((2, 0), (0, 1)), v)
    assert abs(out.components[0].at_tau(1j) - 2.0) < 1e-12
    assert abs(out.components[4].evaluate(1, 2j) - 2 ** -4 * E4.at_tau(1j)) < 1e-6


def test_graded_value_weight_mismatch():
    with pytest.raises(LatticeError):
        GradedValue("lat", {2: E4})


def test_graded_json_roundtrip():
    v = GradedValue("complex", {0: 1 + 2j, 2: -1.5})
    back = graded_from_json(graded_to_json(v))
    assert back.kind == v.kind and graded_deviation(v, back) == 0

    # height 2: components are written as terms against one kernels table;
    # decoding it reproduces every scale, factor and matrix exactly
    S = ((0, -1), (1, 0))
    for w in (GradedValue("lat", {4: E4}),
              GradedValue("lat", {0: 2 - 1j,
                                  8: E4 * E4.slash(((2, 1), (0, 1))).scale(-1) + E4 * E4,
                                  10: (E4 + E4.slash(S)).scale(3j) * E6})):
        index = kernel_table([w])
        data = graded_to_json(w, index)
        back = graded_from_json(data, "lat",
                                kernels_from_json([k.to_json() for k in index]))
        assert back.kind == w.kind and graded_deviation(w, back) == 0
        assert graded_to_json(back, kernel_table([back])) == data


def test_lat_function_normal_form():
    S = ((0, -1), (1, 0))
    F = E4.slash(S) * E6 + E6 * E4.slash(S)     # equal terms merge
    assert len(F.terms) == 1
    assert len((F + F.scale(-1)).terms) == 0    # cancelling terms drop
    assert LatFunction.constant(2.0).terms == {(): 2 + 0j}
    assert (E4 * LatFunction.constant(1.0)).terms == E4.terms
    for tau in DEFAULT_TAU_SAMPLES:
        assert abs(F.at_tau(tau) - 2 * E4.at_tau(tau) * E6.at_tau(tau)) < 1e-9


def test_term_cap():
    side = int(coefficients._MAX_TERMS ** 0.5) + 1
    A = E4
    B = E6
    for k in range(1, side):
        A = A + E4.slash(((1, k), (0, 1)))
        B = B + E6.slash(((1, k), (0, 1)))
    assert len(A.terms) == len(B.terms) == side
    with pytest.raises(LatticeError):
        A * B


def test_graded_sum_scale():
    a = GradedValue("complex", {0: 1.0})
    b = GradedValue("complex", {0: 2.0, 2: 1.0})
    assert graded_sum(a, b).components[0] == 3.0


def test_a_value_compared_with_itself_is_not_evaluated():
    """graded_deviation(v, v) is 0.0 without evaluating v, which is what the
    evaluation gives: x - x is 0 or NaN, and the running max drops a NaN.
    A one-coefficient expansion is refused by the truncation guard at every
    default tau, so evaluating it raises."""
    refused = LatFunction.from_q_expansion(0, [1])
    for tau in DEFAULT_TAU_SAMPLES:
        with pytest.raises(LatticeError):
            refused.at_tau(tau)
    v = GradedValue("lat", {0: refused})
    assert graded_deviation(v, v) == 0.0
    nan = GradedValue("lat", {0: LatFunction.from_q_expansion(0, [float("nan")] + [0] * 399)})
    assert graded_deviation(nan, GradedValue("lat", dict(nan.components))) == 0.0


# sampled values against the scalar definition ---------------------------------


def assert_sampled_equals_scalar(F, samples=DEFAULT_TAU_SAMPLES):
    """values() and at_tau agree with evaluate(1.0, tau) bit for bit, on a
    fresh function and again once its sample vector is stored."""
    scalar = [F.evaluate(1.0, tau) for tau in samples]
    assert F.values(samples) == scalar
    assert F.values(samples) == scalar
    assert [F.at_tau(tau) for tau in samples] == scalar
    assert F.values(samples) == scalar


def test_sampled_values_equal_scalar_evaluation():
    for F in (E4, E6, E4.slash(((1, 1), (0, 2))) * E6, hecke_like(E4, 5)):
        assert_sampled_equals_scalar(F)
    C2 = cyclic_group(2)
    P = power_operation(random_height2_function(C2, random.Random(3)), 3, mode="lazy")
    W = P.group
    values = {(t.elements, 0): P.evaluate(t, 0)
              for t in sample_commuting_pairs(W, 6, random.Random(4))}
    assert any(len(F.terms) > 1 for v in values.values() for F in v.components.values())
    back = ClassFunction.from_json(W, ClassFunction.from_values(W, 2, values, kind="lat").to_json())
    for v in list(values.values()) + list(back.values.values()):
        for F in v.components.values():
            assert_sampled_equals_scalar(F)
            assert_sampled_equals_scalar(F, (0.1 + 1.5j, 2j))


def test_exact_matrix_messages():
    check = coefficients._exact_matrix
    for M in (((1, 0),), ((1, 0, 0), (0, 1)), ((1, 0), (0, 1), (0, 0)), 5, ((1, 0), 2)):
        with pytest.raises(LatticeError, match="slash needs a 2x2 matrix"):
            check(M)
    for M in (((1.5, 0), (0, 1)), ((1, 0), (0, 1 + 1e-9))):
        with pytest.raises(LatticeError, match="slash matrix entries must be integers"):
            check(M)
    for M in (((0, 1), (1, 0)), ((1, 0), (0, 0)), ((2, 4), (1, 2))):
        with pytest.raises(LatticeError, match="slash matrix must have positive determinant"):
            check(M)
    M = check([[1.0, 0], [0, 2.0]])
    assert M == ((1, 0), (0, 2)) and all(type(x) is int for row in M for x in row)
    assert isinstance(M, tuple) and all(isinstance(row, tuple) for row in M)


def test_constant_slashes_to_itself():
    for F in (LatFunction.constant(2.5), LatFunction(0, {}), LatFunction(4, {})):
        assert F.slash(((2, 1), (0, 3))) is F
    v = GradedValue("lat", {0: LatFunction.constant(1j), 4: E4})
    w = weight_slash_graded(((2, 1), (0, 3)), v)
    assert w.components[0] is v.components[0] and w.components[4] is not E4


def test_sample_memo_is_bounded_and_eviction_keeps_values():
    bound = coefficients._SAMPLE_MEMO_BOUND
    F = LatFunction.from_q_expansion(4, E4.q_coefficients()[:40])
    (((kernel, _),),) = F.terms
    taus = [complex(-0.5 + i / (bound + 100), 1.0) for i in range(bound + 100)]
    first = [F.at_tau(tau) for tau in taus]
    assert len(kernel._samples) == bound
    assert ((coefficients._IDENTITY, (taus[0],)) not in kernel._samples)
    assert [F.at_tau(tau) for tau in taus[:200]] == first[:200]
    assert first[:200] == [F.evaluate(1.0, tau) for tau in taus[:200]]
    assert len(kernel._samples) == bound


# truncation guard ------------------------------------------------------------------


def test_truncation_guard_reads_the_growth_of_the_stored_coefficients():
    """The guard bounds |c_n| by C n^weight with C taken from the stored
    coefficients (504 for E6).  An expansion scaled by 1e8 passes a guard
    that assumes C = 1 at tau = 0.03i, and is refused now."""
    tau = 0.03j
    absq = abs(cmath.exp(2j * cmath.pi * tau))
    old_guard = 5 * math.log(400) + 400 * math.log(absq) - math.log1p(-absq)
    assert old_guard <= math.log(1e-10)
    term = {"scale": [1.0, 0.0], "factors": [[0, [[1, 0], [0, 1]]]]}
    data = {"4": {"weight": 4, "terms": [term]}}
    kernels = kernels_from_json([{"weight": 4, "q": [[c.real * 1e8, c.imag * 1e8]
                                                     for c in E4.q_coefficients()]}])
    scaled = graded_from_json(data, "lat", kernels).components[4]
    with pytest.raises(LatticeError, match="cannot reach tolerance"):
        scaled.at_tau(tau)
    assert E4.at_tau(tau) == E4.evaluate(1.0, tau)
    assert coefficients._log_growth(4, E4.q_coefficients()) == pytest.approx(math.log(240))
    assert coefficients._log_growth(6, E6.q_coefficients()) == pytest.approx(math.log(504))
    assert coefficients._log_growth(4, (1, float("nan"))) == math.inf


@pytest.mark.parametrize("n_terms", [256, 400])
def test_truncation_guard_accepts_eisenstein_series_where_they_are_used(n_terms):
    """E4 and E6 evaluate at the default tau and, through every Hecke index
    of the CLI sweep, at Im tau >= 1.2."""
    taus = list(DEFAULT_TAU_SAMPLES) + [complex(x, 1.2) for x in (-0.5, -0.25, 0, 0.25, 0.5)]
    for weight in (4, 6):
        F = eisenstein_series(weight, n_terms)
        assert len(F.values(taus)) == len(taus)
        for n in range(2, 9):
            assert len(hecke_like(F, n).values(taus)) == len(taus)
