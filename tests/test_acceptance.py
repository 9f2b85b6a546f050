"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification suite at its stated tolerance,
prints the pass/fail line, and enforces the runtime budget where one is
declared.  Tolerances are fixed here, not configurable.
"""

from charops.verify import (
    buggy_adams_full_degree,
    suite_adams_character,
    suite_adams_coherence,
    suite_choice_independence,
    suite_consistency_relations,
    suite_counts,
    suite_etheory,
    suite_fixed_point_bijection,
    suite_hecke,
    suite_oracle_equivalence,
    suite_sl2_invariance,
)


def report(result):
    print(result.line())
    return result


def test_criterion_01_oracle_equivalence():
    """Tensor-trace oracle equals the geometric power operation, 1e-9."""
    r = report(suite_oracle_equivalence(tol=1e-9, arities=(2, 3)))
    assert r.passed
    assert r.checks == 22
    assert r.max_deviation < 1e-9
    assert r.seconds < 30


def test_criterion_02_consistency_relations():
    """Restriction relations on 20 random invariant functions per
    configuration: exact at height 1 degree 0, 1e-9 at height 2."""
    r = report(suite_consistency_relations(seed=0, tol=1e-9, n_funcs=20))
    assert r.passed
    assert r.checks == 880
    assert "height-1 exact dev 0.0e+00" in r.detail
    assert r.seconds < 60


def test_criterion_03_adams_coherence():
    """adams_via_power equals adams for d in {1,2}, n in {2,3},
    G in {C2, C4, S3}: exact at height 1, 1e-9 at height 2."""
    r = report(suite_adams_coherence(seed=0, tol=1e-9))
    assert r.passed
    assert r.checks == 94
    assert "height-1 exact dev 0.0e+00" in r.detail
    assert r.seconds < 60


def test_criterion_03b_exponent_mutation_detected():
    """The full-degree Adams scaling must fail the coherence suite."""
    r = report(suite_adams_coherence(seed=0, tol=1e-9,
                                     adams_impl=buggy_adams_full_degree))
    assert not r.passed


def test_criterion_04_adams_character_formula():
    """Psi_n of a character evaluates characters at n-th powers, 1e-9,
    all built-in representations, n <= 4."""
    r = report(suite_adams_character(tol=1e-9, max_n=4))
    assert r.passed
    assert r.checks == 64


def test_criterion_05_fixed_point_bijection():
    """Two-sided-inverse transport for every commuting tuple in
    C2 wr Sigma_n, n <= 4, d <= 2, over 3 test spaces."""
    r = report(suite_fixed_point_bijection(max_n=4, max_d=2))
    assert r.passed
    # 3 spaces x (all 1-tuples + all commuting pairs of C2 wr Sigma_n, n<=4):
    # 3 * ((2+4) + (8+40) + (48+480) + (384+7680)) transports
    assert r.checks == 3 * (6 + 48 + 528 + 8064)
    assert r.seconds < 60


def test_criterion_06_sl2_invariance_propagation():
    """Power operations preserve basis-change invariance, 1e-9 on the
    published tau samples; inputs include E4 and E6 slots."""
    r = report(suite_sl2_invariance(seed=0, tol=1e-9, arities=(2, 3)))
    assert r.passed
    assert r.checks == 564


def test_criterion_07_hecke_eigencheck():
    """S_2(E4)/E4 = 9/8 and S_3(E4)/E4 = 28/27 at 1e-6, plus agreement with
    the q-expansion Hecke oracle under S_n = n^(1-w) T_n."""
    r = report(suite_hecke(tol=1e-6))
    assert r.passed
    assert r.checks == 16


def test_criterion_08_choice_independence():
    """50 randomized basepoint/basis reductions leave outputs unchanged."""
    r = report(suite_choice_independence(seed=0, tol=1e-9, runs=50))
    assert r.passed
    assert r.checks == 1200
    assert "height-1 exact dev 0.0e+00" in r.detail


def test_criterion_09_etheory_agreement():
    """Pseudo-power operations for two distinct sections agree with each
    other and with the height-1 power operation, exactly, on 2-groups."""
    r = report(suite_etheory(seed=0, p=2, arities=(2, 4)))
    assert r.passed
    assert r.checks == 349
    assert r.max_deviation == 0.0


def test_criterion_10_count_checks():
    """|S3 commuting pairs / conj| = 8; sublattice counts are sigma_1(n)."""
    r = report(suite_counts())
    assert r.passed
    assert r.checks == 55


def test_seed_variation_same_verdicts():
    """Seeded suites give identical verdicts for different seeds."""
    for suite in (suite_adams_coherence, suite_choice_independence,
                  suite_etheory):
        a = suite(seed=0)
        b = suite(seed=12345)
        assert a.passed == b.passed
