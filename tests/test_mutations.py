"""The mutation matrix: evidence that the verify suites can fail.

Each row replaces one package function by a copy with exactly one change
(`mutant`: one substring of its source replaced, compiled against its own
module) and asserts that the suites it names report FAIL, run through
`run_all_suites` so that a construction error inside a suite is its FAIL.
The suites run at desk-scale parameters they already take (`DESK_SUITES`);
unmutated, at the same parameters, every one of them passes.  A row patches
the function it changes, never a helper that other functions share, so a
mutant cannot hide behind another.

Two mutants survive every suite.  One is killed by a Tier-1 test and records
it; the other is a known survivor, asserted so that this file flags the
change once a check kills it.
"""

import functools
import inspect
import sys
import textwrap

import pytest

import test_orbit_kernel
from charops import groups, lattices, orbits, powerops, verify

DESK_SUITES = [
    ("oracle-equivalence", functools.partial(verify.suite_oracle_equivalence, arities=(2,))),
    ("consistency-relations",
     functools.partial(verify.suite_consistency_relations, n_funcs=2)),
    ("adams-coherence", verify.suite_adams_coherence),
    ("adams-character", functools.partial(verify.suite_adams_character, max_n=2)),
    ("fixed-point-bijection",
     functools.partial(verify.suite_fixed_point_bijection, max_n=2)),
    ("sl2-invariance", functools.partial(verify.suite_sl2_invariance, arities=(2,))),
    ("hecke-eigencheck", verify.suite_hecke),
    ("choice-independence", functools.partial(verify.suite_choice_independence, runs=8)),
    ("etheory-agreement", functools.partial(verify.suite_etheory, arities=(2,))),
    ("count-checks", verify.suite_counts),
]


def mutant(function, old, new):
    """A copy of `function` whose source has its one occurrence of `old`
    replaced by `new`, compiled against the globals of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not one place in {function.__name__}"
    namespace = {}
    exec(source.replace(old, new), vars(sys.modules[function.__module__]), namespace)
    return namespace[function.__name__]


def replace(monkeypatch, function, replacement):
    """Bind `replacement` wherever a charops module binds `function`."""
    modules = [m for name, m in sys.modules.items()
               if name == "charops" or name.startswith("charops.")]
    bound = [(m, name) for m in modules for name, value in vars(m).items()
             if value is function]
    assert bound
    for module, name in bound:
        monkeypatch.setattr(module, name, replacement)


def run_desk_suites(monkeypatch, names=tuple(name for name, _ in DESK_SUITES)):
    """The results of the named desk-scale suites (all ten by default) at
    seed 0."""
    monkeypatch.setattr(verify, "ALL_SUITES", [s for s in DESK_SUITES if s[0] in names])
    return verify.run_all_suites(seed=0)


def failures(results):
    return [r.line() for r in results if not r.passed]


@pytest.fixture(autouse=True)
def fresh_reductions():
    """Reductions are memoized across callers: a mutant must not read the
    memo of correct code, nor leave its own behind."""
    orbits._plain_reduction.cache_clear()
    yield
    orbits._plain_reduction.cache_clear()


MATRIX = [
    pytest.param(powerops._power_value, "v = scale_by_degree(len(orbit), v)", "v = v",
                 ["adams-coherence"], id="power value without degree scaling"),
    pytest.param(powerops._power_value, "weight_slash_graded(red.matrices[k], v)",
                 "weight_slash_graded(tuple(zip(*red.matrices[k])), v)",
                 ["consistency-relations", "sl2-invariance", "choice-independence"],
                 id="transposed slash matrix"),
    pytest.param(orbits._coordinate, "G.mul(out, G.inv(bases[p]))", "G.mul(out, bases[p])",
                 ["choice-independence"], id="coordinate without the inverse"),
    pytest.param(groups._transitive_block, "entries[q] = h.at(coeffs)",
                 "entries[p] = h.at(coeffs)", ["count-checks"],
                 id="base entry at the wrong point"),
    pytest.param(powerops.hecke_like, "sublattices_of_index(2, n)",
                 "sublattices_of_index(2, n + 1)", ["hecke-eigencheck"],
                 id="hecke sum over the wrong index"),
    pytest.param(lattices.orbit_lattice, "translates[q] = (t,) + v",
                 "translates[q] = ((t + 1) % a,) + v",
                 ["consistency-relations", "adams-coherence", "fixed-point-bijection",
                  "sl2-invariance"], id="orbit walk with wrong labels"),
]


def test_the_desk_scale_suites_pass_unmutated(monkeypatch):
    results = run_desk_suites(monkeypatch)
    assert [r.name for r in results] == [name for name, _ in DESK_SUITES]
    assert failures(results) == []


@pytest.mark.parametrize("function,old,new,killers", MATRIX)
def test_the_named_suites_kill_each_mutant(monkeypatch, function, old, new, killers):
    replace(monkeypatch, function, mutant(function, old, new))
    assert [r.name for r in run_desk_suites(monkeypatch, killers) if not r.passed] == killers


def test_full_degree_adams_fails_adams_coherence(monkeypatch):
    """The full-degree Adams scaling n^deg, at the suite's own parameters."""
    monkeypatch.setattr(verify, "adams", verify.buggy_adams_full_degree)
    r = verify.suite_adams_coherence(seed=0)
    assert not r.passed
    assert r.max_deviation == 4242016.858584542


def test_s_inverse_in_pair_moves_is_killed_by_the_move_test(monkeypatch):
    """S^-1 = -S, and -I = S^2 sends (g, h) to (g^-1, h^-1) and slashes every
    even weight trivially: on a function invariant under S^2, as every
    input and output of the suites is, the checks at S and at S^-1 agree.
    The move-level test compares S itself with the scalar basis change."""
    s_inverse = mutant(groups.pair_moves, "np.stack([h, G.inv_array(g)], axis=1)",
                       "np.stack([G.inv_array(h), g], axis=1)")
    replace(monkeypatch, groups.pair_moves, s_inverse)
    monkeypatch.setattr(test_orbit_kernel, "pair_moves", s_inverse)
    with pytest.raises(AssertionError):
        test_orbit_kernel.test_sl2_moves_match_the_scalar_basis_change("S3")
    assert failures(run_desk_suites(monkeypatch)) == []


def test_the_basepoint_mutant_survives(monkeypatch):
    """Reading each orbit's value at its last point, not at its basepoint,
    changes nothing the suites see: every suite evaluates on the one-point
    space, where all points of X^n are the same point.  Checks of power
    operations over G-sets with more than one point would kill it."""
    replace(monkeypatch, powerops._power_value, mutant(
        powerops._power_value, "x_points[red.basepoints[k]]", "x_points[orbit[-1]]"))
    assert failures(run_desk_suites(monkeypatch)) == []
