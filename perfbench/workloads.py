"""The four benchmark workloads and the checks on their outputs.

Each ``build_<name>(seed, ...)`` generates the workload's seeded inputs (this
is the set-up that ``setup_s`` times) and returns its fixed op list.  An op
is one callable ``fn(tracer)`` that does the work and checks the result
against an independent oracle or identity; a wrong output raises
``CheckFailed``.  Every call from here into charops goes through
``tracer.call("<module>.<function>", ...)`` so a traced run can attribute
time to the layers; untraced runs pass a ``NullTracer``.

The seed only changes values (function coefficients, basepoints, tau
samples, which characters are summed, sampled check points), never the shape
of the op list, so the amount of work per op is nearly the same for every
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import charops.verify as verify
from charops import (
    CommutingTuple,
    GSet,
    LatFunction,
    adams,
    adams_via_power,
    commuting_tuples,
    cyclic_group,
    dihedral_group,
    external_product,
    fixed_point_transport,
    hecke_like,
    power_operation,
    quaternion_group,
    reduce_tuple,
    restrict_along,
    sublattices_of_index,
    symmetric_group,
    tuple_conjugacy_classes,
    wreath,
    wreath_block_inclusion,
    wreath_composition_inclusion,
    wreath_diagonal,
)
from charops.classfn import ClassFunction
from charops.cli import main as cli_main
from charops.coefficients import DEFAULT_TAU_SAMPLES, graded_deviation
from charops.powerops import hecke_q_oracle
from charops.reporacle import (
    Representation,
    builtin_representations,
    character,
    cyclic_character,
    quaternion_2d,
    sign_representation,
    standard_s3,
    tensor_power_trace_wreath,
    trivial_representation,
)

import oracles

TOL = 1e-9

GROUPS = {
    "C1": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
}


class CheckFailed(Exception):
    """An op produced a wrong output."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    fn: object
    # Non-empty when the op is known to fail at this commit; it still counts
    # as failed, but does not make the run incorrect.
    known_defect: str = ""


def _op_seed(rng):
    return rng.randrange(2 ** 32)


# ---------------------------------------------------------------------------
# classify: enumeration of commuting-tuple classes in wreath products

# (G, n, d) queries.  The full grid is G in {C1, C2, C3, C4, S3, D4,
# Q8}, n <= 4, d <= 2, |W| <= 400 at d = 2 and <= 31104 at d = 1; the four
# entries that take 1-5 s each (C2 wr 4, C3 wr 3 and C4 wr 3 at d = 2, S3 wr 4
# at d = 1) are left out so a pass stays near 3 s and a run holds several.
CLASSIFY_GRID = (
    [("C1", n, d) for n in (1, 2, 3, 4) for d in (1, 2)]
    + [("C2", 1, 1), ("C2", 1, 2), ("C2", 2, 1), ("C2", 2, 2), ("C2", 3, 1),
       ("C2", 3, 2), ("C2", 4, 1)]
    + [("C3", 1, 1), ("C3", 1, 2), ("C3", 2, 1), ("C3", 2, 2), ("C3", 3, 1),
       ("C3", 4, 1)]
    + [("C4", 1, 1), ("C4", 1, 2), ("C4", 2, 1), ("C4", 2, 2), ("C4", 3, 1),
       ("C4", 4, 1)]
    + [("S3", 1, 1), ("S3", 1, 2), ("S3", 2, 1), ("S3", 2, 2), ("S3", 3, 1)]
    + [("D4", 1, 1), ("D4", 1, 2), ("D4", 2, 1), ("D4", 2, 2), ("D4", 3, 1)]
    + [("Q8", 1, 1), ("Q8", 1, 2), ("Q8", 2, 1), ("Q8", 2, 2), ("Q8", 3, 1)]
)


def _classify_op(tr, G, n, d, base_counts, seed):
    W = wreath(G, n)
    classes = tr.call("groups.classes", tuple_conjugacy_classes, W, d)
    tr.count("groups.classes_found", len(classes))
    rng = random.Random(seed)
    for cls in classes:
        red = tr.call("orbits.reduce_tuple", reduce_tuple, cls.representative,
                      basepoint_rng=rng)
        check(sorted(p for orbit in red.orbits for p in orbit) == list(range(n)),
              "orbits do not partition the points")
    k_w = oracles.wreath_class_count(base_counts[1], n, 1)
    expected_total = W.size if d == 1 else W.size * k_w
    total = sum(cls.size for cls in classes)
    check(total == expected_total,
          f"class sizes sum to {total}, expected {expected_total}")
    expected = oracles.wreath_class_count(base_counts[d], n, d)
    check(len(classes) == expected,
          f"{len(classes)} classes, generating function gives {expected}")


def build_classify(seed):
    rng = random.Random(seed)
    groups = {name: GROUPS[name]() for name in GROUPS}
    counts = {name: {d: oracles.commuting_class_count(G, d) for d in (1, 2)}
              for name, G in groups.items()}
    ops = []
    for name, n, d in CLASSIFY_GRID:
        G = groups[name]
        ops.append(Op(f"classes {name}wr{n} d={d}",
                      lambda tr, G=G, n=n, d=d, c=counts[name], s=_op_seed(rng):
                      _classify_op(tr, G, n, d, c, s)))
    return ops


# ---------------------------------------------------------------------------
# relations: height-1 restriction relations, tensor oracle, fixed points

# S3 at (j, k) = (2, 1) and (1, 2) is left out: validating its block
# inclusion walks 186k pairs exhaustively and takes 4 s per build.
RELATION_CONFIGS = {"C2": ((1, 1), (2, 1), (1, 2), (2, 2)),
                    "S3": ((1, 1), (2, 2))}
RELATION_PAIRS = 3
ORACLE_CASES = [("C2", 2), ("C2", 3), ("C3", 2), ("C3", 3), ("S3", 2), ("Q8", 2)]
TRANSPORT_TUPLES = 8       # sampled commuting tuples of C2 wr Sigma_n, per n
CLASS_POINT_CAP = 80
# Sources above this size get seeded random elements as check points: their
# class enumeration alone would take seconds.
CLASS_POINT_SOURCE_BOUND = 1024
SAMPLED_POINTS = 40


def _relation_points(tr, group, seed):
    """Points the height-1 relations are checked at: class representatives
    (at most CLASS_POINT_CAP, evenly strided) on small sources, seeded random
    elements on large ones.  The relations are identities, so any point is a
    valid check."""
    if group.size > CLASS_POINT_SOURCE_BOUND:
        rng = random.Random(seed)
        return [CommutingTuple(group, (rng.randrange(group.size),))
                for _ in range(SAMPLED_POINTS)]
    classes = tr.call("groups.classes", tuple_conjugacy_classes, group, 1)
    reps = [cls.representative for cls in classes]
    step = -(-len(reps) // CLASS_POINT_CAP)
    return reps[::step]


def _inclusions_op(tr, state, G, j, k, seed):
    homs = {"alpha": tr.call("classfn.inclusion", wreath_block_inclusion, G, j, k),
            "delta": tr.call("classfn.inclusion", wreath_diagonal, G, G, k)}
    if (j, k) != (1, 1):
        homs["beta"] = tr.call("classfn.inclusion", wreath_composition_inclusion,
                               G, j, k)
    for hom in homs.values():
        check(hom.image[hom.source.identity] == hom.target.identity,
              "inclusion does not preserve the identity")
    state[(id(G), j, k)] = {name: (hom, _relation_points(tr, hom.source, seed))
                            for name, hom in homs.items()}


def _relation_deviation(tr, homs, relation, f, g, j, k):
    hom, points = homs[relation]
    P = lambda h, m: tr.call("powerops.power_operation", power_operation, h, m,
                             mode="lazy")
    if relation == "alpha":
        # alpha* P_{j+k}(f) = P_j(f) x P_k(f)
        lhs = restrict_along(P(f, j + k), hom)
        rhs = external_product(P(f, j), P(f, k))
    elif relation == "beta":
        # beta* P_{jk}(f) = P_j(P_k(f))
        lhs = restrict_along(P(f, j * k), hom)
        rhs = P(P(f, k), j)
    else:
        # delta* (P_k(f) x P_k(g)) = P_k(f x g)
        lhs = restrict_along(external_product(P(f, k), P(g, k)), hom)
        rhs = P(external_product(f, g), k)
    worst = 0.0
    for t in points:
        a = tr.call("classfn.evaluate", lhs.evaluate, t, 0)
        b = tr.call("classfn.evaluate", rhs.evaluate, t, 0)
        worst = max(worst, graded_deviation(a, b))
    return worst


def _height1_relation_op(tr, state, G, j, k, relation, f, g):
    dev = _relation_deviation(tr, state[(id(G), j, k)], relation, f, g, j, k)
    check(dev == 0.0, f"height-1 relation {relation} deviates by {dev!r}")


def _oracle_op(tr, rep, n):
    """Tensor-power trace against the power operation of the character, over
    every conjugacy class of G wr Sigma_n (compare_with_geometric, spanned)."""
    W = wreath(rep.group, n)
    Pn = tr.call("powerops.power_operation", power_operation, character(rep), n)
    worst = 0.0
    for cls in tr.call("groups.classes", tuple_conjugacy_classes, W, 1):
        w = cls.representative.elements[0]
        oracle = tr.call("reporacle.tensor_trace", tensor_power_trace_wreath,
                         rep, W, w)
        geo = tr.call("classfn.evaluate", Pn.evaluate, cls.representative, 0)
        worst = max(worst, abs(oracle - geo.component(0)))
    check(worst < TOL, f"tensor oracle deviates by {worst:.3e}")


def _transport_op(tr, X, H):
    data = tr.call("orbits.transport", fixed_point_transport, X, H)
    expected = 1
    for fixed in data.orbit_fixed:
        expected *= len(fixed)
    check(len(data.product_fixed) == expected, "fixed-point count mismatch")


def _c2_spaces(C2):
    return [GSet.trivial(C2, 2), GSet(C2, 2, [[0, 1], [1, 0]]),
            GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])]


def build_relations(seed):
    rng = random.Random(seed)
    groups = {name: GROUPS[name]() for name in ("C2", "C3", "S3", "Q8")}
    state = {}
    ops = []
    for name, configs in RELATION_CONFIGS.items():
        G = groups[name]
        for j, k in configs:
            ops.append(Op(f"inclusions {name} {j},{k}",
                          lambda tr, G=G, j=j, k=k, s=_op_seed(rng):
                          _inclusions_op(tr, state, G, j, k, s)))
    for name, configs in RELATION_CONFIGS.items():
        G = groups[name]
        pairs = [(verify.random_height1_function(G, rng),
                  verify.random_height1_function(G, rng))
                 for _ in range(RELATION_PAIRS)]
        for j, k in configs:
            relations = ("alpha", "delta") if (j, k) == (1, 1) else ("alpha", "beta", "delta")
            for relation in relations:
                for i, (f, g) in enumerate(pairs):
                    ops.append(Op(
                        f"relation {relation} {name} {j},{k} #{i}",
                        lambda tr, G=G, j=j, k=k, r=relation, f=f, g=g:
                        _height1_relation_op(tr, state, G, j, k, r, f, g)))
    for name, n in ORACLE_CASES:
        G = groups[name]
        for rep in builtin_representations(G, max_dim=3):
            ops.append(Op(f"oracle {name} {rep.name} n={n}",
                          lambda tr, rep=rep, n=n: _oracle_op(tr, rep, n)))
    C2 = groups["C2"]
    spaces = _c2_spaces(C2)
    for n in (2, 3):
        W = wreath(C2, n)
        tuples = ([CommutingTuple(W, (a,)) for a in range(W.size)]
                  + commuting_tuples(W, 2))
        for H in rng.sample(tuples, TRANSPORT_TUPLES):
            for s, X in enumerate(spaces):
                ops.append(Op(f"transport C2wr{n} {H.elements} X{s}",
                              lambda tr, X=X, H=H: _transport_op(tr, X, H)))
    return ops


# ---------------------------------------------------------------------------
# elliptic: height 2 (lattice-function coefficients)

POWER_CASES = [("C1", 2, 2), ("C1", 3, 2), ("C2", 2, 2), ("C2", 3, 2), ("C3", 2, 1)]
ELLIPTIC_RELATION_JK = ((1, 1), (2, 1), (1, 2))
ELLIPTIC_RELATION_PAIRS = 2
# The commuting pairs the height-2 relations are checked at do not depend on
# the workload seed: the cost of an evaluation depends on the pair, and every
# seed should do the same work.
ELLIPTIC_POINTS_SEED = 0
ADAMS_CASES = [("C2", 2), ("C2", 3), ("C4", 2), ("C4", 3), ("S3", 2), ("S3", 3)]
HECKE_INDICES = range(2, 9)


def _power_invariance_op(tr, f, n):
    P = tr.call("powerops.power_operation", power_operation, f, n, mode="lazy")
    M = tr.call("classfn.materialize", P.materialize)
    report = tr.call("classfn.is_invariant", M.is_invariant)
    check(report.ok and report.max_deviation < TOL,
          f"P_{n} invariance deviates by {report.max_deviation:.3e}")


def _height2_relation_op(tr, homs, relation, f, g, j, k):
    dev = _relation_deviation(tr, homs, relation, f, g, j, k)
    check(dev < TOL, f"height-2 relation {relation} deviates by {dev:.3e}")


def _adams_op(tr, f, n, pairs, adams_impl):
    via = tr.call("powerops.adams_via_power", adams_via_power, f, n)
    ref = tr.call("powerops.adams", adams_impl, f, n)
    worst = 0.0
    for t in pairs:
        a = tr.call("classfn.evaluate", via.evaluate, t, 0)
        b = tr.call("classfn.evaluate", ref.evaluate, t, 0)
        worst = max(worst, graded_deviation(a, b))
    check(worst < TOL, f"adams_via_power deviates from adams by {worst:.3e}")


def _hecke_op(tr, F, weight, n, coeffs):
    S = tr.call("powerops.hecke_like", hecke_like, F, n)
    lattices = tr.call("lattices.sublattices", sublattices_of_index, 2, n)
    check(len(lattices) == oracles.sigma(1, n), "wrong number of sublattices")
    T = LatFunction.from_q_expansion(weight, hecke_q_oracle(coeffs, weight, n))
    eigenvalue = n ** (1 - weight) * oracles.sigma(weight - 1, n)
    for tau in DEFAULT_TAU_SAMPLES:
        s = tr.call("coefficients.at_tau", S.at_tau, tau)
        f = tr.call("coefficients.at_tau", F.at_tau, tau)
        t = tr.call("coefficients.at_tau", T.at_tau, tau)
        # S_n(F) = n^(1-w) T_n F, and F is an eigenform: S_n(F) = n^(1-w) sigma_{w-1}(n) F
        check(abs(s - n ** (1 - weight) * t) < TOL, "S_n(F) differs from the q-oracle")
        check(abs(s - eigenvalue * f) < TOL, "S_n(F)/F is not n^(1-w) sigma_{w-1}(n)")


def build_elliptic(seed, adams_impl=adams):
    rng = random.Random(seed)
    groups = {name: GROUPS[name]() for name in ("C1", "C2", "C3", "C4", "S3")}
    funcs = {name: [verify.random_height2_function(G, rng) for _ in range(2)]
             for name, G in groups.items()}
    ops = []
    for name, n, count in POWER_CASES:
        for i, f in enumerate(funcs[name][:count]):
            ops.append(Op(f"power {name} n={n} #{i}",
                          lambda tr, f=f, n=n: _power_invariance_op(tr, f, n)))
    C2 = groups["C2"]
    pairs = [tuple(verify.random_height2_function(C2, rng) for _ in range(2))
             for _ in range(ELLIPTIC_RELATION_PAIRS)]
    points_rng = random.Random(ELLIPTIC_POINTS_SEED)
    for j, k in ELLIPTIC_RELATION_JK:
        homs = {"alpha": wreath_block_inclusion(C2, j, k),
                "delta": wreath_diagonal(C2, C2, k)}
        if (j, k) != (1, 1):
            homs["beta"] = wreath_composition_inclusion(C2, j, k)
        homs = {name: (hom, verify.sample_commuting_pairs(hom.source, 6, points_rng))
                for name, hom in homs.items()}
        for relation in homs:
            for i, (f, g) in enumerate(pairs):
                ops.append(Op(
                    f"relation {relation} C2 {j},{k} #{i}",
                    lambda tr, homs=homs, r=relation, f=f, g=g, j=j, k=k:
                    _height2_relation_op(tr, homs, r, f, g, j, k)))
    for name, n in ADAMS_CASES:
        G = groups[name]
        ops.append(Op(f"adams {name} n={n}",
                      lambda tr, f=funcs[name][0], n=n, p=commuting_tuples(G, 2):
                      _adams_op(tr, f, n, p, adams_impl)))
    for weight, F in ((4, verify.E4), (6, verify.E6)):
        coeffs = oracles.eisenstein_coefficients(weight, 400)
        for n in HECKE_INDICES:
            ops.append(Op(f"hecke E{weight} n={n}",
                          lambda tr, F=F, w=weight, n=n, c=coeffs:
                          _hecke_op(tr, F, w, n, c)))
    return ops


# ---------------------------------------------------------------------------
# cli: in-process charops.cli.main calls on seeded JSON inputs

CLI_CLASSES = [("C2", 3, 1), ("S3", 2, 1), ("Q8", 2, 1), ("C4", 2, 1), ("C3", 2, 2),
               ("C2", 2, 2)]
# (group, wreath arity n, character dimension); each chain is power, then
# adams with index 2 on the power's output.
# S3 at n = 3 is left out: its adams step alone takes 1.6 s.
CLI_CHAINS = [("S3", 2, 3), ("Q8", 2, 2), ("C2", 3, 3), ("C4", 2, 3)]
CLI_PSEUDO = [("C2", 2, 3), ("C2", 3, 3), ("C4", 2, 3), ("C4", 3, 2), ("Q8", 2, 2)]
CLI_HECKE = [(w, n) for w in (4, 6) for n in (2, 3, 5, 8)]
HECKE_TAUS = 12
HECKE_DIGITS_TOL = 1e-8   # the CLI prints 9 significant digits
HEIGHT2_CHAIN_DEFECT = ("height-2 power output is written as tau samples, which "
                        "ClassFunction.from_json rejects, so adams exits 2")
MALFORMED = [
    ("truncation guard", ["--n", "2", "--tau-samples", "0.5+0.0001j", "hecke", "E4"]),
    ("unknown group type", ["--group", '{"type": "bogus"}', "classes"]),
    ("missing input file", ["--group", "C2", "power", "{dir}/missing.json"]),
    ("malformed JSON", ["--group", "C2", "power", "{dir}/malformed.json"]),
    ("q-expansion without q", ["--n", "2", "hecke", '{"weight": 4}']),
    ("malformed tau", ["--n", "2", "--tau-samples", "0.5+abcj", "hecke", "E4"]),
]


def _irreducibles(name, G):
    if name.startswith("C"):
        return [cyclic_character(G, k) for k in range(G.size)]
    if name == "S3":
        return [trivial_representation(G), sign_representation(G), standard_s3(G)]
    if name == "Q8":
        return [trivial_representation(G), quaternion_2d(G)]
    raise KeyError(name)


def _seeded_representation(name, G, dim, rng):
    """A seeded sum of irreducibles of total dimension dim."""
    parts = []
    left = dim
    irreps = _irreducibles(name, G)
    while left:
        choice = rng.choice([r for r in irreps if r.dim <= left])
        parts.append(choice)
        left -= choice.dim
    return Representation(G, oracles.direct_sum(parts),
                          name="+".join(r.name for r in parts), validate=False)


def _run_cli(tr, span, argv, out=None):
    """One in-process CLI call; returns (exit code, stderr text)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = tr.call(span, cli_main, argv)
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code
    if out is not None and os.path.exists(out):
        tr.count("cli.bytes_out", os.path.getsize(out))
    return code, stderr.getvalue()


def _expect_success(code, err):
    check(code == 0, f"exit {code}: {err.strip()}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_class_function(tr, W, path):
    data = _read_json(path)
    return data, tr.call("classfn.json", ClassFunction.from_json, W, data)


def _check_against_tensor(tr, f, rep, W, square=False):
    worst = 0.0
    for (els, _), value in f.values.items():
        w = W.mul(els[0], els[0]) if square else els[0]
        oracle = tr.call("reporacle.tensor_trace", tensor_power_trace_wreath, rep, W, w)
        worst = max(worst, abs(value.component(0) - oracle))
    check(worst < TOL, f"tensor oracle deviates by {worst:.3e}")


def _cli_classes_op(tr, d, argv, out, W, counts):
    code, err = _run_cli(tr, "cli.classes", argv, out)
    _expect_success(code, err)
    rows = _read_json(out)["rows"]
    total = sum(row["size"] for row in rows)
    k_w = oracles.wreath_class_count(counts[1], W.n, 1)
    check(total == (W.size if d == 1 else W.size * k_w), "class sizes do not add up")
    check(len(rows) == oracles.wreath_class_count(counts[d], W.n, d),
          "class count differs from the generating function")


def _cli_power_op(tr, argv, out, rep, W):
    code, err = _run_cli(tr, "cli.power", argv, out)
    _expect_success(code, err)
    _, f = _read_class_function(tr, W, out)
    _check_against_tensor(tr, f, rep, W)


def _cli_adams_op(tr, argv, out, rep, W):
    code, err = _run_cli(tr, "cli.adams", argv, out)
    _expect_success(code, err)
    _, f = _read_class_function(tr, W, out)
    # Psi_2 of a degree-0 character is its value at w^2
    _check_against_tensor(tr, f, rep, W, square=True)


def _cli_power_h2_op(tr, argv, out):
    code, err = _run_cli(tr, "cli.power", argv, out)
    _expect_success(code, err)
    invariance = _read_json(out)["invariance"]
    check(invariance["ok"] and invariance["max_deviation"] < TOL,
          f"height-2 power output fails invariance: {invariance}")


def _cli_adams_h2_op(tr, argv, out, W, expected):
    code, err = _run_cli(tr, "cli.adams", argv, out)
    _expect_success(code, err)
    _, f = _read_class_function(tr, W, out)
    worst = 0.0
    for (els, x), value in f.values.items():
        ref = tr.call("classfn.evaluate", expected.evaluate, els, x)
        worst = max(worst, graded_deviation(value, ref))
    check(worst < TOL, f"height-2 adams output deviates by {worst:.3e}")


def _cli_pseudo_op(tr, argv, out, rep, W, counts):
    code, err = _run_cli(tr, "cli.pseudo", argv, out)
    _expect_success(code, err)
    data, f = _read_class_function(tr, W, out)
    k_w = oracles.wreath_class_count(counts[1], W.n, 1)
    check(len(data["values"]) + data["undefined_classes"] == k_w,
          "defined plus undefined classes is not the class count")
    # with the HNF section the pseudo-power operation is the degree-0 power
    # operation, so it equals the tensor-power trace
    _check_against_tensor(tr, f, rep, W)


def _cli_hecke_op(tr, argv, out, taus, weight, n, coeffs):
    code, err = _run_cli(tr, "cli.hecke", argv, out)
    _expect_success(code, err)
    rows = _read_json(out)["rows"]
    check(len(rows) == len(taus), "wrong number of rows")
    E = LatFunction.from_q_expansion(weight, coeffs)
    T = LatFunction.from_q_expansion(weight, hecke_q_oracle(coeffs, weight, n))
    for row, tau in zip(rows, taus):
        check(abs(complex(row["tau"]) - tau) < 1e-12, "rows out of order")
        e = tr.call("coefficients.at_tau", E.at_tau, tau)
        t = n ** (1 - weight) * tr.call("coefficients.at_tau", T.at_tau, tau)
        check(abs(complex(row["input"]) - e) < HECKE_DIGITS_TOL * max(1.0, abs(e)),
              f"hecke input at {tau} differs from the q-expansion")
        check(abs(complex(row["output"]) - t) < HECKE_DIGITS_TOL * max(1.0, abs(t)),
              f"hecke output at {tau} differs from the q-oracle")


def _cli_malformed_op(tr, argv):
    code, err = _run_cli(tr, "cli.malformed", argv)
    lines = err.strip().splitlines()
    check(code == 2, f"exit {code}, expected 2")
    check(len(lines) == 1 and lines[0].startswith("error:"),
          f"expected a one-line error message, got {err!r}")


def build_cli(seed, workdir):
    """workdir receives the JSON inputs and the --out files."""
    rng = random.Random(seed)
    groups = {name: GROUPS[name]() for name in ("C2", "C3", "C4", "S3", "Q8")}
    counts = {name: {d: oracles.commuting_class_count(G, d) for d in (1, 2)}
              for name, G in groups.items()}
    path = lambda name: os.path.join(workdir, name)
    ops = []

    for name, n, d in CLI_CLASSES:
        out = path(f"classes-{name}-{n}-{d}.json")
        argv = ["--group", name, "--wreath", str(n), "--d", str(d),
                "--format", "json", "--out", out, "classes"]
        ops.append(Op(f"classes {name}wr{n} d={d}",
                      lambda tr, d=d, a=argv, o=out, W=wreath(groups[name], n),
                      c=counts[name]: _cli_classes_op(tr, d, a, o, W, c)))

    def write_character(tag, name, dim):
        rep = _seeded_representation(name, groups[name], dim, rng)
        src = path(f"{tag}-{name}-input.json")
        with open(src, "w") as fh:
            json.dump(character(rep).to_json(), fh)
        return rep, src

    for name, n, dim in CLI_CHAINS:
        rep, src = write_character(f"chain{n}", name, dim)
        W = wreath(groups[name], n)
        powered = path(f"power-{name}-{n}.json")
        argv = ["--group", name, "--n", str(n), "--out", powered, "power", src]
        ops.append(Op(f"power {name} n={n}",
                      lambda tr, a=argv, o=powered, r=rep, W=W: _cli_power_op(tr, a, o, r, W)))
        out = path(f"adams-{name}-{n}.json")
        argv = ["--group", name, "--wreath", str(n), "--n", "2", "--out", out,
                "adams", powered]
        ops.append(Op(f"adams {name}wr{n}",
                      lambda tr, a=argv, o=out, r=rep, W=W: _cli_adams_op(tr, a, o, r, W)))

    C2 = groups["C2"]
    f2 = verify.random_height2_function(C2, rng)
    src = path("height2-C2-input.json")
    with open(src, "w") as fh:
        json.dump(f2.to_json(), fh)
    powered = path("power-height2-C2.json")
    argv = ["--group", "C2", "--n", "2", "--out", powered, "power", src]
    ops.append(Op("power height-2 C2 n=2",
                  lambda tr, a=argv, o=powered: _cli_power_h2_op(tr, a, o)))
    out = path("adams-height2-C2.json")
    argv = ["--group", "C2", "--wreath", "2", "--n", "2", "--out", out, "adams", powered]
    expected = adams(power_operation(f2, 2, mode="lazy"), 2)
    ops.append(Op("adams height-2 C2wr2",
                  lambda tr, a=argv, o=out, W=wreath(C2, 2), e=expected:
                  _cli_adams_h2_op(tr, a, o, W, e),
                  known_defect=HEIGHT2_CHAIN_DEFECT))

    for name, n, dim in CLI_PSEUDO:
        rep, src = write_character(f"pseudo{n}", name, dim)
        out = path(f"pseudo-{name}-{n}.json")
        argv = ["--group", name, "--n", str(n), "--out", out, "pseudo", src,
                "--prime", "2"]
        ops.append(Op(f"pseudo {name} n={n}",
                      lambda tr, a=argv, o=out, r=rep, W=wreath(groups[name], n),
                      c=counts[name]: _cli_pseudo_op(tr, a, o, r, W, c)))

    for weight, n in CLI_HECKE:
        # a seeded sweep per op, away from the zero of E6 at i; every CLI call
        # builds a fresh q-kernel, so each evaluation misses the memo
        taus = [complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(1.2, 2.0), 6))
                for _ in range(HECKE_TAUS)]
        out = path(f"hecke-E{weight}-{n}.json")
        argv = ["--n", str(n),
                "--tau-samples=" + ",".join(f"{t.real:.6f}+{t.imag:.6f}j" for t in taus),
                "--format", "json", "--out", out, "hecke", f"E{weight}"]
        ops.append(Op(f"hecke E{weight} n={n}",
                      lambda tr, a=argv, o=out, t=taus, w=weight, n=n,
                      c=oracles.eisenstein_coefficients(weight, 400):
                      _cli_hecke_op(tr, a, o, t, w, n, c)))

    with open(path("malformed.json"), "w") as fh:
        fh.write("{not json")
    for label, argv in MALFORMED:
        argv = [a.replace("{dir}", workdir) for a in argv]
        ops.append(Op(f"malformed: {label}",
                      lambda tr, a=argv: _cli_malformed_op(tr, a)))
    return ops


def build(name, seed, workdir):
    """The op list of one workload; workdir receives the cli workload's files."""
    if name == "cli":
        return build_cli(seed, workdir)
    return {"classify": build_classify, "relations": build_relations,
            "elliptic": build_elliptic}[name](seed)
