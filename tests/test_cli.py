import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from charops import cli, groups, lattices, verify
from charops.classfn import ClassFunction
from charops.coefficients import GradedValue
from charops.groups import GroupError
from charops.lattices import LatticeError
from charops.verify import SuiteResult
from references import eisenstein_e2


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_s3_d2(capsys):
    code, out, _ = run_cli(capsys, "--group", "S3", "--d", "2", "classes")
    assert code == 0
    assert "8 classes" in out
    assert "sizes sum to 18" in out


def test_classes_c2_d1(capsys):
    code, out, _ = run_cli(capsys, "--group", "C2", "classes")
    assert code == 0
    assert "2 classes" in out


def test_classes_wreath_reduction_data(capsys):
    code, out, _ = run_cli(capsys, "--group", "C2", "--wreath", "2",
                           "--format", "json", "classes")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 0
    assert sum(r["size"] for r in data["rows"]) == 8
    assert len(data["rows"]) == 5
    assert all("orbits" in r for r in data["rows"])


def test_classes_wreath_d2_burnside(capsys):
    # C2 wr 2 has 5 classes, so its commuting pairs number 8 * 5 = 40
    code, out, _ = run_cli(capsys, "--group", "C2", "--wreath", "2", "--d", "2",
                           "classes")
    assert code == 0
    assert "22 classes, sizes sum to 40" in out


def test_classes_size_mismatch_exits_1(capsys, monkeypatch):
    real = cli.tuple_conjugacy_classes
    monkeypatch.setattr(cli, "tuple_conjugacy_classes",
                        lambda G, d: real(G, d)[1:] if d == 2 else real(G, d))
    code, _, err = run_cli(capsys, "--group", "C2", "--wreath", "2", "--d", "2",
                           "classes")
    assert code == 1
    assert "expected 40" in err


def test_classes_deterministic_reruns(capsys):
    _, out1, _ = run_cli(capsys, "--group", "S3", "--d", "2", "--format",
                         "csv", "classes")
    _, out2, _ = run_cli(capsys, "--group", "S3", "--d", "2", "--format",
                         "csv", "classes")
    assert out1 == out2


def test_malformed_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "--group", '{"type":"nope"}', "classes")
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "--group", "C2", "power", "/nonexistent.json")
    assert code == 2


def test_power_command_worked_values(tmp_path, capsys):
    fn = {"height": 1, "d": 1, "kind": "complex",
          "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}},
                     {"tuple": [1], "point": 0, "graded": {"0": [0.0, 0.0]}}]}
    path = tmp_path / "c2reg.json"
    path.write_text(json.dumps(fn))
    code, out, _ = run_cli(capsys, "--group", "C2", "--n", "2", "power", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["invariance"]["ok"]
    vals = {tuple(r["tuple"]): r["graded"]["0"][0] for r in data["values"]}
    assert vals[(0,)] == 4.0       # identity: f(e)^2
    assert vals[(4,)] == 2.0       # pure swap: f(e)
    assert vals[(1,)] == 0.0


def test_adams_n1_identity(tmp_path, capsys):
    fn = {"height": 1, "d": 1, "kind": "complex",
          "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}},
                     {"tuple": [1], "point": 0, "graded": {"0": [0.5, 0.0]}}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fn))
    code1, out1, _ = run_cli(capsys, "--group", "C2", "--n", "1", "adams", str(path))
    code2, out2, _ = run_cli(capsys, "--group", "C2", "--n", "1", "adams", str(path))
    assert code1 == code2 == 0
    assert out1 == out2
    vals = {tuple(r["tuple"]): r["graded"]["0"][0]
            for r in json.loads(out1)["values"]}
    assert vals == {(0,): 2.0, (1,): 0.5}


@pytest.mark.filterwarnings("default::UserWarning")
def test_missing_orbit_warns_in_one_line(tmp_path, capsys):
    """The default-to-0 warning is one "warning:" line, without the source
    file and line of Python's own format, and the exit code stays 0."""
    fn = {"height": 1, "d": 1, "kind": "complex",
          "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fn))
    code, _, err = run_cli(capsys, "--group", "S3", "--n", "2", "adams", str(path))
    assert code == 0
    assert "warning: no value stored for orbit of ((3,), 0); defaulting to 0\n" in err
    assert "classfn.py" not in err
    assert all(line.startswith("warning: ") for line in err.splitlines())


def test_height2_power_then_adams(tmp_path, capsys):
    """The height-2 output of power reads back in: adams on it agrees with
    the in-process adams(P_2 f, 2) at every tau sample."""
    from charops.classfn import ClassFunction
    from charops.coefficients import DEFAULT_TAU_SAMPLES
    from charops.powerops import adams, power_operation
    C2 = groups.cyclic_group(2)
    f = verify.random_height2_function(C2, random.Random(7))
    src, powered, out = (tmp_path / name for name in ("f.json", "p.json", "a.json"))
    src.write_text(json.dumps(f.to_json()))
    code, _, err = run_cli(capsys, "--group", "C2", "--n", "2", "--out", str(powered),
                           "power", str(src))
    assert code == 0, err
    code, _, err = run_cli(capsys, "--group", "C2", "--wreath", "2", "--n", "2",
                           "--out", str(out), "adams", str(powered))
    assert code == 0, err
    W = groups.wreath(C2, 2)
    got = ClassFunction.from_json(W, json.loads(out.read_text()))
    expected = adams(power_operation(f, 2), 2)
    for t in groups.commuting_tuples(W, 2):
        a, b = got.evaluate(t, 0), expected.evaluate(t, 0)
        assert a.degrees == b.degrees
        for j in a.degrees:
            for x, y in zip(a.component(j).values(DEFAULT_TAU_SAMPLES),
                            b.component(j).values(DEFAULT_TAU_SAMPLES)):
                assert abs(x - y) < 1e-9


def _height1_input():
    return {"height": 1, "d": 1, "kind": "complex",
            "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}},
                       {"tuple": [1], "point": 0, "graded": {"0": [0.0, 0.0]}}]}


def _height2_power_output():
    from charops.powerops import power_operation
    f = verify.random_height2_function(groups.cyclic_group(2), random.Random(7))
    return power_operation(f, 2).to_json()


def _first_term(data):
    return next(term for row in data["values"] for F in row["graded"].values()
                for term in F["terms"] if term["factors"])


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _set_scale(data):
    _first_term(data)["scale"] = ["a", 1]


def _set_matrix(data):
    _first_term(data)["factors"][0][1] = 5


def _set_matrix_entry_true(data):
    """An entry 1 of a factor matrix as JSON true, which Python reads as 1."""
    M = next(factor[1] for row in data["values"] for F in row["graded"].values()
             for term in F["terms"] for factor in term["factors"]
             if 1 in factor[1][0])
    M[0][M[0].index(1)] = True


def _set_kernel_index_true(data):
    """A factor on kernel 1 of the two-kernel table, its index as true."""
    assert len(data["kernels"]) == 2
    factor = next(factor for row in data["values"] for F in row["graded"].values()
                  for term in F["terms"] for factor in term["factors"] if factor[0] == 1)
    factor[0] = True


def _set_kernel_weight_true(data):
    """Kernel 0 of weight true under one value of weight 1, which adds up
    when true reads as 1."""
    data["kernels"][0]["weight"] = True
    data["values"] = [{"tuple": [0, 0], "point": 0, "graded": {"1": {
        "weight": 1, "terms": [{"scale": [1.0, 0.0], "factors": [[0, [[1, 0], [0, 1]]]]}]}}}]


def _set_weight_float(data):
    F = next(F for row in data["values"] for F in row["graded"].values()
             if F["weight"] == 4)
    F["weight"] = 4.0


HUGE = 10 ** 400     # an integer that no float can hold


def _scale_matrix_row_huge(data):
    """Row 0 of a factor matrix times 10^400; the determinant stays positive."""
    M = _first_term(data)["factors"][0][1]
    M[0] = [HUGE * x for x in M[0]]


def _set_terms(data):
    F = next(F for row in data["values"] for F in row["graded"].values() if F["terms"])
    F["terms"] = 5


# (label, group arguments, height, edit of a valid input)
MALFORMED_FUNCTIONS = [
    ("graded number", ["--group", "C2"], 1, _set(["values", 0, "graded", "0"], ["a", 0.0])),
    ("tuple not a list", ["--group", "C2"], 1, _set(["values", 0, "tuple"], 5)),
    ("element out of range", ["--group", "C2"], 1, _set(["values", 0, "tuple"], [7])),
    ("negative element", ["--group", "C2"], 1, _set(["values", 0, "tuple"], [-1])),
    ("element not an integer", ["--group", "C2"], 1, _set(["values", 0, "tuple"], [0.5])),
    ("wrong arity", ["--group", "C2"], 1, _set(["values", 0, "tuple"], [0, 1])),
    ("point out of range", ["--group", "C2"], 1, _set(["values", 0, "point"], 1)),
    ("point not an integer", ["--group", "C2"], 1, _set(["values", 0, "point"], "a")),
    ("height-2 scale", ["--group", "C2", "--wreath", "2"], 2, _set_scale),
    ("height-2 factor matrix", ["--group", "C2", "--wreath", "2"], 2, _set_matrix),
    ("height-2 terms", ["--group", "C2", "--wreath", "2"], 2, _set_terms),
    ("factor matrix entry true", ["--group", "C2", "--wreath", "2"], 2,
     _set_matrix_entry_true),
    ("kernel index true", ["--group", "C2", "--wreath", "2"], 2, _set_kernel_index_true),
    ("kernel weight true", ["--group", "C2", "--wreath", "2"], 2, _set_kernel_weight_true),
    ("height-2 weight not an integer", ["--group", "C2", "--wreath", "2"], 2,
     _set_weight_float),
    ("kernel not an object", ["--group", "C2", "--wreath", "2"], 2, _set(["kernels", 0], 5)),
    ("graded number past float range", ["--group", "C2"], 1,
     _set(["values", 0, "graded", "0"], [HUGE, 0])),
    ("graded number boolean", ["--group", "C2"], 1,
     _set(["values", 0, "graded", "0"], [True, False])),
    ("kernel q entry past float range", ["--group", "C2", "--wreath", "2"], 2,
     _set(["kernels", 0, "q", 1], [HUGE, 0])),
    ("factor matrix entry past float range", ["--group", "C2", "--wreath", "2"], 2,
     _scale_matrix_row_huge),
    ("value not an object", ["--group", "C2"], 1, _set(["values", 0], 5)),
    ("repeated key", ["--group", "C2"], 1, lambda data: data["values"].append(data["values"][0])),
    ("document not an object", ["--group", "C2"], 1, lambda data: [data]),
    ("lattice function at d = 1", ["--group", "C2", "--wreath", "2"], 2,
     lambda data: data.update(height=1, d=1, values=[dict(data["values"][0], tuple=[0])])),
    ("lattice function not elliptic", ["--group", "C2", "--wreath", "2"], 2,
     _set(["elliptic"], False)),
    ("height other than d", ["--group", "C2"], 1, _set(["height"], 2)),
]


@pytest.mark.parametrize("label,group_args,height,edit", MALFORMED_FUNCTIONS,
                         ids=[case[0] for case in MALFORMED_FUNCTIONS])
def test_malformed_class_function_exits_2(tmp_path, capsys, label, group_args,
                                          height, edit):
    data = _height1_input() if height == 1 else _height2_power_output()
    data = edit(data) or data
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, *group_args, "--n", "2", "adams", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_non_commuting_or_unfixed_keys_exit_2(tmp_path, capsys):
    """A pair of S3 transpositions does not commute; the swap of two
    points does not fix either."""
    pairs = {"values": [{"tuple": [1, 2], "point": 0, "graded": {"0": [1.0, 0.0]}}],
             "d": 2, "kind": "complex"}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    code, _, err = run_cli(capsys, "--group", "S3", "--n", "2", "adams", str(path))
    assert code == 2 and "do not commute" in err
    from charops.classfn import ClassFunction
    C2 = groups.cyclic_group(2)
    swap = groups.GSet(C2, 2, [[0, 1], [1, 0]])
    with pytest.raises(GroupError, match="not fixed"):
        ClassFunction.from_json(C2, {"d": 1, "values": [
            {"tuple": [1], "point": 0, "graded": {"0": [1.0, 0.0]}}]}, space=swap)


@pytest.mark.parametrize("key", [{"tuple": [True]}, {"tuple": [False]},
                                 {"tuple": [0], "point": False}],
                         ids=["true element", "false element", "false point"])
def test_boolean_keys_exit_2(tmp_path, capsys, key):
    """JSON true and false are not indices, though Python reads them as 1 and 0."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"d": 1, "values": [dict(key, graded={"0": [1.0, 0.0]})]}))
    code, _, err = run_cli(capsys, "--group", "C2", "--n", "2", "power", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "element and point indices" in lines[0], err


@pytest.mark.filterwarnings("default::UserWarning")
def test_conflicting_values_on_one_orbit_exit_2(tmp_path, capsys):
    """Two conjugate keys with different values are refused; neither wins."""
    S3 = groups.symmetric_group(3)
    a, b = [g for g in range(S3.size) if S3.order(g) == 2][:2]
    rows = [{"tuple": [a], "graded": {"0": [1.0, 0.0]}},
            {"tuple": [b], "graded": {"0": [2.0, 0.0]}}]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"d": 1, "values": rows}))
    code, _, err = run_cli(capsys, "--group", "S3", "--n", "2", "power", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "carry different values" in lines[0], err
    rows[1]["graded"] = rows[0]["graded"]
    path.write_text(json.dumps({"d": 1, "values": rows}))
    assert run_cli(capsys, "--group", "S3", "--n", "2", "power", str(path))[0] == 0


# (label, group arguments, height, edit of a valid input, part of the message)
MISMATCHED_FUNCTIONS = [
    ("complex kind holding lattice functions", ["--group", "C2", "--wreath", "2"], 2,
     lambda data: data.update(kind="complex", elliptic=False), "declared kind 'complex'"),
    ("lat kind holding a pair", ["--group", "C2", "--wreath", "2"], 2,
     _set(["values", 0, "graded", "0"], [1.0, 0.0]), "declared kind 'lat'"),
    ("elliptic not a boolean", ["--group", "C2"], 1, _set(["elliptic"], "yes"),
     '"elliptic" is false for a \'complex\' function at d = 1, got \'yes\''),
    ("elliptic complex function", ["--group", "C2"], 1,
     lambda data: data.update(height=2, d=2, elliptic=True, values=[
         {"tuple": [0, 0], "graded": {"0": [1.0, 0.0]}}]),
     '"elliptic" is false for a \'complex\' function at d = 2, got True'),
]


@pytest.mark.parametrize("label,group_args,height,edit,message", MISMATCHED_FUNCTIONS,
                         ids=[case[0] for case in MISMATCHED_FUNCTIONS])
def test_values_are_read_by_the_declared_kind(tmp_path, capsys, label, group_args,
                                              height, edit, message):
    """Each value is read by the file's "kind", and "elliptic" is the boolean
    that is true exactly for a "lat" function; a mismatch is refused at read."""
    data = _height1_input() if height == 1 else _height2_power_output()
    edit(data)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, *group_args, "--n", "2", "power", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], err


def _drop_first_weight(data):
    del next(iter(data["values"][0]["graded"].values()))["weight"]


# (label, group arguments, height, edit of a valid input, part of the message)
MISSING_FIELDS = [
    ("cyclic order", ["--group", '{"type":"cyclic"}'], 1, None, "missing field 'n'"),
    ("group table", ["--group", '{"type":"table"}'], 1, None, "missing field 'table'"),
    ("permutation generators", ["--group", '{"type":"perm","degree":2}'], 1, None,
     "missing field 'generators'"),
    ("arity", ["--group", "C2"], 1, lambda data: [data.pop(k) for k in ("d", "height")],
     'needs a "d" or a "height" field'),
    ("lattice function weight", ["--group", "C2", "--wreath", "2"], 2, _drop_first_weight,
     "missing field 'weight'"),
]


@pytest.mark.parametrize("label,group_args,height,edit,message", MISSING_FIELDS,
                         ids=[case[0] for case in MISSING_FIELDS])
def test_a_missing_field_is_named(tmp_path, capsys, label, group_args, height, edit,
                                  message):
    data = _height1_input() if height == 1 else _height2_power_output()
    if edit is not None:
        edit(data)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, *group_args, "--n", "2", "adams", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], err


@pytest.mark.parametrize("key", ["04", "1_0", " 4"])
def test_degree_keys_are_plain_decimals(tmp_path, capsys, key):
    """int() reads "04" and " 4" as 4 and "1_0" as 10; such a key could
    silently replace the value stored under "4" or "10"."""
    data = _height1_input()
    data["values"][0]["graded"] = {"4": [1.0, 0.0], key: [7.0, 0.0]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "--group", "C2", "--n", "1", "adams", str(path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and f"degree key {key!r}" in lines[0], err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_values_exit_2(tmp_path, capsys, value):
    """json.loads reads a bare NaN or Infinity; a class function refuses it,
    here next to 1.0 on a conjugate key."""
    rows = [{"tuple": [1], "graded": {"0": [value, 0.0]}},
            {"tuple": [2], "graded": {"0": [1.0, 0.0]}}]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"d": 1, "values": rows}))
    code, _, err = run_cli(capsys, "--group", "S3", "--n", "2", "power", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "finite numbers" in lines[0], err


def test_importing_the_cli_fills_no_cache():
    """Importing charops.cli, which imports charops.verify and so builds E4
    and E6, leaves every cache empty: no Sigma_n table, reduction, fixed
    table or kernel sample vector is built before a call needs it."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = ("import charops.cli\n"
             "from charops import groups, orbits, verify\n"
             "kernels = {k for F in (verify.E4, verify.E6) for factors in F.terms\n"
             "           for k, _ in factors}\n"
             "caches = [groups._sigma, orbits._plain_reduction, orbits._fixed_table]\n"
             "caches += [k.sample_vector for k in kernels]\n"
             "print(len(kernels), *(c.cache_info().currsize for c in caches))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["2"] + ["0"] * 5, proc.stderr


def test_the_module_entry_point_runs_the_cli():
    """`python -m charops` reaches `cli.main` and exits with its code."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "charops", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    proc = run("--group", "C2", "--wreath", "2", "classes")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == \
        "# 5 classes, sizes sum to 8 (group order 8)"
    proc = run("--group", '{"type":"cyclic"}', "classes")
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_readme_flags_match_parser():
    """The README's "Flags:" line names exactly the global options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = readme[readme.index("Flags:"):readme.index("Exit codes")]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", line))
    parsed = {opt for action in cli.build_parser()._actions
              for opt in action.option_strings
              if opt.startswith("--") and opt != "--help"}
    assert documented == parsed


def test_hecke_eigen_ratio(capsys):
    code, out, _ = run_cli(capsys, "--n", "2", "--format", "csv", "hecke", "E4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for row in rows:
        ratio = complex(row[3].replace("(", "").replace(")", ""))
        assert abs(ratio - 9 / 8) < 1e-6


def test_hecke_e6_default_samples(capsys):
    """E6 vanishes at tau = i, the first default sample; the spread is taken
    over the defined ratios, which all equal 1 + 2^-5 = 33/32."""
    code, out, _ = run_cli(capsys, "--n", "2", "hecke", "E6")
    assert code == 0
    assert "nan" in out
    spread = float(re.search(r"eigen-ratio spread (\S+)", out).group(1))
    assert spread < 1e-12


@pytest.mark.parametrize("samples", ["1.5j,1j", "1j,1.5j"])
def test_hecke_e6_sample_order(capsys, samples):
    code, out, _ = run_cli(capsys, "--n", "2", "--tau-samples", samples,
                           "hecke", "E6")
    assert code == 0
    assert "eigen-ratio spread 0.000e+00" in out


def test_hecke_reads_each_form_once_at_every_tau(capsys, monkeypatch):
    """The sweep reads the form and its image with one values() call each,
    so no kernel computes (and memoizes) a vector for a single tau."""
    from charops import coefficients
    sample_vector = coefficients._Kernel._sample_vector
    lengths = []

    def spy(self, M, samples):
        lengths.append(len(samples))
        return sample_vector(self, M, samples)

    monkeypatch.setattr(coefficients._Kernel, "_sample_vector", spy)
    code, _, _ = run_cli(capsys, "--n", "2", "--tau-samples", "1j,2j,3j", "hecke", "E4")
    assert code == 0
    assert lengths and set(lengths) == {3}


def test_hecke_vanishing_at_every_sample(capsys):
    code, out, err = run_cli(capsys, "--n", "2", "--tau-samples", "1j",
                             "hecke", "E6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "vanishes at every tau sample" in err
    assert len(err.strip().splitlines()) == 1


def test_pseudo_command(tmp_path, capsys):
    fn = {"height": 1, "d": 1, "kind": "complex",
          "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}},
                     {"tuple": [1], "point": 0, "graded": {"0": [0.0, 0.0]}}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fn))
    code, out, _ = run_cli(capsys, "--group", "C2", "--n", "2", "pseudo",
                           str(path), "--prime", "2")
    assert code == 0
    data = json.loads(out)
    # every class of C2 wr Sigma_2 has 2-power order: all five are defined
    assert len(data["values"]) == 5
    assert data["undefined_classes"] == 0
    vals = {tuple(r["tuple"]): r["graded"]["0"][0] for r in data["values"]}
    assert vals[(0,)] == 4.0 and vals[(4,)] == 2.0


@pytest.mark.parametrize("build", [
    lambda C2: verify.random_height2_function(C2, random.Random(1)),
    lambda C2: verify.random_height1_function(C2, random.Random(1), degrees=(0, 2))],
    ids=["height 2", "height 1 degree 2"])
def test_pseudo_refuses_positive_degrees(tmp_path, capsys, build):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(build(groups.cyclic_group(2)).to_json()))
    code, out, err = run_cli(capsys, "--group", "C2", "--n", "2", "pseudo", str(path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "degree-0 functions" in lines[0], err


def test_verify_command_stubbed(monkeypatch, capsys):
    calls = {}

    def fake(seed=0, mutate=None):
        calls["seed"] = seed
        calls["mutate"] = mutate
        ok = mutate is None
        return [SuiteResult("stub", ok, 0.0 if ok else 1.0)]

    monkeypatch.setattr(cli, "run_all_suites", fake)
    code, out, _ = run_cli(capsys, "--seed", "7", "verify")
    assert code == 0 and calls["seed"] == 7
    assert "PASS stub" in out
    code, out, _ = run_cli(capsys, "verify", "--mutate", "adams-exponent")
    assert code == 1
    assert "FAIL stub" in out


def test_verify_json_format(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all_suites",
                        lambda seed=0, mutate=None: [SuiteResult("stub", True, 0.0)])
    code, out, _ = run_cli(capsys, "--format", "json", "verify")
    assert code == 0
    data = json.loads(out)
    assert data["suites"][0]["passed"]


def test_verify_json_records_seconds_and_versions(monkeypatch, capsys):
    import platform

    import numpy as np

    import charops
    monkeypatch.setattr(cli, "run_all_suites", lambda seed=0, mutate=None: [
        SuiteResult("stub", True, 0.0, detail="d", seconds=1.23456, checks=3)])
    code, out, _ = run_cli(capsys, "--format", "json", "verify")
    data = json.loads(out)
    assert data["versions"] == {"python": platform.python_version(),
                                "numpy": np.__version__, "charops": charops.__version__}
    assert data["suites"] == [{"name": "stub", "passed": True, "max_deviation": 0.0,
                               "checks": 3, "detail": "d", "seconds": 1.235}]


@pytest.mark.parametrize("module,name,exc", [
    (groups, "_transitive_block", GroupError),
    (lattices, "sublattices_of_index", LatticeError),
])
def test_verify_reports_construction_error_as_fail(monkeypatch, capsys,
                                                   module, name, exc):
    """A construction raising inside a suite fails that suite with the
    message; the other suites still run and verify exits 1."""
    def broken(*args):
        raise exc("construction broke")

    monkeypatch.setattr(module, name, broken)
    monkeypatch.setattr(verify, "ALL_SUITES", [
        ("adams-character", verify.suite_adams_character),
        ("count-checks", verify.suite_counts),
        ("hecke-eigencheck", verify.suite_hecke)])
    code, out, err = run_cli(capsys, "verify")
    assert code == 1 and err == ""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "adams-character:"], ["FAIL", "count-checks:"],
        ["PASS", "hecke-eigencheck:"]]
    assert f"{exc.__name__}: construction broke" in lines[1]
    code, out, _ = run_cli(capsys, "--format", "json", "verify")
    assert code == 1
    failed = json.loads(out)["suites"][1]
    assert not failed["passed"] and exc.__name__ in failed["detail"]


def test_every_suite_that_takes_a_seed_receives_it(monkeypatch):
    """run_all_suites reads who takes a seed off each suite's signature."""
    import functools
    import inspect

    received = {}

    def spy(name, suite):
        @functools.wraps(suite)     # keeps the suite's signature
        def run(**kwargs):
            received[name] = kwargs.get("seed")
            return SuiteResult(name, True, 0.0)
        return name, run

    seeded = {name for name, suite in verify.ALL_SUITES
              if "seed" in inspect.signature(suite).parameters}
    monkeypatch.setattr(verify, "ALL_SUITES", [spy(*entry) for entry in verify.ALL_SUITES])
    verify.run_all_suites(seed=7)
    assert len(seeded) == 5
    assert received == {name: 7 if name in seeded else None
                        for name, _ in verify.ALL_SUITES}


def _nan_class_function(group, d):
    return ClassFunction.constant(group, d, float("nan"))


@pytest.mark.parametrize("module,name,stub,suite", [
    ("reporacle", "tensor_power_trace_wreath", lambda rep, W, element: float("nan"),
     "suite_oracle_equivalence"),
    ("reporacle", "adams", lambda f, n: _nan_class_function(f.group, f.d),
     "suite_adams_character"),
    ("verify", "hecke_like", lambda F, n: F.scale(float("nan")), "suite_hecke"),
    ("verify", "pseudo_power_etheory",
     lambda f, n, p, basis=None: _nan_class_function(groups.wreath(f.group, n), f.d),
     "suite_etheory"),
], ids=["oracle-equivalence", "adams-character", "hecke-eigencheck", "etheory-agreement"])
def test_a_nan_deviation_fails_its_suite(monkeypatch, module, name, stub, suite):
    """A NaN result deviates infinitely: max(0.0, nan) would be 0.0 and
    pass the suite without a single finite comparison."""
    from charops import reporacle

    monkeypatch.setattr({"reporacle": reporacle, "verify": verify}[module], name, stub)
    r = getattr(verify, suite)()
    assert not r.passed and r.max_deviation == float("inf") and r.checks > 0


def test_sl2_invariance_reports_a_non_invariant_input_as_fail(monkeypatch):
    """The input check is a FAIL result, not an assert that `python -O`
    drops or that escapes run_all_suites."""
    E2 = eisenstein_e2()
    monkeypatch.setattr(verify, "random_height2_function", lambda G, rng: (
        ClassFunction.from_values(G, 2, {((0, 0), 0): GradedValue("lat", {2: E2})},
                                  kind="lat")))
    r = verify.suite_sl2_invariance()
    assert not r.passed and r.detail == "C1 input" and r.max_deviation > 0


def test_tau_samples_flag(capsys):
    code, out, _ = run_cli(capsys, "--n", "2", "--tau-samples", "3j,0.5+2j",
                           "--format", "csv", "hecke", "E4")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + 2 samples


def test_printed_tau_column_reads_back(capsys):
    """The tau values `hecke` prints, such as '(0.5+1j)', are accepted by
    --tau-samples and give the same rows; a bare real is not oriented."""
    code, out, _ = run_cli(capsys, "--n", "2", "--format", "csv", "hecke", "E4")
    assert code == 0
    taus = [row.split(",")[0] for row in out.strip().splitlines()[1:]]
    assert "(0.5+1j)" in taus
    code, again, _ = run_cli(capsys, "--n", "2", "--format", "csv",
                             "--tau-samples", ",".join(taus), "hecke", "E4")
    assert code == 0 and again == out
    code, _, err = run_cli(capsys, "--n", "2", "--tau-samples", "2", "hecke", "E4")
    assert code == 2 and "not oriented" in err


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "--group", "C2", "--format", "csv",
                         "--out", str(dest), "classes")
    assert code == 0
    assert dest.read_text().startswith("class,")


# a table descriptor's declared size is read like every integer field
SIZE_NOT_AN_INTEGER = [
    ("table size true", ["--group", '{"type":"table","size":true,"table":[[0]]}', "classes"]),
    ("table size 1.0", ["--group", '{"type":"table","size":1.0,"table":[[0]]}', "classes"]),
]

# (label, argv) of malformed descriptors, forms and options, each rejected where it
# enters the program
MALFORMED_ARGUMENTS = SIZE_NOT_AN_INTEGER + [
    ("descriptor not an object", ["--group", "[1,2]", "classes"]),
    ("ragged table", ["--group", '{"type":"table","table":[[0,1],[1]]}', "classes"]),
    ("table not a list", ["--group", '{"type":"table","table":5}', "classes"]),
    ("table of bools", ["--group", '{"type":"table","table":[[true]]}', "classes"]),
    ("generators not a list",
     ["--group", '{"type":"perm","degree":3,"generators":5}', "classes"]),
    ("order above 5040", ["--group", '{"type":"symmetric","n":9}', "classes"]),
    ("cyclic order above 5040", ["--group", '{"type":"cyclic","n":100000}', "classes"]),
    ("dihedral order above 5040",
     ["--group", '{"type":"dihedral","n":100000}', "classes"]),
    ("order not an integer", ["--group", '{"type":"cyclic","n":[3]}', "classes"]),
    ("weight not an integer", ["--n", "2", "hecke", '{"weight":"a","q":[1,2]}']),
    ("q not a list", ["--n", "2", "hecke", '{"weight":4,"q":5}']),
    ("q pair too short", ["--n", "2", "hecke", '{"weight":4,"q":[[1]]}']),
    ("form not an object", ["--n", "2", "hecke", "[1,2]"]),
    ("q entry past float range",
     ["--n", "2", "hecke", json.dumps({"weight": 4, "q": [1, HUGE]})]),
    ("q pair past float range",
     ["--n", "2", "hecke", json.dumps({"weight": 4, "q": [[HUGE, 0]]})]),
    ("q entry true", ["--n", "2", "hecke", '{"weight": 4, "q": [true, 240]}']),
    ("weight past float range in the tail bound",
     ["--n", "2", "hecke", '{"weight": 700, "q": [1, 240, 2160]}']),
    ("tau sample where |q| rounds to 1", ["--tau-samples", "1e-20j", "--n", "2", "hecke", "E4"]),
    ("arity past the candidate bound", ["--group", "C2", "--d", "1000000", "classes"]),
    ("negative symmetric degree", ["--group", '{"type":"symmetric","n":-3}', "classes"]),
    ("negative permutation degree",
     ["--group", '{"type":"perm","degree":-2,"generators":[]}', "classes"]),
    ("permutation degree with no generators",
     ["--group", '{"type":"perm","degree":10000000,"generators":[]}', "classes"]),
    ("wreath order past 64-bit indices",
     ["--group", "C2", "--wreath", "17", "--format", "json", "classes"]),
    ("Hecke index past the term bound", ["--n", "1000000", "hecke", "E4"]),
    ("tau sample that a sublattice moves near the real axis",
     ["--n", "2", "--tau-samples", "100j", "hecke", "E4"]),
    ("NaN tau sample", ["--n", "2", "--tau-samples", "nanj", "hecke", "E4"]),
    ("infinite tau sample", ["--n", "2", "--tau-samples", "infj", "hecke", "E4"]),
    ("NaN tau after a valid one",
     ["--n", "2", "--tau-samples", "(0.5+1j),nanj", "hecke", "E4"]),
    ("NaN tolerance", ["--tol", "nan", "--group", "C2", "--n", "2", "power", "FN"]),
    ("infinite tolerance", ["--tol", "inf", "--n", "2", "hecke", "E4"]),
    ("negative tolerance", ["--tol", "-1", "--group", "C2", "--n", "2", "adams", "FN"]),
] + [(f"pseudo prime {p}", ["--group", "C2", "--n", "2", "pseudo", "FN", "--prime", p])
     for p in ("-2", "0", "1", "4")]


@pytest.mark.parametrize("label,argv", MALFORMED_ARGUMENTS,
                         ids=[case[0] for case in MALFORMED_ARGUMENTS])
def test_malformed_arguments_exit_2(tmp_path, capsys, label, argv):
    """FN in argv stands for a well-formed height-1 function file."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_height1_input()))
    code, _, err = run_cli(capsys, *[str(path) if a == "FN" else a for a in argv])
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("label,argv", SIZE_NOT_AN_INTEGER,
                         ids=[case[0] for case in SIZE_NOT_AN_INTEGER])
def test_a_table_size_must_be_an_integer(capsys, label, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "'size'" in err, err


@pytest.mark.parametrize("descriptor", ['{"type":"cyclic","n":100000}',
                                        '{"type":"dihedral","n":100000}',
                                        '{"type":"symmetric","n":2000}'])
def test_orders_above_the_table_bound_are_refused_before_building(
        monkeypatch, capsys, descriptor):
    def build(*args, **kwargs):
        raise AssertionError("a group above the bound was built")

    monkeypatch.setattr(groups, "TableGroup", build)
    monkeypatch.setattr(groups, "perm_group", build)
    code, _, err = run_cli(capsys, "--group", descriptor, "classes")
    assert code == 2
    assert f"more than {groups.TABLE_ORDER_BOUND} elements" in err


@pytest.mark.parametrize("command", ["power", "adams", "pseudo"])
@pytest.mark.parametrize("edit", [_set(["d"], True), _set(["values", 0, "tuple"], [[0]]),
                                  _set(["values", 0, "point"], [0]),
                                  lambda data: data.update(d=8, values=[]),
                                  lambda data: data.update(d=1000000, values=[])],
                         ids=["bool arity", "list entry", "list point", "arity 8",
                              "arity 1000000"])
def test_malformed_keys_exit_2_in_every_command(tmp_path, capsys, command, edit):
    data = _height1_input()
    edit(data)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "--group", "C2", "--n", "2", command, str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
