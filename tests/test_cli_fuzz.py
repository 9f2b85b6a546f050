"""Seeded fuzz test of the CLI exit-code contract: valid `classes`, `power`,
`adams`, `pseudo` and `hecke` inputs, mutated at random (a key dropped, a
value replaced by an int, float, bool, string, list, dict or null, a list
truncated or nested), must make `cli.main` return 0, 1 or 2 and never
raise.  Mutated integers are small ([-2, 5]) or large (10**4, 10**6): a
large group order, key entry, point or weight must be refused at once, not
hang or overflow.  The integer flags `--n`, `--d` and `--wreath` are swept
over the same small and large values on every command, each call within a
second."""

import copy
import json
import random
import time

import pytest

from charops import cli

CASES_PER_COMMAND = 60

VALID_GROUPS = [
    {"type": "cyclic", "n": 3},
    {"type": "dihedral", "n": 3},
    {"type": "symmetric", "n": 3},
    {"type": "quaternion"},
    {"type": "table", "size": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    {"type": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
]

VALID_FUNCTION = {
    "height": 1, "d": 1, "elliptic": False, "kind": "complex",
    "values": [{"tuple": [0], "point": 0, "graded": {"0": [2.0, 0.0]}},
               {"tuple": [1], "point": 0, "graded": {"0": [0.5, -1.0]}}]}

VALID_FORM = {"weight": 4, "q": [1, 240, [2160, 0.0], 6720]}

REPLACEMENTS = [
    lambda rng: rng.randint(-2, 5),
    lambda rng: rng.choice([10 ** 4, 10 ** 6]),
    lambda rng: rng.choice([0.5, -1.0, 2.5]),
    lambda rng: rng.choice([True, False]),
    lambda rng: rng.choice(["", "a", "3"]),
    lambda rng: rng.choice([[], [0], [1, 2], [[0, 1]]]),
    lambda rng: rng.choice([{}, {"a": 1}, {"type": "cyclic"}]),
    lambda rng: None,
]


def _paths(node, prefix=()):
    """Every position below the root, as a key path."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(doc, rng):
    """One random edit of a copy of doc."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    if not paths:
        return rng.choice(REPLACEMENTS)(rng)
    path = rng.choice(paths)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    ops = ["drop", "replace"] + (["truncate", "nest"] if isinstance(value, list) else [])
    op = rng.choice(ops)
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = rng.choice(REPLACEMENTS)(rng)
    elif op == "truncate":
        parent[key] = value[:rng.randrange(len(value) + 1)]
    else:
        parent[key] = [value]
    return doc


def _mutant(doc, rng):
    for _ in range(rng.randint(1, 2)):
        doc = mutate(doc, rng)
    return doc


def _argvs(command, rng, tmp_path):
    path = tmp_path / "f.json"
    for _ in range(CASES_PER_COMMAND):
        if command == "classes":
            yield ["--group", json.dumps(_mutant(rng.choice(VALID_GROUPS), rng)),
                   "classes"]
        elif command == "hecke":
            yield ["--n", "2", "hecke", json.dumps(_mutant(VALID_FORM, rng))]
        else:
            path.write_text(json.dumps(_mutant(VALID_FUNCTION, rng)))
            yield ["--group", "C2", "--n", "2", command, str(path)]


@pytest.mark.filterwarnings("ignore:no value stored:UserWarning")
@pytest.mark.parametrize("command", ["classes", "power", "adams", "pseudo", "hecke"])
def test_mutated_inputs_exit_0_1_or_2(command, tmp_path, capsys):
    rng = random.Random(0)
    failures = []
    for argv in _argvs(command, rng, tmp_path):
        try:
            code = cli.main(argv)
        except Exception as exc:        # the contract under test
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 1, 2):
            failures.append((argv, code))
    assert not failures, failures


FLAG_VALUES = [-2, -1, 0, 10 ** 4, 10 ** 6]


@pytest.mark.filterwarnings("ignore:no value stored:UserWarning")
@pytest.mark.parametrize("command", ["classes", "power", "adams", "pseudo", "hecke"])
def test_integer_flags_exit_0_1_or_2_within_a_second(command, tmp_path, capsys):
    """A wreath or power arity whose group order passes 64-bit indices, or a
    Hecke index with more sublattices than a lattice function may hold, is
    refused before anything is built."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(VALID_FUNCTION))
    tail = {"classes": ["classes"], "hecke": ["hecke", "E4"]}.get(command,
                                                                  [command, str(path)])
    failures = []
    for flag in ("--n", "--d", "--wreath"):
        for value in FLAG_VALUES:
            argv = ["--group", "C3", flag, str(value)] + tail
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:        # the contract under test
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            capsys.readouterr()
            if code not in (0, 1, 2) or seconds > 1.0:
                failures.append((argv, code, round(seconds, 2)))
    assert not failures, failures


HUGE_WEIGHT = 10 ** 400         # 401 digits, too large for a float


@pytest.mark.parametrize("argv", [
    ["--n", "2", "hecke", json.dumps({"weight": HUGE_WEIGHT, "q": [1, 2, 3]})],
    ["--n", "2", "hecke", json.dumps({"weight": -HUGE_WEIGHT, "q": [1, 2, 3]})],
    # a weight inside the bound whose factor l^-weight overflows at this tau
    ["--n", "2", "--tau-samples", "300j", "hecke",
     json.dumps({"weight": -300, "q": [1, 2, 3]})],
    # the kernels table of a height-2 class function
    ["--group", "C1", "--n", "2", "power", json.dumps({
        "height": 2, "d": 2, "elliptic": True, "kind": "lat",
        "kernels": [{"weight": HUGE_WEIGHT, "q": [[1.0, 0.0]]}],
        "values": [{"tuple": [0, 0], "point": 0, "graded": {"0": [1.0, 0.0]}}]})],
], ids=["huge weight", "huge negative weight", "overflowing slash", "kernels table"])
def test_oversized_kernel_weight_exits_2_with_one_error_line(argv, tmp_path, capsys):
    if "power" in argv:
        path = tmp_path / "f.json"
        path.write_text(argv[-1])
        argv = argv[:-1] + [str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
