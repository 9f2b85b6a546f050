"""Only `groups` reads the private tables of a wreath product.

The batched wreath arithmetic (encoding radix, digit places, permutation
tables) is an implementation detail of `groups.WreathGroup`;
every other module works through its public methods or through classes
defined next to it (`PowerGSet`).  The table names are taken from a live
instance, so a table added later is covered too.
"""

import ast
from pathlib import Path

import charops
from charops.groups import cyclic_group, wreath

PACKAGE = Path(charops.__file__).resolve().parent


def wreath_private_names():
    W = wreath(cyclic_group(2), 3)
    return {name for name in vars(W) if name.startswith("_")}


def private_reads(path, names):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({f"{path.name}:{node.lineno}: .{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in names})


def test_the_private_names_cover_the_batched_tables():
    names = wreath_private_names()
    assert {"_bn", "_bs", "_power_array", "_inverse_array", "_perm_array"} <= names


def test_no_module_but_groups_reads_private_wreath_tables():
    names = wreath_private_names()
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "groups.py":
            offenders += private_reads(path, names)
    assert offenders == []
