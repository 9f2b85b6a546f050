"""Every import of the package sits at the top of its module and is used.

An import inside a function hides a dependency (or an import cycle) from a
reader of the module's header; an import that nothing reads claims one that
does not exist.  `lattices` is the bottom of the package:
plain integer arithmetic that imports nothing from `charops`, so `groups`
and `orbits` can import it at the top.
"""

import ast
from pathlib import Path

import charops

PACKAGE = Path(charops.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imports_inside_functions(path):
    return sorted({f"{path.name}:{node.lineno}"
                   for fn in ast.walk(parse(path)) if isinstance(fn, FUNCTIONS)
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_module_imports_inside_a_function():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += imports_inside_functions(path)
    assert offenders == []


def package_imports(path):
    return [f"{path.name}:{node.lineno}" for node in ast.walk(parse(path))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "charops")
            or isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "charops" for a in node.names)]


def test_lattices_imports_nothing_from_the_package():
    assert package_imports(PACKAGE / "lattices.py") == []


def unread_imports(path):
    tree = parse(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    # the base of an attribute chain a.b.c is the Name a
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in read)


def test_every_top_level_import_is_read():
    """`__init__.py` imports names to re-export them, so it is left out."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            offenders += unread_imports(path)
    assert offenders == []
