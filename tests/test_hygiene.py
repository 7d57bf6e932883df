"""No unused name in the package: an unused-name check on its own syntax trees.

Each module under `src/magh` is parsed with `ast`. An import must be read
somewhere in its module or re-exported through `__all__`, and a name a
function assigns (`x = ...`, `x: T = ...`, `(x := ...)` or
`except E as x`) must be read in that function or in one nested in it.
Unpacking and loop targets are not checked, and neither are
`annotations` (the `__future__` import) and `_`. A change that leaves a
local or an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magh"
IGNORED = {"annotations", "_"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def reads(node):
    """The names loaded anywhere under `node`."""
    names = ast.walk(node)
    return {n.id for n in names if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def exported(tree):
    """The strings listed in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return set()


def unused_imports(tree):
    used = reads(tree) | exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in IGNORED:
                    found.append((node.lineno, name))
    return found


def own_nodes(scope):
    """The nodes of a function's body, without those of scopes nested in it."""
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def assigned(node):
    """(line, name) of each plain name the statement or expression binds."""
    if isinstance(node, ast.Assign):
        return [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [(node.lineno, node.target.id)] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.NamedExpr):
        return [(node.lineno, node.target.id)]
    if isinstance(node, ast.ExceptHandler) and node.name:
        return [(node.lineno, node.name)]
    return []


def unused_locals(tree):
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        used = reads(scope)
        declared = set()  # global or nonlocal: bound for a scope that reads it
        bound = []
        for node in own_nodes(scope):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            bound += assigned(node)
        found += [
            (line, name)
            for line, name in bound
            if name not in used and name not in declared and name not in IGNORED
        ]
    return sorted(found)


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import_or_local(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == [], "imports never read"
    assert unused_locals(tree) == [], "locals assigned and never read"


def test_the_check_sees_what_it_looks_for():
    source = (
        "import os\n"
        "from sys import argv as args, path\n"
        "__all__ = ['path']\n"
        "def f(a):\n"
        "    unused = a\n"
        "    kept = a\n"
        "    if (caught := a):\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    def g():\n"
        "        return kept\n"
        "    _ = g\n"
        "    return g\n"
    )
    tree = ast.parse(source)
    assert unused_imports(tree) == [(1, "os"), (2, "args")]
    assert unused_locals(tree) == [(5, "unused"), (7, "caught"), (11, "exc")]
