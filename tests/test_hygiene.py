"""Source hygiene checks that need no linter: every name a module or
script imports is used somewhere in that file, every private
module-level name is read somewhere in the package, and no package
module imports inside a function or class."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wglab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _string_names(node: ast.AST) -> set[str]:
    """The names in a string constant that parses as an expression, such
    as the annotation "ArcDecomposition"; empty for any other node."""
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return set()
    try:
        inner = ast.parse(node.value, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations ("ArcDecomposition") included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        used |= _string_names(node)
    return used


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_catches_a_stale_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from .arith import PrimeWindow, ProblemContext\n"
        "def f(a: 'ProblemContext'):\n"
        "    return a\n"
    )
    assert sorted(set(_imported(tree)) - _used(tree)) == ["PrimeWindow", "os"]


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (one leading underscore) bound by def,
    class or assignment, with their line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attribute names
    (`singular_series._PARTIAL_FLOOR`) and names in string annotations;
    a name only assigned is not read."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        read |= _string_names(node)
    return read


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    read = set().union(*map(_read, trees.values()))
    unread = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_defs(tree).items()
        if name not in read
    )
    assert not unread, f"private names defined but never read in the package: {', '.join(unread)}"


def test_catches_an_unread_private_name():
    tree = ast.parse(
        "_CAP = 4\n"
        "_cache: dict = {}\n"
        "_LO, _HI = 1, 2\n"
        "def _helper(a: '_Table'):\n"
        "    _cache[a] = _LO\n"
        "class _Table:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper\n"
    )
    assert sorted(set(_private_defs(tree)) - _read(tree)) == ["_CAP", "_HI"]


def _nested_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the import statements inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({
        node.lineno
        for scope in ast.walk(tree)
        if isinstance(scope, scopes)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    lines = _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} imports below module level at lines {lines}"


def test_catches_a_nested_import():
    tree = ast.parse(
        "import math\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "def f():\n"
        "    import bisect\n"
        "    def g():\n"
        "        from os import path\n"
        "class C:\n"
        "    import re\n"
    )
    assert _nested_imports(tree) == [7, 9, 11]
