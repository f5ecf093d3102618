"""Source hygiene checks that need no linter: every name a module or
script imports is used somewhere in that file, every private
module-level name is read somewhere in the package, every public
module-level function or class, and every public method or property of
such a class, has a reader, no package module imports inside a
function or class, no package module or script takes another module's
private name from wglab, and importing the CLI loads no
numpy.polynomial."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wglab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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
    (`self._size`, `cache.load`) and names in string annotations; a name
    only assigned is not read."""
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


# public names no module, script or bench reads, each kept for a reason
_UNREAD_PUBLIC = {
    "rho_naive": "the oracle the tests hold the MITM join and the lattice to",
    "a_coefficient_direct": "the oracle the tests hold the sigma tables to",
    "v_eval": "the lab quantity v(beta) the README documents",
    "oscillatory_I": "the lab quantity I(beta) the README documents",
    "ArcDecomposition.covers": "the arc-machinery acceptance criterion reads it",
}


def _public_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level public functions and classes, and the public methods
    and properties of those classes as "Class.name", with their line
    numbers."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                out.update(
                    (f"{node.name}.{member.name}", member.lineno)
                    for member in node.body
                    if isinstance(member, defs[:2]) and not member.name.startswith("_")
                )
    return out


def _unread_public(tree: ast.Module, read: set[str]) -> dict[str, int]:
    """The public names of tree that no name in read reads; a method
    counts as read when its attribute name is."""
    return {
        name: line for name, line in _public_defs(tree).items()
        if name.rpartition(".")[2] not in read
    }


def test_every_public_name_has_a_reader():
    # __init__.py is no reader: its __all__ strings would count as reads
    readers = MODULES + SCRIPTS + PERFBENCH
    read = set().union(*(_read(ast.parse(p.read_text(), filename=str(p))) for p in readers))
    unread = sorted(
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in _unread_public(ast.parse(path.read_text(), filename=str(path)), read).items()
        if name not in _UNREAD_PUBLIC
    )
    assert not unread, f"public names no module, script or bench reads: {', '.join(unread)}"


def test_catches_an_unread_public_name():
    tree = ast.parse(
        "LIMIT = 4\n"
        "def used(a: 'Table'):\n"
        "    return a.size + a.scale()\n"
        "def unused():\n"
        "    return used(LIMIT)\n"
        "class Table:\n"
        "    def method(self):\n"
        "        pass\n"
        "    def scale(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self._size\n"
        "    @property\n"
        "    def spare(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "class Spare:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    assert sorted(_unread_public(tree, _read(tree))) == [
        "Spare", "Table.method", "Table.spare", "unused",
    ]


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


_BUDGET_ERRORS = {"MemoryBudgetExceeded", "ConvolutionTooLarge"}


def _budget_errors_built(tree: ast.Module) -> list[int]:
    """Line numbers of the calls that construct a budget error by name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in _BUDGET_ERRORS
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_budget_errors_come_from_require_bytes(path):
    lines = _budget_errors_built(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} builds a budget error at lines {lines}; use require_bytes"


def test_catches_a_hand_written_budget():
    tree = ast.parse(
        "from . import errors\n"
        "from .errors import ConvolutionTooLarge, MemoryBudgetExceeded, require_bytes\n"
        "def f(need):\n"
        "    require_bytes(need, 4, 'grid', 'a grid needs', ConvolutionTooLarge)\n"
        "    if need > 8:\n"
        "        raise MemoryBudgetExceeded('over')\n"
        "    raise errors.ConvolutionTooLarge('over')\n"
    )
    assert _budget_errors_built(tree) == [6, 7]


def _private_wglab_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every underscore name a file takes from wglab: a
    private module or name it imports, or a private attribute it reads
    off a name that a wglab import bound (`wglab.cli._emit`).  Relative
    imports (`from . import cache`) are wglab imports."""
    bound, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name.split(".")[0] == "wglab"]
            bound |= {a.asname or "wglab" for a in aliases}
            names = [part for a in aliases for part in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "wglab"
        ):
            bound |= {a.asname or a.name for a in node.names}
            names = (node.module or "").split(".") + [a.name for a in node.names]
        else:
            continue
        out += [(node.lineno, name) for name in names if name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_take_only_public_wglab_names(path):
    names = _private_wglab_names(ast.parse(path.read_text(), filename=str(path)))
    assert not names, f"{path.name} takes private wglab names: {names}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_read_no_other_modules_private_names(path):
    names = _private_wglab_names(ast.parse(path.read_text(), filename=str(path)))
    assert not names, f"{path.name} reads other modules' private names: {names}"


def test_catches_a_private_wglab_name():
    tree = ast.parse(
        "import json\n"
        "import wglab.cli\n"
        "from wglab import experiment as ex\n"
        "from wglab.cli import _report_summary, per_n_table\n"
        "from wglab._hidden import thing\n"
        "def f(rep):\n"
        "    json._default_encoder\n"
        "    per_n_table(rep)\n"
        "    ex._ARC_MEMO.clear()\n"
        "    return wglab.cli._emit\n"
    )
    assert _private_wglab_names(tree) == [
        (4, "_report_summary"), (5, "_hidden"), (9, "ex._ARC_MEMO"), (10, "wglab.cli._emit"),
    ]


def test_catches_a_module_reading_a_private_name():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import cache, singular_series\n"
        "from .arith import _sieve, modulus_R\n"
        "from .errors import CacheMiss\n"
        "def f(self):\n"
        "    np._NoValue\n"
        "    self._memo\n"
        "    cache.load(modulus_R(2))\n"
        "    return singular_series._PARTIAL_FLOOR\n"
    )
    assert _private_wglab_names(tree) == [(3, "_sieve"), (9, "singular_series._PARTIAL_FLOOR")]


def test_cli_import_leaves_numpy_polynomial_out():
    # numpy.polynomial costs about 6 ms of every process's start
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", "import sys, wglab.cli; print('numpy.polynomial' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
