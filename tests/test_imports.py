"""Import hygiene: the library imports only the standard library, every
name a library module imports is used in it, every private top-level function or class is referenced in its own module,
every error type is raised somewhere, and every parameter with a default is
set by some call, so a helper, an exception or a setting that a refactor
leaves without callers fails here.

``__init__.py`` is skipped by the unused-name check, because its imports
are the package's exports.
"""

import ast
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "timeloc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports of a top-level module outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_library_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_non_stdlib_import_is_reported():
    source = (
        "from __future__ import annotations\nimport os, numpy as np\n"
        "from collections.abc import Mapping\nfrom . import errors\nfrom .errors import X\n"
        "from yaml.loader import Loader\n"
    )
    assert non_stdlib_imports(source) == ["line 2: numpy", "line 6: yaml.loader"]


def unreferenced_private_defs(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nimport json as j\nfrom typing import Any, Mapping\nx: Mapping = os.sep\n"
    assert unused_imports(source) == ["line 2: j", "line 3: Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_def_is_referenced_in_its_module(path):
    assert unreferenced_private_defs(path.read_text(encoding="utf-8")) == []


def test_unreferenced_private_def_is_reported():
    source = (
        "def _used():\n    pass\n\n"
        "def _left_behind():\n    pass\n\n"
        "class _Orphan:\n    def _method(self):\n        pass\n\n"
        "def __getattr__(name):\n    return _used\n"
    )
    assert unreferenced_private_defs(source) == ["line 4: _left_behind", "line 7: _Orphan"]


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that ``raise X`` or ``raise X(...)`` raise."""
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return raised


def test_every_error_type_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert declared - {"TimelocError"} - raised == set()


def test_raised_names_reads_bare_and_called_raises():
    source = "def f(e):\n    raise KeyError('x')\n    raise e\n    raise\n    raise ValueError from e\n"
    assert raised_names(source) == {"KeyError", "e", "ValueError"}


def defaulted_params(source: str) -> list[tuple[str, str, int | None, int]]:
    """``(callee, parameter, position, line)`` for each parameter with a default.

    A method's position leaves out ``self`` or ``cls``, and ``__init__`` and
    ``__new__`` are called by their class name.  A keyword-only parameter
    has no position.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            name = cls if cls is not None and child.name in ("__init__", "__new__") else child.name
            first = len(positional) - len(args.defaults)
            found.extend((name, arg.arg, i, arg.lineno) for i, arg in enumerate(positional) if i >= first)
            found.extend(
                (name, arg.arg, None, arg.lineno)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            )
            visit(child, None)

    visit(ast.parse(source), None)
    return found


def unset_params(source: str, callers: list[str]) -> list[str]:
    """Parameters of ``source`` with a default that no call in ``callers``
    names as a keyword or reaches by position.

    A call is matched by the name it calls (``f(...)`` or ``x.f(...)``).
    A ``*args`` call reaches every position; a ``**kwargs`` call names no
    keyword, since it only forwards what its own caller set.
    """
    named: dict[str, set[str]] = {}
    reach: dict[str, float] = {}
    for caller in callers:
        for node in ast.walk(ast.parse(caller)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            named.setdefault(name, set()).update(k.arg for k in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            reach[name] = max(reach.get(name, 0), math.inf if starred else len(node.args))
    return [
        f"line {line}: {name}({param}=)"
        for name, param, position, line in defaulted_params(source)
        if param not in named.get(name, ()) and (position is None or reach.get(name, 0) <= position)
    ]


def test_every_defaulted_parameter_is_set_by_some_call():
    callers = [p.read_text(encoding="utf-8") for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    unset = {p.name: unset_params(p.read_text(encoding="utf-8"), callers) for p in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in unset.items() if params} == {}


def test_unset_param_is_reported():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def m(self, z=0):\n        pass\n"
    )
    callers = [source + "f(0, 1, e=5)\nK(1)\nK(**{'y': 2})\nK.m(*())\n"]
    assert unset_params(source, callers) == ["line 1: f(c=)", "line 1: f(d=)", "line 5: K(y=)"]
