"""Import hygiene: every name a library module imports is used in it,
every private top-level function or class is referenced in its own module,
and every error type is raised somewhere, so a helper or an exception that a
refactor leaves without callers fails here.

``__init__.py`` is skipped, because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "timeloc"
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
