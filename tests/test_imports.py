"""Import hygiene: the library imports only the standard library, every
name a library module imports is used in it, every private top-level function or class is referenced in its own module,
every public function or method is named outside the tests, every error
type is raised somewhere, every parameter with a default is set by some
call, every defaulted field of a frozen dataclass is set by some call
outside the tests, and no function only hands its own parameters on to
another call, so a helper, an exception, a setting, a switch or a second
name that a refactor leaves behind fails here.

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


def public_defs(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of each public top-level function and each public
    method of a public top-level class, a method named ``Class.method``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.extend(
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
            )
    return found


def referenced_names(source: str) -> set[str]:
    """Every name read as a ``Name``, an ``Attribute`` or a part of a dotted
    string such as ``"DayOracle.aps_at"``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def uncalled_public_defs(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of each public def of ``sources`` (module name -> source)
    whose last name part no source in ``callers`` references."""
    referenced = set().union(*map(referenced_names, callers))
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for name, _ in public_defs(source)
        if name.rsplit(".", 1)[-1] not in referenced
    ]


def test_every_public_def_has_a_caller():
    # The library's own modules and the benchmark call the library; tests do not count.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    callers = [*sources.values(), *(p.read_text(encoding="utf-8") for p in bench)]
    assert uncalled_public_defs(sources, callers) == []


def test_uncalled_public_def_is_reported():
    source = (
        "def used():\n    pass\n\n"
        "def uncalled():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Kept:\n"
        "    def spanned(self):\n        pass\n\n"
        "    def dropped(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "class _Hidden:\n    def method(self):\n        pass\n"
    )
    callers = [source, "used()\nx = Kept()\nSPANS = ('mod', 'Kept.spanned')\n"]
    assert uncalled_public_defs({"mod": source}, callers) == ["mod.uncalled", "mod.Kept.dropped"]


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


def call_sites(callers: list[str]) -> tuple[dict[str, set[str]], dict[str, float]]:
    """For each called name, the keywords some call names and the furthest
    position some call reaches.

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
    return named, reach


def unset_params(source: str, callers: list[str]) -> list[str]:
    """Parameters of ``source`` with a default that no call in ``callers``
    names as a keyword or reaches by position (see ``call_sites``)."""
    named, reach = call_sites(callers)
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


def is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in d.keywords)
        for d in node.decorator_list
    )


def defaulted_fields(source: str) -> list[tuple[str, str, int, int]]:
    """``(class, field, position, line)`` for each field with a default of a
    frozen dataclass; a ``field(init=False)`` takes no position and is left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and is_frozen_dataclass(node)):
            continue
        position = 0
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
            ):
                continue
            if value is not None:
                found.append((node.name, stmt.target.id, position, stmt.lineno))
            position += 1
    return found


def unset_fields(source: str, callers: list[str]) -> list[str]:
    """Defaulted fields of the frozen dataclasses of ``source`` that no call
    in ``callers`` sets: by naming the field as a keyword of the class or of
    ``replace(...)``, or by reaching its position in a call of the class."""
    named, reach = call_sites(callers)
    return [
        f"line {line}: {cls}.{name}"
        for cls, name, position, line in defaulted_fields(source)
        if name not in named.get(cls, set()) | named.get("replace", set()) and reach.get(cls, 0) <= position
    ]


def test_every_defaulted_dataclass_field_is_set_by_some_call():
    # Tests do not count: a field that only tests set is a switch no workload uses.
    callers = [p.read_text(encoding="utf-8") for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")]
    unset = {p.name: unset_fields(p.read_text(encoding="utf-8"), callers) for p in sorted(SRC.glob("*.py"))}
    assert {name: fields for name, fields in unset.items() if fields} == {}


def test_unset_field_is_reported():
    source = (
        "@dataclass(frozen=True, slots=True)\n"
        "class P:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: int = 2\n"
        "    d: int = 3\n"
        "    e: dict = field(default_factory=dict, init=False)\n"
        "    f: int = 4\n\n"
        "@dataclass(slots=True)\n"
        "class Mutable:\n"
        "    x: int = 0\n"
    )
    callers = [source + "P(0, 1)\nP(a=0, d=5)\nreplace(P(0), f=6)\n"]
    assert unset_fields(source, callers) == ["line 5: P.c"]


def _passed_names(call: ast.Call) -> list[str | None]:
    """What each argument of ``call`` passes on: ``p`` for ``p`` or ``p=p``,
    ``*p`` and ``**p`` for unpacked names, None for anything else."""
    passed = []
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            passed.append(f"*{arg.value.id}" if isinstance(arg.value, ast.Name) else None)
        else:
            passed.append(arg.id if isinstance(arg, ast.Name) else None)
    for k in call.keywords:
        name = k.value.id if isinstance(k.value, ast.Name) else None
        passed.append(f"**{name}" if k.arg is None and name else name if k.arg == name else None)
    return passed


def forwarding_functions(source: str) -> list[str]:
    """Top-level functions with no defaulted parameter whose body, after
    the docstring, is one ``return g(...)`` that passes exactly its own
    parameters, in order: a second name for ``g`` and nothing more."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if args.defaults or any(d is not None for d in args.kw_defaults):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if not (len(body) == 1 and isinstance(body[0], ast.Return) and isinstance(body[0].value, ast.Call)):
            continue
        params = [a.arg for a in args.posonlyargs + args.args]
        params += [f"*{args.vararg.arg}"] if args.vararg else []
        params += [a.arg for a in args.kwonlyargs]
        params += [f"**{args.kwarg.arg}"] if args.kwarg else []
        if _passed_names(body[0].value) == params:
            found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_only_forwards_its_arguments(path):
    assert forwarding_functions(path.read_text(encoding="utf-8")) == []


def test_forwarding_function_is_reported():
    source = (
        "def forwards(a, b):\n    return g(a, b)\n\n"
        "def documented(a, *rest, key, **more):\n"
        "    '''Doc.'''\n    return h.call(a, *rest, key=key, **more)\n\n"
        "def defaulted(a, n=3):\n    return g(a, n=n)\n\n"
        "def reordered(a, b):\n    return g(b, a)\n\n"
        "def renamed(a):\n    return g(b=a)\n\n"
        "def adds(a):\n    return g(a, 1)\n\n"
        "def drops(a, b):\n    return g(a)\n\n"
        "def two_steps(a):\n    x = g(a)\n    return x\n\n"
        "class K:\n    def m(self, a):\n        return g(self, a)\n"
    )
    assert forwarding_functions(source) == ["line 1: forwards", "line 4: documented"]
