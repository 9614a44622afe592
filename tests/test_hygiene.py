"""Source hygiene checks: they read the sources with ``ast`` and import
nothing but the standard library and the package; one imports the command
line in a fresh interpreter to see which modules it loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pfspec"
MODULES = sorted(SRC.glob("*.py"))
REFERENCE = ROOT / "tests" / "reference.py"


def unused_imports(source):
    """(line, name) for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_each_unread_name():
    source = "import os\nimport a.b as c\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c"), (3, "argv")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def local_imports(source):
    """Line of each import statement that is not at the top level of the
    module."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def test_local_imports_finds_each_nested_import():
    source = "import os\n\n\ndef f():\n    import sys\n    if sys:\n        from os import path\n"
    assert local_imports(source) == [5, 7]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_local_imports(path):
    # no import cycle needs one: every import sits at the top of its module
    assert local_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source):
    """Line of each assert statement; ``python -O`` removes them."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_lines_finds_each_assert():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x, 'msg'\n") == [2, 4]


@pytest.mark.parametrize("path", MODULES + [REFERENCE], ids=[p.stem for p in MODULES + [REFERENCE]])
def test_no_asserts(path):
    # a failed check raises a PfspecError with a witness, which python -O
    # keeps; the shared checks of the tests are held to the same rule
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def long_lines(source, limit=120):
    """Number of each line longer than ``limit`` characters."""
    return [k for k, line in enumerate(source.splitlines(), 1) if len(line) > limit]


def test_long_lines_finds_each_line_past_the_limit():
    assert long_lines("x = 1\n" + "y" * 121 + "\n" + "z" * 120 + "\n") == [2]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_long_lines(path):
    assert long_lines(path.read_text(encoding="utf-8")) == []


def self_calls(source):
    """(line, name) for each def whose body calls the def by its own name,
    as ``name(...)`` or ``self.name(...)``: a recursion, which fails past
    the interpreter's recursion limit."""

    def names(func):
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
            return func.attr
        return getattr(func, "id", None)

    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(call, ast.Call) and names(call.func) == node.name for call in ast.walk(node))
    ]


def test_self_calls_finds_each_recursive_def():
    source = (
        "def walk(n):\n    return n and walk(n - 1)\n\n\n"
        "def flat(n):\n    return list(range(n))\n\n\n"
        "class Tree:\n    def depth(self, k):\n        return k and self.depth(k - 1)\n\n"
        "    def __init__(self):\n        super().__init__()\n\n\n"
        "def outer(xs):\n    def inner(k):\n        return k and inner(k - 1)\n\n    return inner(xs)\n"
    )
    assert self_calls(source) == [(1, "walk"), (10, "depth"), (18, "inner")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_recursive_defs(path):
    # every search keeps its own stack, so no input is too deep for it
    assert self_calls(path.read_text(encoding="utf-8")) == []


def identifiers(source, strings=False):
    """How often ``source`` names each identifier in its code: a read or
    bound ``ast.Name`` or the attribute of an ``ast.Attribute``, and with
    ``strings`` each string constant too.  Words in comments and docstrings
    do not count."""
    found = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced_definitions(modules, bench):
    """(module, line, name) for each def or class in ``modules`` (name ->
    source) that no code of ``modules`` names as an identifier and no source
    of ``bench`` names as an identifier or a string, which is how the
    benchmark names the functions it traces.  Dunder names are exempt."""
    used = Counter()
    for text in modules.values():
        used.update(identifiers(text))
    for text in bench:
        used.update(identifiers(text, strings=True))
    return [
        (module, node.lineno, node.name)
        for module, text in modules.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not used[node.name]
    ]


def test_unreferenced_definitions_finds_each_unnamed_def():
    lib = (
        'def used():\n    """Calls Dead and tested."""\n\n\n'
        "def traced():\n    pass\n\n\n"
        "def tested():\n    pass\n\n\n"
        "class Dead:\n    def __repr__(self):\n        return ''\n"
    )
    caller = "from lib import used\nused()\n"
    bench = 'TRACED = [("lib", "traced")]  # Dead\n'
    found = unreferenced_definitions({"lib": lib, "caller": caller}, [bench])
    assert found == [("lib", 9, "tested"), ("lib", 13, "Dead")]


def test_no_unreferenced_definitions():
    # every def and class of the package is named in the package's own code
    # or by the benchmark: test-only code lives in tests/reference.py
    bench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").rglob("*.py"))]
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_definitions(modules, bench) == []


DOC_REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?``")


def class_members(trees):
    """Class name -> the names that ``C.x`` may resolve to, for each class
    defined in ``trees``: the defs and assignments of its body, the
    attributes its methods set on ``self``, its named-tuple fields and the
    members of its bases.  A class with a base defined elsewhere maps to
    None, as not all of its members are seen."""
    nodes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                nodes.setdefault(node.name, []).append(node)

    def members(name, seen):
        found = set()
        for node in nodes[name]:
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id in nodes and base.id not in seen:
                    inherited = members(base.id, seen | {base.id})
                elif isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                    fields = base.args[1]
                    if isinstance(fields, ast.Constant):
                        inherited = set(fields.value.replace(",", " ").split())
                    else:
                        inherited = {e.value for e in fields.elts}
                else:
                    inherited = None
                if inherited is None:
                    return None
                found |= inherited
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    found.add(stmt.name)
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]:
                    if isinstance(target, ast.Name):
                        found.add(target.id)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    if getattr(sub.value, "id", None) == "self":
                        found.add(sub.attr)
        return found

    return {name: members(name, {name}) for name in nodes}


def stale_references(modules):
    """(module, line, reference) for each double-backticked name in a
    docstring of ``modules`` (name -> source), such as ``X`` or ``X.y()``,
    with a dotted part that names nothing of ``modules``: no def or class,
    assigned name or attribute, argument, module name or string constant.
    A part that follows a class C of ``modules`` must name a member of C
    instead (``class_members``), where all of them are seen.  The line is
    the docstring's first."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    known = set(modules)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                known.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                known.add(node.attr)
            elif isinstance(node, ast.arg):
                known.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                known.add(node.value)
    members = class_members(trees.values())

    def resolves(reference):
        parts = reference.split(".")
        for before, part in zip([None] + parts, parts):
            scope = members.get(before)
            if part not in (known if scope is None else scope):
                return False
        return True

    return sorted(
        (module, node.body[0].lineno, found[0])
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for found in DOC_REFERENCE.finditer(ast.get_docstring(node, clean=False) or "")
        if not resolves(found[1])
    )


def test_stale_references_finds_each_unresolved_name():
    lib = (
        '"""Reads ``lib.f``, ``C.size``, ``C.mode`` and ``Gone.f()``."""\n\n\n'
        'def f(x):\n    """Takes ``x`` to ``mode``, never ``y`` or ``x v y``."""\n    return "mode"\n'
    )
    caller = 'class C:\n    """Calls ``f()`` and ``lib.g``."""\n\n    def __init__(self):\n        self.size = 0\n'
    record = 'class P(namedtuple("P", "a b")):\n    """Holds ``P.b``, ``P.size`` and ``E.size``."""\n\n\nclass E(Exception):\n    pass\n'
    found = stale_references({"lib": lib, "caller": caller, "record": record})
    # ``C.mode`` and ``P.size`` name a string constant and an attribute of
    # the package, but no member of C or P; ``P.b`` names a field, and E has
    # a base from elsewhere, so ``E.size`` resolves against the package
    assert found == [
        ("caller", 2, "``lib.g``"),
        ("lib", 1, "``C.mode``"),
        ("lib", 1, "``Gone.f()``"),
        ("lib", 5, "``y``"),
        ("record", 2, "``P.size``"),
    ]


def test_no_stale_references():
    # a docstring that names a def, attribute or module by ``name`` names
    # one the package still has
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert stale_references(modules) == []


def traced_names(source):
    """The entries of ``_FUNCTIONS`` as (module, attribute) and of
    ``_METHODS`` as (module, class, method), read from the source of
    ``bench/spans.py`` without importing it."""
    widths = {"_FUNCTIONS": 2, "_METHODS": 3}
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in widths:
            name = node.targets[0].id
            found[name] = [tuple(e.value for e in row.elts[: widths[name]]) for row in node.value.elts]
    return found["_FUNCTIONS"], found["_METHODS"]


def test_traced_names_reads_both_tables():
    source = (
        '_FUNCTIONS = [\n    ("order", "f", "order.f", None),\n    ("spectrum", "g", "spectrum.g", lambda r: []),\n]\n'
        '_METHODS = [("quantale", "Quantale", "validate", "quantale.validate")]\n'
    )
    assert traced_names(source) == (
        [("order", "f"), ("spectrum", "g")],
        [("quantale", "Quantale", "validate")],
    )


def test_every_name_the_benchmark_traces_resolves():
    # bench/run.py --trace 1 wraps each of these, and raises AttributeError
    # or KeyError on one that the package no longer has
    functions, methods = traced_names((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    assert functions and methods
    for module, attr in functions:
        assert callable(getattr(importlib.import_module(f"pfspec.{module}"), attr, None)), (module, attr)
    for module, cls, method in methods:
        assert method in vars(getattr(importlib.import_module(f"pfspec.{module}"), cls)), (module, cls, method)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every pfspec command is a fresh process that pays for each module the
    # package loads; dataclasses brings in inspect, ast, dis and tokenize.
    # Only modules new since before the import count, so a site that loads
    # them itself cannot fail the test.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pfspec.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
