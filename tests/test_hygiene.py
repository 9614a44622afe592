"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pfspec"
MODULES = sorted(SRC.glob("*.py"))


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


def assert_lines(source):
    """Line of each assert statement; ``python -O`` removes them."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_lines_finds_each_assert():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x, 'msg'\n") == [2, 4]


def test_no_asserts_in_spectrum():
    # a failed check in the spectrum pipeline raises LawViolation instead
    assert assert_lines((SRC / "spectrum.py").read_text(encoding="utf-8")) == []


def test_no_asserts_in_quantale():
    # the reflections raise LawViolation, which python -O keeps
    assert assert_lines((SRC / "quantale.py").read_text(encoding="utf-8")) == []


def test_no_asserts_in_algebra():
    # the point-table round trip in to_localic raises LawViolation instead
    assert assert_lines((SRC / "algebra.py").read_text(encoding="utf-8")) == []


def test_no_asserts_in_suplattice():
    # the tensor's factor count and universal property raise LawViolation
    assert assert_lines((SRC / "suplattice.py").read_text(encoding="utf-8")) == []
