"""Every name a package or test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lindsymlab"


def unused_imports(source: str) -> list:
    """Names bound by imports in source and never read; __all__ reads its
    entries, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda path: (path.name if path.parent == SRC
                                           else f"tests/{path.name}"))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from .a import b, c as d\n"
              "__all__ = ['b']\n"
              "x: sys.Path = 1\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]
