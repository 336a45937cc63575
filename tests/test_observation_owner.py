"""One place answers a doublet that cannot be observed: only cli.main
catches SubspaceDepletedError or PositivityError in the package, so every
command turns them into the same exit-2 message and no stage hides one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lindsymlab"

OBSERVATION_ERRORS = {"SubspaceDepletedError", "PositivityError"}
OWNERS = {("cli.py", "main")}


def observation_catches(source: str) -> list:
    """(line, enclosing function or "<module>") for every except clause
    that names an observation error, alone, in a tuple or as an
    attribute."""
    found = []

    def named(node) -> set:
        if isinstance(node, ast.Tuple):
            return set().union(*(named(elt) for elt in node.elts))
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.Name):
            return {node.id}
        return set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and named(node.type) & OBSERVATION_ERRORS):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_main_catches_observation_errors():
    catches = {(path.name, owner)
               for path in sorted(SRC.glob("*.py"))
               for _, owner in observation_catches(path.read_text())}
    assert catches == OWNERS


def test_the_check_sees_observation_catches():
    source = ("def a():\n    try:\n        pass\n"
              "    except (ValueError, PositivityError):\n        pass\n"
              "def b():\n    try:\n        pass\n"
              "    except spectra.SubspaceDepletedError:\n        pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert observation_catches(source) == [(4, "a"), (9, "b")]
