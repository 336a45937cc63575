"""One place decides how a Liouvillian is made: the package calls
liouvillian_matrix only inside ScenarioSystem.liouvillian, so a system
builds its Liouvillian at most once, when a route first reads it, and no
command or propagator builds one of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lindsymlab"

OWNERS = {("classify.py", "ScenarioSystem.liouvillian")}


def liouvillian_calls(source: str) -> list:
    """(line, enclosing "Class.function", function or "<module>") for
    every call of liouvillian_matrix in source, by name or as an
    attribute."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else (
                f"{owner}.{node.name}")
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "liouvillian_matrix":
                found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_the_system_builds_its_liouvillian():
    calls = {(path.name, owner)
             for path in sorted(SRC.glob("*.py"))
             for _, owner in liouvillian_calls(path.read_text())}
    assert calls == OWNERS


def test_the_check_sees_liouvillian_calls():
    source = ("from .lindblad import liouvillian_matrix\n"
              "l = liouvillian_matrix(h, o, 0.1)\n"
              "class System:\n"
              "    def read(self):\n"
              "        return lindblad.liouvillian_matrix(self.h, self.o, 1)\n"
              "def sweep(ref, g):\n"
              "    return replace(ref, l=liouvillian_matrix(ref.h, ref.o, g))\n"
              "def unrelated():\n"
              "    return liouvillian(1)\n")
    assert liouvillian_calls(source) == [(2, "<module>"), (5, "System.read"),
                                         (7, "sweep")]
