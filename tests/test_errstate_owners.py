"""Only the code that builds a matrix or a trajectory silences numpy's
overflow warnings for it: np.errstate appears in liouvillian_matrix, frob
and evolve_rk4 and nowhere else in the package, so no caller hides a
warning that the builder ought to prevent. evolve_rk4 owns its overflow:
an input too large to step ends in its own step, budget, trace-drift or
finiteness refusal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lindsymlab"

OWNERS = {("lindblad.py", "liouvillian_matrix"), ("lindblad.py", "evolve_rk4"),
          ("operators.py", "frob")}


def errstate_uses(source: str) -> list:
    """(line, enclosing function or "<module>") for every np.errstate or
    numpy.errstate in source, attribute or imported name alike."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "errstate"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((node.lineno, owner))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend((node.lineno, owner) for alias in node.names
                         if alias.name == "errstate")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_matrix_builders_use_errstate():
    stray = {(path.name, owner, line)
             for path in sorted(SRC.glob("*.py"))
             for line, owner in errstate_uses(path.read_text())
             if (path.name, owner) not in OWNERS}
    assert stray == set()


def test_the_check_sees_errstate_uses():
    source = ("import numpy as np\nfrom numpy import errstate\n"
              "def build():\n    with np.errstate(over='ignore'):\n"
              "        pass\n"
              "def caller():\n    with numpy.errstate(invalid='ignore'):\n"
              "        return np.linalg.norm(1)\n")
    assert errstate_uses(source) == [(2, "<module>"), (4, "build"),
                                     (7, "caller")]
