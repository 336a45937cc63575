"""Every top-level function and class of the package has a caller, and
so does every plain (non-fixture) function of tests/conftest.py.

A caller of package code is a name, attribute or import in src/lindsymlab
or bench/*.py outside the definition itself. Tests do not count: code that
only its own unit test calls is dead. A conftest helper's callers are the
test modules. Names in strings and docstrings do not count either.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "lindsymlab"

# Kept without a caller, each for the reason given.
KEEP = {
    "kramers_check": "AC9 checks the paper's Kramers degeneracy with it",
}


def _is_fixture(node) -> bool:
    """Decorated with pytest.fixture, with or without arguments."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            return True
    return False


def definitions(tree) -> list:
    """Top-level functions and classes; pytest injects fixtures by name."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not _is_fixture(node)]


def references(tree) -> set:
    """(name, enclosing top-level definition or None) for every name an
    ast.Name, ast.Attribute or import alias in tree refers to."""
    refs = set()
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)) else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                refs.add((node.name.split(".")[-1], owner))
    return refs


def uncalled(defining: dict, others: list) -> list:
    """Definitions of each module in defining (module name -> source) that
    nothing refers to outside their own definition; others are sources that
    may only call."""
    trees = {mod: ast.parse(src) for mod, src in defining.items()}
    called = set()
    for tree in trees.values():
        called |= {name for name, owner in references(tree) if owner != name}
    for src in others:
        called |= {name for name, _ in references(ast.parse(src))}
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name in definitions(tree)
                  if name not in called and name not in KEEP)


def test_every_package_definition_has_a_caller():
    package = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert uncalled(package, bench) == []


def test_every_conftest_helper_has_a_caller():
    conftest = TESTS / "conftest.py"
    tests = [path.read_text() for path in TESTS.glob("*.py")
             if path != conftest]
    assert uncalled({"conftest": conftest.read_text()}, tests) == []


def test_the_check_sees_dead_and_self_calling_code():
    defining = {"a": ("def used():\n    pass\n"
                      "def dead():\n    '''used() in a docstring'''\n"
                      "def recursive(n):\n    return recursive(n - 1)\n"
                      "class Thing:\n    def make(self):\n"
                      "        return Thing()\n"
                      "@pytest.fixture\ndef injected():\n    pass\n"
                      "@pytest.fixture(scope='session')\n"
                      "def shared():\n    pass\n")}
    caller = "from a import used\nx = 'dead'\n"
    assert uncalled(defining, [caller]) == ["a.Thing", "a.dead",
                                            "a.recursive"]
