"""Every top-level function, class and assigned name of the package has
a caller, every dataclass field a reader and every method a caller; so
does every plain (non-fixture) function of tests/conftest.py.

A caller of package code is a name read, attribute or import in
src/lindsymlab or bench/*.py outside the definition itself. Tests do not
count: code that only its own unit test calls is dead. A conftest helper's
callers are the test modules. Names in strings and docstrings do not count
either, and neither does assigning a name. Top-level names like
`__all__` and `__version__` are read by Python and tools, and are not
checked.

A field or method of a class is read by an attribute load of its name
(`x.field`, `self.method()`) outside its own definition: a sibling method
reads it, a keyword argument in a constructor call does not, and neither
does an assignment. Methods named `__dunder__` are called by Python itself
and are not checked.

An exception class of the package is used only when an `except` clause in
src/lindsymlab names it. Raising it does not count: a class that no caller
tells apart from its base is a second name for one refusal.
"""

import ast
from pathlib import Path

from owners import catch_of, matches

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "lindsymlab"

# Kept without a reader, each for the reason given.
KEEP = {
    "interaction_picture": ("bench/tracing.py traces it, and the tests' "
                            "Simpson reference for delta_rho builds on it, "
                            "until the benchmark drops the trace target"),
    "Verdict.stationarity": ("decide measures it for simulate, which "
                             "writes it to summary.json, and for the "
                             "table, where AC2 asserts the plateau is "
                             "stationary"),
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _decorated(node, name: str) -> bool:
    """Decorated with name or x.name, with or without arguments."""
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if name in (getattr(target, "attr", None), getattr(target, "id", None)):
            return True
    return False


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _name(top):
    """The name a top-level statement defines: a function, a class, or the
    single plain name an assignment binds; None for anything else."""
    if isinstance(top, _DEFINITION):
        return top.name
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def definitions(tree) -> list:
    """Top-level functions, classes and assigned names; pytest injects
    fixtures by name."""
    return [name for node in tree.body
            if (name := _name(node)) is not None and not _dunder(name)
            and not _decorated(node, "fixture")]


def members(tree) -> list:
    """(class, member) for every field of a top-level dataclass and every
    non-dunder method of a top-level class."""
    found = []
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            continue
        for node in top.body:
            if (isinstance(node, ast.AnnAssign)
                    and _decorated(top, "dataclass")
                    and isinstance(node.target, ast.Name)):
                found.append((top.name, node.target.id))
            elif isinstance(node, _FUNCTION) and not _dunder(node.name):
                found.append((top.name, node.name))
    return found


def _scopes(tree):
    """(top-level owner, method owner, node) for every node in tree. The
    top-level owner is the name the enclosing top-level statement defines
    or None; the method owner is the enclosing method of a top-level class
    or None."""
    for top in tree.body:
        owner = _name(top)
        methods = ([node for node in top.body if isinstance(node, _FUNCTION)]
                   if isinstance(top, ast.ClassDef) else [])
        inside = set()
        for method in methods:
            for node in ast.walk(method):
                inside.add(id(node))
                yield owner, method.name, node
        yield from ((owner, None, node) for node in ast.walk(top)
                    if id(node) not in inside)


def references(tree) -> set:
    """(name, enclosing top-level definition or None) for every name an
    ast.Name read, ast.Attribute or import alias in tree refers to."""
    refs = set()
    for owner, _, node in _scopes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            refs.add((node.attr, owner))
        elif isinstance(node, ast.alias):
            refs.add((node.name.split(".")[-1], owner))
    return refs


def reads(tree) -> set:
    """(attribute, enclosing top-level definition, enclosing method) for
    every attribute load in tree."""
    return {(node.attr, owner, method) for owner, method, node in _scopes(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def uncalled(defining: dict, others: list, keep=KEEP) -> list:
    """Definitions, fields and methods of each module in defining (module
    name -> source) that nothing calls or reads outside their own
    definition, less those keep names; others are sources that may only
    call and read."""
    trees = {mod: ast.parse(src) for mod, src in defining.items()}
    called, read = set(), set()
    for tree in trees.values():
        called |= {name for name, owner in references(tree) if owner != name}
        read |= reads(tree)
    for src in others:
        tree = ast.parse(src)
        called |= {name for name, _ in references(tree)}
        read |= {(attr, None, None) for attr, _, _ in reads(tree)}
    dead = [f"{mod}.{name}" for mod, tree in trees.items()
            for name in definitions(tree)
            if name not in called and name not in keep]
    dead += [f"{mod}.{cls}.{member}" for mod, tree in trees.items()
             for cls, member in members(tree)
             if f"{cls}.{member}" not in keep
             and not any(attr == member and (owner, method) != (cls, member)
                         for attr, owner, method in read)]
    return sorted(dead)


def uncaught(defining: dict) -> list:
    """Exception classes of each module in defining (module name -> source)
    that no except clause in any of the sources names. A class is an
    exception class when one of its bases is named *Error or *Exception,
    or is itself an exception class of defining."""
    bases = {(mod, top.name): {getattr(base, "id", getattr(base, "attr", None))
                               for base in top.bases}
             for mod, src in defining.items() for top in ast.parse(src).body
             if isinstance(top, ast.ClassDef)}
    errors, grown = set(), True
    while grown:
        found = {name for (_, name), names in bases.items()
                 if any(str(base).endswith(("Error", "Exception"))
                        or base in errors for base in names)}
        errors, grown = found, found != errors
    return sorted(f"{mod}.{name}" for mod, name in bases if name in errors
                  and not any(matches(catch_of({name}), src)
                              for src in defining.values()))


def _package_and_bench():
    return ({path.stem: path.read_text() for path in SRC.glob("*.py")},
            [path.read_text() for path in (ROOT / "bench").glob("*.py")])


def test_every_package_definition_has_a_caller():
    assert uncalled(*_package_and_bench()) == []


def test_every_package_exception_is_caught_by_name():
    assert uncaught(_package_and_bench()[0]) == []


def test_every_keep_entry_names_an_existing_member_without_a_reader():
    # with the keep-list ignored, the check reports exactly its entries: an
    # entry for a member that is gone, or that src or bench now reads, is
    # stale and must be dropped
    dead = uncalled(*_package_and_bench(), keep={})
    assert sorted(name.split(".", 1)[1] for name in dead) == sorted(KEEP)


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
                      "def shared():\n    pass\n"
                      "@dataclass(frozen=True)\nclass Record:\n"
                      "    unread: int\n"
                      "    keyword_only: int\n"
                      "    read: int = 0\n"
                      "    def uncalled(self):\n        return self.read\n"
                      "    def looping(self):\n"
                      "        return self.looping()\n"
                      "    def public(self):\n        return self.helper()\n"
                      "    def helper(self):\n        return 1\n"
                      "    def __str__(self):\n        return ''\n"
                      "def build():\n"
                      "    return Record(unread=1, keyword_only=2)\n"
                      "LIMIT = 3\nUNUSED = LIMIT + 1\n"
                      "__version__ = '1'\nshadow: int = 0\n"
                      "def sets():\n    shadow = 1\n")}
    caller = ("from a import used, build, sets\nx = 'dead'\n"
              "build().public()\nbuild().keyword_only = 3\n")
    assert uncalled(defining, [caller]) == [
        "a.Record.keyword_only", "a.Record.looping", "a.Record.uncalled",
        "a.Record.unread", "a.Thing", "a.Thing.make", "a.UNUSED", "a.dead",
        "a.recursive", "a.shadow"]


def test_the_check_sees_exceptions_no_clause_names():
    defining = {"a": ("class Refused(Exception):\n    pass\n"
                      "class Narrower(Refused):\n    pass\n"
                      "class OnlyRaised(ValueError):\n    pass\n"
                      "class Record:\n    pass\n"
                      "def run():\n    try:\n"
                      "        raise OnlyRaised('no')\n"
                      "    except (KeyError, Refused):\n        pass\n"),
                "b": ("import a\ntry:\n    a.run()\n"
                      "except a.Narrower:\n    pass\n"
                      "class Local(a.Refused):\n"
                      "    '''Local, named in text only'''\n")}
    assert uncaught(defining) == ["a.OnlyRaised", "b.Local"]
