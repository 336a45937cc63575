"""The walker behind the single-owner checks. Each test_*_owner(s) module
pairs one matcher with the places of the package that may use what it
matches, and the package must use it there and nowhere else, so one place
decides it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lindsymlab"


def module_name(modules: set, names: set):
    """Matches modules.name as an attribute, or a from-import of a name."""
    def match(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module in modules and any(
                alias.name in names for alias in node.names)
        return (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id in modules)
    return match


def call_of(names: set):
    """Matches a call of one of names, by name or as an attribute."""
    def match(node) -> bool:
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) in names
    return match


def catch_of(names: set):
    """Matches an except clause naming one of names, alone, in a tuple or
    as an attribute."""
    def caught(node) -> set:
        if isinstance(node, ast.Tuple):
            return set().union(*map(caught, node.elts))
        return {getattr(node, "attr", getattr(node, "id", None))}

    def match(node) -> bool:
        return (isinstance(node, ast.ExceptHandler) and node.type is not None
                and bool(caught(node.type) & names))
    return match


def matches(match, source: str) -> list:
    """(line, enclosing "Class.function", function or "<module>") for every
    node of source that match accepts."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else (
                f"{owner}.{node.name}")
        if match(node):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def package_owners(match) -> set:
    """(module file, "Class.function") of every match in the package."""
    return {(path.name, owner)
            for path in sorted(SRC.glob("*.py"))
            for _, owner in matches(match, path.read_text())}
