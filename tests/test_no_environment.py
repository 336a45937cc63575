"""No package module reads the process environment: every input comes
from the command line or the config file, so a run cannot change with a
variable the user never sees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lindsymlab"


def environment_reads(source: str) -> list:
    """(line, name) for every os.environ, os.getenv or os.environb in
    source, attribute or imported name alike."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}")
                      for alias in node.names if alias.name in names]
    return sorted(found)


def test_no_package_module_reads_the_environment():
    reads = {path.name: environment_reads(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_check_sees_environment_reads():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\n"
              "c = os.path.join('p', 'q')\n")
    assert environment_reads(source) == [
        (2, "os.getenv"), (3, "os.environ"), (4, "os.getenv")]
