"""Each stage refuses through its own error type, and the package catches
a bare ValueError only in cli._positive, which turns float()'s into
argparse's. So no stage converts another's ValueError into a refusal: a
prepare-stage refusal is a ConfigError naming its key, and any other
ValueError is a caller's mistake that surfaces as a traceback."""

from owners import catch_of, matches, package_owners

VALUE_ERROR = catch_of({"ValueError"})
OWNERS = {("cli.py", "_positive")}


def test_only_positive_catches_value_errors():
    assert package_owners(VALUE_ERROR) == OWNERS


def test_the_check_sees_value_error_catches():
    source = ("def a():\n    try:\n        pass\n"
              "    except (ConfigError, ValueError):\n        pass\n"
              "def b():\n    try:\n        pass\n"
              "    except builtins.ValueError:\n        pass\n"
              "try:\n    pass\nexcept ConfigError:\n    pass\n")
    assert matches(VALUE_ERROR, source) == [(4, "a"), (9, "b")]
