"""One place answers a doublet that cannot be observed: only cli.main
catches ObservationError in the package, so every command turns it into
the same exit-2 message and no stage hides one."""

from owners import catch_of, matches, package_owners

OBSERVATION = catch_of({"ObservationError"})
OWNERS = {("cli.py", "main")}


def test_only_main_catches_observation_errors():
    assert package_owners(OBSERVATION) == OWNERS


def test_the_check_sees_observation_catches():
    source = ("def a():\n    try:\n        pass\n"
              "    except (ValueError, ObservationError):\n        pass\n"
              "def b():\n    try:\n        pass\n"
              "    except observables.ObservationError:\n        pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert matches(OBSERVATION, source) == [(4, "a"), (9, "b")]
