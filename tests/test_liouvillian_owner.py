"""One place decides how a Liouvillian is made: the package calls
liouvillian_matrix only inside ScenarioSystem.liouvillian, so a system
builds its Liouvillian at most once, when a route first reads it, and no
command or propagator builds one of its own."""

from owners import call_of, matches, package_owners

LIOUVILLIAN = call_of({"liouvillian_matrix"})
OWNERS = {("classify.py", "ScenarioSystem.liouvillian")}


def test_only_the_system_builds_its_liouvillian():
    assert package_owners(LIOUVILLIAN) == OWNERS


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
    assert matches(LIOUVILLIAN, source) == [(2, "<module>"), (5, "System.read"),
                                            (7, "sweep")]
