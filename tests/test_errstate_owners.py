"""Only the code that builds a matrix or a trajectory silences numpy's
overflow warnings for it: np.errstate appears in liouvillian_matrix, frob,
evolve_rk4 and evolve_expm and nowhere else in the package, so no caller
hides a warning that the builder ought to prevent. Each propagator owns its
overflow: an input too large to step ends in evolve_rk4's own step,
budget, trace-drift or finiteness refusal, or in evolve_expm's trace-drift
or finiteness refusal."""

from owners import matches, module_name, package_owners

ERRSTATE = module_name({"np", "numpy"}, {"errstate"})
OWNERS = {("lindblad.py", "liouvillian_matrix"), ("lindblad.py", "evolve_rk4"),
          ("lindblad.py", "evolve_expm"), ("operators.py", "frob")}


def test_only_matrix_builders_use_errstate():
    assert package_owners(ERRSTATE) == OWNERS


def test_the_check_sees_errstate_uses():
    source = ("import numpy as np\nfrom numpy import errstate\n"
              "def build():\n    with np.errstate(over='ignore'):\n"
              "        pass\n"
              "def caller():\n    with numpy.errstate(invalid='ignore'):\n"
              "        return np.linalg.norm(1)\n")
    assert matches(ERRSTATE, source) == [(2, "<module>"), (4, "build"),
                                         (7, "caller")]
