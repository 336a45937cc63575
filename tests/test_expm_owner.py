"""One place takes the matrix exponential: the package calls
scipy.linalg.expm only inside lindblad.evolve_expm, once per call on the
whole stack of Liouvillians, so a bound on what that call may exponentiate
covers every exponential the package takes."""

from owners import call_of, matches, package_owners

EXPM = call_of({"expm"})
OWNERS = {("lindblad.py", "evolve_expm")}


def test_only_evolve_expm_takes_the_exponential():
    assert package_owners(EXPM) == OWNERS


def test_the_check_sees_expm_calls():
    source = ("import scipy.linalg\n"
              "p = scipy.linalg.expm(l)\n"
              "from scipy.linalg import expm\n"
              "def step(l, h):\n"
              "    return expm(l * h)\n"
              "def unrelated():\n"
              "    return np.exp(1) + np.expm1(2)\n")
    assert matches(EXPM, source) == [(2, "<module>"), (5, "step")]
