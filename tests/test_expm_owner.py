"""One place takes the matrix exponential: the package calls
scipy.linalg.expm and scipy's Pade kernels pick_pade_structure and
pade_UV_calc only inside lindblad._step_propagators, which evolve_expm
calls once on the whole stack of Liouvillians, so a bound on what that
call may exponentiate covers every exponential the package takes."""

from owners import call_of, matches, package_owners

EXPM = call_of({"expm", "pick_pade_structure", "pade_UV_calc"})
OWNERS = {("lindblad.py", "_step_propagators")}


def test_only_step_propagators_takes_the_exponential():
    assert package_owners(EXPM) == OWNERS


def test_the_check_sees_expm_calls():
    source = ("import scipy.linalg\n"
              "p = scipy.linalg.expm(l)\n"
              "from scipy.linalg import expm\n"
              "def step(l, h):\n"
              "    return expm(l * h)\n"
              "def unrelated():\n"
              "    return np.exp(1) + np.expm1(2)\n"
              "def pade(am):\n"
              "    m, s = _matfuncs_expm.pick_pade_structure(am)\n"
              "    return pade_UV_calc(am, m)\n")
    assert matches(EXPM, source) == [(2, "<module>"), (5, "step"),
                                     (9, "pade"), (10, "pade")]
