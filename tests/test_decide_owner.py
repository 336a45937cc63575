"""One place turns observed states into a verdict: the package calls
coherence_verdict and doublet_block only inside classify.decide, so table
and simulate decide a run the same way."""

from owners import call_of, matches, package_owners

DECIDE = call_of({"coherence_verdict", "doublet_block"})
OWNERS = {("classify.py", "decide")}


def test_only_decide_reads_verdict_and_block():
    assert package_owners(DECIDE) == OWNERS


def test_the_check_sees_verdict_and_block_calls():
    source = ("from .observables import coherence_verdict\n"
              "def decide(system, s_v):\n"
              "    return coherence_verdict(s_v), doublet_block(system)\n"
              "def cmd_simulate(system):\n"
              "    return classify.doublet_block(system).proportional\n"
              "def unrelated(v):\n"
              "    return v.coherence_verdict\n")
    assert matches(DECIDE, source) == [(3, "decide"), (3, "decide"),
                                       (5, "cmd_simulate")]
