"""One place turns a system and its observed states into route fields: the
package calls coherence_verdict, doublet_block, schur_test and
response_oracle_coherent only inside classify.decide, so table and
simulate decide a run the same way, through all four routes."""

from owners import call_of, matches, package_owners

DECIDE = call_of({"coherence_verdict", "doublet_block", "schur_test",
                  "response_oracle_coherent"})
OWNERS = {("classify.py", "decide")}


def test_only_decide_runs_the_four_routes():
    assert package_owners(DECIDE) == OWNERS


def test_the_check_sees_every_route_call():
    source = ("from .observables import coherence_verdict\n"
              "def decide(system, s_v):\n"
              "    return coherence_verdict(s_v), doublet_block(system)\n"
              "def cmd_simulate(system):\n"
              "    return classify.doublet_block(system).proportional\n"
              "def assess(system, projector, probes):\n"
              "    return (schur_test(projector, system.o),\n"
              "            response_oracle_coherent(system, probes))\n"
              "def unrelated(v):\n"
              "    return v.coherence_verdict\n")
    assert matches(DECIDE, source) == [(3, "decide"), (3, "decide"),
                                       (5, "cmd_simulate"), (7, "assess"),
                                       (8, "assess")]
