"""A signature is measured where its operator can change: the package calls
compute_signature only in cli.cmd_classify_op, for the operator it is
given. The table's claimed signatures, of its three Hamiltonians and of
its couplings, are constant data, which the tests measure instead of
every run."""

from owners import call_of, matches, package_owners

SIGNATURE = call_of({"compute_signature"})
OWNERS = {("cli.py", "cmd_classify_op")}


def test_only_classify_op_measures_signatures():
    assert package_owners(SIGNATURE) == OWNERS


def test_the_check_sees_signature_calls():
    source = ("from .classify import compute_signature\n"
              "def catalog(h):\n"
              "    return compute_signature(h)[0]\n"
              "def run_scenario(system):\n"
              "    measured, _ = classify.compute_signature(system.o)\n"
              "def unrelated(v):\n"
              "    return v.compute_signature\n")
    assert matches(SIGNATURE, source) == [(3, "catalog"),
                                          (5, "run_scenario")]
