import pytest

from lindsymlab import classify, lindblad, operators, symmetry


@pytest.fixture(scope="session")
def spins():
    return operators.spin_matrices(1.5)


@pytest.fixture(scope="session")
def group():
    return symmetry.quaternion_group()


@pytest.fixture(scope="session")
def trev():
    return symmetry.time_reversal(1.5)


@pytest.fixture(scope="session")
def hams(spins):
    return {
        name: operators.build_hamiltonian(operators.OperatorSpec(name=name), spins)
        for name in ("q_symmetric", "tr_invariant", "both_symmetric")
    }


@pytest.fixture(scope="session")
def scenarios():
    return {sc.name: sc for sc in classify.catalog()}


@pytest.fixture
def liouvillian_builds(monkeypatch):
    """The argument tuples of every liouvillian_matrix call, in order."""
    built = []
    original = lindblad.liouvillian_matrix

    def counting(*args):
        built.append(args)
        return original(*args)

    for module in (lindblad, classify):
        monkeypatch.setattr(module, "liouvillian_matrix", counting)
    return built

