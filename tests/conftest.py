import importlib
import inspect
import pkgutil

import pytest

import lindsymlab
from lindsymlab import classify, operators, symmetry


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


@pytest.fixture(scope="session")
def row_probes(scenarios):
    """(name, system at gamma = 0.1, its three probe densities) for every
    table row."""
    rows = []
    for name, sc in scenarios.items():
        system = classify.prepare(sc, 0.1)
        rows.append((name, system, classify.probe_densities(system.basis)))
    return rows


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls("module.function") -> the argument tuples of every call.

    The package function is wrapped under every name any lindsymlab module
    binds to it, so a caller that imports it by name is counted too. Each
    call's arguments are recorded in signature order, defaults filled in.
    """
    modules = [lindsymlab] + [
        importlib.import_module(f"lindsymlab.{info.name}")
        for info in pkgutil.iter_modules(lindsymlab.__path__)
        if info.name != "__main__"]

    def record(target):
        home, attr = target.rsplit(".", 1)
        original = getattr(importlib.import_module(f"lindsymlab.{home}"), attr)
        signature = inspect.signature(original)
        calls = []

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(tuple(bound.arguments.values()))
            return original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, recording)
        return calls

    return record


@pytest.fixture
def liouvillian_builds(record_calls):
    """The argument tuples of every liouvillian_matrix call, in order."""
    return record_calls("lindblad.liouvillian_matrix")


@pytest.fixture
def expm_calls(monkeypatch):
    """The matrix of every scipy.linalg.expm call, in order; lindblad calls
    it through the module attribute, so patching that attribute counts it."""
    import scipy.linalg
    calls = []
    expm = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        calls.append(a)
        return expm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    return calls
