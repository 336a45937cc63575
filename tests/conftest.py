import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import lindsymlab
from lindsymlab import classify, observables, operators, symmetry


@pytest.fixture(scope="session")
def spins():
    return operators.spin_matrices(1.5)


@pytest.fixture(scope="session")
def group():
    return symmetry.quaternion_group(1.5)


@pytest.fixture(scope="session")
def trev():
    return symmetry.time_reversal(1.5)


@pytest.fixture(scope="session")
def hams(spins):
    return {
        name: operators.build_hamiltonian(name, spins)
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


@pytest.fixture(scope="session")
def probe_figures(row_probes):
    """Per table row, the conservation figures of the probe trajectories
    the table propagates at gamma = 0.1 up to gamma*t = 20, each row alone
    (bit for bit the table's stack): the largest trace error and
    Hermiticity error over every stored state, the smallest eigenvalue of
    their Hermitian parts, and of the equal probe's normalized doublet
    state its largest drift from the start and its terminal value."""
    figures = {}
    for name, system, probes in row_probes:
        traj = classify.propagate(system, probes, 20.0 / system.gamma)
        states = traj.states
        adjoint = states.conj().swapaxes(-2, -1)
        _, trace_g, blocks = observables.observe_subspace(traj, system.basis)
        rho_g = blocks[0] / trace_g[0, :, None, None]
        figures[name] = dict(
            trace_err=np.abs(np.trace(states, axis1=-2, axis2=-1) - 1).max(),
            herm_err=np.linalg.norm(states - adjoint, axis=(-2, -1)).max(),
            min_eig=np.linalg.eigvalsh((states + adjoint) / 2).min(),
            max_drift=np.linalg.norm(rho_g - rho_g[0], axis=(-2, -1)).max(),
            terminal_rho_g=rho_g[-1])
    return figures


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
def expm_calls(record_calls):
    """The (l_stack, h) of every _step_propagators call, in order: the one
    place the package takes the matrix exponential."""
    return record_calls("lindblad._step_propagators")


@pytest.fixture
def response_eighs(monkeypatch):
    """The matrix of every eigh call made inside lindsymlab.response, in
    order: one per delta_rho call."""
    from lindsymlab import response, spectra
    calls = []
    monkeypatch.setattr(response, "eigh",
                        lambda h: calls.append(h) or spectra.eigh(h))
    return calls
