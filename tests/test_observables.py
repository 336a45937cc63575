import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindsymlab.classify import propagate
from lindsymlab.lindblad import Trajectory
from lindsymlab.observables import (Coherence, ObservationError,
                                    coherence_verdict, observe_subspace,
                                    von_neumann_entropy)

# the first two of four levels: a sample's subspace block is its top-left
# 2 x 2 corner
CORNER = np.eye(4)[:, :2]


def _samples(*diagonals) -> Trajectory:
    """A trajectory of diagonal 4 x 4 states, one per diagonal."""
    return Trajectory(times=np.arange(len(diagonals), dtype=float),
                      states=np.array([np.diag(d).astype(complex)
                                       for d in diagonals]))


def test_entropy_frozen_value():
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.5623351446188083,
                                                     abs=1e-15)


def test_entropy_extremes():
    for d in (2, 3, 4):
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(np.log(d),
                                                                   abs=1e-12)
    pure = np.zeros((4, 4), dtype=complex)
    pure[2, 2] = 1.0
    s = von_neumann_entropy(pure)
    assert s == 0.0
    assert not np.signbit(s)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_entropy_is_basis_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10)


def test_entropy_rejects_bad_input():
    with pytest.raises(ObservationError,
                       match=r"^eigenvalue -1\.000e-03 below -1e-07$"):
        von_neumann_entropy(np.diag([1.001, -1e-3]))
    with pytest.raises(ObservationError,
                       match=r"^eigenvalue -7\.000e-01 below -1e-07$"):
        von_neumann_entropy(np.diag([0.5, -0.7]))  # trace below zero


def test_entropy_tolerates_tiny_negative_eigenvalue():
    rho = np.diag([1.0 + 1e-9, -1e-9]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-7)


def test_coherence_verdict_thresholds():
    def s_v(peak):
        return np.linspace(0, peak, 5)

    assert coherence_verdict(s_v(1e-9)) is Coherence.COHERENT
    assert coherence_verdict(s_v(0.5)) is Coherence.DECOHERENT
    assert coherence_verdict(s_v(1e-4)) is Coherence.AMBIGUOUS
    assert coherence_verdict(s_v(np.nan)) is Coherence.AMBIGUOUS


def test_coherence_verdict_of_a_stack_is_its_worst_series():
    def stack(*peaks):
        return np.stack([np.linspace(0, peak, 5) for peak in peaks])

    assert coherence_verdict(stack(0.5, 1e-4)) is Coherence.AMBIGUOUS
    assert coherence_verdict(stack(1e-9, 0.5)) is Coherence.DECOHERENT
    assert coherence_verdict(stack(1e-9, 1e-12)) is Coherence.COHERENT
    assert coherence_verdict(np.stack([stack(1e-9, 1e-9), stack(0.5, 1e-4)])
                             ) is Coherence.AMBIGUOUS


def test_coherence_values_are_report_labels():
    assert Coherence.COHERENT.value == "Coherence"
    assert Coherence.DECOHERENT.value == "Decoherence"
    assert Coherence.AMBIGUOUS.value == "Ambiguous"


def test_entropy_of_a_stack_matches_one_call_per_matrix():
    rng = np.random.default_rng(5)
    for d in (2, 4):
        stack = []
        for _ in range(9):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ a.conj().T
            stack.append(rho / np.trace(rho).real)
        stack[0] = np.zeros((d, d), dtype=complex)
        stack[0][0, 0] = 1.0  # pure: a zero eigenvalue
        stack = np.array(stack)
        got = von_neumann_entropy(stack)
        assert got.shape == (9,)
        assert np.array_equal(got, [von_neumann_entropy(r) for r in stack])
        assert von_neumann_entropy(stack.reshape(3, 3, d, d)).shape == (3, 3)


def test_observe_subspace_on_a_stack_matches_each_trajectory_alone(
        row_probes):
    # the table's three probe trajectories per row, observed in one call
    # and one call per trajectory, bit for bit
    for name, system, probes in row_probes:
        traj = propagate(system, probes, 200.0)
        stacked = observe_subspace(traj, system.basis)
        assert stacked[0].shape == stacked[1].shape == (3, 201)
        for k, states in enumerate(traj.states):
            alone = observe_subspace(
                Trajectory(times=traj.times, states=states),
                system.basis)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[k].view(np.uint64),
                                      want.view(np.uint64)), name


def test_observe_subspace_normalizes_by_the_population_it_returns():
    s_v, trace_g, blocks = observe_subspace(
        _samples([0.3, 0.1, 0.4, 0.2], [0.5, 0.5, 0.0, 0.0]), CORNER)
    assert np.array_equal(trace_g, [0.4, 1.0])
    assert np.array_equal(blocks[0], np.diag([0.3, 0.1]))
    # the entropy of diag(0.75, 0.25), then of the maximally mixed doublet
    assert s_v == pytest.approx([0.5623351446188083, np.log(2.0)],
                                abs=1e-15)


def test_observe_subspace_takes_each_sample_trace_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return trace(*args, **kwargs)

    trace = np.trace
    monkeypatch.setattr(np, "trace", counted)
    observe_subspace(_samples(*[[0.3, 0.1, 0.4, 0.2]] * 5), CORNER)
    assert calls == [(5, 2, 2)]


@pytest.mark.parametrize("corner, population", [
    ([1e-13, 0.0], "1.000e-13"), ([5e-13, 5e-13], "1.000e-12"),
    ([-0.2, 0.1], "-1.000e-01")])
def test_observe_subspace_refuses_a_depleted_population(corner, population):
    # at or below 1e-12, or negative, in one sample of three: the whole
    # trajectory is refused
    rest = 1.0 - sum(corner)
    traj = _samples([0.5, 0.5, 0.0, 0.0], [*corner, rest, 0.0],
                    [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ObservationError, match=(
            f"^subspace population {population} below floor$")):
        observe_subspace(traj, CORNER)
