import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg

from lindsymlab import lindblad
from lindsymlab.classify import catalog, prepare, probe_densities
from lindsymlab.lindblad import (RK4_MAX_STEPS, PropagationError,
                                 StepSizeError, block_identity_test,
                                 default_dt, evolve_expm, evolve_rk4,
                                 liouvillian_matrix, rhs, rhs_operators,
                                 subspace_block, vec)
from lindsymlab.operators import (OperatorSpec, build_coupling,
                                  build_hamiltonian, spin_matrices)
from lindsymlab.spectra import ground_subspace
from lindsymlab.symmetry import DEFAULT_TOL, schur_test


SPINS = spin_matrices(1.5)


def _op(name):
    return build_coupling(OperatorSpec(name=name), SPINS)


def _random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(vec(m).reshape(4, 4), m)
    # row-major order: vec stacks rows
    e = np.zeros((2, 2))
    e[0, 1] = 1.0
    assert np.array_equal(vec(e), np.array([0.0, 1.0, 0.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rhs_matches_liouvillian_matrix(hams, seed):
    rng = np.random.default_rng(seed)
    h = hams["tr_invariant"]
    o = _op("sxsy")
    gamma = 0.37
    rho = _random_density(rng)
    lmat = liouvillian_matrix(h, o, gamma)
    direct = rhs(rho, rhs_operators(h, o), gamma)
    via_matrix = (lmat @ vec(rho)).reshape(4, 4)
    assert np.linalg.norm(direct - via_matrix) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rhs_preserves_trace_and_hermiticity(hams, seed):
    rng = np.random.default_rng(seed)
    rho = _random_density(rng)
    # non-Hermitian coupling exercises the general channel form
    o = _op("isz")
    d = rhs(rho, rhs_operators(hams["both_symmetric"], o), 0.21)
    assert abs(np.trace(d)) < 1e-12
    assert np.linalg.norm(d - d.conj().T) < 1e-12


def _unstacked_rhs(rho, h, o, gamma):
    """rhs as written before its products were hoisted and stacked."""
    odo = o.conj().T @ o
    commutator = h @ rho - rho @ h
    anticommutator = odo @ rho + rho @ odo
    return (-1j * commutator
            + gamma * (2.0 * (o @ rho @ o.conj().T) - anticommutator))


def _unhoisted_samples(rho, h, o, gamma, dt, steps):
    """The RK4 loop before the hoisting, one Hermitized sample per step."""
    samples = [(rho + rho.conj().T) / 2]
    for _ in range(steps):
        k1 = _unstacked_rhs(rho, h, o, gamma)
        k2 = _unstacked_rhs(rho + 0.5 * dt * k1, h, o, gamma)
        k3 = _unstacked_rhs(rho + 0.5 * dt * k2, h, o, gamma)
        k4 = _unstacked_rhs(rho + dt * k3, h, o, gamma)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append((rho + rho.conj().T) / 2)
    return np.array(samples)


def _assert_rk4_unchanged(rho0, h, o, gamma, steps):
    # one step per sample: dt just above t_max / steps snaps to it exactly
    t_max = steps * default_dt(h, o, gamma)
    traj = evolve_rk4(rho0, h, o, gamma, t_max,
                      dt=t_max / steps * (1 + 1e-9), n_samples=steps + 1)
    expected = _unhoisted_samples(rho0, h, o, gamma, traj.meta["dt"], steps)
    # compare bit patterns, so that the sign of every zero counts too
    assert np.array_equal(traj.states.view(np.uint64),
                          expected.view(np.uint64))
    rho = traj.states[-1]
    assert np.array_equal(rhs(rho, rhs_operators(h, o), gamma).view(np.uint64),
                          _unstacked_rhs(rho, h, o, gamma).view(np.uint64))


@pytest.mark.parametrize("sc", catalog(), ids=lambda sc: sc.name)
def test_stacked_rk4_is_bit_identical_on_every_row(sc):
    system = prepare(sc, 0.1)
    for rho0 in probe_densities(system.basis):
        _assert_rk4_unchanged(rho0, system.h, system.o, 0.1, 300)


@pytest.mark.parametrize("spin", [3.5, 11.5])
def test_stacked_rk4_is_bit_identical_at_larger_spins(spin):
    spins = spin_matrices(spin)
    rng = np.random.default_rng(int(2 * spin))
    for sc in catalog():
        h = build_hamiltonian(sc.hamiltonian, spins)
        o = build_coupling(sc.coupling, spins)
        _assert_rk4_unchanged(_random_density(rng, spins.dim), h, o, 0.1, 200)


def test_stacked_rk4_is_bit_identical_from_a_sparse_start():
    # rho lives in the four corners only, so most entries stay exact zeros
    # whose signs the stacked products must reproduce
    spins = spin_matrices(7.5)
    psi = np.zeros(spins.dim, dtype=complex)
    psi[0], psi[-1] = 0.6, 0.8j
    for sc in catalog():
        h = build_hamiltonian(sc.hamiltonian, spins)
        o = build_coupling(sc.coupling, spins)
        _assert_rk4_unchanged(np.outer(psi, psi.conj()), h, o, 0.1, 200)


def test_rhs_result_does_not_alias_its_workspace(hams):
    rng = np.random.default_rng(5)
    ops = rhs_operators(hams["both_symmetric"], _op("sx2sz"))
    k1 = rhs(_random_density(rng), ops, 0.1)
    kept = k1.copy()
    rhs(_random_density(rng), ops, 0.1)
    assert np.array_equal(k1, kept)
    assert not any(np.shares_memory(k1, part) for part in ops)


def test_liouvillian_left_trace_zero_mode(hams):
    for o_name in ("sx", "sxsysz", "isz"):
        lmat = liouvillian_matrix(hams["q_symmetric"], _op(o_name), 0.4)
        left = vec(np.eye(4)).conj() @ lmat
        assert np.linalg.norm(left) < 1e-12


def test_liouvillian_has_stationary_state(hams):
    lmat = liouvillian_matrix(hams["tr_invariant"], _op("sz"), 0.1)
    vals = np.linalg.eigvals(lmat)
    assert np.min(np.abs(vals)) < 1e-10
    assert np.max(vals.real) < 1e-10


@pytest.mark.parametrize("scale, gamma", [(1e308, 0.1), (1e154, 0.1),
                                          (1.0, 1e308)])
def test_liouvillian_matrix_refuses_an_overflowing_input(hams, scale, gamma):
    o = np.diag([scale, -scale, 1.0, 2.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here
        with pytest.raises(PropagationError, match=re.escape(
                f"the Liouvillian at gamma={gamma:g} overflows: hamiltonian "
                f"(e_g), coupling or gamma too large")):
            liouvillian_matrix(hams["tr_invariant"], o, gamma)


def test_amplitude_damping_closed_form():
    # spin-1/2 lowering channel: populations relax at rate 2*gamma,
    # coherences at rate gamma, for the factor-2 dissipator convention
    half = spin_matrices(0.5)
    lower = half.sx - 1j * half.sy
    h = np.zeros((2, 2), dtype=complex)
    gamma = 0.3
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    traj = evolve_expm(rho0, liouvillian_matrix(h, lower, gamma), 4.0, 41)
    for t, state in zip(traj.times, traj.states):
        assert abs(state[0, 0] - 0.7 * np.exp(-2 * gamma * t)) < 1e-10
        assert abs(state[0, 1] - (0.2 + 0.1j) * np.exp(-gamma * t)) < 1e-10
        assert abs(np.trace(state) - 1.0) < 1e-12

    rk = evolve_rk4(rho0, h, lower, gamma, 4.0, n_samples=41)
    assert np.max(np.abs(rk.states - traj.states)) < 1e-9


def test_rk4_expm_cross_agreement(hams):
    o = _op("sz")
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rk = evolve_rk4(rho0, hams["tr_invariant"], o, 0.1, 2.0, n_samples=21)
    ex = evolve_expm(rho0, liouvillian_matrix(hams["tr_invariant"], o, 0.1),
                     2.0, 21)
    assert np.array_equal(rk.times, ex.times)
    assert np.max(np.abs(rk.states - ex.states)) < 1e-9
    assert not ex.meta["projected"]


def test_rk4_order_of_accuracy(hams):
    o = _op("sxsy")
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    t = 1.0
    ref = evolve_expm(rho0, liouvillian_matrix(hams["both_symmetric"], o, 0.2),
                      t, 2).states[-1]
    errs = []
    for dt in (0.1, 0.05, 0.025):
        got = evolve_rk4(rho0, hams["both_symmetric"], o, 0.2, t,
                         dt=dt, n_samples=2).states[-1]
        errs.append(np.linalg.norm(got - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.5)
    assert np.all(orders < 4.6)


def test_rk4_step_size_error(hams):
    o = _op("sx2sz")
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    with pytest.raises(StepSizeError):
        evolve_rk4(rho0, hams["both_symmetric"], o, 2.0, 20.0,
                   dt=0.3, n_samples=11)


def test_rk4_checks_its_step_budget_before_the_first_step(hams,
                                                          monkeypatch):
    def refuse(*args):
        raise AssertionError("stepped past the budget check")

    monkeypatch.setattr(lindblad, "rhs", refuse)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    h, o = hams["tr_invariant"], _op("sz")
    with pytest.raises(StepSizeError, match="t_max"):
        evolve_rk4(rho0, h, o, 0.1, 1e9, n_samples=3)
    with pytest.raises(StepSizeError, match="t_max"):
        evolve_rk4(rho0, h, o, 0.1, 1e300, dt=1e-300, n_samples=3)
    with pytest.raises(StepSizeError):
        evolve_rk4(rho0, h, o, 0.1, 1.0, dt=0.5 / RK4_MAX_STEPS, n_samples=3)


def test_rk4_trace_guard_fails_on_nan(hams):
    # a Hamiltonian far too stiff for dt overflows to inf - inf = NaN
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    with pytest.raises(StepSizeError, match="nan"), \
            np.errstate(over="ignore", invalid="ignore"):
        evolve_rk4(rho0, 1e200 * hams["both_symmetric"], _op("sx2sz"), 0.1,
                   1.0, dt=0.5, n_samples=3)


def test_rk4_refuses_a_sample_that_keeps_its_trace_but_is_not_finite(
        hams, monkeypatch):
    # a right-hand side that is infinite off the diagonal only (inf * 0 in
    # the complex step products makes those entries NaN): every sample
    # keeps rho0's trace, so only the finiteness check can refuse it
    def off_diagonal_inf(rho, ops, gamma):
        return np.where(np.eye(4, dtype=bool), 0.0, np.inf).astype(complex)

    monkeypatch.setattr(lindblad, "rhs", off_diagonal_inf)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    with pytest.raises(PropagationError, match="rk4 trajectory at "
                       "gamma=0.1 is not finite: .*t_max too large"), \
            np.errstate(invalid="ignore"):
        evolve_rk4(rho0, hams["tr_invariant"], _op("sz"), 0.1, 1.0,
                   dt=0.5, n_samples=3)


def test_default_dt_scales_with_system():
    half = spin_matrices(0.5)
    h = half.sz
    o = half.sx
    base = default_dt(h, o, 1.0)
    assert base == pytest.approx(0.01 / max(np.linalg.norm(h), 1.0))
    # large gamma shrinks the step through the channel norm
    strong = default_dt(h, o, 400.0)
    assert strong < base


def test_evolve_expm_grid_validation(hams):
    l_mat = liouvillian_matrix(hams["tr_invariant"], _op("sz"), 0.1)
    rho0 = np.eye(4, dtype=complex) / 4
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max"):
            evolve_expm(rho0, l_mat, t_max, 11)
    for n_samples in (1, 0):
        with pytest.raises(ValueError, match="samples"):
            evolve_expm(rho0, l_mat, 1.0, n_samples)


def test_evolve_expm_steps_every_grid_by_one_propagator(hams, expm_calls):
    # the steps of linspace(0, 5, 201) take 9 distinct values that differ
    # in the last bits; every sample step is still P = expm(L times[1]),
    # one expm per system, and times keeps the linspace labels
    times = np.linspace(0.0, 5.0, 201)
    assert len(np.unique(np.diff(times))) == 9
    h = hams["both_symmetric"]
    l_mats = np.stack([liouvillian_matrix(h, _op(name), 0.2)
                       for name in ("sxsy", "sx2sz")])
    rho0 = np.stack([_random_density(np.random.default_rng(seed))
                     for seed in (3, 4)])
    traj = evolve_expm(rho0, l_mats, 5.0, 201)
    assert len(expm_calls) == 2
    assert np.array_equal(traj.times, times)
    expected = []
    for l_mat, rho in zip(l_mats, rho0):
        prop = scipy.linalg.expm(l_mat * times[1])
        v = vec(rho)
        states = [v.reshape(4, 4)]
        for _ in times[1:]:
            v = prop @ v
            states.append(v.reshape(4, 4))
        expected.append(states)
    assert np.array_equal(traj.states.view(np.uint64),
                          np.array(expected).view(np.uint64))


def test_evolve_expm_projects_a_trace_losing_propagator(monkeypatch):
    # sx2sz at spin 15/2 and gamma = 10: ||L||_F is 4e6, and the one-step
    # propagator loses trace to roundoff until it drifts past DEFAULT_TOL
    sc = {sc.name: sc for sc in catalog()}["both_symmetric:sx2sz"]
    system = prepare(sc, 10.0, 7.5)
    rho0 = probe_densities(system.basis)[0]  # the equal superposition
    traj = evolve_expm(rho0, system.liouvillian, 200.0, 201)
    assert traj.meta["projected"]
    trace = np.trace(traj.states, axis1=1, axis2=2)
    assert np.max(np.abs(trace - 1.0)) < 1e-13

    monkeypatch.setattr(lindblad, "DEFAULT_TOL", np.inf)
    plain = evolve_expm(rho0, system.liouvillian, 200.0, 201)
    assert not plain.meta["projected"]
    plain_err = np.abs(np.trace(plain.states, axis1=1, axis2=2) - 1.0)
    breach = np.argmax(plain_err > 1e-9)
    assert breach > 10
    assert np.max(np.abs(plain.states[:breach]
                         - traj.states[:breach])) < 1e-8


def test_evolve_expm_raises_when_projection_cannot_hold_the_trace():
    # not a Liouvillian: a random generator whose fastest mode grows as
    # exp(1.8 t), so by t = 20 the state dwarfs its trace and even
    # trace-preserving steps lose the trace to roundoff
    rng = np.random.default_rng(1)
    l_mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(lindblad.PropagationError, match="trace"):
        evolve_expm(np.eye(2, dtype=complex) / 2, l_mat, 20.0, 11)


def test_evolve_expm_refuses_a_trajectory_that_is_not_finite():
    # at t_max = 1e300 each step's propagator is not finite; the drift
    # check cannot project it, and the samples are refused, not returned
    sc = {sc.name: sc for sc in catalog()}["both_symmetric:sx2"]
    system = prepare(sc, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match="expm trajectory up to "
                           "t_max=1e\\+300 is not finite: .*t_max too large"):
            evolve_expm(probe_densities(system.basis), system.liouvillian,
                        1e300, 201)


def _expm_reference(probes, l_mat, t_max, n_samples):
    """Each state of probes through a loop of its own, the reference the
    stacked evolve_expm is pinned to: one P @ v per sample step with
    P = expm(L times[1]), then the trace projection decided on that
    state's drift alone. Returns the states and the projected flags."""
    d = probes.shape[-1]
    prop = scipy.linalg.expm(l_mat * np.linspace(0.0, t_max, n_samples)[1])
    trace_row = vec(np.eye(d))
    trace_prop = prop + np.outer(trace_row / d, trace_row - trace_row @ prop)
    states, projected = [], []

    def run(out, prop):
        for k in range(n_samples - 1):
            out[k + 1] = prop @ out[k]
        traces = out[:, ::d + 1].sum(axis=1)
        return float(np.max(np.abs(traces - traces[0])))

    for rho0 in probes:
        out = np.empty((n_samples, d * d), dtype=complex)
        out[0] = vec(rho0)
        projected.append(DEFAULT_TOL < run(out, prop) < np.inf)
        if projected[-1]:
            run(out, trace_prop)
        states.append(out.reshape(n_samples, d, d))
    return np.stack(states), projected


def _assert_expm_matches_reference(traj, probes, l_mat, t_max, n_samples):
    states, projected = _expm_reference(probes, l_mat, t_max, n_samples)
    assert np.array_equal(traj.states.view(np.uint64),
                          states.view(np.uint64))
    assert traj.meta["projected"].tolist() == projected


def test_evolve_expm_steps_each_state_of_a_stack_as_if_alone(row_probes):
    # the table's call: every row's three probes at gamma = 0.1 up to
    # gamma*t = 20, against one call per probe and against the per-state
    # loop, bit for bit
    for name, system, probes in row_probes:
        stacked = evolve_expm(probes, system.liouvillian, 200.0, 201)
        assert stacked.states.shape == (3, 201, 4, 4)
        assert stacked.meta["projected"].shape == (3,)
        _assert_expm_matches_reference(stacked, probes, system.liouvillian,
                                       200.0, 201)
        for rho0, states, projected in zip(probes, stacked.states,
                                           stacked.meta["projected"]):
            alone = evolve_expm(rho0, system.liouvillian, 200.0, 201)
            assert alone.meta["projected"].shape == ()
            assert projected == alone.meta["projected"], name
            assert np.array_equal(states.view(np.uint64),
                                  alone.states.view(np.uint64)), name


def test_evolve_expm_projects_only_the_states_of_a_stack_that_drift():
    # sx2sz at spin 15/2 and gamma = 10 up to t = 50: the equal and quarter
    # probes drift past DEFAULT_TOL and are projected, the basis probe is
    # not; up to t = 60 each state keeps the bits of its own single-state
    # call and of the per-state loop
    sc = {sc.name: sc for sc in catalog()}["both_symmetric:sx2sz"]
    system = prepare(sc, 10.0, 7.5)
    probes = probe_densities(system.basis)
    assert evolve_expm(probes, system.liouvillian, 50.0, 201).meta[
        "projected"].tolist() == [True, True, False]
    stacked = evolve_expm(probes, system.liouvillian, 60.0, 201)
    _assert_expm_matches_reference(stacked, probes, system.liouvillian, 60.0,
                                   201)
    for rho0, states, projected in zip(probes, stacked.states,
                                       stacked.meta["projected"]):
        alone = evolve_expm(rho0, system.liouvillian, 60.0, 201)
        assert projected == alone.meta["projected"]
        assert np.array_equal(states.view(np.uint64),
                              alone.states.view(np.uint64))


def test_evolve_expm_matches_the_per_state_loop_on_a_stack_of_one():
    sc = {sc.name: sc for sc in catalog()}["both_symmetric:sxsy"]
    system = prepare(sc, 0.1, 3.5)
    probes = probe_densities(system.basis)[1:2]  # the quarter phase
    traj = evolve_expm(probes, system.liouvillian, 200.0, 201)
    _assert_expm_matches_reference(traj, probes, system.liouvillian, 200.0,
                                   201)


def test_subspace_block_identity_on_protected_channel(hams):
    h = hams["q_symmetric"]
    o = _op("sy2")
    gamma = 0.25
    basis = ground_subspace(h)
    block = subspace_block(liouvillian_matrix(h, o, gamma), basis)
    res = block_identity_test(block)
    assert res.proportional
    # the scalar follows from the two subspace averages of O and O'O
    p = basis @ basis.conj().T
    assert schur_test(p, o).proportional
    assert schur_test(p, o.conj().T @ o).proportional
    lam = np.trace(p @ o @ p) / 2
    mu = np.trace(p @ o.conj().T @ o @ p) / 2
    expected = gamma * (2 * abs(lam) ** 2 - 2 * mu.real)
    assert abs(np.trace(block) / 4 - expected) < 1e-9


def test_subspace_block_detects_leaky_channel(hams):
    h = hams["q_symmetric"]
    o = _op("sysz")
    block = subspace_block(liouvillian_matrix(h, o, 0.25),
                           ground_subspace(h))
    res = block_identity_test(block)
    assert not res.proportional
    assert res.residual > 1e-3


def test_evolve_expm_steps_a_stack_of_systems_each_as_if_alone():
    # two systems at spin 15/2 and gamma = 10 up to t = 50: sx2 drifts
    # nowhere, sx2sz drifts in its equal and quarter probes, and only those
    # two states are projected, with sx2sz's own propagator; up to t = 60
    # each system keeps the bits of its single-system call
    by = {sc.name: sc for sc in catalog()}
    systems = [prepare(by[name], 10.0, 7.5)
               for name in ("both_symmetric:sx2", "both_symmetric:sx2sz")]
    probes = np.stack([probe_densities(system.basis) for system in systems])
    l_mats = np.stack([s.liouvillian for s in systems])
    assert evolve_expm(probes, l_mats, 50.0, 201).meta[
        "projected"].tolist() == [[False, False, False], [True, True, False]]
    stacked = evolve_expm(probes, l_mats, 60.0, 201)
    assert stacked.states.shape == (2, 3, 201, 16, 16)
    for system, rho0, states, projected in zip(
            systems, probes, stacked.states, stacked.meta["projected"]):
        alone = evolve_expm(rho0, system.liouvillian, 60.0, 201)
        assert projected.tolist() == alone.meta["projected"].tolist()
        assert np.array_equal(states.view(np.uint64),
                              alone.states.view(np.uint64))


def test_evolve_expm_pairs_one_liouvillian_with_each_system(hams):
    l_mat = liouvillian_matrix(hams["both_symmetric"], _op("sx"), 0.1)
    rho0 = np.stack([np.eye(4, dtype=complex) / 4] * 3)
    with pytest.raises(ValueError, match="2 Liouvillians"):
        evolve_expm(rho0, np.stack([l_mat, l_mat]), 1.0, 11)
