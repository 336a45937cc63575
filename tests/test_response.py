import numpy as np
import pytest

from lindsymlab.lindblad import evolve_expm, liouvillian_matrix
from lindsymlab.operators import OperatorSpec, build_coupling, spin_matrices
from lindsymlab.response import (delta_rho, interaction_picture,
                                 scaling_exponent)
from lindsymlab.spectra import ground_subspace


SPINS = spin_matrices(1.5)


def _op(name):
    return build_coupling(OperatorSpec(name=name), SPINS)


def _density(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_interaction_picture_precession():
    half = spin_matrices(0.5)
    # exp(i Sz t) Sx exp(-i Sz t) = cos(t) Sx - sin(t) Sy
    got = interaction_picture(half.sx, half.sz, np.pi)
    assert np.linalg.norm(got + half.sx) < 1e-12
    got = interaction_picture(half.sx, half.sz, np.pi / 2)
    assert np.linalg.norm(got + half.sy) < 1e-12


def test_interaction_picture_identity_cases(spins, hams):
    o = _op("sxsy")
    assert np.linalg.norm(interaction_picture(o, hams["q_symmetric"], 0.0)
                          - o) < 1e-13
    # a coupling that commutes with H is a fixed point at every time
    sz = spins.sz
    assert np.linalg.norm(interaction_picture(sz, sz @ sz, 1.234) - sz) < 1e-12


def _reference(h, o, t_max, n_samples=41):
    """The coherent (gamma = 0) state at t_max of a fixed mixed state of
    h's ground level."""
    basis = ground_subspace(h)
    rho0 = basis @ _density(7, dim=basis.shape[1]) @ basis.conj().T
    return evolve_expm(rho0, liouvillian_matrix(h, o, 0.0), t_max,
                       n_samples).states[-1]


def test_delta_rho_validation(hams):
    # the sandwich term is exact only for a state inside one eigenspace of
    # h: a state spread over two levels is refused, one in an excited
    # level is not
    o = _op("isz")
    h = hams["tr_invariant"]
    with pytest.raises(ValueError, match="eigenspace"):
        delta_rho(_density(7), o, h, 0.01, 2.0)
    stack = np.stack([_reference(h, o, 2.0), _density(7)])
    with pytest.raises(ValueError, match="eigenspace"):
        delta_rho(stack, o, h, 0.01, 2.0)
    top = np.linalg.eigh(h)[1][:, -1]
    delta_rho(np.outer(top, top.conj()), o, h, 0.01, 2.0)


def test_delta_rho_trace_free_hermitian_linear(hams):
    o = _op("sysz")
    h = hams["q_symmetric"]
    rho_t = _reference(h, o, 2.0)
    d1 = delta_rho(rho_t, o, h, 1.0, 2.0)
    dg = delta_rho(rho_t, o, h, 0.013, 2.0)
    assert abs(np.trace(d1)) < 1e-13
    assert np.linalg.norm(d1 - d1.conj().T) < 1e-13
    # manifest linearity: the same correction scaled by gamma, bitwise
    assert np.array_equal(dg, 0.013 * d1)


@pytest.mark.parametrize("gamma", [1e-3, 2e-3, 4e-3, 8e-3, 0.013, 0.7,
                                   3.0])
def test_delta_rho_is_gamma_times_the_unit_integral(hams, gamma):
    # sweep evaluates delta_rho once at gamma = 1 and scales it per gamma
    o = _op("isz")
    h = hams["tr_invariant"]
    rho_t = _reference(h, o, 5.0)
    unit = delta_rho(rho_t, o, h, 1.0, 5.0)
    direct = delta_rho(rho_t, o, h, gamma, 5.0)
    assert np.array_equal((gamma * unit).view(np.uint64),
                          direct.view(np.uint64))


def test_delta_rho_commuting_channel_closed_form(spins):
    # [O, H] = 0 freezes the interaction picture, so the correction is
    # gamma * t * (2 O rho(t) O' - {O'O, rho(t)}) exactly
    h = spins.sz @ spins.sz
    o = spins.sz
    gamma, t = 0.37, 1.7
    rho_t = _reference(h, o, t, n_samples=18)
    got = delta_rho(rho_t, o, h, gamma, t)
    expected = gamma * t * (2 * o @ rho_t @ o.conj().T
                            - (o.conj().T @ o @ rho_t + rho_t @ o.conj().T @ o))
    assert np.linalg.norm(got - expected) < 1e-13


def test_delta_rho_first_order_accuracy(hams, trev):
    # residual of the corrected state against the full channel shrinks
    # like gamma^2
    h = hams["tr_invariant"]
    o = _op("isz")
    basis = ground_subspace(h, pairing=trev)
    psi = (basis[:, 0] + basis[:, 1]) / np.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    t = 5.0
    ref = evolve_expm(rho0, liouvillian_matrix(h, o, 0.0), t, 11)
    gammas = (1e-3, 2e-3, 4e-3)
    resid = []
    for g in gammas:
        full = evolve_expm(rho0, liouvillian_matrix(h, o, g), t,
                           11).states[-1]
        corr = ref.states[-1] + delta_rho(ref.states[-1], o, h, g, t)
        resid.append(np.linalg.norm(full - corr))
    slope = scaling_exponent(gammas, resid)
    assert abs(slope - 2.0) < 0.1


def test_scaling_exponent_recovers_power_law():
    g = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    assert scaling_exponent(g, 3.0 * g ** 2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_exponent([1e-3], [1e-6])


def test_interaction_picture_of_many_times_matches_one_call_per_time(hams):
    o = _op("sxsysz")
    times = -(3.7 * np.arange(17) / 16)
    stacked = interaction_picture(o, hams["both_symmetric"], times)
    assert stacked.shape == (17, 4, 4)
    assert np.array_equal(stacked, np.array(
        [interaction_picture(o, hams["both_symmetric"], t) for t in times]))


def _simpson_reference(rho0_t, o, h, t, n_panels=65536):
    """delta_rho at gamma = 1 by composite Simpson over n_panels panels of
    the interaction picture, the way delta_rho integrated before its
    closed form. The node-weighted sums of o(t') x o(t')^* and of
    o(t')^dag o(t') are formed first, so the whole reference is a few
    passes over the nodes."""
    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t / n_panels / 3.0
    o_tp = interaction_picture(o, h, -(t * np.arange(n_panels + 1)
                                       / n_panels))
    d = o.shape[0]
    flat = o_tp.reshape(-1, d * d)
    sandwich = ((weights[:, None] * flat).T @ flat.conj()).reshape((d,) * 4)
    odo = np.einsum("k,kba,kbc->ac", weights, o_tp.conj(), o_tp)
    return (2.0 * np.einsum("abdc,...bc->...ad", sandwich, rho0_t)
            - (odo @ rho0_t + rho0_t @ odo))


@pytest.mark.parametrize("t", [5.0, 50.0, 500.0])
def test_delta_rho_matches_a_65536_panel_simpson_reference(row_probes, t):
    # every row's three probes; the bound is relative to t ||O||_F^2, the
    # scale of the integral, since some probes' corrections vanish. The
    # closed form is within 1.1e-12 of the reference on all of them, which
    # is about the reference's own error at t = 500
    for name, system, probes in row_probes:
        got = delta_rho(probes, system.o, system.h, 1.0, t)
        ref = _simpson_reference(probes, system.o, system.h, t)
        scale = t * np.linalg.norm(system.o) ** 2
        assert np.linalg.norm(got - ref, axis=(-2, -1)).max() <= (
            1e-11 * scale), name


def test_delta_rho_corrects_each_state_of_a_stack_as_if_alone(row_probes):
    # the oracle's call: every row's three probes at gamma = 1e-3 and
    # gamma*t = 0.5, against one call per probe, bit for bit; a stack with
    # two leading axes gives the same bits too
    for name, system, probes in row_probes:
        stacked = delta_rho(probes, system.o, system.h, 1e-3, 500.0)
        assert stacked.shape == probes.shape
        for rho0, got in zip(probes, stacked):
            alone = delta_rho(rho0, system.o, system.h, 1e-3, 500.0)
            assert np.array_equal(got.view(np.uint64),
                                  alone.view(np.uint64)), name
        nested = delta_rho(probes[None], system.o, system.h, 1e-3, 500.0)
        assert np.array_equal(nested.view(np.uint64),
                              stacked[None].view(np.uint64)), name
