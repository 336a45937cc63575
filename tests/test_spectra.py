import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindsymlab.operators import ConfigError, spin_matrices
from lindsymlab.spectra import (eigh, ground_subspace, same_level,
                                subspace_density)
from lindsymlab.symmetry import time_reversal

RT2 = np.sqrt(2.0)


def _energies(h, basis):
    """<phi|h|phi> for each column phi of basis."""
    return np.diag(basis.conj().T @ h @ basis).real


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        eigh(m)


def test_eigh_matches_numpy_on_hermitian():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = a + a.conj().T
    vals, vecs = eigh(h)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-12)


def test_ground_doublet_q_symmetric_frozen(hams):
    basis = ground_subspace(hams["q_symmetric"])
    frozen = np.array([
        [1, 0],
        [0, 1],
        [-1j, 0],
        [0, 1j],
    ]) / RT2
    assert basis.shape[1] == 2
    assert np.linalg.norm(basis - frozen) < 1e-12
    assert np.all(abs(_energies(hams["q_symmetric"], basis)
                      + np.sqrt(3.0) / 2) < 1e-12)


def test_ground_doublet_tr_invariant_frozen(hams, trev):
    basis = ground_subspace(hams["tr_invariant"], pairing=trev)
    frozen = np.array([
        [1, 0],
        [-1, 0],
        [0, 1],
        [0, 1],
    ]) / RT2
    assert np.linalg.norm(basis - frozen) < 1e-12
    assert np.all(abs(_energies(hams["tr_invariant"], basis)
                      + np.sqrt(3.0)) < 1e-12)


def test_ground_doublet_both_symmetric_frozen(hams, trev):
    basis = ground_subspace(hams["both_symmetric"], pairing=trev)
    frozen = np.zeros((4, 2), dtype=complex)
    frozen[1, 0] = 1.0
    frozen[2, 1] = 1.0
    assert np.linalg.norm(basis - frozen) < 1e-12
    assert np.all(abs(_energies(hams["both_symmetric"], basis) - 0.25) < 1e-12)


def test_pairing_with_incompatible_antiunitary_raises(hams, trev):
    # the q_symmetric Hamiltonian anticommutes with time reversal: the
    # image of a ground state lies in the excited doublet
    with pytest.raises(ConfigError, match="^hamiltonian: pairing"):
        ground_subspace(hams["q_symmetric"], pairing=trev)


@pytest.mark.parametrize("spin", [1, 2, 3, 4])
def test_integer_spin_pairing_keeps_a_basis_of_the_level(spin):
    # T^2 = +1: T can map a ground state onto its own ray, leaving only
    # roundoff for a partner; the eigenbasis of the level stays
    t, trev = spin_matrices(spin), time_reversal(spin)
    for h in (-t.sx @ t.sx, -t.sy @ t.sy, -t.sz @ t.sz,
              -t.sz @ t.sz + 1e-11 * (t.sx @ t.sx)):
        basis = ground_subspace(h, pairing=trev)
        vals, vecs = eigh(h)
        level = vecs[:, same_level(vals, vals[0])]
        assert basis.shape[1] == 2
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(2)) <= 1e-12
        assert np.linalg.norm(basis @ basis.conj().T
                              - level @ level.conj().T) <= 1e-12


def test_projector_consistency(hams, trev):
    for name, h in hams.items():
        pairing = trev if name != "q_symmetric" else None
        basis = ground_subspace(h, pairing=pairing)
        p = basis @ basis.conj().T
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert abs(np.trace(p).real - basis.shape[1]) < 1e-12
        ground = np.linalg.eigvalsh(h)[0]
        assert np.linalg.norm(h @ p - ground * p) < 1e-9


def test_paired_partner_is_antiunitary_image(hams, trev):
    basis = ground_subspace(hams["tr_invariant"], pairing=trev)
    partner = trev.act_state(basis[:, 0])
    overlap = abs(basis[:, 1].conj() @ partner)
    assert abs(overlap - 1.0) < 1e-12
    # Kramers: the image is automatically orthogonal to the original
    assert abs(basis[:, 0].conj() @ partner) < 1e-12


def test_full_spectrum_degenerate_flagged():
    basis = ground_subspace(np.eye(4) * 2.5)
    assert basis.shape[1] == 4
    assert np.linalg.norm(basis @ basis.conj().T - np.eye(4)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_phase_fix_makes_basis_deterministic(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    g1 = ground_subspace(h)
    g2 = ground_subspace(h.copy())
    assert np.array_equal(g1, g2)
    for k in range(g1.shape[1]):
        col = g1[:, k]
        top = col[int(np.argmax(np.abs(col)))]
        assert abs(top.imag) < 1e-12
        assert top.real > 0


def test_subspace_density_requirements(hams, trev):
    basis = ground_subspace(hams["tr_invariant"], pairing=trev)
    rho = np.eye(4) / 4
    rg = subspace_density(rho, basis)
    assert rg.shape == (2, 2)
    assert abs(np.trace(rg).real - 0.5) < 1e-12


def test_ground_subspace_respects_rel_tol():
    h = np.diag([0.0, 1e-12, 1.0, 2.0])
    assert ground_subspace(h).shape[1] == 2


def test_stacks_match_one_call_per_matrix(hams, trev):
    rng = np.random.default_rng(11)
    basis = ground_subspace(hams["tr_invariant"], pairing=trev)
    stack = []
    for _ in range(7):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        stack.append(rho / np.trace(rho).real)
    stack = np.array(stack)
    blocks = subspace_density(stack, basis)
    assert np.array_equal(
        blocks, np.array([subspace_density(r, basis) for r in stack]))


def test_a_stack_of_bases_matches_one_call_per_basis(hams, trev):
    rng = np.random.default_rng(12)
    bases = np.stack([ground_subspace(hams["tr_invariant"], pairing=trev),
                      ground_subspace(hams["q_symmetric"])])
    a = rng.normal(size=(2, 5, 4, 4)) + 1j * rng.normal(size=(2, 5, 4, 4))
    stack = a @ a.conj().swapaxes(-2, -1)
    blocks = subspace_density(stack, bases[:, None])
    assert blocks.shape == (2, 5, 2, 2)
    for basis, rho, got in zip(bases, stack, blocks):
        assert np.array_equal(got.view(np.uint64),
                              subspace_density(rho, basis).view(np.uint64))
