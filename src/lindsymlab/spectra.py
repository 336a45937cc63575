"""Spectral decomposition and ground-doublet handling.

The models of interest have doubly degenerate ground levels. This module
extracts the ground subspace with a deterministic basis (phase-fixed, and
time-reversal-paired when the caller supplies a compatible anti-unitary)
and restricts density matrices to the subspace.
"""

from __future__ import annotations

import numpy as np

from .operators import ComplexMatrix, ConfigError, frob
from .symmetry import AntiUnitaryOp, is_hermitian


def eigh(h: ComplexMatrix):
    """Hermitian eigendecomposition with an explicit hermiticity gate.

    Raises:
        ValueError: if h fails symmetry.is_hermitian (DEFAULT_TOL,
            relative, Frobenius).
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh(h)


def same_level(vals: np.ndarray, energy) -> np.ndarray:
    """Mask (..., len(vals)) of the ascending eigenvalues vals within 1e-9
    times their spread of energy, or of each of an array of energies; all
    of them when the spread is roundoff, at most 1e-14 of max(1, |vals[0]|).
    """
    spread = float(vals[-1] - vals[0])
    if spread <= 1e-14 * max(1.0, abs(float(vals[0]))):
        spread = np.inf
    return np.abs(vals - np.asarray(energy)[..., None]) <= 1e-9 * spread


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component real and positive."""
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    return v / phase


def ground_subspace(h: ComplexMatrix,
                    pairing: AntiUnitaryOp | None = None) -> ComplexMatrix:
    """The ground level of h as an orthonormal basis, one column per state.

    The level of the minimum (same_level) holds the ground states. Each
    basis vector is phase-fixed so its largest-magnitude component is
    real positive. For a two-dimensional ground level, a caller-supplied
    anti-unitary that commutes with h fixes the second vector proportional
    to the image of the first, re-orthonormalized, unless that image lies
    within 1e-6 of the first's ray, as T^2 = +1 allows; the anti-unitary
    must map the subspace to itself. The level's dimension is the basis's
    column count; classify.prepare refuses any but two.

    Raises:
        ConfigError: if pairing is supplied but maps the first ground state
            out of the subspace (it then does not commute with h there).
    """
    vals, vecs = eigh(h)
    ground = same_level(vals, vals[0])
    basis = np.column_stack([_phase_fix(vecs[:, k])
                             for k in np.flatnonzero(ground)])
    if pairing is not None and basis.shape[1] == 2 and not ground.all():
        phi_plus = basis[:, 0]
        partner = pairing.act_state(phi_plus)
        leak = partner - basis @ basis.conj().T @ partner
        if frob(leak) > 1e-9:
            raise ConfigError("hamiltonian: pairing operator maps the "
                              "ground state out of its subspace")
        partner = partner - phi_plus * (phi_plus.conj() @ partner)
        if (norm := np.linalg.norm(partner)) > 1e-6:
            basis = np.column_stack([phi_plus, _phase_fix(partner / norm)])
    return basis


def subspace_density(rho: ComplexMatrix, basis: ComplexMatrix) -> ComplexMatrix:
    """Restrict a density matrix, or a stack of them, to the span of basis.

    rho has shape (..., d, d) and basis (d, g), or a stack of bases that
    broadcasts against rho's leading axes; returns basis^dag rho basis of
    shape (..., g, g). Its trace is the subspace population and is
    generally below one once leakage sets in. Nothing is checked here: the
    propagators own their samples' trace and finiteness.
    """
    return basis.conj().swapaxes(-2, -1) @ rho @ basis
