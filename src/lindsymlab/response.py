"""First-order-in-gamma response: an oracle independent of the integrators.

For an initial state inside an eigenspace of H, the exact first-order
correction to the density matrix is a time integral of dissipator terms
conjugated into the frame comoving with the coherent evolution. In the
eigenbasis of H the integral is elementary, so delta_rho forms it in
closed form: the standard interaction-picture first-order term of the
Lindblad equation (Breuer and Petruccione, The Theory of Open Quantum
Systems, OUP 2002). The formula takes the coherent state rho_0(t) as an
input and never calls the Lindblad propagators, so it validates them: the
difference between the full evolution and (rho_0 + delta_rho) must shrink
as gamma squared.
"""

from __future__ import annotations

import numpy as np

from .operators import ComplexMatrix
from .spectra import eigh, same_level
from .symmetry import DEFAULT_TOL


def interaction_picture(o: ComplexMatrix, h: ComplexMatrix,
                        t: float | np.ndarray) -> ComplexMatrix:
    """Return exp(iHt) O exp(-iHt) through the eigenbasis of H, for a time
    or, stacked along the leading axes, an array of times. Raises
    ValueError if h is not Hermitian (the eigendecomposition gate)."""
    vals, vecs = eigh(h)
    w = vecs.conj().T @ o @ vecs
    phase = np.exp(1j * vals * np.asarray(t)[..., None])
    rotated = w * (phase[..., :, None] * phase.conj()[..., None, :])
    return vecs @ rotated @ vecs.conj().T


def delta_rho(rho0_t: ComplexMatrix, o: ComplexMatrix, h: ComplexMatrix,
              gamma: float, t: float) -> ComplexMatrix:
    """First-order correction delta_rho(t) in closed form:

        gamma * int_0^t dt' [ 2 o(t') rho_0(t) o(t')^dag
                              - {o(t')^dag o(t'), rho_0(t)} ]

    with o(t') the coupling carried backward along the coherent evolution.
    With h = V diag(E) V^dag, W = V^dag o V and rho~ = V^dag rho_0(t) V,
    and F_xy = int_0^t exp(-i (E_x - E_y) t') dt', this is gamma V [2 (W
    rho~ W^dag) o F - (W^dag W o F) rho~ - rho~ (W^dag W o F)] V^dag, o the
    entrywise product. The sandwich term needs rho~ inside one level of h,
    where the correction is exact to first order. gamma multiplies last.
    rho0_t is the coherent (gamma = 0) state at t, or a stack of them.

    Raises:
        ValueError: h is not Hermitian, or a state carries more than
            DEFAULT_TOL of its Frobenius weight, relative, outside the
            spectra.same_level level that holds most of its population.
    """
    vals, vecs = eigh(h)
    v_dag = vecs.conj().T
    rho = v_dag @ rho0_t @ vecs
    population = np.diagonal(rho, axis1=-2, axis2=-1).real
    level = same_level(vals, vals[np.argmax(population, axis=-1)])
    outside = np.where(level[..., :, None] & level[..., None, :], 0.0, rho)
    if np.any(np.linalg.norm(outside, axis=(-2, -1))
              > DEFAULT_TOL * np.linalg.norm(rho, axis=(-2, -1))):
        raise ValueError("delta_rho needs a state in one eigenspace of h")
    # F is t where two energies are equal; expm1 keeps it accurate nearby
    omega = vals[:, None] - vals[None, :]
    f = np.full(omega.shape, t, dtype=complex)
    np.divide(np.expm1(-1j * (omega * t)), -1j * omega, out=f,
              where=omega != 0)
    w = v_dag @ o @ vecs
    w2f = (w.conj().T @ w) * f
    core = 2.0 * ((w @ rho @ w.conj().T) * f) - (w2f @ rho + rho @ w2f)
    return gamma * (vecs @ core @ v_dag)


def scaling_exponent(gammas, residuals) -> float:
    """Least-squares slope of log(residual) against log(gamma)."""
    x = np.log(np.asarray(gammas, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
