"""First-order-in-gamma response: an oracle independent of the integrators.

For an initial state inside an eigenspace of H, the exact first-order
correction to the density matrix is a time integral of dissipator terms
conjugated into the frame comoving with the coherent evolution. The
formula takes the coherent state rho_0(t) as an input and never calls the
Lindblad propagators, so it validates them: the difference between the
full evolution and (rho_0 + delta_rho) must shrink as gamma squared.
"""

from __future__ import annotations

import numpy as np

from .operators import ComplexMatrix
from .spectra import eigh


def interaction_picture(o: ComplexMatrix, h: ComplexMatrix,
                        t: float | np.ndarray) -> ComplexMatrix:
    """Return exp(iHt) O exp(-iHt) through the eigenbasis of H.

    t is a time or an array of times; an array gives one operator per
    time, stacked along the leading axes, from one eigendecomposition.

    Raises:
        ValueError: if h is not Hermitian (from the eigendecomposition gate).
    """
    vals, vecs = eigh(h)
    w = vecs.conj().T @ o @ vecs
    phase = np.exp(1j * vals * np.asarray(t)[..., None])
    rotated = w * (phase[..., :, None] * phase.conj()[..., None, :])
    return vecs @ rotated @ vecs.conj().T


def _simpson_weights(n_panels: int, width: float) -> np.ndarray:
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (width / n_panels / 3.0)


def delta_rho(rho0_t: ComplexMatrix, o: ComplexMatrix, h: ComplexMatrix,
              gamma: float, t: float, n_quad: int = 128) -> ComplexMatrix:
    """First-order correction delta_rho(t), composite Simpson in t'.

    Evaluates

        gamma * int_0^t dt' [ 2 o(t') rho_0(t) o(t')^dag
                              - {o(t')^dag o(t'), rho_0(t)} ]

    with o(t') the coupling operator carried backward along the coherent
    evolution and rho_0(t) held at the outer time. Exact to first order for
    initial states prepared inside an eigenspace of h. Manifestly linear
    in gamma.

    Args:
        rho0_t: the coherent (gamma = 0) state at t, or a stack of them. A
            state inside an eigenspace of h is its own coherent evolution.
        n_quad: even number of Simpson panels, at least 16.

    Raises:
        ValueError: odd or too-small n_quad.
    """
    if n_quad < 16 or n_quad % 2 != 0:
        raise ValueError("n_quad must be an even panel count >= 16")

    # every node's integrand from one eigh(h); the node axis leads and
    # broadcasts over rho0_t's stack axes
    o_tp = interaction_picture(o, h, -(t * np.arange(n_quad + 1) / n_quad))
    o_tp = np.expand_dims(o_tp, tuple(range(1, rho0_t.ndim - 1)))
    o_dag = o_tp.conj().swapaxes(-2, -1)
    odo = o_dag @ o_tp
    terms = (2.0 * (o_tp @ rho0_t @ o_dag)
             - (odo @ rho0_t + rho0_t @ odo))
    # weighted in place, then summed over the node axis; it has the largest
    # stride, so the reduce adds one node's terms at a time, in node order
    # and from 0.0: the sequential sum, bit for bit, with no second stack
    w = _simpson_weights(n_quad, t).reshape((-1,) + (1,) * (terms.ndim - 1))
    np.multiply(w, terms, out=terms)
    return gamma * np.add.reduce(terms, axis=0, initial=0.0)


def scaling_exponent(gammas, residuals) -> float:
    """Least-squares slope of log(residual) against log(gamma)."""
    x = np.log(np.asarray(gammas, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
