"""Scalar diagnostics of trajectories: subspace entropy and verdicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix
from .spectra import normalize_subspace, subspace_density


class PositivityError(Exception):
    """Raised when a state has an eigenvalue too negative to be roundoff."""


# Eigenvalues above this (negative) floor are treated as roundoff and
# clamped to zero; anything below is a genuine positivity violation.
NEG_EIG_FLOOR = -1e-7


def von_neumann_entropy(rho: ComplexMatrix) -> float | np.ndarray:
    """Von Neumann entropy -tr(rho ln rho) in nats.

    Accepts any Hermitian positive matrix, or a stack of them of shape
    (..., d, d); a single matrix gives a float, a stack an array of shape
    (...). A matrix whose trace is off unity by more than 1e-8 is
    normalized first, so subspace blocks can be passed directly.
    Eigenvalues in [NEG_EIG_FLOOR, 0) are clamped to zero and 0 ln 0
    counts as 0.

    Raises:
        ValueError: if a matrix is not finite or not Hermitian.
        PositivityError: if any eigenvalue lies below NEG_EIG_FLOOR.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError("entropy needs a finite matrix")
    norm = np.linalg.norm(rho, axis=(-2, -1))
    skew = np.linalg.norm(rho - rho.conj().swapaxes(-2, -1), axis=(-2, -1))
    if np.any(skew > 1e-8 * np.maximum(1.0, norm)):
        raise ValueError("entropy needs a Hermitian matrix")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    off = abs(tr - 1.0) > 1e-8
    if np.any(off & (tr <= 0)):
        raise PositivityError(f"cannot normalize trace {np.min(tr):.3e}")
    rho = np.where(off[..., None, None], rho / tr[..., None, None], rho)
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < NEG_EIG_FLOOR:
        raise PositivityError(f"eigenvalue {lam.min():.3e} below {NEG_EIG_FLOOR}")
    lam = np.clip(lam, 0.0, 1.0)
    terms = np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    s = 0.0 - terms.sum(axis=-1)  # 0.0 - x is never IEEE -0.0
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class EntropySeries:
    """Subspace entropy along a trajectory.

    s_v is the entropy of the normalized subspace state (nats); trace_g is
    the raw subspace population, which can leak below one and is not
    guaranteed monotone.
    """

    s_v: np.ndarray
    trace_g: np.ndarray


def observe_subspace(
        traj, basis: ComplexMatrix) -> tuple[EntropySeries, np.ndarray]:
    """Observe a whole trajectory inside the span of basis in one pass.

    Returns the EntropySeries and the raw (unnormalized) subspace blocks
    basis^dag rho(t_k) basis, stacked as an array of shape (samples, g, g).

    Raises:
        ValueError: if a sample is not Hermitian unit-trace.
        SubspaceDepletedError: if a sample's subspace population is too
            small to normalize.
    """
    blocks = subspace_density(traj.states, basis)
    trace_g = np.trace(blocks, axis1=-2, axis2=-1).real
    s_v = von_neumann_entropy(normalize_subspace(blocks))
    return EntropySeries(s_v=s_v, trace_g=trace_g), blocks


class Coherence(str, enum.Enum):
    COHERENT = "Coherence"
    DECOHERENT = "Decoherence"
    AMBIGUOUS = "Ambiguous"


DEFAULT_COH_TOL = 1e-6
DEFAULT_DEC_TOL = 1e-2


def coherence_verdict(s: EntropySeries) -> Coherence:
    """Classify a trajectory by the peak of its subspace entropy.

    Coherent when max s_v stays below DEFAULT_COH_TOL, decoherent when it
    exceeds DEFAULT_DEC_TOL, ambiguous in between. The thresholds are fixed
    and sit four decades apart because coherent runs are zero up to
    integrator noise while decoherent ones reach order 0.1 and above;
    anything between the thresholds means the scenario or the tolerances
    need attention.
    """
    peak = float(np.max(s.s_v))
    if peak < DEFAULT_COH_TOL:
        return Coherence.COHERENT
    if peak > DEFAULT_DEC_TOL:
        return Coherence.DECOHERENT
    return Coherence.AMBIGUOUS
