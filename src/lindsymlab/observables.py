"""Scalar diagnostics of trajectories: subspace entropy and verdicts."""

from __future__ import annotations

import enum

import numpy as np

from .operators import ComplexMatrix
from .spectra import subspace_density


class ObservationError(Exception):
    """A subspace state cannot be observed: its population is too small to
    normalize, or it has an eigenvalue too negative to be roundoff."""


# Eigenvalues above this (negative) floor are treated as roundoff and
# clamped to zero; anything below is a genuine positivity violation.
NEG_EIG_FLOOR = -1e-7


def von_neumann_entropy(rho: ComplexMatrix) -> np.ndarray:
    """Von Neumann entropy -tr(rho ln rho) in nats.

    rho is a unit-trace Hermitian matrix, or a stack of them of shape
    (..., d, d); the result has shape (...). Eigenvalues in
    [NEG_EIG_FLOOR, 0) are clamped to zero and 0 ln 0 counts as 0.

    Raises:
        ObservationError: if any eigenvalue lies below NEG_EIG_FLOOR.
    """
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < NEG_EIG_FLOOR:
        raise ObservationError(
            f"eigenvalue {lam.min():.3e} below {NEG_EIG_FLOOR}")
    lam = np.clip(lam, 0.0, 1.0)
    terms = np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    return 0.0 - terms.sum(axis=-1)  # 0.0 - x is never IEEE -0.0


def observe_subspace(traj, basis: ComplexMatrix) -> tuple:
    """Observe a whole trajectory inside the span of basis in one pass.

    Returns (s_v, trace_g, blocks): the entropy of the subspace state
    normalized by its population, in nats; that population, taken once per
    sample, which can leak below one and is not guaranteed monotone; and
    the raw (unnormalized) subspace blocks basis^dag rho(t_k) basis, of
    shape (samples, g, g). A stack of trajectories adds its leading axes
    to all three.

    Raises:
        ObservationError: if a sample's population is at or below 1e-12,
            where normalizing would amplify numerical noise, or a
            normalized block has an eigenvalue below NEG_EIG_FLOOR.
    """
    blocks = subspace_density(traj.states, basis)
    trace_g = np.trace(blocks, axis1=-2, axis2=-1).real
    if np.any(trace_g <= 1e-12):
        raise ObservationError(
            f"subspace population {np.min(trace_g):.3e} below floor")
    return (von_neumann_entropy(blocks / trace_g[..., None, None]), trace_g,
            blocks)


class Coherence(str, enum.Enum):
    COHERENT = "Coherence"
    DECOHERENT = "Decoherence"
    AMBIGUOUS = "Ambiguous"


DEFAULT_COH_TOL = 1e-6
DEFAULT_DEC_TOL = 1e-2


def coherence_verdict(s_v: np.ndarray) -> Coherence:
    """Classify a trajectory by the peak of its subspace entropy s_v.

    Coherent when max s_v stays below DEFAULT_COH_TOL, decoherent when it
    exceeds DEFAULT_DEC_TOL, ambiguous in between, or NaN. The thresholds
    are fixed and sit four decades apart because coherent runs are zero up
    to integrator noise while decoherent ones reach order 0.1 and above;
    anything between the thresholds means the scenario or the tolerances
    need attention. A stack of series (..., samples) gets the worst of
    their verdicts: Ambiguous, then Decoherence, then Coherence.
    """
    peaks = np.max(s_v, axis=-1)
    coherent = peaks < DEFAULT_COH_TOL
    decoherent = peaks > DEFAULT_DEC_TOL
    if not np.all(coherent | decoherent):
        return Coherence.AMBIGUOUS
    return Coherence.DECOHERENT if np.any(decoherent) else Coherence.COHERENT
