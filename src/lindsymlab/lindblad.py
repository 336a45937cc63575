"""Dissipative evolution of a density matrix with a single coupling channel.

The master equation is

    drho/dt = -i [H, rho] + gamma (2 O rho O^dag - {O^dag O, rho})

with the factor-2 convention on the sandwich term. Everything here works
with either the matrix form (rhs, RK4 stepping) or the vectorized form
(Liouvillian supermatrix acting on row-major vec(rho)); the two routes are
kept independent so they can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import ComplexMatrix
from .symmetry import DEFAULT_TOL, Proportionality


class PropagationError(Exception):
    """A propagator cannot integrate its input to a finite trajectory."""


class StepSizeError(PropagationError):
    """RK4 would exceed its step budget, or visibly loses the trace."""


# Most RK4 steps one evolve_rk4 call may take; checked before the first.
RK4_MAX_STEPS = 10**6
# Most complex entries one state's trajectory stores, n_samples * d^2: 256 MiB.
MAX_TRAJECTORY_ENTRIES = 2**24


def sample_times(t_max: float, n_samples: int, d: int) -> np.ndarray:
    """The sample grid of both propagators, for d x d states.

    Raises:
        ValueError: t_max is not a finite number > 0, or n_samples < 2.
        PropagationError: over MAX_TRAJECTORY_ENTRIES entries to store.
    """
    if not 0 < t_max < np.inf:  # NaN fails too
        raise ValueError(f"t_max must be a finite number > 0, got {t_max!r}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if n_samples * d * d > MAX_TRAJECTORY_ENTRIES:
        raise PropagationError(
            f"n_samples={n_samples} at dimension {d} needs more than "
            f"{MAX_TRAJECTORY_ENTRIES} stored entries")
    return np.linspace(0.0, t_max, n_samples)


def rhs_operators(h: ComplexMatrix, o: ComplexMatrix) -> tuple:
    """The products rhs needs that do not depend on rho, built once.

    Returns left, which stacks [O, H, O^dag O] to multiply rho from the
    left, right, which stacks [H, -O^dag O, 2 O^dag] to multiply
    [rho, rho, O rho] from the right, and views of one workspace
    [rho, rho, O rho, H rho, O^dag O rho] that rhs fills. The views are
    sliced here once: slicing them on every call would cost much of what
    the saved product gains. Negation and doubling round exactly, so
    folding them into right changes no bit of rho O^dag O or of
    2 O rho O^dag.
    """
    o_dag = o.conj().T
    odo = o_dag @ o
    work = np.empty((5,) + h.shape, dtype=complex)
    return (np.stack([o, h, odo]), np.stack([h, -odo, 2.0 * o_dag]),
            work[:2], work[2:], work[:3], work[3:])


def rhs(rho: ComplexMatrix, ops: tuple, gamma: float) -> ComplexMatrix:
    """Right-hand side of the master equation in matrix form.

    ops is rhs_operators(h, o) of the system, built once by the caller.
    The result is a fresh array, never a view of the workspace in ops.
    """
    left, right, rho_twice, lp, rho_orho, hrho_odorho = ops
    rho_twice[...] = rho
    np.matmul(left, rho, out=lp)  # O rho, H rho, O^dag O rho
    rp = rho_orho @ right         # rho H, -rho O^dag O, 2 O rho O^dag
    diff = hrho_odorho - rp[:2]   # [H, rho], {O^dag O, rho}
    return -1j * diff[0] + gamma * (rp[2] - diff[1])


def vec(rho: ComplexMatrix) -> np.ndarray:
    """Row-major vectorization: row index varies slowest."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def liouvillian_matrix(h: ComplexMatrix, o: ComplexMatrix,
                       gamma: float) -> ComplexMatrix:
    """Supermatrix L with vec(drho/dt) = L vec(rho), row-major convention.

    Uses vec(A X B) = (A kron B^T) vec(X). The left trace vector is a zero
    mode: vec(I)^dag L = 0, which encodes trace preservation.

    Raises:
        PropagationError: the norm of L overflows, so every later norm on
            its space would overflow too. numpy does not warn first.
    """
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        odo = o.conj().T @ o
        l_h = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        l_d = (2.0 * np.kron(o, o.conj())
               - np.kron(odo, eye) - np.kron(eye, odo.T))
        l_mat = l_h + gamma * l_d
        if not np.isfinite(np.linalg.norm(l_mat)):
            raise PropagationError(
                f"the Liouvillian at gamma={gamma:g} overflows: hamiltonian "
                f"(e_g), coupling or gamma too large")
    return l_mat


def default_dt(h: ComplexMatrix, o: ComplexMatrix, gamma: float) -> float:
    """Step size keeping RK4 well inside its stability region.

    Scales inversely with the stiffest of the Hamiltonian and dissipative
    rates (Frobenius norms), floored at 1 so weak problems still resolve
    unit-time structure.
    """
    odo = o.conj().T @ o
    rate = max(float(np.linalg.norm(h)), gamma * float(np.linalg.norm(odo)), 1.0)
    return 0.01 / rate


@dataclass
class Trajectory:
    """Sampled evolution: times[k] pairs with states[..., k, :, :]."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)


def evolve_rk4(rho0: ComplexMatrix, h: ComplexMatrix, o: ComplexMatrix,
               gamma: float, t_max: float, dt: float | None = None,
               n_samples: int = 201) -> Trajectory:
    """Integrate the master equation with classical fixed-step RK4.

    The requested dt is snapped so that an integer number of equal steps
    lands exactly on each of the n_samples uniformly spaced sample times.
    Stored samples are re-Hermitized as (rho + rho^dag)/2. An input too
    large to integrate warns nowhere but ends in a refusal below.

    Raises:
        StepSizeError: the default step is not a finite number > 0, the
            run needs more than RK4_MAX_STEPS steps, or a stored sample's
            trace drifts from rho0's by more than DEFAULT_TOL (or is not a
            number), the signature of a step size outside the stable region.
        PropagationError: a stored sample is not finite.
    """
    d = rho0.shape[0]
    times = sample_times(t_max, n_samples, d)
    intervals = n_samples - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if dt is None:
            dt = default_dt(h, o, gamma)
            if not 0 < dt < np.inf:
                raise StepSizeError(
                    f"the default RK4 step at gamma={gamma:g} is {dt!r}: "
                    f"hamiltonian (e_g), coupling or gamma too large")
        steps_per_sample = max(1.0, np.ceil(t_max / dt / intervals))
        if steps_per_sample * intervals > RK4_MAX_STEPS:
            raise StepSizeError(
                f"t_max={t_max:g} at dt={dt:.3g} needs "
                f"{steps_per_sample * intervals:.3g} RK4 steps, more than "
                f"the budget of {RK4_MAX_STEPS}")
        steps_per_sample = int(steps_per_sample)
        dt_eff = t_max / (intervals * steps_per_sample)

        states = np.empty((n_samples, d, d), dtype=complex)
        rho = np.asarray(rho0, dtype=complex).copy()
        states[0] = (rho + rho.conj().T) / 2
        trace0 = np.trace(rho)

        ops = rhs_operators(h, o)
        half_dt = 0.5 * dt_eff
        sixth_dt = dt_eff / 6.0
        for k in range(1, n_samples):
            for _ in range(steps_per_sample):
                k1 = rhs(rho, ops, gamma)
                k2 = rhs(rho + half_dt * k1, ops, gamma)
                k3 = rhs(rho + half_dt * k2, ops, gamma)
                k4 = rhs(rho + dt_eff * k3, ops, gamma)
                rho = rho + sixth_dt * (k1 + 2 * k2 + 2 * k3 + k4)
            states[k] = (rho + rho.conj().T) / 2
            err = abs(np.trace(states[k]) - trace0)
            if not err <= DEFAULT_TOL:  # NaN fails too
                raise StepSizeError(
                    f"trace drifted to {err:.3e} at t={times[k]:.4g} of "
                    f"t_max={t_max:g}; reduce dt")
    if not np.isfinite(states).all():
        raise PropagationError(
            f"the rk4 trajectory at gamma={gamma:g} is not finite: "
            f"hamiltonian (e_g), coupling, gamma or t_max too large")
    return Trajectory(times=times, states=states, meta={"dt": dt_eff})


def _step_samples(flat: np.ndarray, prop: np.ndarray) -> None:
    """Fill samples 1.. of every state in flat (systems, states, n_samples,
    d^2) from sample 0 as sample k + 1 = prop @ sample k, one matmul per
    step. prop holds one propagator per system, as (systems, 1, D, D), or
    one (D, D) for every state. Each stack element is the gemv that its
    propagator @ flat[s, i, k] would make, so no state's bytes depend on
    its neighbours; the states are never the columns of one gemm."""
    for k in range(flat.shape[-2] - 1):
        np.matmul(prop, flat[..., k, :, None], out=flat[..., k + 1, :, None])


def _trace_drift(flat: np.ndarray, d: int) -> np.ndarray:
    """Largest |tr rho(t_k) - tr rho(0)| of each state in flat."""
    traces = flat[..., ::d + 1].sum(axis=-1)  # diagonal entries of vec(rho)
    return np.max(np.abs(traces - traces[..., :1]), axis=-1)


def evolve_expm(rho0: ComplexMatrix, l_mat: ComplexMatrix, t_max: float,
                n_samples: int) -> Trajectory:
    """Propagate through the matrix exponential of the Liouvillian l_mat.

    Exact up to roundoff for any step, so it serves as the reference the
    RK4 route is validated against. One step propagator P = expm(L h),
    h = times[1], is built per system, and states[..., k, :, :] is
    P^k rho0; times are the linspace labels, which can differ from k h in
    the last bit. rho0 is one state or a stack (..., d, d). l_mat is one
    Liouvillian (D, D), a stack of one system, or a stack (n, D, D), one
    per system, paired with rho0 (n, ..., d, d), and a stack of one views
    its propagator instead of copying it. The whole stack advances by one
    matmul per sample step, which runs each state's own matrix-vector
    product, so a state's bytes are those of a single-state call on its
    own Liouvillian.

    A Liouvillian of large norm can exponentiate to a step propagator that
    loses trace at roundoff level on every step. If a stored sample's
    trace then drifts from its rho0's by more than DEFAULT_TOL, the bound
    evolve_rk4 holds its samples to as well, the step propagator P of its
    system is projected onto trace-preserving maps, P + (vec(I)/d)(vec(I)^T
    - vec(I)^T P), that state alone is run again and meta["projected"][i]
    set. meta["dt"] is the step h, as evolve_rk4 records its own.

    Raises:
        ValueError: a Liouvillian stack whose length is not rho0's first
            axis.
        PropagationError: the trace still drifts past DEFAULT_TOL with the
            projected propagator, or a sample is not finite.
    """
    d = rho0.shape[-1]
    times = sample_times(t_max, n_samples, d)
    l_stack = l_mat.reshape((-1,) + l_mat.shape[-2:])  # a lone one is 1 system
    systems = len(l_stack)
    if rho0.shape[:l_mat.ndim - 2] != l_mat.shape[:-2]:
        raise ValueError(f"{systems} Liouvillians for a stack of states of "
                         f"shape {rho0.shape}")
    # scipy.linalg is imported here, its only user, so that runs that never
    # call expm skip its import time
    import scipy.linalg

    # one (systems, 1, D, D) array; np.stack would copy a lone propagator
    # (16 MB at spin 31/2), so that one is a view
    p = [scipy.linalg.expm(l * times[1]) for l in l_stack]
    prop = p[0][None, None] if systems == 1 else np.stack(p)[:, None]
    states = np.empty(rho0.shape[:-2] + (n_samples, d, d), dtype=complex)
    # a view of states: one row of vec(rho) per system, state and sample
    flat = states.reshape(systems, -1, n_samples, d * d)
    flat[:, :, 0] = rho0.reshape(systems, -1, d * d)
    _step_samples(flat, prop)
    drift = _trace_drift(flat, d)
    # a trajectory that is not finite is not projected but refused below
    projected = (DEFAULT_TOL < drift) & (drift < np.inf)
    trace_row, trace_props = vec(np.eye(d)), {}
    for s, i in np.argwhere(projected):
        if s not in trace_props:  # built once per system that drifts
            trace_props[s] = prop[s, 0] + np.outer(
                trace_row / d, trace_row - trace_row @ prop[s, 0])
        alone = flat[s:s + 1, i:i + 1]
        _step_samples(alone, trace_props[s])
        drift_i = _trace_drift(alone, d)[0, 0]
        if not drift_i <= DEFAULT_TOL:
            raise PropagationError(
                f"the expm trajectory drifts the trace by {drift_i:.3e} "
                f"even with trace-preserving steps: hamiltonian (e_g), "
                f"coupling, gamma or t_max too large")
    if not np.isfinite(states).all():
        raise PropagationError(
            f"the expm trajectory up to t_max={t_max:g} is not finite: "
            f"hamiltonian (e_g), coupling, gamma or t_max too large")
    return Trajectory(times=times, states=states,
                      meta={"dt": times[1],
                            "projected": projected.reshape(rho0.shape[:-2])})


def subspace_block(l_matrix: ComplexMatrix, basis: ComplexMatrix) -> ComplexMatrix:
    """Restrict a Liouvillian to the coherence block of a subspace.

    The block acts on vectorized subspace operators |phi_c><phi_d| in
    row-major pair order (for a doublet: ++, +-, -+, --). Its columns are
    the images of those dyads, re-expressed in the same dyad basis; when
    the subspace is not invariant the block is the compression.
    """
    # column c*g + d of the Kronecker product is the dyad |phi_c><phi_d|
    p = np.kron(basis, basis.conj())
    return p.conj().T @ l_matrix @ p


def block_identity_test(block: ComplexMatrix) -> Proportionality:
    """Check block = c * I, the algebraic criterion for preserved coherence.

    The coefficient is tr(block)/dim and the residual is Frobenius; the
    block passes when the residual is at most DEFAULT_TOL * max(1, |c|).
    If the block is a multiple of the identity, every subspace density
    matrix is rescaled uniformly: populations and coherences decay at the
    same rate and the normalized subspace state never moves.
    """
    dim = block.shape[0]
    coeff = complex(np.trace(block) / dim)
    residual = float(np.linalg.norm(block - coeff * np.eye(dim)))
    return Proportionality(
        proportional=residual <= DEFAULT_TOL * max(1.0, abs(coeff)),
        residual=residual)
