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
    """A propagator refuses its input: the trajectory would be too large to
    store or to step through, would lose the trace, or would not be
    finite."""


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


def rhs_operators(h: ComplexMatrix, o: ComplexMatrix, gamma: float) -> tuple:
    """The products and buffers rhs needs that do not depend on rho,
    built once.

    Returns left, the (3d, d) block [O; H; O^dag O] that multiplies rho
    from the left in one gemm, right, which stacks [H, -O^dag O, 2 O^dag]
    to multiply [rho, rho, O rho] from the right, views of one workspace
    [rho, rho, O rho, H rho, O^dag O rho] that rhs fills, the buffers of
    the right product and of the differences with their views, and the
    coefficients [-1j, gamma] of the two terms as a (2, 1, 1) complex
    stack. The views are sliced here once: slicing them on every call
    would cost much of what the saved products gain. Negation and
    doubling round exactly, so folding them into right changes no bit of
    rho O^dag O or of 2 O rho O^dag. The BLAS forms each entry of
    left @ rho by the same length-d sum whatever left's height, and a
    Python scalar multiplies a complex array through the same complex128
    loop as coef does, so the block and the fold change no bit either.
    """
    d = h.shape[0]
    o_dag = o.conj().T
    odo = o_dag @ o
    work = np.empty((5, d, d), dtype=complex)
    prod = np.empty((3, d, d), dtype=complex)
    diff = np.empty((2, d, d), dtype=complex)
    coef = np.array([-1j, gamma], dtype=complex).reshape(2, 1, 1)
    return (np.concatenate([o, h, odo]), np.stack([h, -odo, 2.0 * o_dag]),
            work[:2], work[2:].reshape(3 * d, d), work[:3], work[3:],
            prod, prod[:2], prod[2], diff, diff[0], diff[1], coef)


def rhs(rho: ComplexMatrix, ops: tuple) -> ComplexMatrix:
    """Right-hand side of the master equation in matrix form.

    ops is rhs_operators(h, o, gamma) of the system, built once by the
    caller. The result is a fresh array, never a view of the buffers in
    ops.
    """
    (left, right, rho_twice, lp, rho_orho, hrho_odorho,
     rp, rp_head, rp_tail, diff, comm, diss, coef) = ops
    rho_twice[...] = rho
    np.matmul(left, rho, out=lp)        # O rho; H rho; O^dag O rho
    np.matmul(rho_orho, right, out=rp)  # rho H, -rho O^dag O, 2 O rho O^dag
    np.subtract(hrho_odorho, rp_head, out=diff)  # [H, rho], {O^dag O, rho}
    np.subtract(rp_tail, diss, out=diss)  # 2 O rho O^dag - {O^dag O, rho}
    np.multiply(diff, coef, out=diff)   # -i [H, rho], gamma D(rho)
    return comm + diss


def vec(rho: ComplexMatrix) -> np.ndarray:
    """Row-major vectorization: row index varies slowest."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def _kron_rows(a: ComplexMatrix, b: ComplexMatrix, i: int, rows: slice,
               out: np.ndarray) -> np.ndarray:
    """Rows i d + rows of np.kron(a, b), written into out as
    out[k, j, l] = a[i, j] * b[k, l] by the broadcast multiply np.kron
    makes."""
    return np.multiply(a[i, None, :, None], b[rows, None, :], out=out)


def liouvillian_matrix(h: ComplexMatrix, o: ComplexMatrix,
                       gamma: float) -> ComplexMatrix:
    """Supermatrix L with vec(drho/dt) = L vec(rho), row-major convention.

    Uses vec(A X B) = (A kron B^T) vec(X), so L is

        -1j * (H kron I - I kron H^T)
        + gamma * (2.0 * O kron O* - O^dag O kron I - I kron (O^dag O)^T).

    The left trace vector is a zero mode: vec(I)^dag L = 0, which encodes
    trace preservation.

    L is assembled in place, one row block L[i d:(i + 1) d] at a time and
    each block in two halves. Every entry of a kron term is the one
    complex multiply a[i, j] * b[k, l] that np.kron makes, and the terms
    are combined elementwise in the order and with the scalars above, so
    L has the bits of that expression, signed zeros included. Beside L
    the build holds two half blocks, each 1 / (2 d) of L, and numpy's
    broadcast multiply buffers its two factors at the same size.

    Raises:
        PropagationError: the norm of L overflows, so every later norm on
            its space would overflow too. numpy does not warn first.
    """
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    l_mat = np.empty((d * d, d * d), dtype=complex)
    half = (d + 1) // 2
    work = np.empty((2, half, d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        o_conj = o.conj()
        odo = o_conj.T @ o
        for i, block in enumerate(l_mat.reshape(d, d, d, d)):
            for rows in (slice(0, half), slice(half, d)):
                out = block[rows]
                acc, term = work[:, :len(out)]
                _kron_rows(h, eye, i, rows, acc)
                _kron_rows(eye, h.T, i, rows, term)
                np.subtract(acc, term, out=acc)
                np.multiply(-1j, acc, out=out)
                _kron_rows(o, o_conj, i, rows, acc)
                np.multiply(2.0, acc, out=acc)
                _kron_rows(odo, eye, i, rows, term)
                np.subtract(acc, term, out=acc)
                _kron_rows(eye, odo.T, i, rows, term)
                np.subtract(acc, term, out=acc)
                np.multiply(gamma, acc, out=acc)
                np.add(out, acc, out=out)
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
        PropagationError: the default step is not a finite number > 0;
            the run needs more than RK4_MAX_STEPS steps; a stored sample's
            trace drifts from rho0's by more than DEFAULT_TOL or is not a
            number, the signature of a step outside the stable region; or
            a stored sample is not finite.
    """
    d = rho0.shape[0]
    times = sample_times(t_max, n_samples, d)
    intervals = n_samples - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if dt is None:
            dt = default_dt(h, o, gamma)
            if not 0 < dt < np.inf:
                raise PropagationError(
                    f"the default RK4 step at gamma={gamma:g} is {dt!r}: "
                    f"hamiltonian (e_g), coupling or gamma too large")
        steps_per_sample = max(1.0, np.ceil(t_max / dt / intervals))
        if steps_per_sample * intervals > RK4_MAX_STEPS:
            raise PropagationError(
                f"t_max={t_max:g} at dt={dt:.3g} needs "
                f"{steps_per_sample * intervals:.3g} RK4 steps, more than "
                f"the budget of {RK4_MAX_STEPS}")
        steps_per_sample = int(steps_per_sample)
        dt_eff = t_max / (intervals * steps_per_sample)

        states = np.empty((n_samples, d, d), dtype=complex)
        rho = np.asarray(rho0, dtype=complex).copy()
        states[0] = (rho + rho.conj().T) / 2
        trace0 = np.trace(rho)

        ops = rhs_operators(h, o, gamma)
        half_dt = 0.5 * dt_eff
        sixth_dt = dt_eff / 6.0
        for k in range(1, n_samples):
            for _ in range(steps_per_sample):
                k1 = rhs(rho, ops)
                k2 = rhs(rho + half_dt * k1, ops)
                k3 = rhs(rho + half_dt * k2, ops)
                k4 = rhs(rho + dt_eff * k3, ops)
                rho = rho + sixth_dt * (k1 + 2 * k2 + 2 * k3 + k4)
            states[k] = (rho + rho.conj().T) / 2
            err = abs(np.trace(states[k]) - trace0)
            if not err <= DEFAULT_TOL:  # NaN fails too
                raise PropagationError(
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
    step, with prop (systems, 1, D, D). Each stack element is the gemv of
    its propagator @ flat[s, i, k] alone, so no state's bytes depend on
    its neighbours; the states are never the columns of one gemm."""
    for k in range(flat.shape[-2] - 1):
        np.matmul(prop, flat[..., k, :, None], out=flat[..., k + 1, :, None])


def _step_propagators(l_stack: np.ndarray, h: float) -> np.ndarray:
    """expm(l * h) of each slice l of l_stack (n, D, D), bit for bit
    scipy.linalg.expm(l_stack * h).

    A slice scipy sends down its generic Pade path (both halves of its
    bandwidth nonzero) runs scipy 1.17.1's expm loop on scipy's own
    kernels inside one (5, D, D) workspace of the dtype of l_stack * h:
    l * h is written into its first slab, pick_pade_structure scales it
    and picks the order, pade_UV_calc leaves the Pade approximant there,
    and the squarings alternate between the first two slabs. scipy's own
    call keeps l * h, its output and a fresh slab per squaring beside that
    workspace. Any other slice (diagonal, triangular, 1 x 1) goes to
    scipy.linalg.expm itself. For one system the result is a view of the
    workspace; a longer stack fills one output array.
    """
    import scipy.linalg  # here, its only user: runs without expm skip it
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
    dtype = np.result_type(l_stack, h)
    am = np.empty((5,) + l_stack.shape[1:], dtype=dtype)
    props = None if len(l_stack) == 1 else np.empty(l_stack.shape, dtype)
    for i, l in enumerate(l_stack):
        a = np.multiply(l, h, out=am[0])
        if not all(scipy.linalg.bandwidth(a)):
            prop = scipy.linalg.expm(a)
        else:
            m, s = pick_pade_structure(am)
            if m < 0:
                raise MemoryError(f"expm could not allocate the Pade "
                                  f"structure (error code {m})")
            info = pade_UV_calc(am, m)
            if info <= -11:
                raise MemoryError(f"expm could not allocate the exponential "
                                  f"(error code {info})")
            if info != 0:
                raise RuntimeError(f"expm got an internal LAPACK error "
                                   f"(error code {info})")
            for k in range(s):
                np.matmul(am[k % 2], am[k % 2], out=am[(k + 1) % 2])
            prop = am[s % 2]
        if props is None:
            return prop[None]
        props[i] = prop
    return props


def _trace_drift(flat: np.ndarray, d: int) -> np.ndarray:
    """Largest |tr rho(t_k) - tr rho(0)| of each state in flat."""
    traces = flat[..., ::d + 1].sum(axis=-1)  # diagonal entries of vec(rho)
    return np.max(np.abs(traces - traces[..., :1]), axis=-1)


def evolve_expm(rho0: ComplexMatrix, l_mat: ComplexMatrix, t_max: float,
                n_samples: int) -> Trajectory:
    """Propagate through the matrix exponential of the Liouvillian l_mat.

    Exact up to roundoff for any step, so RK4 is validated against it. rho0
    is one state or a stack (..., d, d); l_mat is one Liouvillian (D, D),
    or a stack (n, D, D), one per system, paired with rho0 (n, ..., d, d).
    One _step_propagators call on the stack gives each system's step
    propagator P = expm(L h), h = times[1], slice by slice, with the bytes
    of scipy.linalg.expm; states[..., k, :, :] is P^k rho0, and times are
    the linspace labels, which can differ from k h in the last bit. One
    matmul per sample step runs each state's own matrix-vector product, so
    a state's bytes are those of a single-state call on its own
    Liouvillian.

    A Liouvillian of large norm can exponentiate to a step propagator that
    loses trace at roundoff level on every step. If a stored sample's
    trace then drifts from its rho0's by more than DEFAULT_TOL, the bound
    evolve_rk4 holds its samples to as well, the step propagator P of its
    system is projected in place onto trace-preserving maps, P +
    (vec(I)/d)(vec(I)^T - vec(I)^T P), that state alone is run again and
    meta["projected"][i] set. meta["dt"] is the step h, as evolve_rk4
    records its own. An input too large to propagate warns nowhere but
    ends in a refusal below.

    Raises:
        ValueError: a Liouvillian stack not as long as rho0's first axis.
        PropagationError: the trace still drifts past DEFAULT_TOL with the
            projected propagator, or a sample is not finite.
    """
    d = rho0.shape[-1]
    times = sample_times(t_max, n_samples, d)
    l_stack = l_mat.reshape((-1,) + l_mat.shape[-2:])  # a lone one is 1 system
    if rho0.shape[:l_mat.ndim - 2] != l_mat.shape[:-2]:
        raise ValueError(f"{len(l_stack)} Liouvillians for a stack of states "
                         f"of shape {rho0.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        prop = _step_propagators(l_stack, times[1])[:, None]  # a view
        states = np.empty(rho0.shape[:-2] + (n_samples, d, d), dtype=complex)
        # a view of states: one row of vec(rho) per system, state and sample
        flat = states.reshape(len(prop), -1, n_samples, d * d)
        flat[:, :, 0] = rho0.reshape(len(prop), -1, d * d)
        _step_samples(flat, prop)
        drift = _trace_drift(flat, d)
        # a trajectory that is not finite is not projected but refused below
        projected = (DEFAULT_TOL < drift) & (drift < np.inf)
        trace_row, drifting = vec(np.eye(d)), set()
        for s, i in np.argwhere(projected):
            if s not in drifting:  # projected once per system that drifts,
                # in place: every state has taken its plain steps
                prop[s, 0] += np.outer(
                    trace_row / d, trace_row - trace_row @ prop[s, 0])
                drifting.add(s)
            alone = flat[s:s + 1, i:i + 1]
            _step_samples(alone, prop[s:s + 1])
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
