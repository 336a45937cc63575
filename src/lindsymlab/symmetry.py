"""Unitary and anti-unitary symmetry machinery.

The unitary side is the eight-element quaternion group in its faithful
four-dimensional representation (two copies of the pseudo-real spin-1/2
irrep). The anti-unitary side is time reversal T = exp(-i pi Sy) K, which
squares to -1 in half-integer spin and therefore forces two-fold degeneracy
of every level of a T-symmetric Hamiltonian.

All closeness checks use the Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix, spin_matrices

DEFAULT_TOL = 1e-9


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def is_hermitian(a: ComplexMatrix, tol: float = DEFAULT_TOL) -> bool:
    """True when a equals its conjugate transpose up to tol (relative)."""
    return frob(a - a.conj().T) <= tol * max(1.0, frob(a))


@dataclass(frozen=True)
class UnitaryGroup:
    """A finite matrix group with its multiplication table and labels.

    cayley[a, b] = c means elements[a] @ elements[b] == elements[c]
    (0-based indices). labels carry the validated quaternion-unit names.
    """

    elements: tuple
    cayley: np.ndarray
    labels: tuple


@dataclass(frozen=True)
class AntiUnitaryOp:
    """An anti-unitary operator u K (K = complex conjugation).

    Acts on states as v -> u conj(v) and on operators as A -> u conj(A) u^dag.
    """

    u: ComplexMatrix

    def act_state(self, v: np.ndarray) -> np.ndarray:
        return self.u @ np.conj(v)

    def act_operator(self, a: ComplexMatrix) -> ComplexMatrix:
        return self.u @ np.conj(a) @ self.u.conj().T

    def squared(self) -> ComplexMatrix:
        # (uK)^2 = u u*; equals -I for half-integer spin, +I for integer.
        return self.u @ np.conj(self.u)


# Abstract quaternion units for the labeling search: (sign, axis) with
# axis 0 = identity, 1 = i, 2 = j, 3 = k.
_UNIT_NAMES = {(1, 0): "e", (-1, 0): "e_bar", (1, 1): "i", (-1, 1): "i_bar",
               (1, 2): "j", (-1, 2): "j_bar", (1, 3): "k", (-1, 3): "k_bar"}


def _unit_mul(a, b):
    sa, xa = a
    sb, xb = b
    if xa == 0:
        return (sa * sb, xb)
    if xb == 0:
        return (sa * sb, xa)
    if xa == xb:
        return (-sa * sb, 0)
    # cyclic: i j = k, j k = i, k i = j; reversed order flips the sign
    third = 6 - xa - xb
    sign = 1 if (xb - xa) % 3 == 1 else -1
    return (sa * sb * sign, third)


def _numeric_cayley(elements) -> np.ndarray:
    n = len(elements)
    table = -np.ones((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            prod = elements[a] @ elements[b]
            for c in range(n):
                if frob(prod - elements[c]) < 1e-12:
                    table[a, b] = c
                    break
            if table[a, b] < 0:
                raise ValueError("matrix set is not closed under multiplication")
    return table


def quaternion_group() -> UnitaryGroup:
    """Build the quaternion group acting on the spin-3/2 Hilbert space.

    The representation is block-structured: identity, the negated identity,
    and three staggered Pauli pairs. The multiplication table is computed
    numerically and then labeled with quaternion units e, i, j, k (and
    their negatives) by a validated search, so the labels are guaranteed
    to satisfy the abstract group law. Every non-central element has
    order 4.

    Raises:
        ValueError: if the numeric table fails to close or no consistent
            labeling exists.
    """
    i2 = np.eye(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    q1 = np.kron(i2, i2).astype(complex)
    q3 = -np.kron(i2, 1j * sz)
    q5 = -1j * np.kron(sx, sy)
    q7 = -1j * np.kron(sx, sx)
    elements = (q1, -q1, q3, -q3, q5, -q5, q7, -q7)
    table = _numeric_cayley(elements)

    # Label deterministically: identity -> e, the order-2 element -> e_bar,
    # first unassigned -> i, next unassigned -> j, and k is forced by ij.
    units = [None] * 8
    for a in range(8):
        if table[a, a] == a:
            units[a] = (1, 0)
    identity = units.index((1, 0))
    for a in range(8):
        if a != identity and table[a, a] == identity:
            units[a] = (-1, 0)
    e_bar = units.index((-1, 0))
    free_axes = [1, 2]
    for a in range(8):
        if units[a] is None and free_axes:
            axis = free_axes.pop(0)
            units[a] = (1, axis)
            units[table[a, e_bar]] = (-1, axis)
    i_idx = units.index((1, 1))
    j_idx = units.index((1, 2))
    units[table[i_idx, j_idx]] = (1, 3)
    units[table[table[i_idx, j_idx], e_bar]] = (-1, 3)

    for a in range(8):
        for b in range(8):
            if _unit_mul(units[a], units[b]) != units[table[a, b]]:
                raise ValueError("no consistent quaternion labeling found")
    labels = tuple(_UNIT_NAMES[u] for u in units)
    return UnitaryGroup(elements=elements, cayley=table, labels=labels)


def time_reversal(s: float = 1.5) -> AntiUnitaryOp:
    """Construct T = exp(-i pi Sy) K for the given spin.

    The unitary part is real and satisfies u S* u^dag = -S for all three
    spin matrices; u u* is -1 for half-integer spin and +1 for integer
    spin. Both properties are checked at build time.

    Raises:
        ValueError: if a property check exceeds 1e-10.
    """
    triple = spin_matrices(s)
    vals, vecs = np.linalg.eigh(triple.sy)
    u = vecs @ np.diag(np.exp(-1j * np.pi * vals)) @ vecs.conj().T
    u = u.real.astype(complex)  # exp(-i pi Sy) is real in the Sz basis
    t = AntiUnitaryOp(u=u)
    dim = triple.dim
    checks = [
        frob(u @ u.conj().T - np.eye(dim)),
        frob(t.act_operator(triple.sx) + triple.sx),
        frob(t.act_operator(triple.sy) + triple.sy),
        frob(t.act_operator(triple.sz) + triple.sz),
        frob(t.squared() - (-1.0) ** int(round(2 * s)) * np.eye(dim)),
    ]
    if max(checks) > 1e-10:
        raise ValueError(f"time-reversal construction failed checks: {checks}")
    return t


def commutes_with_unitary(a: ComplexMatrix, q: ComplexMatrix,
                          tol: float = DEFAULT_TOL) -> bool:
    """True when [a, q] vanishes up to tol relative to ||a||."""
    return frob(a @ q - q @ a) <= tol * max(1.0, frob(a))


def commutes_with_antiunitary(a: ComplexMatrix, t: AntiUnitaryOp,
                              tol: float = DEFAULT_TOL) -> bool:
    """True when a is invariant under conjugation by the anti-unitary t."""
    return frob(t.act_operator(a) - a) <= tol * max(1.0, frob(a))


@dataclass(frozen=True)
class SchurResult:
    """Outcome of projecting an operator onto an irreducible subspace."""

    proportional: bool
    coefficient: complex
    residual: float
    norm_projected: float


def schur_test(projector: ComplexMatrix, op: ComplexMatrix,
               tol: float = DEFAULT_TOL) -> SchurResult:
    """Test whether projector @ op @ projector is a multiple of projector.

    For an operator commuting with every element of a group acting
    irreducibly on the projected subspace this must hold exactly, with
    coefficient tr(P op P) / rank(P).

    Raises:
        ValueError: if projector is not Hermitian and idempotent (1e-10).
    """
    p = np.asarray(projector, dtype=complex)
    if frob(p - p.conj().T) > 1e-10 or frob(p @ p - p) > 1e-10:
        raise ValueError("projector must be Hermitian and idempotent")
    rank = int(round(np.trace(p).real))
    if rank <= 0:
        raise ValueError("projector has rank zero")
    pop = p @ op @ p
    coeff = complex(np.trace(pop) / rank)
    residual = frob(pop - coeff * p)
    return SchurResult(
        proportional=residual <= tol * max(1.0, abs(coeff)),
        coefficient=coeff,
        residual=residual,
        norm_projected=frob(pop),
    )
