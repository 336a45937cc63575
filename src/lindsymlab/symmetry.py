"""Unitary and anti-unitary symmetry machinery.

The unitary side is the eight-element quaternion group in its faithful
four-dimensional representation (two copies of the pseudo-real spin-1/2
irrep). The anti-unitary side is time reversal T = exp(-i pi Sy) K, which
squares to -1 in half-integer spin and therefore forces two-fold degeneracy
of every level of a T-symmetric Hamiltonian.

All closeness checks use the Frobenius norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix, frob, spin_matrices

DEFAULT_TOL = 1e-9


def is_hermitian(a: ComplexMatrix) -> bool:
    """True when a equals its adjoint up to DEFAULT_TOL (relative)."""
    return frob(a - a.conj().T) <= DEFAULT_TOL * max(1.0, frob(a))


@dataclass(frozen=True)
class UnitaryGroup:
    """A finite matrix group with its labels.

    labels[k] is the quaternion-unit name of elements[k].
    """

    elements: tuple
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


@functools.cache
def quaternion_group() -> UnitaryGroup:
    """The quaternion group acting on the spin-3/2 Hilbert space.

    The representation is block-structured: identity, the negated identity,
    and three staggered Pauli pairs, labelled by the quaternion units e, i,
    j, k and their negatives. Every non-central element has order 4. Built
    once per process; the element matrices are read-only.
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
    labels = ("e", "e_bar", "i", "i_bar", "j", "j_bar", "k_bar", "k")
    for arr in elements:
        arr.setflags(write=False)
    return UnitaryGroup(elements=elements, labels=labels)


@functools.cache
def time_reversal(s: float = 1.5) -> AntiUnitaryOp:
    """Construct T = exp(-i pi Sy) K for the given spin.

    The unitary part is real and satisfies u S* u^dag = -S for all three
    spin matrices; u u* is -1 for half-integer spin and +1 for integer
    spin. Both properties are checked at build time. Built once per spin
    and process; u is read-only.

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
    u.setflags(write=False)
    return t


def commutes_with_unitary(a: ComplexMatrix, q: ComplexMatrix) -> bool:
    """True when [a, q] vanishes up to DEFAULT_TOL relative to ||a||."""
    return frob(a @ q - q @ a) <= DEFAULT_TOL * max(1.0, frob(a))


def commutes_with_antiunitary(a: ComplexMatrix, t: AntiUnitaryOp) -> bool:
    """True when a is invariant under conjugation by the anti-unitary t."""
    return frob(t.act_operator(a) - a) <= DEFAULT_TOL * max(1.0, frob(a))


@dataclass(frozen=True)
class Proportionality:
    """Whether a matrix is c times an identity or projector, by residual."""

    proportional: bool
    residual: float


def schur_test(projector: ComplexMatrix, op: ComplexMatrix) -> Proportionality:
    """Test whether projector @ op @ projector is a multiple of projector.

    For an operator commuting with every element of a group acting
    irreducibly on the projected subspace this must hold exactly, with
    coefficient c = tr(P op P) / rank(P); the residual must be at most
    DEFAULT_TOL * max(1, |c|). projector must be an orthogonal projector
    of rank at least one, as basis @ basis^dag of an orthonormal basis is
    by construction; it is not checked here.
    """
    rank = int(round(np.trace(projector).real))
    pop = projector @ op @ projector
    coeff = complex(np.trace(pop) / rank)
    residual = frob(pop - coeff * projector)
    return Proportionality(
        proportional=residual <= DEFAULT_TOL * max(1.0, abs(coeff)),
        residual=residual)
