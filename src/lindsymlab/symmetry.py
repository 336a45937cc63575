"""Unitary and anti-unitary symmetry machinery.

The unitary side is the quaternion group of the pi rotations, {+-1,
+-exp(-i pi S_a)}, which at every half-integer spin acts as its
2-dimensional irrep times a multiplicity space. The anti-unitary side is
time reversal T = exp(-i pi Sy) K, from the same y rotation, which
squares to -1 in half-integer spin and therefore forces two-fold degeneracy
of every level of a T-symmetric Hamiltonian.

All closeness checks use the Frobenius norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import (ComplexMatrix, ConfigError, checked_spin, frob,
                        spin_matrices)

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


def _pi_rotation(a: ComplexMatrix) -> ComplexMatrix:
    """exp(-i pi a) of a Hermitian a, through its eigendecomposition."""
    vals, vecs = np.linalg.eigh(a)
    return vecs @ np.diag(np.exp(-1j * np.pi * vals)) @ vecs.conj().T


def quaternion_group(s: float) -> UnitaryGroup:
    """The quaternion group at spin s: 1, -1 and the pi rotations, as the
    units e, i = -exp(-i pi Sz), j = exp(-i pi Sy), k = exp(-i pi Sx) and
    their negatives. Built once per half-integer spin (checked_spin) and
    process; read-only.

    Raises:
        ConfigError: as checked_spin refuses s, or under `spin`, at an
            integer spin, where the rotations square to +1 and the group
            has no 2-dimensional irrep.
    """
    if (spin := checked_spin(s)).is_integer():
        raise ConfigError(f"spin: the quaternion group acts on a doublet "
                          f"at a half-integer spin only, got {s:g}")
    return _quaternion_group(spin)


@functools.cache
def _quaternion_group(s: float) -> UnitaryGroup:
    triple = spin_matrices(s)
    r_x, r_y, r_z = map(_pi_rotation, (triple.sx, triple.sy, triple.sz))
    one = np.eye(triple.dim, dtype=complex)
    elements = (one, -one, -r_z, r_z, r_y, -r_y, -r_x, r_x)
    labels = ("e", "e_bar", "i", "i_bar", "j", "j_bar", "k_bar", "k")
    for arr in elements:
        arr.setflags(write=False)
    return UnitaryGroup(elements=elements, labels=labels)


def time_reversal(s: float) -> AntiUnitaryOp:
    """Construct T = exp(-i pi Sy) K for the given spin.

    The unitary part is real and satisfies u S* u^dag = -S for all three
    spin matrices; u u* is -1 for half-integer spin and +1 for integer
    spin. Both properties are checked at build time. Built once per
    half-integer spin (checked_spin) and process; u is read-only.

    Raises:
        ConfigError: as checked_spin refuses s.
        ValueError: if a property check exceeds 1e-10.
    """
    return _time_reversal(checked_spin(s))


@functools.cache
def _time_reversal(s: float) -> AntiUnitaryOp:
    triple = spin_matrices(s)
    u = _pi_rotation(triple.sy).real.astype(complex)  # real in Sz basis
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
