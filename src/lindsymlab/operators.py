"""Spin angular-momentum matrices and the named model operators.

Spin matrices come from the ladder-operator construction and reproduce the
standard spin-3/2 representation exactly (entries are halves and half-root-3
values). Hamiltonians and coupling operators are built from a small named
catalog so that scenarios, configs, and tests all speak the same names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ComplexMatrix = np.ndarray

# Dense storage only; dimensions beyond this are out of scope.
MAX_DIM = 64


class ConfigError(ValueError):
    """An input value refused where it is read or prepared, named by its
    config key. A ValueError, so that callers catching one keep working."""


def frob(a: np.ndarray) -> float:
    """Frobenius norm; inf, without a numpy warning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(a))


@dataclass(frozen=True)
class SpinTriple:
    """The three spin matrices for a fixed total spin."""

    sx: ComplexMatrix
    sy: ComplexMatrix
    sz: ComplexMatrix

    @property
    def dim(self) -> int:
        return self.sx.shape[0]


@dataclass(frozen=True)
class OperatorSpec:
    """A named catalog operator or a literal matrix, times a real scale.

    scale plays the role of the energy unit E_g for Hamiltonians and is an
    ordinary prefactor for coupling operators (default 1).
    """

    name: str | None = None
    matrix: ComplexMatrix | None = None
    scale: float = 1.0

    def __post_init__(self):
        if (self.name is None) == (self.matrix is None):
            raise ValueError("OperatorSpec needs exactly one of name or matrix")


def half_integer(s: float) -> float | None:
    """The spin round(2s)/2 that s stands for, or None unless 2s lies
    within 1e-12 of a positive integer."""
    two_s = 2 * s
    if (0 < two_s < np.inf and round(two_s) >= 1
            and abs(two_s - round(two_s)) <= 1e-12):
        return round(two_s) / 2
    return None


@functools.cache
def spin_matrices(s: float) -> SpinTriple:
    """Build Sx, Sy, Sz for total spin s via ladder operators.

    Built once per spin and process; the matrices are read-only.

    Args:
        s: half-integer spin quantum number (1/2, 1, 3/2, ...), built as
            half_integer(s), so a spin within 1e-12 of one is that one.

    Returns:
        SpinTriple with (2s+1)-dimensional Hermitian matrices; Sz is
        diagonal with entries s, s-1, ..., -s.

    Raises:
        ConfigError: if half_integer(s) is None or the dimension exceeds
            the dense-storage cap.
    """
    if (spin := half_integer(s)) is None:
        raise ConfigError(f"spin must be a positive half-integer, got {s}")
    dim = int(2 * spin) + 1
    if dim > MAX_DIM:
        raise ConfigError(f"spin {s} is above {(MAX_DIM - 1) / 2}, the "
                          f"largest spin stored densely")
    m = np.array([spin - k for k in range(dim)], dtype=float)
    s_plus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        s_plus[k - 1, k] = np.sqrt(spin * (spin + 1) - m[k] * (m[k] + 1))
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2
    sy = (s_plus - s_minus) / 2j
    sz = np.diag(m).astype(complex)
    for arr in (sx, sy, sz):
        arr.setflags(write=False)
    return SpinTriple(sx=sx, sy=sy, sz=sz)


# ---------------------------------------------------------------------------
# Named catalog.
#
# Hamiltonians: the three symmetry classes of the model family.
# Couplings: every operator appearing in the classification scenarios plus
# a few extra probes of the same algebra. The name table is documented in
# the CLI reference (README).

_HAMILTONIANS = {
    "q_symmetric": lambda t: t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx,
    "tr_invariant": lambda t: t.sx @ t.sz + t.sz @ t.sx,
    "both_symmetric": lambda t: t.sz @ t.sz,
}

_COUPLINGS = {
    "sy2": lambda t: t.sy @ t.sy,
    "sxsy_sym": lambda t: t.sx @ t.sy + t.sy @ t.sx,
    "sxsysz": lambda t: t.sx @ t.sy @ t.sz,
    "sysz": lambda t: t.sy @ t.sz,
    "sx2": lambda t: t.sx @ t.sx,
    "sz": lambda t: t.sz,
    "isz": lambda t: 1j * t.sz,
    "sx": lambda t: t.sx,
    "sxsysz_sym": lambda t: t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx,
    "i_sxsysz_asym": lambda t: 1j * (t.sx @ t.sy @ t.sz - t.sz @ t.sy @ t.sx),
    "i_sxsysz_sym": lambda t: 1j * (t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx),
    "sxsy": lambda t: t.sx @ t.sy,
    "sx2sz": lambda t: t.sx @ t.sx @ t.sz,
}

# Per builder key: its catalog, what a name from the other catalog names,
# and its overflow refusal.
_KINDS = {
    "hamiltonian": (_HAMILTONIANS, "a coupling operator, not a Hamiltonian",
                    "its Frobenius norm times e_g overflows"),
    "coupling": (_COUPLINGS, "a Hamiltonian, not a coupling operator",
                 "its Frobenius norm overflows"),
}


def _resolve(spec: OperatorSpec, spins: SpinTriple, key: str) -> ComplexMatrix:
    """spec's unscaled matrix, refused under key: a literal that is not
    d x d at spins' spin, a name that is not in key's catalog exactly as
    listed, or a Frobenius norm times spec.scale that overflows."""
    catalog, other, overflow = _KINDS[key]
    if spec.matrix is not None:
        a = np.asarray(spec.matrix, dtype=complex)
        if a.shape != spins.sz.shape:
            raise ConfigError(f"{key}: need a {spins.dim}x{spins.dim} "
                              f"matrix at spin {(spins.dim - 1) / 2:g}, got "
                              f"shape {a.shape}")
    elif spec.name in catalog:
        a = catalog[spec.name](spins)
    elif spec.name in _HAMILTONIANS or spec.name in _COUPLINGS:
        raise ConfigError(f"{key}: {spec.name!r} names {other}")
    else:
        known = ", ".join(sorted((*_COUPLINGS, *_HAMILTONIANS)))
        raise ConfigError(f"{key}: unknown operator name {spec.name!r}; "
                          f"known names: {known}")
    # checked before the product, which would overflow with a numpy
    # warning, and before any test compares norms: inf <= inf would pass
    # every symmetry test
    if not abs(spec.scale) * frob(a) < math.inf:
        raise ConfigError(f"{key}: {overflow}")
    return a


def _scaled(a: ComplexMatrix, scale: float, key: str) -> ComplexMatrix:
    """scale * a as a fresh array, refused under key if its Frobenius norm
    overflows: the norm squares the scaled entries."""
    a = scale * a
    if not frob(a) < math.inf:
        raise ConfigError(f"{key}: {_KINDS[key][2]}")
    return a


def build_hamiltonian(spec: OperatorSpec, spins: SpinTriple) -> ComplexMatrix:
    """Resolve a Hamiltonian spec to a Hermitian matrix scaled by E_g.

    Args:
        spec: one of the named Hamiltonians (q_symmetric, tr_invariant,
            both_symmetric) or a literal Hermitian matrix; spec.scale is E_g.
        spins: spin matrices of the working dimension.

    Raises:
        ConfigError: unknown name, a coupling's name, a literal that is
            not d x d, a Hamiltonian whose Frobenius norm times E_g
            overflows (checked before and after the product, both before
            the Hermiticity test compares norms), or an H that is not
            Hermitian to 1e-12 of its Frobenius norm once scaled: the H
            every later stage reads. A named H passes, with room to spare,
            so only a literal is ever refused.
    """
    h = _scaled(_resolve(spec, spins, "hamiltonian"), spec.scale,
                "hamiltonian")
    # a finite norm bounds every entry, so h - h^dag cannot overflow; the
    # bound is relative, so e_g cannot move an H across it
    if frob(h - h.conj().T) > 1e-12 * frob(h):
        raise ConfigError("hamiltonian: literal Hamiltonian must be Hermitian")
    return h


def build_coupling(spec: OperatorSpec, spins: SpinTriple) -> ComplexMatrix:
    """Resolve a coupling spec to its matrix; hermiticity is never assumed.

    Raises:
        ConfigError: unknown name, a Hamiltonian's name, a literal matrix
            that is not d x d, or a matrix whose Frobenius norm overflows,
            before or after its scale.
    """
    return _scaled(_resolve(spec, spins, "coupling"), spec.scale, "coupling")
