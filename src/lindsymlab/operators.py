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


def checked_spin(s: float) -> float:
    """The spin round(2s)/2 that s stands for, on which every per-spin
    cache is keyed, so a spin within 1e-12 of a half-integer shares that
    one's entry.

    Raises:
        ConfigError: unless 2s lies within 1e-12 of a positive integer,
            or if the dimension exceeds the dense-storage cap; either
            message names s as given.
    """
    two_s = 2 * s
    if not (0 < two_s < np.inf and round(two_s) >= 1
            and abs(two_s - round(two_s)) <= 1e-12):
        raise ConfigError(f"spin must be a positive half-integer, got {s}")
    if round(two_s) + 1 > MAX_DIM:
        raise ConfigError(f"spin {s} is above {(MAX_DIM - 1) / 2}, the "
                          f"largest spin stored densely")
    return round(two_s) / 2


def spin_matrices(s: float) -> SpinTriple:
    """Build Sx, Sy, Sz for total spin s via ladder operators.

    Built once per half-integer spin (checked_spin) and process; the
    matrices are read-only.

    Returns:
        SpinTriple with (2s+1)-dimensional Hermitian matrices; Sz is
        diagonal with entries s, s-1, ..., -s.

    Raises:
        ConfigError: as checked_spin refuses s.
    """
    return _spin_triple(checked_spin(s))


@functools.cache
def _spin_triple(spin: float) -> SpinTriple:
    """spin_matrices at a spin checked_spin gave."""
    dim = int(2 * spin) + 1
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

# Per builder key: its catalog, and what a name from the other catalog
# names.
_KINDS = {
    "hamiltonian": (_HAMILTONIANS, "a coupling operator, not a Hamiltonian"),
    "coupling": (_COUPLINGS, "a Hamiltonian, not a coupling operator"),
}


def _resolve(value: str | ComplexMatrix, spins: SpinTriple,
             key: str) -> ComplexMatrix:
    """The matrix of value, a catalog name or a complex array, refused
    under key: a literal that is not d x d at spins' spin, or a name that
    is not in key's catalog exactly as listed."""
    catalog, other = _KINDS[key]
    if not isinstance(value, str):
        a = np.asarray(value, dtype=complex)
        if a.shape != spins.sz.shape:
            raise ConfigError(f"{key}: need a {spins.dim}x{spins.dim} "
                              f"matrix at spin {(spins.dim - 1) / 2:g}, got "
                              f"shape {a.shape}")
        return a
    if value in catalog:
        return catalog[value](spins)
    if value in _HAMILTONIANS or value in _COUPLINGS:
        raise ConfigError(f"{key}: {value!r} names {other}")
    known = ", ".join(sorted((*_COUPLINGS, *_HAMILTONIANS)))
    raise ConfigError(f"{key}: unknown operator name {value!r}; "
                      f"known names: {known}")


def build_hamiltonian(value: str | ComplexMatrix, spins: SpinTriple,
                      e_g: float = 1.0) -> ComplexMatrix:
    """Resolve a Hamiltonian to a Hermitian matrix scaled by E_g.

    Args:
        value: one of the named Hamiltonians (q_symmetric, tr_invariant,
            both_symmetric) or a literal Hermitian matrix.
        spins: spin matrices of the working dimension.
        e_g: the energy unit E_g, which multiplies the matrix.

    Raises:
        ConfigError: unknown name, a coupling's name, a literal that is
            not d x d, a Hamiltonian whose Frobenius norm times E_g
            overflows (checked before and after the product, both before
            the Hermiticity test compares norms), or an H that is not
            Hermitian to 1e-12 of its Frobenius norm once scaled: the H
            every later stage reads. A named H passes, with room to spare,
            so only a literal is ever refused.
    """
    a = _resolve(value, spins, "hamiltonian")
    # checked before the product, which would overflow with a numpy
    # warning, and after it, since the norm squares the scaled entries;
    # both before any test compares norms: inf <= inf would pass every
    # symmetry test
    if not (abs(e_g) * frob(a) < math.inf and frob(h := e_g * a) < math.inf):
        raise ConfigError("hamiltonian: its Frobenius norm times e_g "
                          "overflows")
    # a finite norm bounds every entry, so h - h^dag cannot overflow; the
    # bound is relative, so e_g cannot move an H across it
    if frob(h - h.conj().T) > 1e-12 * frob(h):
        raise ConfigError("hamiltonian: literal Hamiltonian must be Hermitian")
    return h


def build_coupling(value: str | ComplexMatrix,
                   spins: SpinTriple) -> ComplexMatrix:
    """Resolve a coupling to its matrix; hermiticity is never assumed.

    The matrix is not copied: `sz` and `sx` come back as the cached,
    read-only spin_matrices arrays, and a complex literal as the caller's
    own array. No stage writes into a coupling.

    Raises:
        ConfigError: unknown name, a Hamiltonian's name, a literal matrix
            that is not d x d, or a matrix whose Frobenius norm overflows:
            every symmetry test compares norms, and inf <= inf passes.
    """
    o = _resolve(value, spins, "coupling")
    if not frob(o) < math.inf:
        raise ConfigError("coupling: its Frobenius norm overflows")
    return o
