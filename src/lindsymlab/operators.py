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
        ValueError: if half_integer(s) is None or the dimension exceeds
            the dense-storage cap.
    """
    if (spin := half_integer(s)) is None:
        raise ValueError(f"spin must be a positive half-integer, got {s}")
    dim = int(2 * spin) + 1
    if dim > MAX_DIM:
        raise ValueError(f"spin {s} is above {(MAX_DIM - 1) / 2}, the "
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


def anticommutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Return ab + ba."""
    _check_dims(a, b)
    return a @ b + b @ a


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need equal square matrices, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# Named catalog.
#
# Hamiltonians: the three symmetry classes of the model family.
# Couplings: every operator appearing in the classification scenarios plus
# a few extra probes of the same algebra. The name table is documented in
# the CLI reference (README).

_HAMILTONIANS = {
    "q_symmetric": lambda t: t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx,
    "tr_invariant": lambda t: anticommutator(t.sx, t.sz),
    "both_symmetric": lambda t: t.sz @ t.sz,
}

_COUPLINGS = {
    "sy2": lambda t: t.sy @ t.sy,
    "sxsy_sym": lambda t: anticommutator(t.sx, t.sy),
    "sxsysz": lambda t: t.sx @ t.sy @ t.sz,
    "sysz": lambda t: t.sy @ t.sz,
    "sx2": lambda t: t.sx @ t.sx,
    "sz": lambda t: t.sz.copy(),
    "isz": lambda t: 1j * t.sz,
    "sx": lambda t: t.sx.copy(),
    "sxsysz_sym": lambda t: t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx,
    "i_sxsysz_asym": lambda t: 1j * (t.sx @ t.sy @ t.sz - t.sz @ t.sy @ t.sx),
    "i_sxsysz_sym": lambda t: 1j * (t.sx @ t.sy @ t.sz + t.sz @ t.sy @ t.sx),
    "sxsy": lambda t: t.sx @ t.sy,
    "sx2sz": lambda t: t.sx @ t.sx @ t.sz,
}

# Accepted spellings -> canonical name. Keys are compared lowercase.
_ALIASES = {
    "sy^2": "sy2",
    "sxsy+sysx": "sxsy_sym",
    "sx^2": "sx2",
    "sxsysz+szsysx": "sxsysz_sym",
    "i(sxsysz-szsysx)": "i_sxsysz_asym",
    "i(sxsysz+szsysx)": "i_sxsysz_sym",
    "sx^2sz": "sx2sz",
    "{sx,sz}": "tr_invariant",
    "sz^2": "both_symmetric",
}

def canonical_name(name: str) -> str:
    """Resolve a catalog name or accepted alias to its canonical form."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _COUPLINGS and key not in _HAMILTONIANS:
        known = ", ".join(sorted((*_COUPLINGS, *_HAMILTONIANS)))
        raise ValueError(f"unknown operator name {name!r}; known names: {known}")
    return key


def _literal(matrix, spins: SpinTriple, key: str) -> ComplexMatrix:
    """matrix as complex, refused under key unless d x d at spins' spin."""
    a = np.asarray(matrix, dtype=complex)
    if a.shape != spins.sz.shape:
        raise ValueError(f"{key}: need a {spins.dim}x{spins.dim} matrix at "
                         f"spin {(spins.dim - 1) / 2:g}, got shape {a.shape}")
    return a


def _named(name: str, key: str) -> str:
    """canonical_name(name), its refusal prefixed with key."""
    try:
        return canonical_name(name)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def build_hamiltonian(spec: OperatorSpec, spins: SpinTriple) -> ComplexMatrix:
    """Resolve a Hamiltonian spec to a Hermitian matrix scaled by E_g.

    Args:
        spec: one of the named Hamiltonians (q_symmetric, tr_invariant,
            both_symmetric) or a literal Hermitian matrix; spec.scale is E_g.
        spins: spin matrices of the working dimension.

    Raises:
        ValueError: unknown name, a coupling's name, a literal that is
            not d x d, a Hamiltonian whose Frobenius norm times E_g
            overflows (checked before the product, and before the
            Hermiticity test compares norms), or a non-Hermitian literal.
    """
    if spec.matrix is not None:
        h = _literal(spec.matrix, spins, "hamiltonian")
    else:
        key = _named(spec.name, "hamiltonian")
        if key not in _HAMILTONIANS:
            raise ValueError(f"hamiltonian: {spec.name!r} names a coupling "
                             f"operator, not a Hamiltonian")
        h = _HAMILTONIANS[key](spins)
    if not abs(spec.scale) * frob(h) < math.inf:
        raise ValueError("hamiltonian: its Frobenius norm times e_g "
                         "overflows")
    # a finite norm bounds every entry, so h - h^dag cannot overflow
    if (spec.matrix is not None
            and frob(h - h.conj().T) > 1e-12 * max(1.0, frob(h))):
        raise ValueError("hamiltonian: literal Hamiltonian must be Hermitian")
    return spec.scale * h


def build_coupling(spec: OperatorSpec, spins: SpinTriple) -> ComplexMatrix:
    """Resolve a coupling spec to its matrix; hermiticity is never assumed.

    Raises:
        ValueError: unknown name, a Hamiltonian's name, a literal matrix
            that is not d x d, or a matrix whose Frobenius norm overflows:
            every symmetry test compares norms, and inf <= inf would pass
            them all.
    """
    if spec.matrix is not None:
        o = _literal(spec.matrix, spins, "coupling")
    else:
        key = _named(spec.name, "coupling")
        if key not in _COUPLINGS:
            raise ValueError(f"coupling: {spec.name!r} names a Hamiltonian, "
                             f"not a coupling operator")
        o = _COUPLINGS[key](spins)
    # checked before the product, which would overflow with a numpy
    # warning, and after it, since the norm squares the scaled entries
    refusal = "coupling: its Frobenius norm overflows"
    if not abs(spec.scale) * frob(o) < math.inf:
        raise ValueError(refusal)
    o = spec.scale * o
    if not frob(o) < math.inf:
        raise ValueError(refusal)
    return o
