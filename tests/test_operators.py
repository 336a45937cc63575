import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lindsymlab import operators
from lindsymlab.operators import (ConfigError, OperatorSpec, build_coupling,
                                  build_hamiltonian, frob, spin_matrices)
from lindsymlab.spectra import eigh

RT3 = np.sqrt(3.0)
HAMILTONIANS = ("q_symmetric", "tr_invariant", "both_symmetric")


def _known_names() -> set:
    """The catalog names an unknown name's error message lists."""
    with pytest.raises(ValueError, match="known names: ") as info:
        build_coupling(OperatorSpec(name="not-an-operator"),
                       spin_matrices(1.5))
    return set(str(info.value).split("known names: ")[1].split(", "))


def test_spin_half_matrices():
    t = spin_matrices(0.5)
    assert np.allclose(t.sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(t.sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(t.sz, [[0.5, 0], [0, -0.5]])


def test_spin_three_half_matrices_exact():
    t = spin_matrices(1.5)
    sx = np.array([
        [0, RT3 / 2, 0, 0],
        [RT3 / 2, 0, 1, 0],
        [0, 1, 0, RT3 / 2],
        [0, 0, RT3 / 2, 0],
    ])
    sy = np.array([
        [0, -RT3 / 2 * 1j, 0, 0],
        [RT3 / 2 * 1j, 0, -1j, 0],
        [0, 1j, 0, -RT3 / 2 * 1j],
        [0, 0, RT3 / 2 * 1j, 0],
    ])
    assert np.allclose(t.sx, sx, atol=1e-15)
    assert np.allclose(t.sy, sy, atol=1e-15)
    assert np.allclose(t.sz, np.diag([1.5, 0.5, -0.5, -1.5]), atol=1e-15)
    assert t.dim == 4


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
def test_angular_momentum_algebra(s):
    t = spin_matrices(s)
    for a, b, c in ((t.sx, t.sy, t.sz), (t.sy, t.sz, t.sx),
                    (t.sz, t.sx, t.sy)):
        assert np.linalg.norm(a @ b - b @ a - 1j * c) < 1e-13
    casimir = t.sx @ t.sx + t.sy @ t.sy + t.sz @ t.sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(t.dim), atol=1e-12)


# 1e-13 and 5e-13 lie within 1e-12 of 0, which is no positive half-integer
@pytest.mark.parametrize("s", [0, -0.5, 0.7, 1.2, 1e-13, 5e-13])
def test_invalid_spins_rejected(s):
    with pytest.raises(ValueError):
        spin_matrices(s)


def test_dimension_cap():
    with pytest.raises(ValueError):
        spin_matrices(40.0)
    spin_matrices(31.5)  # dim 64 is still allowed


def test_hamiltonian_spectra(spins):
    h_q = build_hamiltonian(OperatorSpec(name="q_symmetric"), spins)
    assert np.allclose(np.linalg.eigvalsh(h_q),
                       [-RT3 / 2, -RT3 / 2, RT3 / 2, RT3 / 2])
    h_tr = build_hamiltonian(OperatorSpec(name="tr_invariant"), spins)
    assert np.allclose(np.linalg.eigvalsh(h_tr), [-RT3, -RT3, RT3, RT3])
    h_b = build_hamiltonian(OperatorSpec(name="both_symmetric"), spins)
    assert np.allclose(np.linalg.eigvalsh(h_b), [0.25, 0.25, 2.25, 2.25])


def test_hamiltonian_scale_is_energy_unit(spins):
    h1 = build_hamiltonian(OperatorSpec(name="tr_invariant"), spins)
    h3 = build_hamiltonian(OperatorSpec(name="tr_invariant", scale=3.0), spins)
    assert np.allclose(h3, 3.0 * h1)


def test_literal_hamiltonian_must_be_hermitian(spins):
    good = np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(
        build_hamiltonian(OperatorSpec(matrix=good), spins), good)
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        build_hamiltonian(OperatorSpec(matrix=bad), spins)
    # the bound is 1e-12 of the scaled H's norm, so e_g moves no literal
    # across it: 1e-13i on 1e-6 Sz^2 is refused at every scale, and 1e-15i
    # on Sz^2 passes spectra.eigh's gate at every scale
    a = 1e-6 * (spins.sz @ spins.sz)
    a[0, 1] += 1e-13j
    near = spins.sz @ spins.sz
    near[0, 1] += 1e-15j
    for scale in (1e-13, 1.0, 1e6):
        eigh(build_hamiltonian(OperatorSpec(matrix=near, scale=scale), spins))
        with pytest.raises(ConfigError, match="^hamiltonian: literal "
                                              "Hamiltonian must be "
                                              "Hermitian$"):
            build_hamiltonian(OperatorSpec(matrix=a, scale=scale), spins)


def test_literal_coupling_not_required_hermitian(spins):
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    o = build_coupling(OperatorSpec(matrix=bad, scale=2.0), spins)
    assert np.allclose(o, 2.0 * bad)


def test_operator_spec_needs_exactly_one_source():
    with pytest.raises(ValueError):
        OperatorSpec()
    with pytest.raises(ValueError):
        OperatorSpec(name="sx", matrix=np.eye(4))


@pytest.mark.parametrize("build, name", [
    pytest.param(build_coupling, "sy^2", id="coupling-alias"),
    pytest.param(build_coupling, "SX2", id="coupling-upper"),
    pytest.param(build_coupling, " sx2 ", id="coupling-padded"),
    pytest.param(build_hamiltonian, "{sx,sz}", id="hamiltonian-alias"),
    pytest.param(build_hamiltonian, "Q_Symmetric", id="hamiltonian-mixed"),
    pytest.param(build_hamiltonian, "tr_invariant\n",
                 id="hamiltonian-newline")])
def test_a_name_is_taken_exactly_as_the_catalog_lists_it(spins, build, name):
    key = build.__name__.removeprefix("build_")
    with pytest.raises(ConfigError) as info:
        build(OperatorSpec(name=name), spins)
    assert str(info.value).startswith(
        f"{key}: unknown operator name {name!r}; known names: ")


@pytest.mark.parametrize("spin", [1.5, 7.5, 31.5])
@pytest.mark.parametrize("name", HAMILTONIANS)
def test_every_named_hamiltonian_passes_the_hermiticity_test(name, spin):
    # build_hamiltonian tests every H, and a named one passes with room to
    # spare at any e_g, since the bound is relative
    spins = spin_matrices(spin)
    for e_g in (1e-300, 1e-13, 1.0, 1e6, 1e100, -3.0):
        h = build_hamiltonian(OperatorSpec(name=name, scale=e_g), spins)
        assert frob(h - h.conj().T) <= 1e-14 * frob(h), (e_g, spin)


def test_name_catalogs_are_disjoint_and_complete(spins):
    known = _known_names()
    assert len(known) == 16
    assert set(HAMILTONIANS) <= known
    # each name builds in its own catalog only
    for name in known:
        spec = OperatorSpec(name=name)
        own, other = ((build_hamiltonian, build_coupling)
                      if name in HAMILTONIANS
                      else (build_coupling, build_hamiltonian))
        assert own(spec, spins).shape == (4, 4)
        with pytest.raises(ValueError):
            other(spec, spins)


def test_cross_category_names_rejected(spins):
    with pytest.raises(ValueError):
        build_hamiltonian(OperatorSpec(name="sx2"), spins)
    with pytest.raises(ValueError):
        build_coupling(OperatorSpec(name="tr_invariant"), spins)


def test_named_couplings_match_their_products(spins):
    sx, sy, sz = spins.sx, spins.sy, spins.sz
    expected = {
        "sy2": sy @ sy,
        "sxsy_sym": sx @ sy + sy @ sx,
        "sxsysz": sx @ sy @ sz,
        "sysz": sy @ sz,
        "sx2": sx @ sx,
        "sz": sz,
        "isz": 1j * sz,
        "sx": sx,
        "sxsysz_sym": sx @ sy @ sz + sz @ sy @ sx,
        "i_sxsysz_asym": 1j * (sx @ sy @ sz - sz @ sy @ sx),
        "i_sxsysz_sym": 1j * (sx @ sy @ sz + sz @ sy @ sx),
        "sxsy": sx @ sy,
        "sx2sz": sx @ sx @ sz,
    }
    assert set(expected) == _known_names() - set(HAMILTONIANS)
    for name, mat in expected.items():
        built = build_coupling(OperatorSpec(name=name), spins)
        assert np.allclose(built, mat, atol=1e-15), name


def test_anticommuting_pair_value(spins):
    # {Sx, Sz} for spin 3/2 is the tr_invariant Hamiltonian at scale 1
    h = build_hamiltonian(OperatorSpec(name="tr_invariant"), spins)
    assert np.allclose(h, spins.sx @ spins.sz + spins.sz @ spins.sx,
                       atol=1e-15)


def _literal(matrix, scale):
    return OperatorSpec(matrix=np.array(matrix, complex), scale=scale)


@pytest.mark.parametrize("spec", [
    _literal([[1e200, 0, 0, 0], [0, 1e200, 0, 0], [0, 0, 0, 0],
              [0, 0, 0, 1]], 1e200),
    _literal([[0, 1e200, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
             1.0),
    _literal([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
             1e308),
    _literal([[0, 1e200, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
             -1.0),
    _literal([[1e200, 0, 0, 0], [0, 1e200, 0, 0], [0, 0, 0, 0],
              [0, 0, 0, 1]], -1e200),
    _literal(np.diag([0, 0, 1e153, 1e153]), 1e100),
    OperatorSpec(name="both_symmetric", scale=1e300),
    OperatorSpec(name="both_symmetric", scale=-1e300),
], ids=["scaled-1e200", "non-hermitian-1e200", "e_g-1e308",
        "non-hermitian-1e200-e_g-minus-1", "scaled-minus-1e200",
        "norm-after-e_g", "named-e_g-1e300", "named-e_g-minus-1e300"])
def test_a_hamiltonian_whose_norm_overflows_is_refused_quietly(spins, spec):
    # refused before the product and before the Hermiticity test, whose
    # inf > inf would pass a non-Hermitian matrix, and after the product,
    # whose entries can be finite while their squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^hamiltonian: .* e_g"):
            build_hamiltonian(spec, spins)


@pytest.mark.parametrize("spec", [
    OperatorSpec(matrix=np.diag([1e200, 0, 0, 1]).astype(complex),
                 scale=1e200),
    OperatorSpec(matrix=np.diag([1e200, 0, 0, 1]).astype(complex),
                 scale=-1e200),
    OperatorSpec(name="sz", scale=1e200),
    OperatorSpec(name="sz", scale=-1e200),
], ids=["matrix-times-scale", "matrix-times-minus-scale", "norm-after-scale",
        "norm-after-minus-scale"])
def test_a_coupling_whose_norm_overflows_is_refused_quietly(spins, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coupling: "):
            build_coupling(spec, spins)


def test_spin_matrices_are_built_once_and_read_only():
    t = spin_matrices(2.5)
    assert spin_matrices(2.5) is t
    for arr in (t.sx, t.sy, t.sz):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        t.sz[0, 0] = 0.0


def test_the_readme_catalog_lists_exactly_the_named_operators():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Operator name catalog")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(operators._COUPLINGS)
    line = section.split("Hamiltonian names")[1].split("\n\n")[0]
    assert sorted(re.findall(r"`(\w+)`", line)) == sorted(
        operators._HAMILTONIANS)
