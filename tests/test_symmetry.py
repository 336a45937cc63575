import numpy as np
import pytest

from lindsymlab.operators import spin_matrices
from lindsymlab.symmetry import (AntiUnitaryOp, commutes_with_antiunitary,
                                 commutes_with_unitary, is_hermitian,
                                 quaternion_group, schur_test, time_reversal)

# Independent model of the quaternion units for cross-checking labels:
# q = (sign, axis), axis 0 = 1, 1..3 = i, j, k.
_ABSTRACT = {"e": (1, 0), "e_bar": (-1, 0), "i": (1, 1), "i_bar": (-1, 1),
             "j": (1, 2), "j_bar": (-1, 2), "k": (1, 3), "k_bar": (-1, 3)}


def _abstract_mul(a, b):
    (sa, xa), (sb, xb) = a, b
    if xa == 0 or xb == 0:
        return (sa * sb, xa + xb)
    if xa == xb:
        return (-sa * sb, 0)
    third = 6 - xa - xb
    sign = 1 if (xb - xa) % 3 == 1 else -1
    return (sa * sb * sign, third)


def _product_index(group, a, b):
    """The one index c with elements[a] @ elements[b] == elements[c]."""
    prod = group.elements[a] @ group.elements[b]
    found = [c for c, q in enumerate(group.elements)
             if np.linalg.norm(prod - q) < 1e-12]
    assert len(found) == 1, (a, b, found)
    return found[0]


def test_group_order_and_identity(group):
    assert len(group.elements) == 8
    assert np.allclose(group.elements[0], np.eye(4))
    assert group.labels[0] == "e"
    assert set(group.labels) == set(_ABSTRACT)


def test_cayley_table_matches_matrix_products(group):
    for a in range(8):
        for b in range(8):
            _product_index(group, a, b)


def test_labels_satisfy_quaternion_multiplication(group):
    for a in range(8):
        for b in range(8):
            left = _abstract_mul(_ABSTRACT[group.labels[a]],
                                 _ABSTRACT[group.labels[b]])
            right = _ABSTRACT[group.labels[_product_index(group, a, b)]]
            assert left == right


def test_every_non_central_element_has_order_four(group):
    eye = np.eye(4)
    for k, q in enumerate(group.elements):
        q4 = np.linalg.matrix_power(q, 4)
        assert np.linalg.norm(q4 - eye) < 1e-12
        if group.labels[k] not in ("e", "e_bar"):
            q2 = q @ q
            assert np.linalg.norm(q2 - group.elements[1]) < 1e-12


def test_conjugacy_class_traces(group):
    by_label = dict(zip(group.labels, group.elements))
    classes = [("e",), ("e_bar",), ("i", "i_bar"), ("j", "j_bar"),
               ("k", "k_bar")]
    traces = [np.trace(by_label[c[0]]).real for c in classes]
    assert np.allclose(traces, [4.0, -4.0, 0.0, 0.0, 0.0], atol=1e-13)
    # elements of one class share their trace
    for c in classes:
        for lbl in c[1:]:
            assert abs(np.trace(by_label[lbl]) - np.trace(by_label[c[0]])) < 1e-13


def test_group_elements_are_unitary(group):
    for q in group.elements:
        assert np.linalg.norm(q @ q.conj().T - np.eye(4)) < 1e-13


def test_time_reversal_unitary_part_frozen(trev):
    u_expected = np.array([
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ], dtype=complex)
    assert np.linalg.norm(trev.u - u_expected) < 1e-12
    assert np.linalg.norm(trev.u.imag) < 1e-15


def test_time_reversal_squares(trev):
    assert np.linalg.norm(trev.squared() + np.eye(4)) < 1e-12
    t_int = time_reversal(1.0)
    assert np.linalg.norm(t_int.squared() - np.eye(3)) < 1e-12


def test_time_reversal_flips_all_spin_components(trev, spins):
    for s in (spins.sx, spins.sy, spins.sz):
        assert np.linalg.norm(trev.act_operator(s) + s) < 1e-12


def test_antiunitary_state_action_is_antilinear(trev):
    v = np.array([1.0, 2.0j, 0.0, -1.0])
    assert np.allclose(trev.act_state(2j * v), -2j * trev.act_state(v))


def test_commutes_with_unitary(spins, group):
    by_label = dict(zip(group.labels, group.elements))
    assert commutes_with_unitary(spins.sy @ spins.sy, by_label["j"])
    assert not commutes_with_unitary(spins.sz, by_label["j"])
    assert commutes_with_unitary(spins.sz, by_label["i"])


def test_commutes_with_antiunitary(spins, trev):
    assert commutes_with_antiunitary(spins.sx @ spins.sx, trev)
    assert commutes_with_antiunitary(1j * spins.sz, trev)
    assert not commutes_with_antiunitary(spins.sz, trev)


def test_is_hermitian_classification(spins):
    sx, sy, sz = spins.sx, spins.sy, spins.sz
    assert is_hermitian(sx @ sy + sy @ sx)
    assert not is_hermitian(sx @ sy)
    assert not is_hermitian(1j * sz)
    # the antisymmetrized triple product picks up a factor i and stays
    # Hermitian, which is why it cannot fill a non-Hermitian table slot
    assert is_hermitian(1j * (sx @ sy @ sz - sz @ sy @ sx))
    assert not is_hermitian(1j * (sx @ sy @ sz + sz @ sy @ sx))


def test_schur_on_full_space_is_exact():
    op = np.diag([2.0, 2.0, 2.0]) + 0j
    res = schur_test(np.eye(3), op)
    assert res.proportional
    assert abs(np.trace(op) / 3 - 2.0) < 1e-14
    assert res.residual < 1e-14


def test_schur_detects_non_proportional_block():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    op = np.diag([1.0, 2.0, 5.0]).astype(complex)
    res = schur_test(p, op)
    assert not res.proportional
    assert abs(np.trace(p @ op @ p) / 2 - 1.5) < 1e-14
    assert abs(res.residual - np.sqrt(0.5)) < 1e-12


def test_time_reversal_custom_spin_consistency():
    for s in (0.5, 1.0, 1.5, 2.0):
        t = time_reversal(s)
        triple = spin_matrices(s)
        sign = (-1.0) ** int(round(2 * s))
        assert np.linalg.norm(t.squared() - sign * np.eye(triple.dim)) < 1e-10


def test_antiunitary_op_requires_conjugation_flag_semantics():
    u = np.eye(2, dtype=complex)
    op = AntiUnitaryOp(u=u)
    a = np.array([[0, 1j], [0, 0]], dtype=complex)
    assert np.allclose(op.act_operator(a), a.conj())


def test_quaternion_group_is_built_once_and_read_only():
    group = quaternion_group()
    assert quaternion_group() is group
    for arr in group.elements:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        group.elements[0][0, 0] = 2.0


def test_time_reversal_is_built_once_per_spin_and_read_only():
    t = time_reversal(3.5)
    assert time_reversal(3.5) is t
    assert not t.u.flags.writeable
    with pytest.raises(ValueError):
        t.u[0, 0] = 2.0
