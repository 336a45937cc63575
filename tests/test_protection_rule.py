"""The paper's protection rule, `classify.protected`, against the table's
16 literal expectations, against random couplings in every symmetry class,
and on the time-reversal route beyond spin 3/2."""

import itertools
from types import SimpleNamespace

import numpy as np

from lindsymlab.classify import (Scenario, SymmetryClaims, compute_signature,
                                 doublet_block, prepare, protected,
                                 run_scenario)
from lindsymlab.observables import Coherence
from lindsymlab.operators import OperatorSpec
from lindsymlab.symmetry import (commutes_with_antiunitary, is_hermitian,
                                 time_reversal)

# The paper's expected fate of coherence for each of the 16 table rows.
PAPER_TABLE = (
    ("q_symmetric", "sy2", True),
    ("q_symmetric", "sxsy_sym", False),
    ("q_symmetric", "sxsysz", True),
    ("q_symmetric", "sysz", False),
    ("tr_invariant", "sx2", True),
    ("tr_invariant", "sz", False),
    ("tr_invariant", "isz", False),
    ("tr_invariant", "sxsysz", False),
    ("both_symmetric", "sx2", True),
    ("both_symmetric", "sxsy_sym", True),
    ("both_symmetric", "sxsysz_sym", True),
    ("both_symmetric", "sx", False),
    ("both_symmetric", "i_sxsysz_sym", True),
    ("both_symmetric", "sxsy", False),
    ("both_symmetric", "sxsysz", True),
    ("both_symmetric", "sx2sz", False),
)

# (hermitian, [H,T]=0, [H,Q]=0) of each Hamiltonian, as the rule reads them.
HAMILTONIAN_SIGNATURES = {
    "q_symmetric": SymmetryClaims(True, False, True),
    "tr_invariant": SymmetryClaims(True, True, False),
    "both_symmetric": SymmetryClaims(True, True, True),
}


def test_catalog_expectations_are_the_papers(scenarios):
    want = {f"{ham}:{op}": Coherence.COHERENT if coherent
            else Coherence.DECOHERENT for ham, op, coherent in PAPER_TABLE}
    assert {name: sc.expected_coherence
            for name, sc in scenarios.items()} == want


def test_hamiltonian_signatures(hams):
    assert {name: compute_signature(h)[0]
            for name, h in hams.items()} == HAMILTONIAN_SIGNATURES


def _draw(rng, claims, trev, group):
    """A random 4x4 coupling in the class claims names, scaled to the
    Frobenius norm of Sx at spin 3/2.

    The group average over Q8, the T-even part (A + T A T^-1) / 2 and the
    Hermitian part are alternated, each applied only when claims asks for
    its property; the other properties fail on a generic draw.
    """
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for _ in range(10):
        if claims.commutes_q:
            a = sum(q @ a @ q.conj().T for q in group.elements) / len(
                group.elements)
        if claims.commutes_t:
            a = (a + trev.act_operator(a)) / 2
        if claims.hermitian:
            a = (a + a.conj().T) / 2
    return a * (np.sqrt(5.0) / np.linalg.norm(a))


def test_random_couplings_in_every_class_follow_the_rule(hams, trev, group):
    # the doublet block, Schur and oracle routes equal the rule on every
    # draw; the dynamics route may read Ambiguous, when decoherence is too
    # slow to reach its threshold by gamma*t = 20, but never the opposite
    rng = np.random.default_rng(0)
    ambiguous = []
    draws = list(itertools.product(
        hams, itertools.product((True, False), repeat=3), range(3)))
    for ham, signature, _ in draws:
        claims = SymmetryClaims(*signature)
        o = _draw(rng, claims, trev, group)
        assert compute_signature(o)[0] == claims, (ham, claims)
        coherent = protected(HAMILTONIAN_SIGNATURES[ham], claims)
        [v] = run_scenario([Scenario(
            name=f"{ham}:random", hamiltonian=OperatorSpec(name=ham),
            coupling=OperatorSpec(matrix=o), claims=claims,
            expected_coherence=(Coherence.COHERENT if coherent
                                else Coherence.DECOHERENT))])
        routes = (v.block_identity, v.schur_proportional, v.oracle_coherent)
        assert routes == (coherent,) * 3, (ham, claims, routes)
        assert v.measured_coherence is not (
            Coherence.DECOHERENT if coherent else Coherence.COHERENT), (
            ham, claims, v.peak_entropy)
        if v.measured_coherence is Coherence.AMBIGUOUS:
            ambiguous.append((ham, str(claims), v.peak_entropy))
    print(f"\n{len(ambiguous)} of {len(draws)} draws Ambiguous at "
          f"gamma*t = 20: {ambiguous}")


def test_time_reversal_protects_hermitian_couplings_beyond_spin_3_2():
    # the quaternion group is represented at spin 3/2 only, but the
    # anti-unitary route needs no group: a T-even coupling keeps the
    # Kramers doublet's block proportional exactly when it is Hermitian
    rng = np.random.default_rng(0)
    wrong = []
    for spin, ham in itertools.product((2.5, 3.5),
                                       ("tr_invariant", "both_symmetric")):
        trev = time_reversal(spin)
        d = int(2 * spin) + 1
        for hermitian, _ in itertools.product((True, False), range(5)):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o = (a + trev.act_operator(a)) / 2
            if hermitian:
                o = (o + o.conj().T) / 2
            assert commutes_with_antiunitary(o, trev)
            assert is_hermitian(o) == hermitian
            system = prepare(SimpleNamespace(
                hamiltonian=OperatorSpec(name=ham),
                coupling=OperatorSpec(matrix=o)), spin=spin)
            assert system.basis.shape[1] == 2
            if doublet_block(system).proportional != hermitian:
                wrong.append((spin, ham, hermitian))
    assert wrong == []
