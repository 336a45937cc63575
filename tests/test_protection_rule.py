"""The paper's protection rule, `classify.protected`, against the table's
16 literal expectations, against random couplings in every symmetry class,
with and without a phase, under the transformations the generator does not
see, and on the time-reversal route beyond spin 3/2."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np

from lindsymlab.classify import (Scenario, SymmetryClaims, _claimed,
                                 compute_signature, doublet_block, prepare,
                                 protected, run_scenario)
from lindsymlab.observables import Coherence
from lindsymlab.operators import (OperatorSpec, build_coupling,
                                  build_hamiltonian)
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



def test_catalog_expectations_are_the_papers(scenarios):
    want = {f"{ham}:{op}": Coherence.COHERENT if coherent
            else Coherence.DECOHERENT for ham, op, coherent in PAPER_TABLE}
    assert {name: sc.expected_coherence
            for name, sc in scenarios.items()} == want


def test_hamiltonian_signatures(hams):
    # the catalog states each Hamiltonian's three columns as data and
    # derives the fourth; all four are measured here, not on every run
    assert {name: compute_signature(h)[0] for name, h in hams.items()} == {
        name: _claimed(name) for name in hams}


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


def _scenario(ham, o, claims):
    """A random draw as a Scenario whose expected verdict is the rule's."""
    coherent = protected(_claimed(ham), claims)
    return Scenario(name=f"{ham}:random", hamiltonian=OperatorSpec(name=ham),
                    coupling=OperatorSpec(matrix=o), claims=claims,
                    expected_coherence=(Coherence.COHERENT if coherent
                                        else Coherence.DECOHERENT))


def _assert_the_routes_follow_the_rule(v, label):
    """The doublet block, Schur and oracle routes equal the rule; the
    dynamics route may read Ambiguous, when decoherence is too slow to
    reach its threshold by gamma*t = 20, but never the opposite."""
    coherent = v.expected_coherence is Coherence.COHERENT
    routes = (v.block_identity, v.schur_proportional, v.oracle_coherent)
    assert routes == (coherent,) * 3, (label, routes)
    assert v.measured_coherence is not (
        Coherence.DECOHERENT if coherent else Coherence.COHERENT), (
        label, v.peak_entropy)


def _random_draws(hams, trev, group):
    """(Hamiltonian, claims, coupling): 3 seeded draws per signature class
    and Hamiltonian. A generic draw is a phase times a Hermitian T-even
    operator only when it is one itself."""
    rng = np.random.default_rng(0)
    draws = []
    for ham, signature, _ in itertools.product(
            hams, itertools.product((True, False), repeat=3), range(3)):
        claims = SymmetryClaims(*signature, signature[0] and signature[1])
        draws.append((ham, claims, _draw(rng, claims, trev, group)))
    return draws


def test_random_couplings_in_every_class_follow_the_rule(hams, trev, group):
    ambiguous = []
    draws = _random_draws(hams, trev, group)
    for ham, claims, o in draws:
        assert compute_signature(o)[0] == claims, (ham, claims)
        [v] = run_scenario([_scenario(ham, o, claims)])
        _assert_the_routes_follow_the_rule(v, (ham, str(claims)))
        if v.measured_coherence is Coherence.AMBIGUOUS:
            ambiguous.append((ham, str(claims), v.peak_entropy))
    print(f"\n{len(ambiguous)} of {len(draws)} draws Ambiguous at "
          f"gamma*t = 20: {ambiguous}")


def test_random_couplings_times_a_phase_follow_the_rule(hams, trev, group):
    # e^{i phi} O leaves the generator unchanged. At a generic phase every
    # draw reads non-Hermitian and T-odd, and the rule's T clause, read up
    # to the phase, keeps the verdict of the unphased draw
    draws = _random_draws(hams, trev, group)
    phases = np.random.default_rng(1).uniform(0, 2 * np.pi, len(draws))
    rows = []
    for (ham, claims, o), phi in zip(draws, phases):
        phased = compute_signature(np.exp(1j * phi) * o)[0]
        assert phased == SymmetryClaims(
            False, False, claims.commutes_q,
            claims.hermitian_t_even_up_to_phase), (ham, claims, phi)
        assert protected(_claimed(ham), phased) == protected(
            _claimed(ham), claims)
        rows.append(_scenario(ham, np.exp(1j * phi) * o, phased))
    for sc, v in zip(rows, run_scenario(rows)):
        _assert_the_routes_follow_the_rule(v, (sc.name, str(sc.claims)))


def _rotation(spins, angles):
    """exp(-i (a Sx + b Sy + c Sz)) for angles (a, b, c)."""
    gen = sum(a * s for a, s in zip(angles, (spins.sx, spins.sy, spins.sz)))
    vals, vecs = np.linalg.eigh(gen)
    return vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T


def test_the_rows_keep_their_verdicts_under_what_the_generator_does_not_see(
        scenarios, spins, hams):
    # each transformation leaves every route's verdict and the rule's as
    # they are on the catalog row: a phase of O; H, gamma and t to cH, c
    # gamma and t/c through e_g; and a spin rotation of H and O, on the
    # tr_invariant rows only, since T commutes with rotations and Q8 does
    # not
    rows = sorted(scenarios.values(), key=lambda sc: sc.name)
    couplings = {sc.name: build_coupling(sc.coupling, spins) for sc in rows}
    r = _rotation(spins, (0.3, -1.1, 0.7))

    def spec(matrix):
        return OperatorSpec(matrix=matrix)

    cases = [(f"phase {phi:g}", 0.1, [dataclasses.replace(
        sc, coupling=spec(np.exp(1j * phi) * couplings[sc.name]))
        for sc in rows]) for phi in (0.3, np.pi / 2, 2.0, np.pi)]
    cases += [(f"e_g {c:g}", 0.1 * c, [dataclasses.replace(
        sc, hamiltonian=OperatorSpec(name=sc.hamiltonian.name, scale=c))
        for sc in rows]) for c in (1e-2, 10.0)]
    cases.append(("rotation", 0.1, [dataclasses.replace(
        sc, hamiltonian=spec(r @ hams[sc.hamiltonian.name] @ r.conj().T),
        coupling=spec(r @ couplings[sc.name] @ r.conj().T))
        for sc in rows if sc.name.startswith("tr_invariant:")]))
    for label, gamma, transformed in cases:
        for sc, v in zip(transformed, run_scenario(transformed, gamma)):
            assert v.passed, (label, sc.name)
            rule = protected(
                compute_signature(build_hamiltonian(sc.hamiltonian, spins))[0],
                compute_signature(build_coupling(sc.coupling, spins))[0])
            assert rule == (sc.expected_coherence is Coherence.COHERENT), (
                label, sc.name)


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
