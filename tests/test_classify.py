import dataclasses
import warnings

import numpy as np
import pytest

from lindsymlab import classify, observables, operators, symmetry
from lindsymlab.cli import main
from lindsymlab.classify import (Scenario, SymmetryClaims, Verdict,
                                 compute_signature,
                                 doublet_block, prepare, probe_densities,
                                 propagate, reproduce_table,
                                 response_oracle_coherent, run_scenario)
from lindsymlab.lindblad import vec
from lindsymlab.observables import (Coherence, coherence_verdict,
                                    observe_subspace)
from lindsymlab.operators import OperatorSpec, build_coupling, spin_matrices
from lindsymlab.symmetry import schur_test


def test_catalog_shape(scenarios):
    assert len(scenarios) == 16
    names = list(scenarios)
    assert len(set(names)) == 16
    coherent = [sc.name for sc in scenarios.values()
                if sc.expected_coherence is Coherence.COHERENT]
    assert len(coherent) == 8
    # per-Hamiltonian split of coherent rows
    blocks = {"q_symmetric": 2, "tr_invariant": 1, "both_symmetric": 5}
    for ham, want in blocks.items():
        got = sum(1 for n in coherent if n.startswith(ham + ":"))
        assert got == want, (ham, got)


def test_both_symmetric_block_covers_all_signatures(scenarios):
    sigs = {sc.claims for sc in scenarios.values()
            if sc.name.startswith("both_symmetric:")}
    assert len(sigs) == 8


def test_compute_signature_spot_checks():
    cases = {
        "sy2": ((True, True, True, True), ()),
        "isz": ((False, True, False, False), ("j", "j_bar", "k_bar", "k")),
        "sxsysz": ((False, False, True, False), ()),
        "sx": ((True, False, False, False), ("i", "i_bar", "j", "j_bar")),
        "sx2sz": ((False, False, False, False), ("j", "j_bar", "k_bar", "k")),
    }
    spins = spin_matrices(1.5)
    for name, (want, fails_on) in cases.items():
        claims, failing = compute_signature(
            build_coupling(OperatorSpec(name=name), spins))
        assert claims == SymmetryClaims(*want), name
        assert failing == fails_on, name


def test_claims_render_human_readable():
    s = str(SymmetryClaims(hermitian=True, commutes_t=False, commutes_q=True,
                           hermitian_t_even_up_to_phase=False))
    assert "herm=yes" in s
    assert "no" in s


def test_prepare_selects_pairing_by_time_reversal_symmetry(scenarios, trev):
    by = scenarios
    # time-reversal-symmetric Hamiltonian: basis columns are a Kramers pair
    sys_tr = prepare(by["tr_invariant:sx2"])
    partner = trev.act_state(sys_tr.basis[:, 0])
    assert abs(abs(sys_tr.basis[:, 1].conj() @ partner) - 1.0) < 1e-12
    # anti-commuting case cannot be paired and must still prepare cleanly
    sys_q = prepare(by["q_symmetric:sy2"])
    assert sys_q.basis.shape[1] == 2


@pytest.mark.parametrize("hamiltonian, spin, dim", [
    pytest.param(OperatorSpec(name="both_symmetric"), 1.0, 1, id="spin-1"),
    pytest.param(OperatorSpec(matrix=np.eye(4)), 1.5, 4, id="identity")])
def test_prepare_refuses_a_ground_level_that_is_not_a_doublet(hamiltonian,
                                                              spin, dim):
    # every route reads a two-column basis; a one-dimensional level has no
    # probes, and under H = I the whole space would pose as the doublet
    sc = Scenario(name="not_a_doublet", hamiltonian=hamiltonian,
                  coupling=OperatorSpec(name="sx2"),
                  expected_coherence=Coherence.COHERENT,
                  claims=SymmetryClaims(True, True, True, True))
    message = f"has dimension {dim}, need a doublet"
    with pytest.raises(ValueError, match=message):
        prepare(sc, spin=spin)
    if spin == 1.5:
        with pytest.raises(ValueError, match=message):
            run_scenario([sc])


def test_probe_states_layout(scenarios):
    system = prepare(scenarios["both_symmetric:sx"])
    equal, quarter, basis = probes = probe_densities(system.basis)
    assert probes.shape == (3, 4, 4)
    p = system.basis @ system.basis.conj().T
    for rho in probes:
        # a pure state inside the doublet
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.norm(rho @ rho - rho) < 1e-12
        assert np.linalg.norm(p @ rho @ p - rho) < 1e-12
    # the three probes are genuinely different states: the overlap
    # |<a|b>|^2 = tr(rho_a rho_b)
    assert abs(np.trace(equal @ quarter) - 1.0) > 1e-3
    assert abs(np.trace(equal @ basis) - 1.0) > 1e-3


def test_probes_of_a_stack_of_bases_are_each_basis_probes(scenarios):
    # one call on the (16, 4, 2) stack gives each row's own probes as
    # uint64, and one basis gives the outer products of the three states
    bases = np.stack([prepare(sc).basis for sc in scenarios.values()])
    probes = probe_densities(bases)
    assert probes.shape == (16, 3, 4, 4)
    for basis, row in zip(bases, probes):
        fp, fm = basis[:, 0], basis[:, 1]
        outer = np.stack([np.outer(psi, psi.conj())
                          for psi in ((fp + fm) / np.sqrt(2.0),
                                      (fp + 1j * fm) / np.sqrt(2.0), fp)])
        for got in (row, probe_densities(basis)):
            assert np.array_equal(got.view(np.uint64), outer.view(np.uint64))


def test_run_scenario_protected_row(scenarios, probe_figures):
    [v] = run_scenario([scenarios["q_symmetric:sy2"]])
    system = prepare(scenarios["q_symmetric:sy2"])
    p = system.basis @ system.basis.conj().T
    assert v.passed
    assert v.measured_coherence is Coherence.COHERENT
    assert v.block_identity
    assert v.schur_proportional
    assert v.peak_entropy < 1e-9
    fig = probe_figures["q_symmetric:sy2"]
    assert fig["max_drift"] < 1e-9
    assert fig["trace_err"] < 1e-10
    assert fig["herm_err"] < 1e-10
    assert fig["min_eig"] > -1e-10
    # the Schur coefficient tr(P O P) / rank(P)
    assert abs(np.trace(p @ system.o @ p) / 2 - 1.25) < 1e-12


def test_run_scenario_decoherent_row(scenarios, probe_figures):
    [v] = run_scenario([scenarios["tr_invariant:sz"]])
    assert v.passed
    assert v.measured_coherence is Coherence.DECOHERENT
    assert not v.block_identity
    assert v.peak_entropy > 0.5
    # terminal state is the maximally mixed doublet, reached stationarily
    assert abs(v.terminal_entropy - np.log(2.0)) < 1e-6
    assert np.linalg.norm(probe_figures["tr_invariant:sz"]["terminal_rho_g"]
                          - np.eye(2) / 2) < 1e-6
    assert v.stationarity < 1e-8


def test_run_scenario_builds_one_liouvillian(scenarios, liouvillian_builds):
    run_scenario([scenarios["tr_invariant:sz"]], gamma=0.05)
    assert len(liouvillian_builds) == 1
    assert liouvillian_builds[0][2] == 0.05


def test_run_scenario_worst_probe_decides(scenarios):
    # hermitian coupling failing both protections: one probe looks frozen
    # but the other two decohere, and the worst probe wins
    [v] = run_scenario([scenarios["both_symmetric:sx"]])
    assert v.measured_coherence is Coherence.DECOHERENT
    assert v.passed


def test_run_scenario_reports_an_ambiguous_row(scenarios, monkeypatch):
    # with the thresholds at 1e-6 and 1: one probe stays frozen
    # (Coherence), the other two peak at ln 2 between the thresholds
    # (Ambiguous), and the worst probe decides the row
    monkeypatch.setattr(observables, "DEFAULT_DEC_TOL", 1.0)
    [v] = run_scenario([scenarios["both_symmetric:sx"]])
    assert v.measured_coherence is Coherence.AMBIGUOUS
    assert not v.passed
    assert 1e-2 < v.peak_entropy < 1e2


def test_response_oracle_matches_on_gauge_trap(scenarios):
    def oracle(name):
        system = prepare(scenarios[name])
        return response_oracle_coherent(system,
                                        probe_densities(system.basis))

    assert oracle("q_symmetric:sy2")
    assert oracle("both_symmetric:sxsysz")
    # decoherent despite one probe's correction staying proportional
    assert not oracle("both_symmetric:sx")
    assert not oracle("tr_invariant:sxsysz")


def test_response_oracle_calls_no_propagator(scenarios, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a propagator")

    monkeypatch.setattr(classify, "evolve_expm", refuse)
    monkeypatch.setattr(classify, "evolve_rk4", refuse)
    systems = {name: prepare(scenarios[name])
               for name in ("q_symmetric:sy2", "both_symmetric:sxsysz",
                            "both_symmetric:sx", "tr_invariant:sxsysz")}
    verdicts = {name: response_oracle_coherent(system,
                                               probe_densities(system.basis))
                for name, system in systems.items()}
    assert verdicts == {"q_symmetric:sy2": True,
                        "both_symmetric:sxsysz": True,
                        "both_symmetric:sx": False,
                        "tr_invariant:sxsysz": False}


def test_reproduce_table_subset(scenarios, monkeypatch, tmp_path):
    picks = [sc for sc in scenarios.values()
             if sc.name in ("tr_invariant:sx2", "tr_invariant:isz")]
    monkeypatch.setattr(classify, "catalog", lambda: picks)
    verdicts = reproduce_table()
    assert all(v.passed for v in verdicts)
    assert all(v.oracle_agrees for v in verdicts)
    assert len(verdicts) == 2
    # aggregation is name-ordered regardless of input order
    assert [v.name for v in verdicts] == ["tr_invariant:isz",
                                          "tr_invariant:sx2"]
    assert main(["table", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table.txt").read_text()
    assert "rows matching: 2/2" in text
    assert "signature -> row assignment" in text
    for line in text.splitlines():
        if line.startswith("tr_invariant:isz"):
            assert "Decoherence" in line
            assert "ok" in line


def test_audit_lists_rows_outside_the_catalog(scenarios, monkeypatch,
                                               tmp_path):
    import dataclasses
    custom = dataclasses.replace(scenarios["tr_invariant:sz"],
                                 name="custom:sz")
    monkeypatch.setattr(classify, "catalog", lambda: [custom])
    assert main(["table", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table.txt").read_text()
    audit = text.split("signature -> row assignment (audit):")[1]
    assert "custom:sz" in audit
    assert str(custom.claims) in audit


def test_every_claimed_signature_is_measured(scenarios, spins):
    # the claims are constant data, so they are checked here, where a
    # change to the code could break them, and not on every run
    for name, sc in scenarios.items():
        o = build_coupling(sc.coupling, spins)
        assert compute_signature(o)[0] == sc.claims, name


def test_routes_agree_reads_no_expectation(scenarios):
    # a decoherent row expected coherent: every route says Decoherence, so
    # they agree, and only the expectation fails the row
    wrong = dataclasses.replace(scenarios["tr_invariant:sz"],
                                expected_coherence=Coherence.COHERENT)
    [v] = run_scenario([wrong])
    assert v.measured_coherence is Coherence.DECOHERENT
    assert v.routes_agree
    assert not v.passed


def test_a_table_makes_one_expm_and_one_oracle_eigh_per_row(
        record_calls, expm_calls, response_eighs):
    # each row's Liouvillian is exponentiated once, as one slice of a
    # single expm call on the stack, and its three probes run through one
    # delta_rho, which diagonalizes H once, on any grid: at gamma = 0.1 the
    # steps of linspace(0, 20 / gamma, 201) take one value, at 0.3 they
    # take 9
    deltas = record_calls("response.delta_rho")
    for gamma in (0.1, 0.3):
        expm_calls.clear()
        deltas.clear()
        response_eighs.clear()
        verdicts = reproduce_table(gamma=gamma)
        assert all(v.passed and v.oracle_agrees for v in verdicts), gamma
        assert len(verdicts) == 16
        assert (len(expm_calls), len(deltas), len(response_eighs)) == (
            1, 16, 16), gamma
        assert expm_calls[0][0].shape == (16, 16, 16), gamma


_WORST_FIRST = (Coherence.AMBIGUOUS, Coherence.DECOHERENT, Coherence.COHERENT)


def _run_scenario_reference(sc, gamma, horizon=20.0):
    """One row end to end through its own calls, the way the table ran
    before it became one stack: the reference the stacked table is pinned
    to. Returns the row's Verdict and the values its pass, route-agreement
    and oracle-agreement rules must give."""
    system = prepare(sc, gamma)
    probes = probe_densities(system.basis)
    traj = propagate(system, probes, horizon / gamma)
    s_v, trace_g, _ = observe_subspace(traj, system.basis)
    verdicts = {coherence_verdict(probe) for probe in s_v}
    combined = next(v for v in _WORST_FIRST if v in verdicts)
    bi = doublet_block(system)
    projector = system.basis @ system.basis.conj().T
    schur_o = schur_test(projector, system.o)
    schur_q = schur_test(projector, system.o.conj().T @ system.o)
    oracle_coherent = response_oracle_coherent(system, probes)
    coherent = combined is Coherence.COHERENT
    routes_agree = (bi.proportional == coherent
                    and (schur_o.proportional and schur_q.proportional)
                    == coherent
                    and oracle_coherent == coherent)
    return Verdict(
        name=sc.name, claims=sc.claims,
        expected_coherence=sc.expected_coherence,
        measured_coherence=combined,
        oracle_coherent=oracle_coherent,
        block_identity=bi.proportional, block_residual=bi.residual,
        schur_proportional=schur_o.proportional and schur_q.proportional,
        schur_residual=schur_o.residual,
        peak_entropy=float(np.max(s_v)),
        terminal_entropy=float(s_v[0, -1]),
        terminal_trace_g=float(trace_g[0, -1]),
        stationarity=float(np.linalg.norm(system.liouvillian
                                          @ vec(traj.states[0, -1]))),
    ), {"passed": routes_agree and combined == sc.expected_coherence,
        "oracle_agrees": oracle_coherent == coherent,
        "routes_agree": routes_agree}


@pytest.mark.parametrize("gamma", [0.025, 0.1, 0.4])
def test_the_stacked_table_matches_one_row_at_a_time(scenarios, gamma):
    # every field of every row, floats as uint64, and what the row's pass,
    # route- and oracle-agreement rules give
    verdicts = reproduce_table(gamma=gamma)
    assert len(verdicts) == 16
    for v in verdicts:
        ref, rules = _run_scenario_reference(scenarios[v.name], gamma)
        for rule, want in rules.items():
            got = getattr(v, rule)
            assert type(got) is type(want) and got == want, (v.name, rule)
        for field in dataclasses.fields(Verdict):
            got, want = getattr(v, field.name), getattr(ref, field.name)
            assert type(got) is type(want), (v.name, field.name)
            if isinstance(want, float):
                assert np.array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(want).view(np.uint64)), (
                    v.name, field.name)
            else:
                assert got == want, (v.name, field.name)


def test_a_table_propagates_and_observes_once(record_calls, expm_calls,
                                              monkeypatch):
    # one call of each on the whole (16, 3, 4, 4) probe stack; one expm
    # call exponentiates the 16 rows' Liouvillians, and the oracle corrects
    # each row's three probes in its own call. The entropy's eigvalsh on the
    # observed doublet blocks is the only one: no stored state is scanned
    evolves = record_calls("lindblad.evolve_expm")
    observes = record_calls("observables.observe_subspace")
    deltas = record_calls("response.delta_rho")
    eigvalsh, spectra = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: spectra.append(a.shape) or eigvalsh(a))
    verdicts = reproduce_table()
    assert all(v.passed and v.oracle_agrees for v in verdicts)
    assert (len(evolves), len(observes), len(deltas)) == (1, 1, 16)
    rho0, l_mat = evolves[0][:2]
    assert rho0.shape == (16, 3, 4, 4) and l_mat.shape == (16, 16, 16)
    assert all(call[0].shape == (3, 4, 4) for call in deltas)
    assert [args[0].shape for args in expm_calls] == [(16, 16, 16)]
    assert spectra == [(16, 3, 201, 2, 2)]


def test_a_fresh_table_builds_time_reversal_once():
    symmetry.time_reversal.cache_clear()
    operators.spin_matrices.cache_clear()
    reproduce_table()
    assert symmetry.time_reversal.cache_info().misses == 1
    assert operators.spin_matrices.cache_info().misses == 1


def test_a_table_whose_t_max_overflows_is_refused_by_the_sample_grid():
    # horizon / gamma = 20 / 1e-320 is inf: the grid refuses it before
    # linspace makes a NaN grid that every later step would warn on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_max must be a finite "
                           "number > 0, got inf"):
            reproduce_table(gamma=1e-320)
