import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lindsymlab import classify, cli, observables
from lindsymlab.classify import catalog
from lindsymlab.cli import build_parser, cmd_table, main
from lindsymlab.observables import Coherence
from lindsymlab.operators import spin_matrices

LN2 = np.log(2.0)


def _write_cfg(tmp_path, name="cfg.json", **kw):
    base = {"hamiltonian": "tr_invariant", "coupling": "sx2",
            "gamma": 0.1, "t_max": 50.0, "n_samples": 51}
    base.update(kw)
    base = {k: v for k, v in base.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


# Every key of simulate's summary.json, in its sorted order: the run's
# inputs, the CSV name, and the route fields classify.decide returns.
SUMMARY_KEYS = ["block_identity", "block_residual", "csv", "gamma",
                "integrator", "oracle_coherent", "peak_entropy",
                "schur_proportional", "schur_residual", "stationarity",
                "t_max", "terminal_entropy", "terminal_trace_g", "verdict"]


def test_simulate_coherent_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "verdict: Coherence" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == SUMMARY_KEYS
    assert summary["verdict"] == "Coherence"
    assert summary["block_identity"] is True
    assert summary["block_residual"] < 1e-9
    assert summary["stationarity"] < 1e-8
    assert summary["peak_entropy"] < 1e-6
    # population may equilibrate between the doublets; only the
    # normalized subspace state is protected
    assert 0.0 < summary["terminal_trace_g"] <= 1.0 + 1e-9
    assert summary["integrator"] == "expm"
    assert summary["gamma"] == 0.1

    header, data = _read_csv(out / "trajectory.csv")
    assert header == ["t", "gamma_t", "s_v", "trace_g", "re_rho_pp",
                      "re_rho_pm", "im_rho_pm", "re_rho_mm"]
    assert data.shape == (51, 8)
    assert data[0, 0] == 0.0
    assert data[0, 4] == pytest.approx(0.5, abs=1e-12)  # |equal> block
    assert data[0, 5] == pytest.approx(0.5, abs=1e-12)
    assert np.max(data[:, 2]) < 1e-6  # entropy stays flat


def test_simulate_decoherent_run(tmp_path):
    cfg = _write_cfg(tmp_path, coupling="sz", t_max=None)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # t_max falls back to horizon gamma*t = 20
    assert summary["t_max"] == pytest.approx(200.0)
    assert summary["verdict"] == "Decoherence"
    assert abs(summary["terminal_entropy"] - LN2) < 1e-6
    assert summary["block_identity"] is False


def test_simulate_integrator_and_gamma_overrides(tmp_path):
    # the config's gamma and integrator override the defaults, 0.1 and expm
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, integrator in ((out_a, None), (out_b, "rk4")):
        cfg = _write_cfg(tmp_path, coupling="sz", t_max=2.0, n_samples=11,
                         gamma=0.05, integrator=integrator)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa["gamma"] == 0.05
    assert sa["integrator"] == "expm"
    assert sb["integrator"] == "rk4"
    # the two integration routes agree through the CLI as well
    _, da = _read_csv(out_a / "trajectory.csv")
    _, db = _read_csv(out_b / "trajectory.csv")
    assert np.allclose(da[:, 0], db[:, 0], atol=1e-12)
    assert np.max(np.abs(da[:, 2:] - db[:, 2:])) < 1e-8


def test_simulate_deterministic_output(tmp_path):
    cfg = _write_cfg(tmp_path, t_max=5.0, n_samples=21)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == \
        (out_b / "summary.json").read_bytes()
    text = (out_a / "trajectory.csv").read_text()
    assert "-0.00000000000e+00" not in text
    assert text.endswith("\n")
    assert "\r" not in text


def test_simulate_literal_matrix_coupling(tmp_path):
    sz_rows = [[1.5, 0, 0, 0], [0, 0.5, 0, 0],
               [0, 0, -0.5, 0], [0, 0, 0, -1.5]]
    cfg = _write_cfg(tmp_path, coupling=sz_rows,
                     t_max=5.0, n_samples=11)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    named = _write_cfg(tmp_path, name="named.json", coupling="sz",
                       t_max=5.0, n_samples=11)
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", named, "--out", str(out2)]) == 0
    assert (out / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


def test_table_subset_exit_codes(tmp_path, monkeypatch):
    picks = [sc for sc in catalog()
             if sc.name in ("tr_invariant:sx2", "tr_invariant:isz")]
    parser = build_parser()
    args = parser.parse_args(["table", "--out", str(tmp_path / "ok")])
    monkeypatch.setattr(classify, "catalog", lambda: picks)
    assert cmd_table(args) == 0
    doc = json.loads((tmp_path / "ok" / "table.json").read_text())
    assert doc["all_pass"] is True
    assert doc["oracle_all_agree"] is True
    assert len(doc["rows"]) == 2
    assert (tmp_path / "ok" / "table.txt").read_text().count("ok") >= 2

    # a row with a wrong expectation must flip the exit code to 1
    flipped = [picks[0],
               dataclasses.replace(picks[1],
                                   expected_coherence=Coherence.DECOHERENT
                                   if picks[1].expected_coherence
                                   is Coherence.COHERENT
                                   else Coherence.COHERENT)]
    args = parser.parse_args(["table", "--out", str(tmp_path / "bad")])
    monkeypatch.setattr(classify, "catalog", lambda: flipped)
    assert cmd_table(args) == 1
    doc = json.loads((tmp_path / "bad" / "table.json").read_text())
    assert doc["all_pass"] is False


# table.txt at gamma = 0.1, every byte: its only numbers are gamma and the
# horizon, so it is the same on any BLAS
TABLE_TXT = (
    "scenario                           expected     measured     block schur oracle row \n"
    "------------------------------------------------------------------------------------\n"
    "both_symmetric:i_sxsysz_sym        Coherence    Coherence    yes   yes   ok     ok  \n"
    "both_symmetric:sx                  Decoherence  Decoherence  no    no    ok     ok  \n"
    "both_symmetric:sx2                 Coherence    Coherence    yes   yes   ok     ok  \n"
    "both_symmetric:sx2sz               Decoherence  Decoherence  no    no    ok     ok  \n"
    "both_symmetric:sxsy                Decoherence  Decoherence  no    no    ok     ok  \n"
    "both_symmetric:sxsy_sym            Coherence    Coherence    yes   yes   ok     ok  \n"
    "both_symmetric:sxsysz              Coherence    Coherence    yes   yes   ok     ok  \n"
    "both_symmetric:sxsysz_sym          Coherence    Coherence    yes   yes   ok     ok  \n"
    "q_symmetric:sxsy_sym               Decoherence  Decoherence  no    no    ok     ok  \n"
    "q_symmetric:sxsysz                 Coherence    Coherence    yes   yes   ok     ok  \n"
    "q_symmetric:sy2                    Coherence    Coherence    yes   yes   ok     ok  \n"
    "q_symmetric:sysz                   Decoherence  Decoherence  no    no    ok     ok  \n"
    "tr_invariant:isz                   Decoherence  Decoherence  no    no    ok     ok  \n"
    "tr_invariant:sx2                   Coherence    Coherence    yes   yes   ok     ok  \n"
    "tr_invariant:sxsysz                Decoherence  Decoherence  no    no    ok     ok  \n"
    "tr_invariant:sz                    Decoherence  Decoherence  no    no    ok     ok  \n"
    "------------------------------------------------------------------------------------\n"
    "rows matching: 16/16   (gamma=0.1, horizon gamma*t=20.0)\n"
    "\n"
    "signature -> row assignment (audit):\n"
    "  both_symmetric:i_sxsysz_sym        herm=no [O,T]=0:yes [O,Q]=0:yes            -> Coherence\n"
    "  both_symmetric:sx                  herm=yes [O,T]=0:no [O,Q]=0:no             -> Decoherence\n"
    "  both_symmetric:sx2                 herm=yes [O,T]=0:yes [O,Q]=0:yes           -> Coherence\n"
    "  both_symmetric:sx2sz               herm=no [O,T]=0:no [O,Q]=0:no              -> Decoherence\n"
    "  both_symmetric:sxsy                herm=no [O,T]=0:yes [O,Q]=0:no             -> Decoherence\n"
    "  both_symmetric:sxsy_sym            herm=yes [O,T]=0:yes [O,Q]=0:no            -> Coherence\n"
    "  both_symmetric:sxsysz              herm=no [O,T]=0:no [O,Q]=0:yes             -> Coherence\n"
    "  both_symmetric:sxsysz_sym          herm=yes [O,T]=0:no [O,Q]=0:yes            -> Coherence\n"
    "  q_symmetric:sxsy_sym               herm=yes [O,T]=0:yes [O,Q]=0:no            -> Decoherence\n"
    "  q_symmetric:sxsysz                 herm=no [O,T]=0:no [O,Q]=0:yes             -> Coherence\n"
    "  q_symmetric:sy2                    herm=yes [O,T]=0:yes [O,Q]=0:yes           -> Coherence\n"
    "  q_symmetric:sysz                   herm=no [O,T]=0:yes [O,Q]=0:no             -> Decoherence\n"
    "  tr_invariant:isz                   herm=no [O,T]=0:yes [O,Q]=0:no             -> Decoherence\n"
    "  tr_invariant:sx2                   herm=yes [O,T]=0:yes [O,Q]=0:yes           -> Coherence\n"
    "  tr_invariant:sxsysz                herm=no [O,T]=0:no [O,Q]=0:yes             -> Decoherence\n"
    "  tr_invariant:sz                    herm=yes [O,T]=0:no [O,Q]=0:no             -> Decoherence\n"
)

# table.json at gamma = 0.1, each row's values that are not floats:
# (scenario, expected, measured, block_identity, schur_proportional,
# oracle_agrees, passed); the floats are pinned bit for bit in
# test_classify against the per-row reference
TABLE_JSON_ROWS = (
    ('both_symmetric:i_sxsysz_sym', 'Coherence', 'Coherence', True, True, True, True),
    ('both_symmetric:sx', 'Decoherence', 'Decoherence', False, False, True, True),
    ('both_symmetric:sx2', 'Coherence', 'Coherence', True, True, True, True),
    ('both_symmetric:sx2sz', 'Decoherence', 'Decoherence', False, False, True, True),
    ('both_symmetric:sxsy', 'Decoherence', 'Decoherence', False, False, True, True),
    ('both_symmetric:sxsy_sym', 'Coherence', 'Coherence', True, True, True, True),
    ('both_symmetric:sxsysz', 'Coherence', 'Coherence', True, True, True, True),
    ('both_symmetric:sxsysz_sym', 'Coherence', 'Coherence', True, True, True, True),
    ('q_symmetric:sxsy_sym', 'Decoherence', 'Decoherence', False, False, True, True),
    ('q_symmetric:sxsysz', 'Coherence', 'Coherence', True, True, True, True),
    ('q_symmetric:sy2', 'Coherence', 'Coherence', True, True, True, True),
    ('q_symmetric:sysz', 'Decoherence', 'Decoherence', False, False, True, True),
    ('tr_invariant:isz', 'Decoherence', 'Decoherence', False, False, True, True),
    ('tr_invariant:sx2', 'Coherence', 'Coherence', True, True, True, True),
    ('tr_invariant:sxsysz', 'Decoherence', 'Decoherence', False, False, True, True),
    ('tr_invariant:sz', 'Decoherence', 'Decoherence', False, False, True, True),
)


def test_the_table_files_at_gamma_0_1_are_pinned(tmp_path):
    assert main(["table", "--gamma", "0.1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table.txt").read_text() == TABLE_TXT
    doc = json.loads((tmp_path / "table.json").read_text())
    assert list(doc) == ["all_pass", "gamma", "horizon", "oracle_all_agree",
                         "rows"]
    assert [doc[key] for key in list(doc)[:4]] == [True, 0.1, 20.0, True]
    keys = ["block_identity", "block_residual", "expected", "measured",
            "oracle_agrees", "passed", "peak_entropy", "scenario",
            "schur_proportional", "schur_residual", "terminal_entropy",
            "terminal_trace_g"]
    floats = ["block_residual", "peak_entropy", "schur_residual",
              "terminal_entropy", "terminal_trace_g"]
    fixed = ("scenario", "expected", "measured", "block_identity",
             "schur_proportional", "oracle_agrees", "passed")
    for row, want in zip(doc["rows"], TABLE_JSON_ROWS, strict=True):
        assert list(row) == keys
        assert [k for k in keys if type(row[k]) is float] == floats
        assert tuple(row[k] for k in fixed) == want


def test_table_reports_an_ambiguous_row(tmp_path, capsys, monkeypatch):
    # with the decoherence threshold raised to 1, the decohering probes of
    # both_symmetric:sx peak at ln 2, between the thresholds 1e-6 and 1
    picks = [sc for sc in catalog() if sc.name == "both_symmetric:sx"]
    monkeypatch.setattr(observables, "DEFAULT_DEC_TOL", 1.0)
    monkeypatch.setattr(classify, "catalog", lambda: picks)
    args = build_parser().parse_args(["table", "--out", str(tmp_path)])
    assert cmd_table(args) == 1
    capsys.readouterr()
    row, = json.loads((tmp_path / "table.json").read_text())["rows"]
    assert row["measured"] == "Ambiguous"
    assert row["passed"] is False
    line, = [ln for ln in (tmp_path / "table.txt").read_text().splitlines()
             if ln.startswith("both_symmetric:sx ")]
    assert "Ambiguous" in line
    assert line.split()[-1] == "FAIL"


def _flip_schur(monkeypatch):
    """Every Schur projection reports the opposite proportionality."""
    schur_test = classify.schur_test

    def flipped(projector, op):
        found = schur_test(projector, op)
        return dataclasses.replace(found, proportional=not found.proportional)

    monkeypatch.setattr(classify, "schur_test", flipped)


def _flip_oracle(monkeypatch):
    """The first-order oracle reports the opposite verdict."""
    oracle = classify.response_oracle_coherent
    monkeypatch.setattr(classify, "response_oracle_coherent",
                        lambda system, probes: not oracle(system, probes))


@pytest.mark.parametrize("flip, schur, oracle", [
    pytest.param(_flip_schur, "no", "ok", id="schur"),
    pytest.param(_flip_oracle, "yes", "DIS", id="oracle")])
def test_a_row_whose_routes_disagree_fails(flip, schur, oracle, tmp_path,
                                           capsys, monkeypatch):
    # the dynamics and the doublet block still say Coherence, as the row
    # expects; one other route says otherwise, and the row fails
    picks = [sc for sc in catalog() if sc.name == "tr_invariant:sx2"]
    monkeypatch.setattr(classify, "catalog", lambda: picks)
    flip(monkeypatch)
    assert main(["table", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    doc = json.loads((tmp_path / "table.json").read_text())
    row, = doc["rows"]
    assert (row["expected"], row["measured"], row["block_identity"]) == (
        "Coherence", "Coherence", True)
    assert row["schur_proportional"] is (schur == "yes")
    assert row["oracle_agrees"] is doc["oracle_all_agree"] is (oracle == "ok")
    assert row["passed"] is doc["all_pass"] is False
    line, = [ln for ln in (tmp_path / "table.txt").read_text().splitlines()
             if ln.startswith("tr_invariant:sx2 ")]
    assert line.split()[-3:] == [schur, oracle, "FAIL"]


def _diag_coupling(big):
    return [[big, 0, 0, 0], [0, big, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


_COUPLING_1E154 = [[1e154, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1]]

# S+ at spin 3/2 drains both_symmetric's ground doublet by t_max = 400
_R3 = float(np.sqrt(3.0))
_DRAINED = {"hamiltonian": "both_symmetric", "t_max": 400.0,
            "coupling": [[0, _R3, 0, 0], [0, 0, 2, 0], [0, 0, 0, _R3],
                         [0, 0, 0, 0]]}


@pytest.mark.parametrize("command, kw, keys", [
    pytest.param("simulate", {"integrator": "rk4", "t_max": 1e9},
                 ("t_max", "dt"), id="rk4-step-budget"),
    pytest.param("simulate", {"integrator": "rk4", "dt": 1000, "t_max": 5000},
                 ("dt",), id="rk4-trace-lost"),
    # the trace drifts 2.4e-7: inside RK4's old 1e-6 guard, but past the
    # 1e-9 unit-trace gate the samples are observed through
    pytest.param("simulate", {"hamiltonian": "both_symmetric",
                              "coupling": "sx", "gamma": 0.1, "dt": 6,
                              "t_max": 24, "integrator": "rk4"},
                 ("t_max", "dt"), id="rk4-trace-past-the-observe-gate"),
    pytest.param("sweep", {"integrator": "rk4", "t_max": 1e7},
                 ("t_max", "dt"), id="sweep-rk4-step-budget"),
    # RK4's steps overflow to NaN, and its trace guard refuses them
    pytest.param("simulate", {"integrator": "rk4", "e_g": 1e150, "dt": 0.1},
                 ("dt",), id="rk4-e_g-1e150-dt"),
    pytest.param("sweep", {"integrator": "rk4", "e_g": 1e150, "dt": 0.1},
                 ("dt",), id="sweep-rk4-e_g-1e150-dt"),
    # simulate reads its Liouvillian first, so one that overflows is
    # refused before RK4 runs ...
    pytest.param("simulate", {"integrator": "rk4",
                              "coupling": _COUPLING_1E154},
                 ("Liouvillian", "coupling"), id="rk4-matrix-1e154"),
    # ... but an rk4 sweep builds none, so RK4's own refusals answer
    # these: the channel's rate overflows and the default step is 0.0 ...
    pytest.param("sweep", {"integrator": "rk4", "coupling": _COUPLING_1E154},
                 ("default RK4 step", "coupling"),
                 id="sweep-rk4-matrix-1e154"),
    # ... or a given step overflows to NaN ...
    pytest.param("sweep", {"integrator": "rk4", "coupling": _COUPLING_1E154,
                           "dt": 0.1}, ("nan", "dt"),
                 id="sweep-rk4-matrix-1e154-dt"),
    # ... or the step budget runs out before gamma = 1e308's step of 0.0
    pytest.param("sweep", {"integrator": "rk4", "gammas": [1e300, 1e308]},
                 ("budget", "t_max", "dt"), id="sweep-rk4-gammas-1e300-1e308"),
    pytest.param("simulate", {"coupling": _diag_coupling(1e308)},
                 ("coupling",), id="matrix-1e308"),
    pytest.param("simulate", {"coupling": _diag_coupling(1e154)},
                 ("coupling",), id="matrix-1e154"),
    pytest.param("sweep", {"coupling": _diag_coupling(1e308)},
                 ("coupling",), id="sweep-matrix-1e308"),
    pytest.param("simulate", {"gamma": 1e300, "t_max": 10.0}, ("gamma",),
                 id="gamma-1e300"),
    pytest.param("simulate", {"e_g": 1e300}, ("e_g",), id="e_g-1e300"),
    pytest.param("simulate", {"hamiltonian": _diag_coupling(1e200),
                              "e_g": 1e200}, ("hamiltonian", "e_g"),
                 id="hamiltonian-1e200-e_g-1e200"),
    # not Hermitian, and refused before inf > inf calls it Hermitian
    pytest.param("simulate", {"hamiltonian": [
        [0, 1e200, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]},
                 ("hamiltonian",), id="hamiltonian-non-hermitian-1e200"),
    # a negative e_g overflows the same as a positive one
    pytest.param("simulate", {"hamiltonian": [
        [0, 1e200, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
                              "e_g": -1.0}, ("hamiltonian",),
                 id="hamiltonian-non-hermitian-1e200-e_g-minus-1"),
    pytest.param("simulate", {"hamiltonian": _diag_coupling(1e200),
                              "e_g": -1e200}, ("hamiltonian", "e_g"),
                 id="hamiltonian-1e200-e_g-minus-1e200"),
    # finite entries whose squares overflow: refused after the product,
    # before a symmetry test reads inf <= inf as a symmetry of H
    pytest.param("simulate", {"hamiltonian": "q_symmetric", "e_g": 1e154},
                 ("hamiltonian", "e_g"), id="q_symmetric-e_g-1e154"),
    pytest.param("sweep", {"hamiltonian": "q_symmetric", "e_g": 1e154,
                           "integrator": "rk4"}, ("hamiltonian", "e_g"),
                 id="sweep-rk4-q_symmetric-e_g-1e154"),
    pytest.param("simulate", {"hamiltonian": [
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1e153, 0], [0, 0, 0, 1e153]],
                              "e_g": 1e100}, ("hamiltonian", "e_g"),
                 id="hamiltonian-1e153-e_g-1e100"),
    pytest.param("simulate", _DRAINED, ("t_max", "subspace population"),
                 id="drained-expm"),
    pytest.param("simulate", {**_DRAINED, "integrator": "rk4", "dt": 0.1},
                 ("t_max", "subspace population"), id="drained-rk4"),
    pytest.param("sweep", {**_DRAINED, "gammas": [0.1, 0.2]},
                 ("t_max", "subspace population"), id="sweep-drained"),
    # an RK4 step just outside the stable region keeps the trace but not
    # positivity
    pytest.param("simulate", {"hamiltonian": "both_symmetric",
                              "coupling": "sz", "gamma": 1.0, "t_max": 12.0,
                              "dt": 3.0, "integrator": "rk4"},
                 ("t_max", "eigenvalue"), id="rk4-not-positive"),
    # refused by the sample grid before any trajectory is allocated
    pytest.param("simulate", {"n_samples": 10**9}, ("n_samples",),
                 id="n-samples-1e9-expm"),
    pytest.param("simulate", {"n_samples": 10**9, "integrator": "rk4"},
                 ("n_samples",), id="n-samples-1e9-rk4"),
    pytest.param("sweep", {"n_samples": 10**9}, ("n_samples",),
                 id="sweep-n-samples-1e9"),
    # on the default grid too, H is refused where it is built
    pytest.param("simulate", {"hamiltonian": "both_symmetric", "coupling": "sz",
                              "e_g": 1e300, "t_max": None, "n_samples": 201},
                 ("e_g",), id="e_g-1e300-default-grid"),
    # n_quad is not a key: refused as an unknown one, whatever its value
    pytest.param("sweep", {"n_quad": 2**30}, ("unknown keys", "n_quad"),
                 id="sweep-n-quad-2e30"),
    pytest.param("sweep", {"gammas": [1e-3, 1e-3]}, ("distinct",),
                 id="sweep-one-distinct-gamma"),
    # the initial state is stationary: every discrepancy is exactly zero
    pytest.param("sweep", {"spin": 0.5, "hamiltonian": "q_symmetric",
                           "coupling": "sx"}, ("discrepancy",),
                 id="sweep-zero-discrepancy"),
    # ... and a roundoff-level one fits no exponent either: sxsysz_sym
    # leaves the default state in place, and at gamma 1e-12 or 1e-300 the
    # first-order change is below roundoff
    *(pytest.param("sweep", {"hamiltonian": ham, "coupling": op,
                             "gammas": gammas, "integrator": integrator,
                             "t_max": None},
                   (f"gamma={gammas[0]:g}", f"floor {cli.SWEEP_FLOOR:g}"),
                   id=f"sweep-{integrator}-roundoff-{op}-{gammas[0]:g}")
      for integrator in ("expm", "rk4")
      for ham, op, gammas in (
          ("q_symmetric", "sxsysz_sym", [1e-3, 2e-3, 4e-3]),
          ("both_symmetric", "sx2sz", [1e-12, 2e-12]),
          ("both_symmetric", "sx2sz", [1e-300, 2e-300]))),
    # the floor grows with the integrator's steps: 200 000 expm sample
    # steps leave 3.8e-12 of roundoff at gamma 1e-12, above the 3e-12 a
    # short run is held to
    pytest.param("sweep", {"hamiltonian": "both_symmetric", "coupling": "sx2sz",
                           "gammas": [1e-12, 2e-12], "t_max": None,
                           "n_samples": 200001},
                 ("gamma=1e-12", "200000 steps"),
                 id="sweep-expm-roundoff-200000-steps"),
])
def test_inputs_the_propagators_cannot_integrate_exit_2(command, kw, keys,
                                                        tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **{"n_samples": 3, "gammas": [1e-3, 2e-3],
                                  **kw})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1, err
    for key in keys:
        assert key in err, (key, err)
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["1e154", "1e308"])
def test_table_refuses_a_gamma_whose_liouvillian_overflows(gamma, tmp_path,
                                                           capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["table", "--gamma", gamma, "--out", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: the Liouvillian at gamma=")
    assert "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["1e-20", "1e-30"])
def test_table_refuses_a_gamma_its_propagator_cannot_resolve(gamma, tmp_path,
                                                            capsys):
    # t_max = 20 / gamma is far past what a step propagator resolves: its
    # steps, or expm's own squarings, overflow, and evolve_expm refuses the
    # trajectory without printing a numpy warning first
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["table", "--gamma", gamma, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the expm trajectory")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--gamma", "1e-9"), ("--gamma", "1e-12"), ("--gamma", "1e-15"),
    ("--horizon", "1e9"), ("--horizon", "1e12")])
def test_table_refuses_a_horizon_its_doublet_cannot_be_observed_to(
        flag, value, tmp_path, capsys):
    # t_max = horizon / gamma (1e10 and beyond) is so long that a probe's
    # normalized doublet state goes non-positive, and the table's one
    # observation of its stack fails
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["table", flag, value, "--out", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: the doublet cannot be observed up to t_max=")
    assert err.count("\n") == 1
    assert "--gamma" in err and "--horizon" in err
    assert not out.exists()


_UNDERFLOW = ["--horizon", "5e-324", "--gamma", "10"]


@pytest.mark.parametrize("argv, kw, names", [
    pytest.param(["table", "--horizon", "1e308", "--gamma", "1e-10"], None,
                 ("--horizon 1e+308", "--gamma 1e-10", "is inf"),
                 id="table-overflow"),
    pytest.param(["table", *_UNDERFLOW], None,
                 ("--horizon 5e-324", "--gamma 10.0", "is 0.0"),
                 id="table-underflow"),
    *(pytest.param(["simulate", "--horizon", horizon],
                   {"integrator": integrator, "t_max": None, "gamma": gamma},
                   names, id=f"simulate-{integrator}-{label}")
      for integrator in ("expm", "rk4")
      for horizon, gamma, names, label in (
          ("1e308", 1e-300, ("--horizon 1e+308", "gamma 1e-300", "is inf"),
           "overflow"),
          ("5e-324", 10, ("--horizon 5e-324", "gamma 10.0", "is 0.0"),
           "underflow"))),
    *(pytest.param(["simulate"], {"integrator": integrator, "t_max": None,
                                  "gamma": 1e-320},
                   ("default horizon 20.0", "gamma 1e-320", "is inf"),
                   id=f"simulate-{integrator}-config-gamma")
      for integrator in ("expm", "rk4")),
])
def test_a_horizon_over_gamma_that_is_not_a_finite_positive_t_max_exits_2(
        argv, kw, names, tmp_path, capsys):
    # t_max = horizon / gamma overflows to inf or underflows to 0; it is
    # refused before any grid is built, naming both inputs
    if kw is not None:
        argv = [argv[0], "--config", _write_cfg(tmp_path, **kw), *argv[1:]]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_max = ")
    assert err.count("\n") == 1
    for name in names:
        assert name in err, (name, err)
    assert not out.exists()


@pytest.mark.parametrize("integrator", ["expm", "rk4"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_alpha_beta_at_the_edge_of_the_accepted_norm(sign, integrator,
                                                     tmp_path):
    # |alpha|^2 + |beta|^2 is off one by just under the 1e-9 the config
    # accepts, so the initial trace is too: the propagators hold each
    # sample's trace to rho0's, not to one
    amp = float(np.sqrt((1 + sign * 0.9999999e-9) / 2))
    cfg = _write_cfg(tmp_path, coupling="sz", alpha=amp, beta=amp,
                     integrator=integrator)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").is_file()
    assert (out / "summary.json").is_file()


def test_simulate_spin_31_2_sx2sz_keeps_its_trace(tmp_path):
    # the one-step expm propagator loses 7.6e-12 of trace per step, past
    # DEFAULT_TOL of drift from rho0's trace by sample 132; projected
    # steps keep it
    cfg = _write_cfg(tmp_path, spin=15.5, hamiltonian="both_symmetric",
                     coupling="sx2sz", t_max=None, n_samples=None)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "Decoherence"
    assert summary["block_identity"] is False


@pytest.mark.parametrize("horizon", ["0.01", "1e-310"])
def test_table_refuses_a_horizon_too_short_to_resolve_its_rows(
        horizon, tmp_path, capsys):
    # at gamma*t = 0.01 a decoherent row still reads Ambiguous, and at
    # 1e-310 every decoherent row reads Coherence
    out = tmp_path / "out"
    assert main(["table", "--horizon", horizon, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --horizon {float(horizon)!r} is below ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_table_answers_at_its_shortest_horizon(tmp_path):
    out = tmp_path / "out"
    assert main(["table", "--horizon", repr(cli.MIN_TABLE_HORIZON),
                 "--out", str(out)]) == 0
    assert json.loads((out / "table.json").read_text())["all_pass"] is True


@pytest.mark.parametrize("command, kw", [
    ("simulate", {}), ("sweep", {"gammas": [0.01, 0.02]})])
def test_a_ground_level_that_is_not_a_doublet_exits_2(command, kw, tmp_path,
                                                      capsys):
    # the spin-1 Sz^2 ground level is the single state m = 0
    cfg = _write_cfg(tmp_path, spin=1.0, hamiltonian="both_symmetric", **kw)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hamiltonian: ")
    assert err.count("\n") == 1
    assert "dimension 1, need a doublet" in err
    assert not out.exists()


def _literal(h):
    """A matrix as a config's literal operator: rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in h.tolist()]


@pytest.mark.parametrize("hamiltonian, coupling, verdict", [
    # exactly degenerate and T-even; Sx^2 is the identity on its ground level
    (lambda t: -t.sx @ t.sx, "sx2", "Coherence"),
    # Sz commutes with -Sz^2, and Sx^2 tells its two ground states apart
    (lambda t: -t.sz @ t.sz + 1e-11 * (t.sx @ t.sx), "sz", "Coherence"),
    (lambda t: -t.sz @ t.sz + 1e-11 * (t.sx @ t.sx), "sx2", "Decoherence"),
], ids=["minus-sx2-sx2", "near-degenerate-sz", "near-degenerate-sx2"])
def test_simulate_at_integer_spin_observes_its_ground_level(
        hamiltonian, coupling, verdict, tmp_path):
    # T^2 = +1, and T maps each of these ground states onto its own ray:
    # pairing by T would take roundoff for the second basis vector
    cfg = _write_cfg(tmp_path, spin=1, coupling=coupling,
                     hamiltonian=_literal(hamiltonian(spin_matrices(1))))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == verdict
    assert abs(summary["terminal_trace_g"] - 1) <= 1e-9


def test_a_huge_spin_is_named_in_a_short_message(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, spin=1e300)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "spin" in err
    assert len(err) < 120, err
    assert not out.exists()


def test_a_spin_within_1e_12_of_a_half_integer_is_built_as_it(tmp_path,
                                                               capsys):
    # 1.5000000000001 passes the half-integer check, so it is spin 3/2:
    # simulate writes spin 1.5's bytes, and classify-op measures it
    written = []
    for spin in (1.5, 1.5000000000001):
        cfg = _write_cfg(tmp_path, name=f"{spin!r}.json", spin=spin,
                         hamiltonian="both_symmetric", coupling="sx2")
        out = tmp_path / repr(spin)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert main(["classify-op", "--config", cfg]) == 0
        assert "[O,Q]=0:   yes" in capsys.readouterr().out
    assert written[0] == written[1]
    # 1e-11 off is no half-integer; the refusal prints the spin in full
    cfg = _write_cfg(tmp_path, spin=1.50000000001, coupling="sx2")
    assert main(["classify-op", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: spin must be a positive half-integer, "
                            "got 1.50000000001\n")


def test_a_spin_near_zero_is_refused_as_a_spin(tmp_path, capsys):
    # round(2 * 1e-13) is 0: the spin key is named, not a one-state level
    cfg = _write_cfg(tmp_path, spin=1e-13)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: spin must be a positive half-integer, got 1e-13\n")
    assert not out.exists()


def test_simulate_builds_one_liouvillian(tmp_path, liouvillian_builds):
    # the doublet block and the stationarity read it under both integrators
    for integrator in ("expm", "rk4"):
        cfg = _write_cfg(tmp_path, t_max=5.0, n_samples=11,
                         integrator=integrator)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / integrator)]) == 0
        assert [args[2] for args in liouvillian_builds] == [0.1]
        liouvillian_builds.clear()


@pytest.mark.parametrize("integrator", ["expm", "rk4"])
def test_sweep_prepares_once_and_integrates_once(integrator, tmp_path,
                                                 record_calls,
                                                 liouvillian_builds,
                                                 expm_calls, response_eighs):
    # one delta_rho, which diagonalizes H once
    calls = {name: record_calls(name) for name in (
        "symmetry.time_reversal", "spectra.ground_subspace",
        "response.delta_rho")}
    calls["response.eigh"] = response_eighs
    gammas = [1e-3, 2e-3, 4e-3]
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11,
                     integrator=integrator, gammas=gammas)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(
        calls, 1)
    # the system prepared at gamma = 0 builds none; expm builds one
    # Liouvillian per gamma, and RK4 reads none
    assert [args[2] for args in liouvillian_builds] == (
        gammas if integrator == "expm" else [])
    # rho0 lies in H's ground level, so it is its own gamma = 0 evolution
    # and nothing is exponentiated for it
    assert len(expm_calls) == (len(gammas) if integrator == "expm" else 0)


@pytest.mark.parametrize("integrator", ["expm", "rk4"])
def test_a_refused_sweep_stops_at_the_gamma_it_refuses(integrator, tmp_path,
                                                       capsys, record_calls):
    # gamma 1e-12's discrepancy is under the roundoff floor, so the two
    # gammas after it are never propagated
    propagations = record_calls("classify.propagate")
    cfg = _write_cfg(tmp_path, hamiltonian="both_symmetric", coupling="sx2sz",
                     t_max=5.0, n_samples=201, integrator=integrator,
                     gammas=[1e-12, 2e-12, 4e-12])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "gamma=1e-12" in capsys.readouterr().err
    assert [args[0].gamma for args in propagations] == [1e-12]


def test_an_rk4_sweep_leaves_scipy_linalg_unloaded(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11,
                     integrator="rk4", gammas=[1e-3, 2e-3])
    code = ("import sys; from lindsymlab.cli import main; "
            f"code = main(['sweep', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]); "
            "print(code, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("kw, key", [
    pytest.param({"csv": "a.csv"}, "'csv'", id="csv"),
    pytest.param({"summary": "b.json"}, "'summary'", id="summary"),
    pytest.param({"coupling": {"name": "sz", "scale": 2}}, ": coupling: ",
                 id="coupling-scale"),
    pytest.param({"hamiltonian": {"name": "tr_invariant", "scale": 1.0}},
                 ": hamiltonian: ", id="hamiltonian-scale"),
    # an operator is spelled one way: an exact catalog name or a list of
    # rows, with no alias, case folding, padding or wrapping object
    pytest.param({"coupling": "sx^2"}, ": coupling: ", id="coupling-alias"),
    pytest.param({"coupling": "SX2"}, ": coupling: ", id="coupling-upper"),
    pytest.param({"coupling": " sx2 "}, ": coupling: ", id="coupling-padded"),
    pytest.param({"coupling": {"name": "sx2"}}, ": coupling: ",
                 id="coupling-name-object"),
    pytest.param({"coupling": {"matrix": np.eye(4).tolist()}}, ": coupling: ",
                 id="coupling-matrix-object"),
    pytest.param({"hamiltonian": "{sx,sz}"}, ": hamiltonian: ",
                 id="hamiltonian-alias"),
    pytest.param({"hamiltonian": "Tr_Invariant"}, ": hamiltonian: ",
                 id="hamiltonian-mixed-case"),
    pytest.param({"hamiltonian": {"name": "tr_invariant"}}, ": hamiltonian: ",
                 id="hamiltonian-name-object"),
])
def test_a_retired_config_key_exits_2_and_is_named(command, kw, key,
                                                   tmp_path, capsys,
                                                   liouvillian_builds):
    # each command writes fixed file names, e_g is the one scale of an
    # operator, and an operator has one spelling: a config that still uses
    # a retired one is refused as it is read or built, before any
    # Liouvillian
    cfg = _write_cfg(tmp_path, **{"coupling": "isz", "t_max": 5.0,
                                  "n_samples": 11, "gammas": [1e-3, 2e-3],
                                  **kw})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err, err
    assert liouvillian_builds == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--config", "CFG"], id="simulate"),
    pytest.param(["sweep", "--config", "CFG"], id="sweep"),
    pytest.param(["table"], id="table"),
])
def test_an_out_path_that_is_a_file_exits_2(argv, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11,
                     gammas=[1e-3, 2e-3])
    out = tmp_path / "out"
    out.write_text("not a directory")
    argv = [cfg if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out")
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("argv, blocked", [
    pytest.param(["simulate", "--config", "CFG"], "trajectory.csv",
                 id="simulate"),
    pytest.param(["simulate", "--config", "CFG"], "summary.json",
                 id="simulate-summary"),
    pytest.param(["sweep", "--config", "CFG"], "sweep.csv", id="sweep"),
    pytest.param(["sweep", "--config", "CFG"], "sweep_summary.json",
                 id="sweep-summary"),
    pytest.param(["table"], "table.txt", id="table"),
    pytest.param(["table"], "table.json", id="table-summary"),
])
def test_an_unwritable_output_file_exits_2(argv, blocked, tmp_path, capsys,
                                           monkeypatch):
    # a directory where one output file goes: the rename onto it fails,
    # and neither file nor a temporary one is left behind
    picks = [sc for sc in catalog() if sc.name == "tr_invariant:sx2"]
    monkeypatch.setattr(classify, "catalog", lambda: picks)
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11,
                     gammas=[1e-3, 2e-3])
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = [cfg if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out")
    assert str(out / blocked) in err
    assert sorted(path.name for path in out.iterdir()) == [blocked]
    assert not any((out / blocked).iterdir())


def test_sweep_recovers_first_order_scaling(tmp_path):
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11,
                     gammas=[1e-3, 2e-3, 4e-3, 8e-3])
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert 1.8 < summary["fitted_exponent"] < 2.1
    assert len(summary["discrepancies"]) == 4
    header, data = _read_csv(out / "sweep.csv")
    assert header == ["gamma", "terminal_s_v", "discrepancy"]
    assert data.shape == (4, 3)
    # discrepancy grows with gamma
    assert np.all(np.diff(data[:, 2]) > 0)


def test_sweep_fits_the_second_order_term_at_a_long_t_max(tmp_path, capsys):
    # delta_rho is exact at any t_max * ||H||, so the discrepancy is the
    # gamma^2 term (1.000 before, when 128 Simpson panels set it)
    cfg = _write_cfg(tmp_path, hamiltonian="tr_invariant", coupling="sx2sz",
                     t_max=50.0, gamma=None, n_samples=None,
                     gammas=[1e-8, 2e-8, 4e-8])
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["fitted_exponent"] == pytest.approx(2.0, abs=0.02)


def test_an_rk4_sweep_is_held_to_its_own_roundoff_floor(tmp_path, capsys):
    # 17 400 RK4 steps leave 3.7e-12 at gamma 1e-8: above the 3e-12 floor
    # that RK4's 1e-16 per step keeps for them, but within the 6.96e-12
    # that expm's 4e-16 per step would give
    cfg = _write_cfg(tmp_path, hamiltonian="tr_invariant", coupling="sx2sz",
                     t_max=50.0, gamma=None, n_samples=None,
                     gammas=[1e-8, 2e-8, 4e-8], integrator="rk4")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["fitted_exponent"] == pytest.approx(2.0, abs=0.02)


def test_classify_op_named(capsys):
    assert main(["classify-op", "sxsy"]) == 0
    out = capsys.readouterr().out
    assert "hermitian: no" in out
    assert "[O,T]=0:   yes" in out
    assert "fails on: j, j_bar, k_bar, k" in out

    assert main(["classify-op", "sy2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "operator:  sy2"
    assert "hermitian: yes" in out
    assert "[O,Q]=0:   yes" in out


def test_classify_op_errors(tmp_path, capsys):
    usage = "error: give exactly one of an operator name and --config\n"
    assert main(["classify-op"]) == 2
    assert capsys.readouterr() == ("", usage)
    assert main(["classify-op", "no_such_operator"]) == 2
    # Hamiltonian names are not couplings
    assert main(["classify-op", "tr_invariant"]) == 2
    # a name is taken exactly as the catalog lists it
    assert main(["classify-op", "sy^2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: coupling: unknown operator name 'sy^2'; known names: ")
    cfg = _write_cfg(tmp_path, coupling=["sx"])
    assert main(["classify-op", "--config", cfg]) == 2
    assert "coupling: need a catalog name or a square list of rows" in (
        capsys.readouterr().err)
    # the signature is measured at spin 3/2, so a literal coupling is 4x4
    cfg = _write_cfg(tmp_path, coupling=np.eye(2).tolist())
    assert main(["classify-op", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: coupling: need a 4x4 matrix at spin 1.5, got shape (2, 2)\n")
    # the signature is measured at any half-integer spin
    cfg = _write_cfg(tmp_path, spin=3.5, hamiltonian="both_symmetric",
                     coupling="sx2")
    assert main(["classify-op", "--config", cfg]) == 0
    assert capsys.readouterr() == ("operator:  sx2\nhermitian: yes\n"
                                   "[O,T]=0:   yes\n[O,Q]=0:   yes\n", "")
    # a name and a config name two operators; neither wins
    cfg = _write_cfg(tmp_path, name="both.json", coupling="sx2")
    assert main(["classify-op", "sxsy", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", usage)
    # the config's Hamiltonian is built, at its e_g, before the coupling
    # and refused as simulate refuses it
    known = ("known names: both_symmetric, i_sxsysz_asym, i_sxsysz_sym, "
             "isz, q_symmetric, sx, sx2, sx2sz, sxsy, sxsy_sym, sxsysz, "
             "sxsysz_sym, sy2, sysz, sz, tr_invariant")
    for hamiltonian, e_g, message in [
            ("nope", None, f"unknown operator name 'nope'; {known}"),
            ("sx", None, "'sx' names a coupling operator, not a Hamiltonian"),
            ([[2.25, 1, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0],
              [0, 0, 0, 2.25]], None, "literal Hamiltonian must be Hermitian"),
            ([[1, 0], [0, 1]], None,
             "need a 4x4 matrix at spin 1.5, got shape (2, 2)"),
            ("nonsense", 1e300, f"unknown operator name 'nonsense'; {known}"),
            ("both_symmetric", 1e300,
             "its Frobenius norm times e_g overflows")]:
        cfg = _write_cfg(tmp_path, name="hamiltonian.json",
                         hamiltonian=hamiltonian, coupling="sz", e_g=e_g)
        err = f"error: hamiltonian: {message}\n"
        assert main(["classify-op", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", err)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("coupling", [
    [[0, 1e200, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    # finite entries whose squares overflow the norm
    [[1e154, 0, 0, 0], [0, 1e154, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
], ids=["matrix-1e200", "matrix-1e154"])
def test_classify_op_refuses_a_coupling_whose_norm_overflows(coupling,
                                                             tmp_path,
                                                             capsys):
    # every symmetry test compares Frobenius norms, and inf <= inf passes
    cfg = _write_cfg(tmp_path, coupling=coupling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["classify-op", "--config", cfg]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coupling")


@pytest.mark.parametrize("coupling", [
    "sy2", "sxsy_sym", "sxsysz", "sysz", "sx2", "sz", "isz", "sx",
    "sxsysz_sym", "i_sxsysz_asym", "i_sxsysz_sym", "sxsy", "sx2sz"])
def test_classify_op_gives_a_named_coupling_one_signature_at_every_spin(
        coupling, tmp_path, capsys):
    # the pi-rotation and T parities of a spin polynomial do not depend on
    # the spin, so neither does its signature
    assert main(["classify-op", coupling]) == 0
    at_3_2 = capsys.readouterr()
    for spin in (2.5, 3.5, 7.5):
        cfg = _write_cfg(tmp_path, spin=spin, hamiltonian="both_symmetric",
                         coupling=coupling)
        assert main(["classify-op", "--config", cfg]) == 0
        assert capsys.readouterr() == at_3_2, spin


def test_classify_op_refuses_an_integer_spin(tmp_path, capsys):
    # the golden spin-1 run has a ground doublet, but Q8 has no doublet
    # to act on there
    config = json.loads((Path(__file__).parent / "golden"
                         / "simulate-expm-minus-sx2-spin-1-sx2.json"
                         ).read_text())["config"]
    cfg = tmp_path / "spin-1.json"
    cfg.write_text(json.dumps(config))
    assert main(["classify-op", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: spin: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("hamiltonian, e_g, level", [
    (np.eye(4).tolist(), None, "spin 1.5"),
    # e_g scales every gap below the level tolerance: e_g is named
    ("both_symmetric", 0, "spin 1.5 and e_g 0.0"),
    ("both_symmetric", -0.0, "spin 1.5 and e_g -0.0"),
    ("both_symmetric", 1e-320, "spin 1.5 and e_g 1e-320"),
    ("both_symmetric", 1e-15, "spin 1.5 and e_g 1e-15"),
], ids=["identity", "e_g-0", "e_g-minus-0", "e_g-1e-320", "e_g-1e-15"])
def test_classify_op_refuses_a_ground_level_as_simulate_does(
        hamiltonian, e_g, level, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, hamiltonian=hamiltonian, e_g=e_g)
    err = (f"error: hamiltonian: its ground level at {level} has "
           f"dimension 4, need a doublet\n")
    out = tmp_path / "out"
    for argv in (["simulate", "--config", cfg, "--out", str(out)],
                 ["classify-op", "--config", cfg]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err), argv[0]
    assert not out.exists()


def test_a_small_e_g_that_leaves_a_doublet_is_answered(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, hamiltonian="both_symmetric", e_g=1e-14)
    assert main(["classify-op", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("operator:  sx2\n")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


def _names_key(err, key):
    """Whether err names the config key: after a colon, as the subject of
    the refusal, or quoted, as a missing or unknown key."""
    return f": {key}" in err or f"'{key}'" in err


def test_config_error_paths(tmp_path, capsys):
    out = tmp_path / "out"

    def run(cfg_path):
        code = main(["simulate", "--config", cfg_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert not out.exists()
        return code, err

    bad = tmp_path / "bad.json"
    bad.write_text('{"hamiltonian": "tr_invariant",')
    code, err = run(str(bad))
    assert code == 2
    assert "bad.json:1:" in err

    unknown = _write_cfg(tmp_path, name="unknown.json", tmax=5.0)
    code, err = run(unknown)
    assert code == 2
    assert _names_key(err, "tmax"), err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"hamiltonian": "tr_invariant"}))
    code, err = run(str(missing))
    assert code == 2
    assert _names_key(err, "coupling"), err

    lopsided = _write_cfg(tmp_path, name="lopsided.json", alpha=1.0, beta=1.0)
    code, err = run(lopsided)
    assert code == 2
    assert _names_key(err, "alpha"), err

    unparsable = _write_cfg(tmp_path, name="unparsable.json", gamma="fast")
    code, err = run(unparsable)
    assert code == 2
    assert "invalid value" in err
    assert _names_key(err, "gamma"), err

    # NaN and Infinity are valid JSON to Python but not valid inputs
    nan, inf = float("nan"), float("inf")
    sz_rows = [[1.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, -0.5, 0], [0, 0, 0, nan]]
    for key, kw in [
            ("integrator", {"integrator": "euler"}),
            ("gamma", {"gamma": -0.1}),
            ("gamma", {"gamma": nan}),
            ("gamma", {"gamma": inf}),
            ("e_g", {"e_g": inf}),
            ("spin", {"spin": inf}),
            ("spin", {"spin": nan}),
            ("t_max", {"t_max": nan}),
            ("dt", {"dt": inf}),
            ("gammas", {"gammas": [1e-3, nan]}),
            ("alpha", {"alpha": [nan, 0.0]}),
            ("beta", {"beta": inf}),
            ("alpha", {"alpha": [1e308, 0.0]}),  # |alpha|^2 overflows
            ("e_g", {"e_g": nan}),
            ("e_g", {"e_g": -inf}),
            ("coupling", {"coupling": sz_rows}),
            ("hamiltonian", {"hamiltonian": 5}),
            ("coupling", {"coupling": ["sx"]}),
            ("n_samples", {"n_samples": 2.7}),
            # n_quad is not a key: delta_rho has no quadrature to set
            ("n_quad", {"n_quad": 128}),
            # JSON numbers only: no booleans, no numeric strings
            ("gamma", {"gamma": True}),
            ("dt", {"dt": True}),
            ("spin", {"spin": "1.5"}),
            ("t_max", {"t_max": "2"}),
            ("e_g", {"e_g": "x"}),
            ("gammas", {"gammas": 5}),
            ("gammas", {"gammas": [True, 0.002]}),
            ("alpha", {"alpha": [True, 0], "beta": 0}),
            ("e_g", {"e_g": True}),
            # an operator is a name or a non-empty square list of rows
            ("coupling", {"coupling": {}}),
            ("coupling", {"coupling": []}),
            ("hamiltonian", {"hamiltonian": [[1, 0, 0, 0]]}),
            ("coupling", {"coupling": [[1, 0], [0]]}),
            # a literal matrix of the wrong size and an unknown name are
            # refused under the key that gave them
            ("coupling", {"coupling": np.eye(2).tolist()}),
            ("hamiltonian", {"hamiltonian": np.eye(2).tolist()}),
            ("coupling", {"coupling": "nope"}),
            ("hamiltonian", {"hamiltonian": "nope"}),
            # ... and so are a name of the other kind and a non-Hermitian
            # literal Hamiltonian
            ("hamiltonian", {"hamiltonian": "sx"}),
            ("hamiltonian", {"hamiltonian": [[0, 1, 0, 0], [0, 0, 0, 0],
                                             [0, 0, 0, 0], [0, 0, 0, 0]]}),
            ("coupling", {"coupling": "tr_invariant"}),
            # not Hermitian to 1e-12 of its norm, at any e_g: the bound
            # is relative
            ("hamiltonian", {"coupling": "sz", "e_g": 1e6, "hamiltonian": [
                [2.25e-6, [0, 1e-13], 0, 0], [0, 2.5e-7, 0, 0],
                [0, 0, 2.5e-7, 0], [0, 0, 0, 2.25e-6]]}),
            ("hamiltonian", {"coupling": "sz", "e_g": 1e-13, "hamiltonian": [
                [2.25, 1, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0],
                [0, 0, 0, 2.25]]}),
            # T-even to 1e-9, but T maps its ground level 1e-3 into the
            # level 1e-7 above it: the pairing refusal
            ("hamiltonian", {"spin": 2.5, "coupling": "sz",
                             "hamiltonian": _literal(
                                 np.diag([1, 1e-7, 0, 0, 1e-7, 1])
                                 + 1e-10 * spin_matrices(2.5).sx)})]:
        code, err = run(_write_cfg(tmp_path, name="nonfinite.json", **kw))
        assert code == 2, kw
        assert _names_key(err, key), (kw, err)

    # not a half-integer, and beyond the dense-storage cap
    for spin in (0.7, 40):
        code, err = run(_write_cfg(tmp_path, name=f"spin{spin}.json",
                                   spin=spin))
        assert code == 2
        assert _names_key(err, "spin"), err

    absent = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(out)])
    assert absent == 2
    assert not out.exists()
    capsys.readouterr()


def test_simulate_reports_each_rows_doublet_routes_as_the_table_does(
        tmp_path, capsys):
    # the doublet routes read neither the configured state nor the
    # horizon, so a short run of each row's H and O gives the table row's
    # block and Schur figures, floats and all, and its oracle verdict
    assert main(["table", "--gamma", "0.1", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "table.json").read_text())["rows"]
    assert len(rows) == 16
    for row in rows:
        hamiltonian, coupling = row["scenario"].split(":")
        cfg = _write_cfg(tmp_path, hamiltonian=hamiltonian,
                         coupling=coupling, t_max=5.0, n_samples=3)
        out = tmp_path / row["scenario"]
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key in ("block_identity", "block_residual", "schur_proportional",
                    "schur_residual"):
            assert type(summary[key]) is type(row[key]), (row, key)
            assert summary[key] == row[key], (row["scenario"], key)
        oracle = row["oracle_agrees"] == (row["measured"] == "Coherence")
        assert summary["oracle_coherent"] is oracle, row["scenario"]
    capsys.readouterr()


def test_the_dark_default_state_reads_coherence_against_the_doublet_routes(
        tmp_path, capsys):
    # a known-wrong answer, kept visible: the equal superposition of
    # both_symmetric:sx is dark, so its verdict reads Coherence, while the
    # block, Schur and oracle routes each say the doublet decoheres
    cfg = _write_cfg(tmp_path, hamiltonian="both_symmetric", coupling="sx",
                     t_max=None, n_samples=None)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "Coherence"
    assert (summary["block_identity"], summary["schur_proportional"],
            summary["oracle_coherent"]) == (False, False, False)


def test_simulate_builds_its_probes_once(tmp_path, record_calls):
    # decide's oracle corrects the three probes of the one system in one
    # delta_rho call, under either integrator
    probes = record_calls("classify.probe_densities")
    deltas = record_calls("response.delta_rho")
    for integrator in ("expm", "rk4"):
        cfg = _write_cfg(tmp_path, t_max=5.0, n_samples=11,
                         integrator=integrator)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / integrator)]) == 0
        assert (len(probes), len(deltas)) == (1, 1), integrator
        assert probes[0][0].shape == (4, 2)
        assert deltas[0][0].shape == (3, 4, 4)
        probes.clear()
        deltas.clear()


def test_simulate_ignores_the_retired_tolerance_variable(tmp_path, capsys,
                                                         monkeypatch):
    # tr_invariant:sz has block residual / |c| = 0.4: a tolerance scaled
    # by 1e9 would call its block proportional
    cfg = _write_cfg(tmp_path, coupling="sz", t_max=5.0, n_samples=11)
    written = []
    for scale in (None, "1e9"):
        if scale is not None:
            monkeypatch.setenv("LSL_TOLERANCE_SCALE", scale)
        out = tmp_path / f"out-{scale}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("trajectory.csv", "summary.json")])
    assert written[0] == written[1]
    assert json.loads(written[1][1])["block_identity"] is False
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["table", "--config", "run.json"],
    ["table", "--integrator", "rk4"],
    ["sweep", "--config", "run.json", "--integrator", "rk4"],
    ["sweep", "--config", "run.json", "--horizon", "99"],
    # simulate and sweep read gamma, integrator and gammas from the config
    ["simulate", "--config", "run.json", "--gamma", "0.05"],
    ["simulate", "--config", "run.json", "--integrator", "rk4"],
    ["sweep", "--config", "run.json", "--gamma", "1e-3,2e-3"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["table", "--gamma", "0"], "--gamma"),
    (["table", "--gamma", "-0.1"], "--gamma"),
    (["table", "--gamma", "nan"], "--gamma"),
    (["table", "--horizon", "0"], "--horizon"),
    (["table", "--horizon", "inf"], "--horizon"),
    (["simulate", "--config", "CFG", "--horizon", "nan"], "--horizon"),
    (["simulate", "--config", "CFG", "--horizon", "-1"], "--horizon"),
])
def test_bad_numeric_flags_exit_2(argv, flag, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, coupling="isz", t_max=5.0, n_samples=11)
    out = tmp_path / "out"
    argv = [cfg if a == "CFG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--config", "--horizon", "--out"]),
    ("sweep", ["--config", "--out"]),
])
def test_simulate_and_sweep_take_every_other_run_value_from_the_config(
        command, flags, capsys):
    # --horizon is the one way to give gamma*t; no flag repeats a key
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    options = re.findall(r"^ +(--[a-z]+)", capsys.readouterr().out, re.M)
    assert options == flags


def test_the_readme_schema_lists_exactly_the_known_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration schema (JSON)")[1]
    block = section.split("```json\n")[1].split("```")[0]
    assert set(json.loads(block)) == cli._KNOWN_KEYS


def test_python_dash_m_runs_the_cli_without_an_install():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "lindsymlab", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for sub in ("simulate", "table", "sweep", "classify-op"):
        assert sub in proc.stdout


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # only evolve_expm needs it, and it imports it when called
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, lindsymlab.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_installed():
    path = shutil.which("lindsymlab")
    assert path is not None
    proc = subprocess.run([path, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("simulate", "table", "sweep", "classify-op"):
        assert sub in proc.stdout
