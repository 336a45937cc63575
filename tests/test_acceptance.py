"""End-to-end acceptance checks for the classification pipeline.

Each test covers one advertised guarantee at its stated tolerance and is
named so that `pytest -v` reads as a one-line pass/fail report per item.
Run with -s to also see the measured numbers.
"""

import time

import numpy as np
import pytest

from lindsymlab.classify import (catalog, prepare, probe_densities,
                                 reproduce_table, response_oracle_coherent)
from lindsymlab.lindblad import (evolve_expm, evolve_rk4, default_dt,
                                 liouvillian_matrix, rhs, rhs_operators, vec)
from lindsymlab.observables import Coherence
from lindsymlab.operators import build_hamiltonian, spin_matrices
from lindsymlab.response import delta_rho, scaling_exponent
from lindsymlab.spectra import ground_subspace
from lindsymlab.symmetry import (commutes_with_antiunitary, quaternion_group,
                                 schur_test, time_reversal)

LN2 = np.log(2.0)
GAMMA = 0.1


@pytest.fixture(scope="module")
def table():
    start = time.perf_counter()
    verdicts = reproduce_table(gamma=GAMMA, horizon=20.0)
    elapsed = time.perf_counter() - start
    return verdicts, elapsed


@pytest.fixture(scope="module")
def systems():
    return {sc.name: (sc, prepare(sc, GAMMA)) for sc in catalog()}


def _equal_probe(system):
    return probe_densities(system.basis)[0]


def test_ac01_table_reproduction(table):
    verdicts, elapsed = table
    assert len(verdicts) == 16
    assert all(v.passed for v in verdicts)
    assert all(v.oracle_agrees for v in verdicts)
    n_ok = sum(v.passed for v in verdicts)
    assert n_ok == 16
    assert elapsed < 10.0
    print(f"AC1 table reproduction: {n_ok}/16 rows in {elapsed:.2f} s: PASS")


def test_ac02_entropy_plateau(table, probe_figures):
    verdicts, _ = table
    plateaued = []
    reported = []
    for v in verdicts:
        if v.measured_coherence is not Coherence.DECOHERENT:
            continue
        mixed = np.linalg.norm(probe_figures[v.name]["terminal_rho_g"]
                               - np.eye(2) / 2) < 1e-3
        if v.stationarity < 1e-8 and mixed:
            assert abs(v.terminal_entropy - LN2) < 5e-3, v.name
            plateaued.append(v.name)
        else:
            reported.append((v.name, round(v.terminal_entropy, 6)))
    assert plateaued, "no decoherent scenario reached the mixed plateau"
    print(f"AC2 entropy plateau: ln2 on {len(plateaued)} scenarios "
          f"{plateaued}; terminal values reported for {reported}: PASS")


def test_ac03_coherent_fidelity(table, probe_figures):
    verdicts, _ = table
    drifts = {v.name: probe_figures[v.name]["max_drift"] for v in verdicts
              if v.expected_coherence is Coherence.COHERENT}
    assert len(drifts) == 8
    for name, drift in drifts.items():
        assert drift < 1e-7, (name, drift)
    print(f"AC3 coherent fidelity: max subspace drift "
          f"{max(drifts.values()):.2e} < 1e-7 over 8 rows: PASS")


def test_ac04_vectorization_equivalence(systems):
    worst = 0.0
    for name, (sc, system) in systems.items():
        lmat = system.liouvillian
        ops = rhs_operators(system.h, system.o, GAMMA)
        rng = np.random.default_rng(abs(hash(name)) % 2 ** 32)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = (a + a.conj().T) / 2
            rho = rho + (1.0 - np.trace(rho).real) / 4 * np.eye(4)
            gap = np.linalg.norm(lmat @ vec(rho) - vec(rhs(rho, ops)))
            worst = max(worst, gap)
    assert worst < 1e-12
    print(f"AC4 vectorization equivalence: max gap {worst:.2e} "
          f"over 16x100 states: PASS")


def test_ac05_dual_propagator_agreement(systems):
    t_max = 20.0
    worst = 0.0
    for name, (sc, system) in systems.items():
        rho0 = _equal_probe(system)
        base = default_dt(system.h, system.o, GAMMA)
        for k in range(3):
            rk = evolve_rk4(rho0, system.h, system.o, GAMMA, t_max,
                            dt=base / 2 ** k, n_samples=11)
            ex = evolve_expm(rho0, system.liouvillian, t_max, 11)
            gap = float(max(np.linalg.norm(a - b)
                            for a, b in zip(rk.states, ex.states)))
            worst = max(worst, gap)
            assert gap < 1e-8, (name, k, gap)

    # observed convergence order on a decoherent row
    sc, system = systems["tr_invariant:sz"]
    rho0 = _equal_probe(system)
    t = 2.0
    ref = evolve_expm(rho0, system.liouvillian, t, 2).states[-1]
    errs = []
    for dt in (0.2, 0.1, 0.05):
        got = evolve_rk4(rho0, system.h, system.o, GAMMA, t,
                         dt=dt, n_samples=2).states[-1]
        errs.append(np.linalg.norm(got - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    for order in orders:
        assert abs(order - 4.0) <= 0.3, orders
    print(f"AC5 dual propagators: max gap {worst:.2e} < 1e-8 across 16 rows "
          f"x 3 step sizes; observed orders {np.round(orders, 3)}: PASS")


def test_ac06_conservation_suite(table, probe_figures):
    verdicts, _ = table
    figures = [probe_figures[v.name] for v in verdicts]
    for v, fig in zip(verdicts, figures):
        assert fig["trace_err"] < 1e-8, v.name
        assert fig["herm_err"] < 1e-8, v.name
        assert fig["min_eig"] > -1e-7, v.name
    print(f"AC6 conservation: worst trace err "
          f"{max(fig['trace_err'] for fig in figures):.2e}, worst min eig "
          f"{min(fig['min_eig'] for fig in figures):.2e}: PASS")


def test_ac07_first_order_response(systems):
    # decoherent side: the corrected state misses the full evolution by
    # O(gamma^2) at a fixed comparison time
    sc, system = systems["tr_invariant:isz"]
    rho0 = _equal_probe(system)
    t = 5.0
    ref = evolve_expm(rho0, liouvillian_matrix(system.h, system.o, 0.0), t, 11)
    gammas = (1e-3, 2e-3, 4e-3, 8e-3)
    resid = []
    for g in gammas:
        full = evolve_expm(rho0, liouvillian_matrix(system.h, system.o, g),
                           t, 11).states[-1]
        corr = ref.states[-1] + delta_rho(ref.states[-1], system.o,
                                          system.h, g, t)
        resid.append(float(np.linalg.norm(full - corr)))
    slope = scaling_exponent(gammas, resid)
    assert abs(slope - 2.0) <= 0.1, (slope, resid)
    assert all(b > a for a, b in zip(resid, resid[1:]))

    # coherent side: the projected correction only rescales the initial
    # subspace state, for every probe of every coherent row
    coherent = [name for name, (sc, _) in systems.items()
                if sc.expected_coherence is Coherence.COHERENT]
    assert len(coherent) == 8
    for name in coherent:
        system = systems[name][1]
        assert response_oracle_coherent(
            system, probe_densities(system.basis)), name
    print(f"AC7 first-order response: slope {slope:.3f} = 2.0 +- 0.1; "
          f"projected correction proportional on all 8 coherent rows: PASS")


def test_ac08_group_suite():
    group = quaternion_group(1.5)
    els = group.elements
    for i in range(8):
        for j in range(8):
            # the product is one element of the group
            gaps = [np.max(np.abs(els[i] @ els[j] - q)) for q in els]
            assert sum(gap < 1e-12 for gap in gaps) == 1, (i, j)
    by_label = dict(zip(group.labels, els))
    classes = [("e",), ("e_bar",), ("i", "i_bar"), ("j", "j_bar"),
               ("k", "k_bar")]
    traces = tuple(complex(np.trace(by_label[c[0]])) for c in classes)
    for members in classes:
        t0 = np.trace(by_label[members[0]])
        for m in members[1:]:
            assert abs(np.trace(by_label[m]) - t0) < 1e-12
    want = (4.0, -4.0, 0.0, 0.0, 0.0)
    for got, expect in zip(traces, want):
        assert abs(got - expect) < 1e-12

    trev = time_reversal(1.5)
    assert np.max(np.abs(trev.squared() + np.eye(4))) < 1e-12
    rng = np.random.default_rng(8)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        twice = trev.act_state(trev.act_state(psi))
        assert np.max(np.abs(twice + psi)) < 1e-12
    print("AC8 group suite: 64/64 Cayley products, class traces "
          "(4,-4,0,0,0), T^2 = -1: PASS")


def test_ac09_kramers_suite():
    trev = time_reversal(1.5)
    dims = {}
    for name in ("q_symmetric", "tr_invariant", "both_symmetric"):
        h = build_hamiltonian(name, spin_matrices(1.5))
        vals = np.linalg.eigvalsh(h)
        spread = max(vals[-1] - vals[0], 1e-300)
        splits = np.nonzero(np.diff(vals) > 1e-9 * spread)[0]
        counts = np.diff(np.concatenate(([0], splits + 1, [len(vals)])))
        assert all(c % 2 == 0 for c in counts), (name, counts)
        if name != "q_symmetric":
            # T^2 = -1 forces the even multiplicities counted above
            assert commutes_with_antiunitary(h, trev), name
        pairing = trev if name != "q_symmetric" else None
        dims[name] = ground_subspace(h, pairing=pairing).shape[1]
    assert all(d == 2 for d in dims.values()), dims
    print(f"AC9 Kramers suite: even multiplicities and ground dims {dims}: "
          f"PASS")


def test_ac10_schur_suite(table, systems):
    verdicts, _ = table
    for v in verdicts:
        sc, system = systems[v.name]
        p = system.basis @ system.basis.conj().T
        res = schur_test(p, system.o)
        if sc.expected_coherence is Coherence.COHERENT:
            assert res.proportional, v.name
            quadratic = system.o.conj().T @ system.o
            assert schur_test(p, quadratic).proportional, v.name
        else:
            assert not res.proportional, v.name
            norm_projected = np.linalg.norm(p @ system.o @ p)
            assert res.residual > 1e-3 * norm_projected, (
                v.name, res.residual, norm_projected)
        # the three verdict routes agree pairwise
        dynamic = v.measured_coherence is Coherence.COHERENT
        assert v.block_identity == dynamic, v.name
        assert v.schur_proportional == dynamic, v.name
    print("AC10 Schur suite: projection, doublet block, and dynamics agree "
          "on all 16 rows; every No row is detectably non-scalar: PASS")
