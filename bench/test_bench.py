"""Tests of the benchmark harness: patching, spans, outputs and counts."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _traced(cli, op):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run.run_op(cli, op, tracer)
    return result, tracer.spans


@pytest.fixture(scope="module")
def table(cli, tmp_path_factory):
    """The seed-0 table: one untraced call and two traced ones."""
    wl = workloads.make("table16", 0, tmp_path_factory.mktemp("table16"))
    plain = run.run_op(cli, wl.ops[0])
    return plain, [_traced(cli, wl.ops[0]) for _ in range(2)]


@pytest.fixture(scope="module")
def short_rk4(cli, tmp_path_factory):
    """A spin-3/2 RK4 simulate over gamma*t = 0.5: one untraced, two traced."""
    cfg = {"hamiltonian": "both_symmetric", "coupling": "sx2sz",
           "gamma": 0.1, "integrator": "rk4"}
    op = workloads.simulate_op("rk4-short", cfg,
                               tmp_path_factory.mktemp("rk4"),
                               ("--horizon", "0.5"))
    return run.run_op(cli, op), [_traced(cli, op) for _ in range(2)]


def _namespace_snapshot():
    import scipy.linalg
    mods = tracing._package_modules() + [scipy.linalg]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_wrappers_cover_every_name_and_restore_it(cli):
    import scipy.linalg
    from lindsymlab import classify, lindblad, response
    before = _namespace_snapshot()
    originals = {"classify.evolve_expm": classify.evolve_expm,
                 "cli.evolve_expm": cli.evolve_expm,
                 "response.eigh": response.eigh,
                 "scipy.linalg.expm": scipy.linalg.expm}
    with tracing.installed(tracing.Tracer()) as patches:
        assert {p[1] for p in patches} >= {"evolve_expm", "eigh", "expm"}
        for mod, name, original in patches:
            assert getattr(mod, name) is not original
            assert getattr(mod, name).__wrapped__ is original
        assert classify.evolve_expm.bench_span == "lindblad.evolve_expm"
        assert cli.evolve_expm.bench_span == "lindblad.evolve_expm"
        assert lindblad.evolve_expm.bench_span == "lindblad.evolve_expm"
        assert response.eigh.bench_span == "spectra.eigh"
        assert scipy.linalg.expm.bench_span == "lindblad.expm"
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not [k for k, v in after.items() if hasattr(v, "bench_span")]
    assert classify.evolve_expm is originals["classify.evolve_expm"]
    assert scipy.linalg.expm is originals["scipy.linalg.expm"]


def test_wrappers_restore_names_after_an_exception(cli):
    before = _namespace_snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("interrupted pass")
    after = _namespace_snapshot()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("fixture", ["table", "short_rk4"])
def test_spans_nest_and_self_time_is_never_negative(fixture, request):
    _, traced = request.getfixturevalue(fixture)
    for _, spans in traced:
        assert spans[0][0] == tracing.OP_SPAN and spans[0][1] == -1
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans[1:]:
            assert parent >= 0, f"{name} outside the operation span"
            _, _, p0, p1 = spans[parent]
            assert p0 <= t0 <= t1 <= p1, f"{name} not nested in its parent"
            child[parent] += t1 - t0
        for (name, _, t0, t1), covered in zip(spans, child):
            assert t1 - t0 - covered >= 0, f"negative self time in {name}"
        _, _, self_s = tracing.span_stats(spans)
        assert min(self_s.values()) >= 0


@pytest.mark.parametrize("fixture", ["table", "short_rk4"])
def test_traced_and_untraced_runs_write_identical_outputs(fixture, request):
    plain, traced = request.getfixturevalue(fixture)
    assert not plain.failed, plain.problems or plain.error
    assert plain.files
    for result, _ in traced:
        assert not result.failed
        assert result.files == plain.files


# Counts and waste ratios that a table pass must repeat exactly. Their
# values today are in NOTES.md; they are not fixed here, so that a change
# that lowers them does not have to edit the benchmark.
TABLE_REPEATED = ("symmetry.quaternion_group.per_table",
                  "spectra.eigh.per_oracle_probe", "classify.prepare.per_row",
                  "classify.compute_signature.per_row")


def test_table_counts_repeat_exactly(table):
    _, traced = table
    first, second = (tracing.layer_metrics(spans, 16, 1)
                     for _, spans in traced)
    counts = [k for k in first if k.endswith(".calls")]
    assert counts and all(first[k] == second[k] for k in counts)
    assert all(first[k] == second[k] for k in TABLE_REPEATED)
    assert first["observables.von_neumann_entropy.calls"] > 0
    under = [tracing.count_under(spans, "symmetry.quaternion_group",
                                 "classify.reproduce_table")
             for _, spans in traced]
    assert under[0] == under[1]
    assert under[0] <= first["symmetry.quaternion_group.calls"]


def test_rk4_counts_repeat_exactly(short_rk4):
    _, traced = short_rk4
    first, second = (tracing.layer_metrics(spans, 0, 0)
                     for _, spans in traced)
    assert first["lindblad.rhs.calls"] > 0
    assert first["lindblad.rhs.calls"] % 4 == 0
    assert all(first[k] == second[k] for k in first if k.endswith(".calls"))
    assert first["lindblad.expm.calls"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(12))) == (100, 11)
    assert run.tail([float(x) for x in range(40)])[0] == 75
    assert run.tail([float(x) for x in range(1000)])[0] == 99


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        shutil.copy(Path(run.__file__).parent / name, bench / name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "table16",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
