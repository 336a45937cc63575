#!/usr/bin/env python3
"""lindsymlab benchmark: end-to-end and per-layer metrics of the CLI.

Run from the repository root:

    python3 bench/run.py --workload table16 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one child each

One client runs the workload's fixed batch of ``cli.main`` calls in a
closed loop, in this process, with BLAS/OpenMP pinned to one thread. One
untimed warm-up pass comes first, then whole passes until ``--seconds``
would be exceeded. Every operation's outputs are checked. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the window between
untraced and traced passes and reports the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. See NOTES.md for every metric and why each workload is there.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# setup_s is given at a nominal machine speed: the median over fresh
# processes of each one's wall time divided by the reference kernel's time
# around it, times this many seconds (about the kernel's own time on a
# 2-vCPU cloud host).
NOMINAL_REF_S = 0.05
MIN_PASSES = 2
TAIL_PERCENTILES = (99, 95, 90, 75)

# The end-to-end metrics in the result line, with their units. The raw
# seconds, op_s.tail and failed_frac are printed beside them but not
# gated (see NOTES.md).
END_TO_END_UNITS = {"wall_ref": "ref", "op_ref.p50": "ref", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def import_cli():
    """Import lindsymlab.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "lindsymlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no lindsymlab package under {src}")
    sys.path.insert(0, str(src))
    import lindsymlab.cli
    if Path(lindsymlab.__file__).resolve().parent != src / "lindsymlab":
        raise SystemExit(f"bench: imported lindsymlab from "
                         f"{lindsymlab.__file__}, not from {src}")
    return lindsymlab.cli


class ReferenceKernel:
    """A fixed computation, timed between operations, that measures how fast
    the machine runs at that moment.

    An operation's time divided by the mean kernel time just before and
    after it follows the program and cancels most of the load that other
    tenants put on a shared CPU. The kernel has to do the same kind of work
    as the operations it is timed against:

    - "mixed": half a Python loop over 4x4 complex products, like the
      per-sample and RK4 paths, and half a chain of 300x300 complex
      products. For the table, RK4 runs and set-up.
    - "large": two products of 640x640 complex matrices, which outgrow the
      fast caches like expm on a 576^2 to 1024^2 Liouvillian. The mixed
      kernel hardly follows those.
    """

    def __init__(self, kind: str = "mixed"):
        import numpy as np
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        self.u, self.uh = q, q.conj().T
        self.x0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        self.loops, n, self.products = {"mixed": (2000, 300, 8),
                                        "large": (0, 640, 2)}[kind]
        self.big = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n

    def seconds(self) -> float:
        t0 = time.perf_counter()
        x = self.x0
        for _ in range(self.loops):
            x = self.u @ x @ self.uh + 1e-3 * (x - x.conj().T)
        y = self.big
        for _ in range(self.products):
            y = self.big @ y
        return time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    error: str | None = None        # traceback of an exception
    problems: list = field(default_factory=list)
    files: dict = field(default_factory=dict)   # "label/name" -> sha256
    out_bytes: int = 0
    ref_s: float = 0.0     # mean reference-kernel time around the call

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def rel(self) -> float:
        """The call's time in reference-kernel units."""
        return self.seconds / self.ref_s


def run_op(cli, op: workloads.Op, tracer=None) -> OpResult:
    """One ``cli.main`` call, timed, with its outputs checked afterwards."""
    outputs = workloads.output_files(op)
    for path in outputs:
        path.unlink(missing_ok=True)
    span = tracer.span(tracing.OP_SPAN) if tracer else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as caught:  # the operation failed; count and report it
        exc = caught
    res = OpResult(op=op, seconds=time.perf_counter() - t0)
    if exc is not None:
        res.error = "".join(traceback.format_exception(exc))
        return res
    if code != 0:
        res.problems.append(f"exit code {code}: {err.getvalue().strip()}")
        return res
    try:
        res.problems.extend(workloads.check(op))
        for path in outputs:
            res.files[f"{op.label}/{path.name}"] = sha256(path)
            res.out_bytes += path.stat().st_size
    except (OSError, ValueError) as caught:
        res.problems.append(f"unreadable output: {caught}")
    return res


@dataclass
class Pass:
    ops: list
    layers: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def rel(self) -> float:
        return sum(r.rel for r in self.ops)


def run_pass(cli, wl, kernel, tracer=None) -> Pass:
    """Every operation once, with the reference kernel timed between them."""
    results = []
    if tracer is not None:
        tracer.reset()
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        before = kernel.seconds()
        for op in wl.ops:
            result = run_op(cli, op, tracer)
            after = kernel.seconds()
            result.ref_s = (before + after) / 2
            results.append(result)
            before = after
    if tracer is None:
        return Pass(results)
    tables = sum(1 for r in results if r.op.kind == "table" and not r.failed)
    layers = tracing.layer_metrics(tracer.spans,
                                   workloads.TABLE_ROWS * tables, tables)
    layers["cli.output.bytes"] = sum(r.out_bytes for r in results)
    tracer.reset()
    return Pass(results, layers)


def timed_passes(cli, wl, kernel, seconds: float, tracer=None) -> list:
    """Whole passes until one more would overrun ``seconds`` (at least 2)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl, kernel, tracer))
        typical = statistics.median(p.seconds for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > seconds):
            return passes


def tail(samples):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten samples beyond it, or the maximum when there are too few samples."""
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100,
                                           method="inclusive")[q - 1]
    return 100, max(samples)


def setup_probe(name: str, configs: list) -> None:
    """Build a workload's inputs the way a fresh process would."""
    cli = import_cli()
    from lindsymlab import classify, operators, spectra, symmetry
    if name == "table16":
        for sc in classify.catalog():
            classify.prepare(sc)
        return
    for path in configs:
        cfg = cli.load_config(path)
        spins = operators.spin_matrices(cfg.spin)
        h = operators.build_hamiltonian(cfg.hamiltonian, spins)
        operators.build_coupling(cfg.coupling, spins)
        trev = symmetry.time_reversal(cfg.spin)
        pairing = trev if symmetry.commutes_with_antiunitary(h, trev) else None
        spectra.ground_subspace(h, pairing=pairing)


def measure_setup(wl) -> tuple:
    """Fresh processes that import lindsymlab and build the inputs: the wall
    seconds of each, and each divided by the mixed kernel's time around it."""
    kernel = ReferenceKernel()
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", wl.name,
           *[str(op.config) for op in wl.ops if op.config is not None]]
    seconds, rel = [], []
    before = kernel.seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds.append(time.perf_counter() - t0)
        after = kernel.seconds()
        rel.append(seconds[-1] / ((before + after) / 2))
        before = after
    return seconds, rel


def environment(seed: int, wl) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            git = proc.stdout.strip() or None
        except OSError:         # no git on this host
            pass
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": wl.name,
        "ops_per_pass": len(wl.ops),
        "input_size": wl.size,
        "ref_kernel": wl.kernel,
        "params": wl.params,
        "load": "closed loop, 1 client, 1 process",
    }


class Reporter:
    """Counts operations and failures; prints each failure's traceback once."""

    def __init__(self, seed: int):
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())
        self.attempted = self.failed = 0
        self.other_failures = 0     # checks outside the counted operations
        self.compared = self.mismatched = 0
        self._shown = set()

    def add(self, wl, passes):
        for p in passes:
            for r in p.ops:
                self.attempted += 1
                self._outputs(wl, r)
                if r.failed:
                    self.failed += 1
                    self.show(r, "FAILED")

    def show(self, r, tag):
        detail = r.error or "\n".join(r.problems)
        key = (r.op.label, detail.strip().splitlines()[-1])
        if key not in self._shown:
            self._shown.add(key)
            print(f"bench: {tag}: {r.op.label}\n{detail}", file=sys.stderr)

    def _outputs(self, wl, r):
        if self.reference is None or r.failed:
            return
        expected = self.reference.get(wl.name, {})
        for key, digest in r.files.items():
            self.compared += 1
            self.mismatched += expected.get(key) != digest


def probe_defect(cli, op, rep):
    """Run the known spin-31/2 defect once, untimed and outside the counted
    operations, and say whether it still fails as it did at baseline."""
    r = run_op(cli, op)
    known = "{}: {}".format(*workloads.KNOWN_DEFECT)
    if r.error and r.error.strip().splitlines()[-1] == known:
        outcome = f"fails as at baseline ({known})"
        rep.show(r, "known defect, not counted")
    elif not r.failed:
        outcome = "passes; the defect is fixed"
    else:
        outcome = "fails in a new way"
        rep.other_failures += 1
        rep.show(r, "FAILED")
    print(f"  known defect probe {op.label}: {outcome}")


def print_metric(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(cli, wl, kernel, seconds, rep):
    setup, setup_rel = measure_setup(wl)
    rep.add(wl, [run_pass(cli, wl, kernel)])
    passes = timed_passes(cli, wl, kernel, seconds)
    rep.add(wl, passes)
    ops = [r for p in passes for r in p.ops]
    op_s = [r.seconds for r in ops]
    q, tail_value = tail(op_s)
    n = f"n={len(ops)}"
    metrics = {
        "wall_ref": statistics.median(p.rel for p in passes),
        "op_ref.p50": statistics.median(r.rel for r in ops),
        "setup_s": NOMINAL_REF_S * statistics.median(setup_rel),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_ref": f"median of {len(passes)} passes",
        "op_ref.p50": n,
        "setup_s": f"median of {len(setup)} fresh processes, "
                   f"at {NOMINAL_REF_S} s per ref",
        "peak_rss_mb": "this process",
    }
    extra = {
        "wall_s": (statistics.median(p.seconds for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "op_s.p50": (statistics.median(op_s), "s", n),
        "op_s.tail": (tail_value, "s", f"p{q}, {n}"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s", wl.size),
        "setup_wall_s": (statistics.median(setup), "s",
                         f"median of {len(setup)} fresh processes"),
        "ref_s": (statistics.median(r.ref_s for r in ops), "s",
                  f"{wl.kernel} reference kernel"),
    }
    return metrics, notes, extra


def per_layer(cli, wl, kernel, seconds, rep):
    rep.add(wl, [run_pass(cli, wl, kernel)])
    plain = timed_passes(cli, wl, kernel, seconds / 2)
    traced = timed_passes(cli, wl, kernel, seconds / 2, tracing.Tracer())
    rep.add(wl, plain)
    rep.add(wl, traced)
    layers = [p.layers for p in traced]
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.rel for p in traced)
        / statistics.median(p.rel for p in plain) - 1.0)
    counts = [k for k in layers[0] if k.endswith((".calls", ".bytes"))]
    repeat = all(m[k] == layers[0][k] for m in layers for k in counts)
    same = [r.files for r in plain[0].ops] == [r.files for r in traced[0].ops]
    if not same:
        rep.other_failures += 1
        print("bench: FAILED: traced and untraced outputs differ",
              file=sys.stderr)
    notes = {"trace.overhead_frac": f"{len(traced)} traced vs "
                                    f"{len(plain)} untraced passes"}
    print(f"  counts repeat across {len(traced)} traced passes: "
          f"{'yes' if repeat else 'NO'}; traced outputs identical: "
          f"{'yes' if same else 'NO'}")
    return metrics, notes, {}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), ("_us", "us"),
                         ("_per_sample", "us"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def run_workload(cli, name, seed, seconds, trace):
    wl = workloads.make(name, seed, WORK / name)
    kernel = ReferenceKernel(wl.kernel)
    rep = Reporter(seed)
    env = environment(seed, wl)
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    if trace:
        metrics, notes, extra = per_layer(cli, wl, kernel, seconds, rep)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, notes, extra = end_to_end(cli, wl, kernel, seconds, rep)
        units = END_TO_END_UNITS
    for k, v in metrics.items():
        print_metric(k, v, units[k], notes.get(k, ""))
    extra["failed_frac"] = (rep.failed / rep.attempted, "ratio",
                            f"{rep.failed} of {rep.attempted} ops")
    for k, (v, unit, note) in extra.items():
        print_metric(k, v, unit, f"{note} (not gated)")
    if rep.reference is not None:
        print(f"  byte mismatches vs reference: {rep.mismatched} "
              f"of {rep.compared} files")
    if wl.probe is not None:
        probe_defect(cli, wl.probe, rep)
    return {
        "correct": rep.failed == 0 and rep.other_failures == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a child process of its own, so that each one's
    peak_rss_mb is its own; the children's result lines are merged."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"bench: {name} ended with code "
                             f"{proc.returncode} and no result")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def record_reference(cli):
    """Write the output digests of one pass per workload at REFERENCE_SEED."""
    doc = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, REFERENCE_SEED, WORK / name)
        files = {}
        for op in wl.ops:
            files.update(run_op(cli, op).files)
        doc[name] = files
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", nargs="+", metavar="ARG",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from seed "
                             f"{REFERENCE_SEED}")
    args = parser.parse_args(argv)
    # Before numpy is first imported; setup probes inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if args.setup_probe:
        setup_probe(args.setup_probe[0], args.setup_probe[1:])
        return 0
    cli = import_cli()
    if args.record_reference:
        record_reference(cli)
        return 0
    if args.workload == "all":
        final = run_all(args)
    else:
        final = run_workload(cli, args.workload, args.seed, args.seconds,
                             args.trace)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
