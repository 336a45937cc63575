"""Span tracing of lindsymlab's layers from outside the package.

``installed(tracer)`` wraps each layer's public functions with a span
recorder. A function is replaced under every name that refers to it in
any lindsymlab module (``from .lindblad import evolve_expm`` puts a second
name into ``classify`` and ``cli``), plus ``scipy.linalg.expm`` as
``lindblad`` looks it up. Leaving the ``with`` block restores every
replaced name. Spans are kept in memory; ``layer_metrics`` turns the spans
of one pass into per-layer call counts, self times and waste ratios.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (home module, attribute, span name); the span's layer is its first part.
TARGETS = tuple(
    (f"lindsymlab.{mod}", attr, f"{mod}.{attr}")
    for mod, attrs in (
        ("operators", ("spin_matrices", "build_hamiltonian",
                       "build_coupling")),
        ("symmetry", ("quaternion_group", "time_reversal", "is_hermitian",
                      "commutes_with_unitary", "commutes_with_antiunitary",
                      "schur_test")),
        ("spectra", ("eigh", "subspace_density")),
        ("lindblad", ("rhs", "liouvillian_matrix", "evolve_rk4",
                      "evolve_expm", "subspace_block", "block_identity_test")),
        ("observables", ("von_neumann_entropy",)),
        ("response", ("interaction_picture", "delta_rho")),
        ("classify", ("prepare", "compute_signature", "run_scenario",
                      "response_oracle_coherent", "reproduce_table")),
        ("cli", ("main", "load_config", "cmd_table", "cmd_simulate")),
    )
    for attr in attrs
) + (("scipy.linalg", "expm", "lindblad.expm"),)

OP_SPAN = "bench.op"


class Tracer:
    """Records spans as [name, parent index, start, end] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.bench_span = name
        return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lindsymlab"
                                  or n.startswith("lindsymlab."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target under all its names; yield the replaced names.

    Yields a list of (module, attribute, original) triples. A target that
    a later version of the package no longer has is skipped.
    """
    patches = []
    try:
        modules = _package_modules()
        for home_name, attr, span in TARGETS:
            home = importlib.import_module(home_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(span, original)
            for mod in {home, *modules}:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield patches
    finally:
        for mod, name, original in reversed(patches):
            setattr(mod, name, original)


def span_stats(spans):
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children, which run strictly inside it and one after another.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, parent, t0, t1) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += (t1 - t0) - child[i]
    return calls, total, self_s


def count_under(spans, name, ancestor):
    """Number of spans called ``name`` with an ancestor called ``ancestor``."""
    n = 0
    for span_name, parent, _, _ in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][1]
    return n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, table_rows: int, tables: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``table_rows`` and ``tables`` are counted by the harness from the
    outputs, so the per-row and per-table ratios do not depend on how the
    package arranges its calls. A ratio with nothing to divide by is 0.
    """
    calls, total, self_s = span_stats(spans)

    def c(*names):
        return sum(calls[n] for n in names)

    def s(*names):
        return sum(self_s[n] for n in names)

    rk4_steps = count_under(spans, "lindblad.rhs", "lindblad.evolve_rk4") / 4
    oracle = "classify.response_oracle_coherent"
    entropy = "observables.von_neumann_entropy"
    return {
        "observables.von_neumann_entropy.calls": c(entropy),
        "observables.von_neumann_entropy.self_s": s(entropy),
        "observables.entropy_us_per_sample": 1e6 * _ratio(total[entropy],
                                                          calls[entropy]),
        "spectra.subspace_density.calls": c("spectra.subspace_density"),
        "spectra.subspace_density.self_s": s("spectra.subspace_density"),
        "response.delta_rho.calls": c("response.delta_rho"),
        "response.delta_rho.self_s": s("response.delta_rho"),
        "response.interaction_picture.calls":
            c("response.interaction_picture"),
        "spectra.eigh.calls": c("spectra.eigh"),
        "spectra.eigh.self_s": s("spectra.eigh"),
        "classify.response_oracle_coherent.self_s": s(oracle),
        "lindblad.rhs.calls": c("lindblad.rhs"),
        "lindblad.rhs.self_s": s("lindblad.rhs"),
        "lindblad.evolve_rk4.self_s": s("lindblad.evolve_rk4"),
        "lindblad.rk4_step_us": 1e6 * _ratio(total["lindblad.evolve_rk4"],
                                             rk4_steps),
        "lindblad.expm.calls": c("lindblad.expm"),
        "lindblad.expm.self_s": s("lindblad.expm"),
        "lindblad.evolve_expm.self_s": s("lindblad.evolve_expm"),
        "lindblad.liouvillian_matrix.calls": c("lindblad.liouvillian_matrix"),
        "lindblad.block.self_s": s("lindblad.subspace_block",
                                   "lindblad.block_identity_test"),
        "symmetry.schur_test.self_s": s("symmetry.schur_test"),
        "symmetry.quaternion_group.calls": c("symmetry.quaternion_group"),
        "symmetry.quaternion_group.self_s": s("symmetry.quaternion_group"),
        "symmetry.time_reversal.calls": c("symmetry.time_reversal"),
        "symmetry.checks.calls": c("symmetry.is_hermitian",
                                   "symmetry.commutes_with_unitary",
                                   "symmetry.commutes_with_antiunitary"),
        "operators.spin_matrices.calls": c("operators.spin_matrices"),
        "operators.build.self_s": s("operators.build_hamiltonian",
                                    "operators.build_coupling"),
        "classify.prepare.calls": c("classify.prepare"),
        "classify.compute_signature.calls": c("classify.compute_signature"),
        "classify.run_scenario.self_s": s("classify.run_scenario"),
        "cli.load_config.self_s": s("cli.load_config"),
        "cli.cmd.self_s": s("cli.main", "cli.cmd_table", "cli.cmd_simulate"),
        "lindblad.expm.per_trajectory": _ratio(calls["lindblad.expm"],
                                               calls["lindblad.evolve_expm"]),
        "symmetry.quaternion_group.per_table": _ratio(
            calls["symmetry.quaternion_group"], tables),
        "spectra.eigh.per_oracle_probe": _ratio(
            count_under(spans, "spectra.eigh", oracle),
            count_under(spans, "response.delta_rho", oracle)),
        "classify.prepare.per_row": _ratio(calls["classify.prepare"],
                                           table_rows),
        "classify.compute_signature.per_row": _ratio(
            calls["classify.compute_signature"], table_rows),
    }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes; a value every pass agrees on is
    kept as it is, so counts stay whole numbers."""
    out = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        same = len(set(values)) == 1
        out[k] = values[0] if same else statistics.median(values)
    return out
