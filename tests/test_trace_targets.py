"""Every function the benchmark traces still exists in the package.

bench/tracing.py skips a target the package no longer has, so deleting or
renaming a traced function would zero its per-layer metric without an
error. This test turns that into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{attr}" for home, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(home), attr,
                                       None))]
    assert missing == []
    # bench/test_bench.py checks that tracing replaces cli.evolve_expm,
    # which cli re-exports for that check alone
    from lindsymlab import cli, lindblad
    assert cli.evolve_expm is lindblad.evolve_expm
