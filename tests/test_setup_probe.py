"""The benchmark's setup path runs on this checkout.

bench/run.py measures each workload's setup time by running
`run.py --setup-probe <workload> <configs>` in a fresh process, with
check=True. That path calls cli.load_config, classify.prepare,
spectra.ground_subspace and symmetry.time_reversal outside any traced
run, so a break there would show only as a failed benchmark run. This
test runs the same command on each workload's seed-0 configs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_the_setup_probe_of_each_workload_exits_0(name, tmp_path):
    wl = WORKLOADS.make(name, 0, tmp_path)
    configs = [str(op.config) for op in wl.ops if op.config is not None]
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--setup-probe", name, *configs],
                          cwd=BENCH.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
