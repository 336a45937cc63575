"""The benchmark's workloads: generated inputs, CLI calls, output checks.

Every workload is a fixed batch of operations; one operation is one
``lindsymlab.cli.main(argv)`` call. Inputs are drawn from the workload seed
and written as JSON configs, so the library receives only generated
configs. Each operation carries its own output check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

VERDICTS = ("Coherence", "Decoherence")
TABLE_ROWS = 16

# table16: the seed picks the dissipation rate; every value gives 16/16
# with the oracle agreeing.
TABLE_GAMMAS = (0.025, 0.05, 0.1, 0.2, 0.4)

# rk4_trajectory: one coherent and one decoherent row of the table, run
# through the RK4 propagator over a shortened horizon gamma*t = 5.
RK4_ROWS = (("both_symmetric", "sx2"), ("both_symmetric", "sx2sz"))
RK4_HORIZON = 5.0

# spin_ladder: (spin, coupling pool) per operation. The pooled couplings
# are quadratic in the spin matrices and cost the same within 4% at spin
# 23/2, so the run time does not depend on which the seed draws; cubic
# ones cost up to 35% more. Two give Coherence and one Decoherence, and
# for each the single-state verdict agrees with the doublet-block route.
# Spin 23/2 runs twice, so the median operation falls inside one rung
# instead of between two. The spin-31/2 rung takes about three quarters of
# a pass, and there the pooled couplings differ by up to 8% in cost, so it
# always runs sy2 and the seed draws only its alpha/beta.
LADDER_POOL = ("sy2", "sxsy_sym", "sxsy")
LADDER = ((3.5, LADDER_POOL), (7.5, LADDER_POOL), (11.5, LADDER_POOL),
          (11.5, LADDER_POOL), (15.5, ("sy2",)))
LADDER_HAMILTONIAN = "both_symmetric"

# Known defect: simulate of sx2sz at spin 31/2 from the default equal
# superposition ends in this exception at the commit that introduced the
# benchmark. It is probed once per spin_ladder run, untimed and outside
# the workload's operation counts.
DEFECT_CONFIG = {"spin": 15.5, "hamiltonian": LADDER_HAMILTONIAN,
                 "coupling": "sx2sz", "gamma": 0.1, "integrator": "expm"}
KNOWN_DEFECT = ("ValueError", "density matrix must have unit trace")


@dataclass
class Op:
    """One CLI call and what its outputs must satisfy."""

    label: str
    argv: list
    out_dir: Path
    kind: str                  # "table" or "simulate"
    config: Path | None = None


@dataclass
class Workload:
    name: str
    ops: list
    size: str                  # the input size, stated with ops_per_s
    params: dict = field(default_factory=dict)
    probe: Op | None = None    # run once, untimed and uncounted
    kernel: str = "mixed"      # the ReferenceKernel timed between ops


def _unit_pair(rng: random.Random):
    """A random normalized (alpha, beta) as [re, im] pairs."""
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [[z.real / norm, z.imag / norm] for z in v]


def simulate_op(label, cfg, work: Path, extra=()) -> Op:
    """Write ``cfg`` as a config file and return the simulate call on it."""
    cfg_path = work / "configs" / f"{label}.json"
    out_dir = work / "out" / label
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir),
            *extra]
    return Op(label=label, argv=argv, out_dir=out_dir, kind="simulate",
              config=cfg_path)


def table16(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    gamma = rng.choice(TABLE_GAMMAS)
    out_dir = work / "out" / "table"
    op = Op(label="table", argv=["table", "--gamma", repr(gamma),
                                 "--out", str(out_dir)],
            out_dir=out_dir, kind="table")
    return Workload("table16", [op],
                    size="1 table: 16 rows x 3 probes x 201 samples, "
                         "oracle on", params={"gamma": gamma})


def rk4_trajectory(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for ham, coupling in RK4_ROWS:
        alpha, beta = _unit_pair(rng)
        cfg = {"hamiltonian": ham, "coupling": coupling, "gamma": 0.1,
               "integrator": "rk4", "alpha": alpha, "beta": beta}
        ops.append(simulate_op(f"rk4-{ham}-{coupling}", cfg, work,
                               ("--horizon", repr(RK4_HORIZON))))
    return Workload("rk4_trajectory", ops,
                    size="2 spin-3/2 RK4 trajectories, gamma*t = 5, "
                         "201 samples", params={"horizon": RK4_HORIZON})


def spin_ladder(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for k, (spin, pool) in enumerate(LADDER):
        coupling = rng.choice(pool)
        cfg = {"spin": spin, "hamiltonian": LADDER_HAMILTONIAN,
               "coupling": coupling, "gamma": 0.1, "integrator": "expm"}
        cfg["alpha"], cfg["beta"] = _unit_pair(rng)
        ops.append(simulate_op(f"ladder{k}-{int(2 * spin)}_2-{coupling}",
                               cfg, work))
    dims = ", ".join(f"{(int(2 * s) + 1) ** 2}^2" for s, _ in LADDER)
    return Workload("spin_ladder", ops,
                    size=f"{len(ops)} expm trajectories, Liouvillians "
                         f"{dims}, 201 samples",
                    probe=simulate_op("defect-31_2-sx2sz", DEFECT_CONFIG,
                                      work),
                    kernel="large")


WORKLOADS = {"table16": table16, "rk4_trajectory": rk4_trajectory,
             "spin_ladder": spin_ladder}


def make(name: str, seed: int, work: Path) -> Workload:
    """Generate the named workload's inputs under ``work``."""
    return WORKLOADS[name](seed, work)


def check(op: Op) -> list:
    """Problems with the outputs of a completed operation (empty if none)."""
    if op.kind == "table":
        doc = json.loads((op.out_dir / "table.json").read_text())
        problems = []
        if doc.get("all_pass") is not True:
            problems.append("table.json: all_pass is not true")
        if doc.get("oracle_all_agree") is not True:
            problems.append("table.json: oracle_all_agree is not true")
        if len(doc.get("rows", ())) != TABLE_ROWS:
            problems.append(f"table.json: {len(doc.get('rows', ()))} rows")
        return problems
    summary = json.loads((op.out_dir / "summary.json").read_text())
    verdict = summary.get("verdict")
    if verdict not in VERDICTS:
        return [f"summary.json: verdict {verdict!r}"]
    if (verdict == "Coherence") != summary.get("block_identity"):
        return [f"summary.json: verdict {verdict} disagrees with "
                f"block_identity={summary.get('block_identity')}"]
    return []


def output_files(op: Op) -> list:
    """The files an operation writes, in a fixed order."""
    if op.kind == "table":
        return [op.out_dir / "table.txt", op.out_dir / "table.json"]
    return [op.out_dir / "trajectory.csv", op.out_dir / "summary.json"]
