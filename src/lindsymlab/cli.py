"""Command-line front end.

Subcommands:
  simulate     one configured run -> trajectory CSV + JSON summary
  table        the 16-row classification -> text + JSON, exit 0 iff 16/16
  sweep        repeat a run over several gammas, fit the first-order
               discrepancy exponent -> CSV + JSON summary
  classify-op  print the spin-3/2 symmetry signature of a coupling operator

Configs are single JSON documents; literal matrices are nested arrays of
[re, im] pairs. All CSV output is deterministic: 12 significant digits,
'.' decimal separator, '\\n' line endings, and files are written through a
temporary name so they appear only when complete. The environment variable
LSL_TOLERANCE_SCALE multiplies the entropy verdict thresholds and the
doublet-block and Schur tolerance, for CI boxes whose float environments
differ; every other tolerance is fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classify import (DEFAULT_GAMMA, DEFAULT_HORIZON, ScenarioSystem,
                       compute_signature, doublet_block, prepare, propagate,
                       reproduce_table)
from .lindblad import (MAX_TRAJECTORY_ENTRIES, PropagationError,
                       evolve_expm, vec)
from .observables import PositivityError, coherence_verdict, observe_subspace
from .operators import (OperatorSpec, build_coupling, canonical_name,
                        spin_matrices)
from .response import delta_rho, scaling_exponent
from .spectra import SubspaceDepletedError
from .symmetry import time_reversal


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _positive(text: str) -> float:
    """A finite number above zero; raises argparse's error type otherwise."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def tolerance_scale() -> float:
    raw = os.environ.get("LSL_TOLERANCE_SCALE", "1")
    try:
        return _positive(raw)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"LSL_TOLERANCE_SCALE {exc}") from None


def _parse_complex(value, key: str) -> complex:
    pair = [value, 0] if isinstance(value, (int, float)) else value
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(x, (int, float)) for x in pair)):
        raise ConfigError(
            f"{key}: expected a number or [re, im] pair, got {value!r}")
    if not all(map(math.isfinite, pair)):
        raise ConfigError(f"{key}: {value!r} is not finite")
    return complex(*pair)


def _parse_matrix(rows, key: str) -> np.ndarray:
    try:
        mat = np.array([[_parse_complex(x, key) for x in row] for row in rows])
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{key}: malformed matrix literal ({exc})") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{key}: matrix must be square, got shape {mat.shape}")
    return mat


def _parse_operator(value, key: str, scale: float = 1.0) -> OperatorSpec:
    if isinstance(value, str):
        return OperatorSpec(name=value, scale=scale)
    if isinstance(value, dict):
        extra = scale * float(value.get("scale", 1.0))
        if "name" in value:
            if not isinstance(value["name"], str):
                raise ConfigError(f"{key}: name must be a string, "
                                  f"got {value['name']!r}")
            return OperatorSpec(name=value["name"], scale=extra)
        if "matrix" in value:
            return OperatorSpec(matrix=_parse_matrix(value["matrix"], key),
                                scale=extra)
        raise ConfigError(f"{key}: object needs a 'name' or 'matrix' entry")
    raise ConfigError(f"{key}: expected a name or an object, got {value!r}")


@dataclass
class RunConfig:
    """One fully specified simulation."""

    hamiltonian: OperatorSpec
    coupling: OperatorSpec
    spin: float = 1.5
    gamma: float = 0.1
    t_max: float | None = None
    dt: float | None = None
    integrator: str = "expm"
    alpha: complex = complex(1 / np.sqrt(2.0))
    beta: complex = complex(1 / np.sqrt(2.0))
    n_samples: int = 201
    n_quad: int = 128
    gammas: list = field(default_factory=list)
    # None: each command writes its own default file names
    csv_name: str | None = None
    summary_name: str | None = None

    def validate(self) -> None:
        # products, unlike ** 2, overflow to inf instead of raising
        norm = (abs(self.alpha) * abs(self.alpha)
                + abs(self.beta) * abs(self.beta))
        if abs(norm - 1.0) > 1e-9:
            raise ConfigError(f"alpha/beta: |a|^2 + |b|^2 = {norm!r}, need 1")
        for key in ("gamma", "t_max", "dt"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be finite and positive")
        if not all(0 < g < math.inf for g in self.gammas):
            raise ConfigError("gammas must be finite and positive")
        for key in ("hamiltonian", "coupling"):
            if not math.isfinite(getattr(self, key).scale):
                raise ConfigError(f"{key}: scale must be finite")
        if self.integrator not in ("rk4", "expm"):
            raise ConfigError(f"integrator must be rk4 or expm, "
                              f"got {self.integrator!r}")
        for key in ("n_samples", "n_quad"):
            if type(getattr(self, key)) is not int:
                raise ConfigError(f"{key} must be an integer, "
                                  f"got {getattr(self, key)!r}")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if self.n_quad < 16 or self.n_quad % 2:
            raise ConfigError("n_quad must be an even panel count >= 16")
        for key, value in (("csv", self.csv_name),
                           ("summary", self.summary_name)):
            if value is not None and (not isinstance(value, str)
                                      or value in ("", ".", "..")
                                      or Path(value).name != value):
                raise ConfigError(f"{key} must be a plain file name, "
                                  f"got {value!r}")


_KNOWN_KEYS = {"spin", "hamiltonian", "coupling", "gamma", "e_g", "t_max",
               "dt", "integrator", "alpha", "beta", "n_samples", "n_quad",
               "gammas", "csv", "summary"}


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file.

    Raises:
        ConfigError: unreadable file, JSON syntax errors (with line/column),
            unknown keys, missing operators, or violated invariants.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for required in ("hamiltonian", "coupling"):
        if required not in doc:
            raise ConfigError(f"{path}: missing required key '{required}'")

    try:
        e_g = float(doc.get("e_g", 1.0))
        if not math.isfinite(e_g):
            raise ConfigError(f"{path}: e_g must be finite")
        cfg = RunConfig(
            hamiltonian=_parse_operator(doc["hamiltonian"], "hamiltonian", e_g),
            coupling=_parse_operator(doc["coupling"], "coupling"),
            spin=float(doc.get("spin", 1.5)),
            gamma=float(doc.get("gamma", 0.1)),
            t_max=float(doc["t_max"]) if doc.get("t_max") is not None else None,
            dt=float(doc["dt"]) if doc.get("dt") is not None else None,
            integrator=str(doc.get("integrator", "expm")),
            n_samples=doc.get("n_samples", 201),
            n_quad=doc.get("n_quad", 128),
            gammas=[float(g) for g in doc.get("gammas", [])],
            csv_name=doc.get("csv"),
            summary_name=doc.get("summary"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid value ({exc})") from None
    for key in ("alpha", "beta"):
        if key in doc:
            setattr(cfg, key, _parse_complex(doc[key], key))
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return "%.11e" % (0.0 if x == 0 else x)


def _prepare_doublet(cfg: RunConfig,
                     gamma: float) -> tuple[ScenarioSystem, np.ndarray]:
    """The system prepared at gamma and the alpha/beta initial state."""
    try:
        system = prepare(cfg, gamma, cfg.spin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every later norm on the Liouvillian's space would overflow too
    if not np.isfinite(np.linalg.norm(system.liouvillian)):
        raise ConfigError(
            f"the Liouvillian at gamma={gamma:g} overflows: hamiltonian "
            f"(e_g), coupling or gamma too large")
    if system.ground.dim != 2:
        raise ConfigError(
            f"ground subspace has dimension {system.ground.dim}; the "
            f"alpha/beta initial state needs a doublet")
    basis = system.ground.basis
    psi0 = cfg.alpha * basis[:, 0] + cfg.beta * basis[:, 1]
    return system, np.outer(psi0, psi0.conj())


def _observe(traj, system: ScenarioSystem, t_max: float):
    """observe_subspace; a drained or non-positive doublet is an input error."""
    try:
        return observe_subspace(traj, system.ground.basis)
    except (SubspaceDepletedError, PositivityError) as exc:
        raise ConfigError(f"the doublet cannot be observed up to "
                          f"t_max={t_max:g}: {exc}") from None


CSV_HEADER = "t,gamma_t,s_v,trace_g,re_rho_pp,re_rho_pm,im_rho_pm,re_rho_mm"


def cmd_simulate(args) -> int:
    scale = tolerance_scale()
    cfg = load_config(args.config)
    # argparse has already checked both overrides
    cfg.gamma = args.gamma or cfg.gamma
    cfg.integrator = args.integrator or cfg.integrator
    t_max = cfg.t_max
    if args.horizon is not None or t_max is None:
        t_max = (args.horizon or DEFAULT_HORIZON) / cfg.gamma

    # propagate rejects an overflowing input; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        system, rho0 = _prepare_doublet(cfg, cfg.gamma)
        traj = propagate(system, rho0, t_max, cfg.n_samples, cfg.integrator,
                         cfg.dt)
    series, blocks = _observe(traj, system, t_max)
    verdict = coherence_verdict(series, scale)
    block = doublet_block(system, scale)

    rows = [",".join([
        _fmt(t), _fmt(cfg.gamma * t), _fmt(s_v), _fmt(trace_g),
        _fmt(rg[0, 0].real), _fmt(rg[0, 1].real), _fmt(rg[0, 1].imag),
        _fmt(rg[1, 1].real),
    ]) for t, s_v, trace_g, rg in zip(traj.times, series.s_v,
                                      series.trace_g, blocks)]
    csv_name = cfg.csv_name or "trajectory.csv"
    summary_name = cfg.summary_name or "summary.json"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / csv_name, "\n".join([CSV_HEADER] + rows) + "\n")
    summary = {
        "gamma": cfg.gamma,
        "t_max": t_max,
        "integrator": cfg.integrator,
        "terminal_entropy": float(series.s_v[-1]),
        "peak_entropy": float(np.max(series.s_v)),
        "terminal_trace_g": float(series.trace_g[-1]),
        "verdict": verdict.value,
        "block_identity": bool(block.proportional),
        "block_residual": float(block.residual),
        "stationarity": float(np.linalg.norm(system.liouvillian
                                             @ vec(traj.states[-1]))),
        "csv": csv_name,
    }
    _atomic_write(out_dir / summary_name,
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / csv_name} and {out_dir / summary_name} "
          f"(verdict: {verdict.value})")
    return 0


def cmd_table(args) -> int:
    report = reproduce_table(gamma=args.gamma, horizon=args.horizon,
                             tol_scale=tolerance_scale())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = report.text_table() + "\n"
    _atomic_write(out_dir / "table.txt", text)
    doc = {
        "gamma": report.gamma,
        "horizon": report.horizon,
        "all_pass": report.all_pass,
        "oracle_all_agree": report.oracle_all_agree,
        "rows": [
            {
                "scenario": v.name,
                "expected": v.expected_coherence.value,
                "measured": v.measured_coherence.value,
                "block_identity": v.block_identity,
                "block_residual": v.block_residual,
                "schur_proportional": v.schur_proportional,
                "schur_residual": v.schur_residual,
                "peak_entropy": v.peak_entropy,
                "terminal_entropy": v.terminal_entropy,
                "terminal_trace_g": v.terminal_trace_g,
                "oracle_agrees": report.oracle_agreement[v.name],
                "passed": v.passed,
            }
            for v in report.verdicts
        ],
    }
    _atomic_write(out_dir / "table.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(text, end="")
    return 0 if report.all_pass else 1


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    gammas = cfg.gammas if args.gamma is None else args.gamma
    if len(set(gammas)) < 2:
        raise ConfigError("sweep needs at least two distinct gamma values "
                          "(config key 'gammas' or --gamma g1,g2,...)")
    t_max = cfg.t_max if cfg.t_max is not None else 5.0

    with np.errstate(over="ignore", invalid="ignore"):
        ref, rho0 = _prepare_doublet(cfg, 0.0)
        # delta_rho stacks one d x d matrix per quadrature node
        d = rho0.shape[0]
        if (cfg.n_quad + 1) * d * d > MAX_TRAJECTORY_ENTRIES:
            raise ConfigError(
                f"n_quad={cfg.n_quad} at dimension {d} needs more than "
                f"{MAX_TRAJECTORY_ENTRIES} stored entries")
        traj0 = evolve_expm(rho0, ref.liouvillian, t_max, cfg.n_samples)
        trajs = [propagate(_prepare_doublet(cfg, gamma)[0], rho0, t_max,
                           cfg.n_samples, cfg.integrator, cfg.dt)
                 for gamma in gammas]

    rows = []
    discrepancies = []
    for gamma, traj in zip(gammas, trajs):
        series, _ = _observe(traj, ref, t_max)
        delta = delta_rho(traj0.states[-1], ref.o, ref.h, gamma, t_max,
                          cfg.n_quad)
        disc = float(np.linalg.norm(traj.states[-1] - traj0.states[-1]
                                    - delta))
        if disc == 0:
            raise ConfigError(
                f"the discrepancy at gamma={gamma:g} is exactly zero, so no "
                f"exponent can be fitted (coupling, alpha/beta)")
        discrepancies.append(disc)
        rows.append(",".join([_fmt(gamma), _fmt(series.s_v[-1]), _fmt(disc)]))

    exponent = scaling_exponent(gammas, discrepancies)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_name = cfg.csv_name or "sweep.csv"
    summary_name = cfg.summary_name or "sweep_summary.json"
    _atomic_write(out_dir / csv_name,
                  "\n".join(["gamma,terminal_s_v,discrepancy"] + rows) + "\n")
    summary = {
        "gammas": gammas,
        "t_max": t_max,
        "n_quad": cfg.n_quad,
        "discrepancies": discrepancies,
        "fitted_exponent": exponent,
        "csv": csv_name,
    }
    _atomic_write(out_dir / summary_name,
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / csv_name}; fitted exponent {exponent:.3f}")
    return 0


def cmd_classify_op(args) -> int:
    if args.config is not None:
        cfg = load_config(args.config)
        # the quaternion group exists here only on the 4-dimensional space
        if cfg.spin != 1.5:
            raise ConfigError(f"spin: classify-op measures the signature at "
                              f"spin 1.5 only, got {cfg.spin:g}")
        spec = cfg.coupling
    else:
        if args.operator is None:
            raise ConfigError("give an operator name or --config")
        spec = OperatorSpec(name=args.operator)
    try:
        o = build_coupling(spec, spin_matrices(1.5))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    claims, failing = compute_signature(o, time_reversal(1.5))
    shown = (f"{spec.name} (canonical: {canonical_name(spec.name)})"
             if spec.name is not None else "<literal matrix>")
    print(f"operator:  {shown}")
    print(f"hermitian: {'yes' if claims.hermitian else 'no'}")
    print(f"[O,T]=0:   {'yes' if claims.commutes_t else 'no'}")
    if failing:
        print(f"[O,Q]=0:   no   (fails on: {', '.join(failing)})")
    else:
        print("[O,Q]=0:   yes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindsymlab",
        description="Symmetry-protected coherence in dissipative spin models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured scenario")
    p_sim.add_argument("--config", required=True,
                       help="path to a JSON run configuration")
    p_sim.add_argument("--gamma", type=_positive, default=None,
                       help="dissipation rate (overrides the config)")
    p_sim.add_argument("--integrator", choices=("rk4", "expm"), default=None,
                       help="propagator (overrides the config)")
    p_sim.add_argument("--horizon", type=_positive, default=None,
                       help="dimensionless horizon gamma*t (overrides t_max)")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("table", help="reproduce the 16-row classification")
    p_tab.add_argument("--gamma", type=_positive, default=DEFAULT_GAMMA,
                       help="dissipation rate")
    p_tab.add_argument("--horizon", type=_positive, default=DEFAULT_HORIZON,
                       help="dimensionless horizon gamma*t")
    p_tab.add_argument("--out", default=".", help="output directory")
    p_tab.set_defaults(func=cmd_table)

    p_sw = sub.add_parser("sweep", help="gamma sweep with first-order oracle")
    p_sw.add_argument("--config", required=True,
                      help="path to a JSON run configuration")
    p_sw.add_argument("--gamma", default=None,
                      type=lambda text: [_positive(tok)
                                         for tok in text.split(",") if tok],
                      help="comma-separated dissipation rates "
                           "(overrides 'gammas')")
    p_sw.add_argument("--out", default=".", help="output directory")
    p_sw.set_defaults(func=cmd_sweep)

    p_cls = sub.add_parser("classify-op",
                           help="print an operator's symmetry signature")
    p_cls.add_argument("operator", nargs="?", default=None,
                       help="catalog operator name (or use --config)")
    p_cls.add_argument("--config", default=None)
    p_cls.set_defaults(func=cmd_classify_op)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PropagationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
