"""Command-line front end.

Subcommands:
  simulate     one configured run -> trajectory CSV + JSON summary
  table        the 16-row classification -> text + JSON, exit 0 iff 16/16
  sweep        repeat a run over several gammas, fit the first-order
               discrepancy exponent -> CSV + JSON summary
  classify-op  print the spin-3/2 symmetry signature of a coupling operator

Configs are single JSON documents; an operator is a catalog name or a
literal matrix as a list of rows, each entry a number or an [re, im]
pair. All CSV output is deterministic: 12 significant digits,
'.' decimal separator, '\\n' line endings, and files are written through a
temporary name so they appear only when complete. No environment
variable is read, and every tolerance is fixed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classify import (DEFAULT_GAMMA, DEFAULT_HORIZON, ScenarioSystem,
                       compute_signature, decide, prepare, propagate,
                       reproduce_table)
from .lindblad import PropagationError, evolve_expm
from .observables import ObservationError, observe_subspace
from .operators import (ConfigError, OperatorSpec, build_coupling,
                        half_integer, spin_matrices)
from .response import delta_rho, scaling_exponent

# evolve_expm is re-exported, not called: bench/test_bench.py checks that
# tracing wraps it under this module's name too.
__all__ = ["evolve_expm", "main"]


# The shortest horizon gamma*t the table accepts. At 0.01 a decoherent row
# still reads Ambiguous, and every row is resolved from 0.02 up at gamma
# 1e-6 to 1000; the bound keeps a factor of five in hand.
MIN_TABLE_HORIZON = 0.1

# sweep refuses a discrepancy at or below SWEEP_FLOOR or, if larger, its
# integrator's per-step floor times the RK4 or expm sample steps. Over the
# 39 catalog H x O pairs at t_max 5 to 500, roundoff reaches 5.4e-17 per
# RK4 step, 1.1e-16 per fine expm step, and 2.1e-14 in all on a coarse
# expm grid, so each per-step floor keeps a factor of 1.8 or more in hand.
SWEEP_FLOOR = 3e-12
SWEEP_FLOOR_PER_STEP = {"rk4": 1e-16, "expm": 4e-16}


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


def _number(value, key: str, positive: bool = False,
            integer: bool = False):
    """The one reader of a numeric config value: a JSON number, never a
    boolean or a string, finite, and above zero or an integer where the key
    needs that. A real value comes back as a float, so 1 reads as 1.0."""
    # type(), not isinstance(): bool is a subclass of int
    if type(value) is not int and (integer or type(value) is not float):
        raise ConfigError(f"{key}: invalid value {value!r}, need a JSON "
                          f"{'integer' if integer else 'number'}")
    if integer:
        return value
    try:
        number = value * 1.0  # an int becomes a float; a float is unchanged
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not (math.isfinite(number) and (number > 0 or not positive)):
        raise ConfigError(f"{key}: {value!r} is not a finite number"
                          f"{' > 0' if positive else ''}")
    return number


def _complex(value, key: str) -> complex:
    pair = value if isinstance(value, list) else [value, 0]
    if len(pair) != 2:
        raise ConfigError(f"{key}: need a number or [re, im], got {value!r}")
    return complex(_number(pair[0], key), _number(pair[1], key))


def _operator(value, key: str, scale: float = 1.0) -> OperatorSpec:
    """A catalog name, which the builders resolve, or a literal matrix
    as a square list of rows."""
    if isinstance(value, str):
        return OperatorSpec(name=value, scale=scale)
    if not (isinstance(value, list) and value
            and all(isinstance(row, list) and len(row) == len(value)
                    for row in value)):
        raise ConfigError(f"{key}: need a catalog name or a square list "
                          f"of rows, got {value!r}")
    return OperatorSpec(scale=scale, matrix=np.array(
        [[_complex(x, key) for x in row] for row in value]))


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
    gammas: list = field(default_factory=list)


_NUMBERS = {"spin": {"positive": True}, "gamma": {"positive": True},
            "t_max": {"positive": True}, "dt": {"positive": True},
            "n_samples": {"integer": True}}
_KNOWN_KEYS = {*_NUMBERS, "hamiltonian", "coupling", "e_g", "integrator",
               "alpha", "beta", "gammas"}


def _read(doc: dict) -> RunConfig:
    """Check each value as its key is read, then the cross-key rules."""
    # a null t_max or dt leaves it unset
    fields = {key: _number(doc[key], key, **_NUMBERS[key])
              for key in _NUMBERS if key in doc
              and not (doc[key] is None and key in ("t_max", "dt"))}
    fields.update({key: _complex(doc[key], key)
                   for key in ("alpha", "beta") if key in doc})
    if not isinstance(gammas := doc.get("gammas", []), list):
        raise ConfigError(f"gammas: expected a list, got {gammas!r}")
    cfg = RunConfig(
        hamiltonian=_operator(doc["hamiltonian"], "hamiltonian",
                              _number(doc.get("e_g", 1.0), "e_g")),
        coupling=_operator(doc["coupling"], "coupling"),
        integrator=doc.get("integrator", "expm"),
        gammas=[_number(g, f"gammas[{i}]", positive=True)
                for i, g in enumerate(gammas)], **fields)
    # products, unlike ** 2, overflow to inf instead of raising
    norm = abs(cfg.alpha) * abs(cfg.alpha) + abs(cfg.beta) * abs(cfg.beta)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError(f"alpha/beta: |a|^2 + |b|^2 = {norm!r}, need 1")
    if cfg.integrator not in ("rk4", "expm"):
        raise ConfigError(f"integrator must be rk4 or expm, "
                          f"got {cfg.integrator!r}")
    if cfg.n_samples < 2:
        raise ConfigError("n_samples must be at least 2")
    return cfg


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
        return _read(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class Outputs:
    """The one writer of a command's data file and JSON summary, each
    under its command's fixed name in --out. --out is created at the end,
    and each file is written through a temporary name. A
    failed write is an input error naming --out, and it leaves neither
    file nor a temporary one."""

    def __init__(self, out: str, data: str, summary: str):
        self.data = Path(out) / data
        self.summary = Path(out) / summary

    def write(self, data: str, summary: dict) -> None:
        try:
            self.data.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create {self.data.parent} "
                              f"({exc.strerror})") from None
        written = []
        for path, text in ((self.data, data), (self.summary, json.dumps(
                summary, indent=2, sort_keys=True) + "\n")):
            tmp = path.with_name(path.name + ".tmp")
            try:
                with open(tmp, "w", newline="\n") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            except OSError as exc:
                for stale in (tmp, *written):
                    with contextlib.suppress(OSError):
                        stale.unlink()
                raise ConfigError(f"--out: cannot write {path} "
                                  f"({exc.strerror})") from None
            written.append(path)


def _fmt(x: float) -> str:
    return "%.11e" % (0.0 if x == 0 else x)


def _t_max(horizon: float, gamma: float, names: tuple) -> float:
    """The one place a run's t_max comes from a horizon gamma*t: refuses a
    quotient that overflows or underflows, naming the two inputs."""
    t_max = horizon / gamma
    if not 0 < t_max < math.inf:
        raise ConfigError(
            f"t_max = {names[0]} {horizon!r} / {names[1]} {gamma!r} is "
            f"{t_max!r}, need a finite number > 0")
    return t_max


def _prepare_doublet(cfg: RunConfig,
                     gamma: float) -> tuple[ScenarioSystem, np.ndarray]:
    """The system prepared at gamma and the alpha/beta initial state."""
    system = prepare(cfg, gamma, cfg.spin)
    psi0 = cfg.alpha * system.basis[:, 0] + cfg.beta * system.basis[:, 1]
    return system, np.outer(psi0, psi0.conj())


CSV_HEADER = "t,gamma_t,s_v,trace_g,re_rho_pp,re_rho_pm,im_rho_pm,re_rho_mm"


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    outputs = Outputs(args.out, "trajectory.csv", "summary.json")
    t_max = cfg.t_max
    if args.horizon is not None or t_max is None:
        t_max = _t_max(args.horizon or DEFAULT_HORIZON, cfg.gamma, (
            "--horizon" if args.horizon else "default horizon", "gamma"))
    args.t_max = t_max  # main names it if the doublet cannot be observed

    system, rho0 = _prepare_doublet(cfg, cfg.gamma)
    system.liouvillian  # decide reads it after RK4: refuse an overflow first
    traj = propagate(system, rho0, t_max, cfg.n_samples, cfg.integrator,
                     cfg.dt)
    s_v, trace_g, blocks = observe_subspace(traj, system.basis)
    routes = decide(system, traj.states[None], s_v[None], trace_g[None])

    rows = [",".join([
        _fmt(t), _fmt(cfg.gamma * t), _fmt(s), _fmt(tr),
        _fmt(rg[0, 0].real), _fmt(rg[0, 1].real), _fmt(rg[0, 1].imag),
        _fmt(rg[1, 1].real),
    ]) for t, s, tr, rg in zip(traj.times, s_v, trace_g, blocks)]
    summary = {
        "gamma": cfg.gamma,
        "t_max": t_max,
        "integrator": cfg.integrator,
        "verdict": routes.pop("measured_coherence").value,
        **routes,
        "csv": outputs.data.name,
    }
    outputs.write("\n".join([CSV_HEADER] + rows) + "\n", summary)
    print(f"wrote {outputs.data} and {outputs.summary} "
          f"(verdict: {summary['verdict']})")
    return 0


def cmd_table(args) -> int:
    """The table's verdicts rendered as table.txt and table.json; exit 1
    unless every row passes."""
    outputs = Outputs(args.out, "table.txt", "table.json")
    # for main, as in cmd_simulate
    args.t_max = _t_max(args.horizon, args.gamma, ("--horizon", "--gamma"))
    if args.horizon < MIN_TABLE_HORIZON:
        raise ConfigError(f"--horizon {args.horizon!r} is below "
                          f"{MIN_TABLE_HORIZON}, too short for every row's "
                          f"verdict to be resolved")
    verdicts = reproduce_table(gamma=args.gamma, horizon=args.horizon)
    all_pass = all(v.passed for v in verdicts)

    header = (f"{'scenario':34s} {'expected':12s} {'measured':12s} "
              f"{'block':5s} {'schur':5s} {'oracle':6s} {'row':4s}")
    lines = [header, "-" * len(header)] + [
        f"{v.name:34s} {v.expected_coherence.value:12s} "
        f"{v.measured_coherence.value:12s} "
        f"{'yes' if v.block_identity else 'no':5s} "
        f"{'yes' if v.schur_proportional else 'no':5s} "
        f"{'ok' if v.oracle_agrees else 'DIS':6s} "
        f"{'ok' if v.passed else 'FAIL':4s}" for v in verdicts]
    lines += ["-" * len(header),
              f"rows matching: {sum(v.passed for v in verdicts)}/"
              f"{len(verdicts)}   (gamma={args.gamma}, "
              f"horizon gamma*t={args.horizon})",
              "", "signature -> row assignment (audit):"]
    lines += [f"  {v.name:34s} {str(v.claims):42s} -> "
              f"{v.expected_coherence.value}" for v in verdicts]
    text = "\n".join(lines) + "\n"
    doc = {
        "gamma": args.gamma,
        "horizon": args.horizon,
        "all_pass": all_pass,
        "oracle_all_agree": all(v.oracle_agrees for v in verdicts),
        "rows": [{
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
            "oracle_agrees": v.oracle_agrees,
            "passed": v.passed,
        } for v in verdicts],
    }
    outputs.write(text, doc)
    print(text, end="")
    return 0 if all_pass else 1


def cmd_sweep(args) -> int:
    """Fit how ||rho - rho_0 - delta_rho|| at t_max scales with gamma, from
    one system prepared at gamma = 0 and replaced, not rebuilt, per gamma.
    Each gamma is propagated, observed and held to the roundoff floor
    before the next is propagated, so a refusal costs one trajectory."""
    cfg = load_config(args.config)
    outputs = Outputs(args.out, "sweep.csv", "sweep_summary.json")
    gammas = cfg.gammas
    if len(set(gammas)) < 2:
        raise ConfigError("sweep needs at least two distinct gamma values "
                          "(config key 'gammas')")
    t_max = cfg.t_max if cfg.t_max is not None else 5.0
    args.t_max = t_max  # for main, as in cmd_simulate

    ref, rho0 = _prepare_doublet(cfg, 0.0)
    rows, discrepancies, unit = [], [], None
    for gamma in gammas:
        traj = propagate(replace(ref, gamma=gamma), rho0, t_max,
                         cfg.n_samples, cfg.integrator, cfg.dt)
        s_v, _, _ = observe_subspace(traj, ref.basis)
        if unit is None:
            # once, after a propagator has accepted the coupling. rho0 lies
            # in H's ground level, so it is its own gamma = 0 evolution;
            # delta_rho multiplies by gamma last: gamma * unit keeps every bit
            unit = delta_rho(rho0, ref.o, ref.h, 1.0, t_max)
        disc = float(np.linalg.norm(traj.states[-1] - rho0 - gamma * unit))
        steps = t_max / traj.meta["dt"]
        per_step = SWEEP_FLOOR_PER_STEP[cfg.integrator]
        floor = max(SWEEP_FLOOR, per_step * steps)
        if disc <= floor:
            raise ConfigError(
                f"the discrepancy at gamma={gamma:g} is {disc:.2g}, within "
                f"the roundoff floor {floor:g} of {steps:.0f} steps: no "
                f"exponent can be fitted (coupling, alpha/beta, t_max)")
        discrepancies.append(disc)
        rows.append(",".join([_fmt(gamma), _fmt(s_v[-1]), _fmt(disc)]))

    exponent = scaling_exponent(gammas, discrepancies)
    summary = {
        "gammas": gammas,
        "t_max": t_max,
        "discrepancies": discrepancies,
        "fitted_exponent": exponent,
        "csv": outputs.data.name,
    }
    outputs.write("\n".join(["gamma,terminal_s_v,discrepancy"] + rows)
                  + "\n", summary)
    print(f"wrote {outputs.data}; fitted exponent {exponent:.3f}")
    return 0


def cmd_classify_op(args) -> int:
    if (args.operator is None) == (args.config is None):
        raise ConfigError("give exactly one of an operator name and "
                          "--config")
    if args.config is not None:
        cfg = load_config(args.config)
        # the quaternion group exists here only on the 4-dimensional space
        if half_integer(cfg.spin) != 1.5:
            raise ConfigError(f"spin: classify-op measures the signature at "
                              f"spin 1.5 only, got {cfg.spin!r}")
        spec = cfg.coupling
    else:
        spec = OperatorSpec(name=args.operator)
    claims, failing = compute_signature(
        build_coupling(spec, spin_matrices(1.5)))
    print(f"operator:  {spec.name or '<literal matrix>'}")
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
    p_sim.add_argument("--horizon", type=_positive, default=None,
                       help="dimensionless horizon gamma*t (overrides t_max)")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("table", help="reproduce the 16-row classification")
    p_tab.add_argument("--gamma", type=_positive, default=DEFAULT_GAMMA,
                       help="dissipation rate")
    p_tab.add_argument("--horizon", type=_positive, default=DEFAULT_HORIZON,
                       help=f"dimensionless horizon gamma*t, at least "
                            f"{MIN_TABLE_HORIZON}")
    p_tab.add_argument("--out", default=".", help="output directory")
    p_tab.set_defaults(func=cmd_table)

    p_sw = sub.add_parser("sweep", help="gamma sweep with first-order oracle")
    p_sw.add_argument("--config", required=True,
                      help="path to a JSON run configuration")
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
    except ObservationError as exc:
        # only observing a trajectory raises it, after the command has
        # set args.t_max; table's t_max comes from its two flags
        flags = (f" (--horizon {args.horizon:g} / --gamma {args.gamma:g})"
                 if args.command == "table" else "")
        print(f"error: the doublet cannot be observed up to "
              f"t_max={args.t_max:g}{flags}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
