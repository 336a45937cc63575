"""The golden corpus: a fixed list of CLI runs and what each one gave.

Every entry is one `lindsymlab` command line, with the JSON config it
reads when it takes one. `run` executes an entry through `cli.main` in a
fresh directory and returns its exit code, stdout, stderr and every file
it wrote under `out/`. The corpus holds one `<entry>.json` per entry next
to this script, and `tests/test_golden.py` re-runs every entry against it.

    python tests/golden/record.py

re-runs every entry, rewrites the corpus, and prints each entry whose
bytes changed, appeared or went away. Known-wrong answers are recorded as
they are (the dark `both_symmetric:sx` state), so a change that mends one
shows as a corpus diff.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent

# The base config of tests/test_cli.py's exit-2 inputs.
_EXIT_2_BASE = {"hamiltonian": "tr_invariant", "coupling": "sx^2",
                "gamma": 0.1, "t_max": 50.0, "n_samples": 3,
                "gammas": [1e-3, 2e-3]}
_R3 = 3.0 ** 0.5
_DRAINED = {"hamiltonian": "both_symmetric", "t_max": 400.0,
            "coupling": {"matrix": [[0, _R3, 0, 0], [0, 0, 2, 0],
                                    [0, 0, 0, _R3], [0, 0, 0, 0]]}}
# Hermitian to 1e-12 as written, not once e_g = 1e6 scales it
_SCALED_NOT_HERMITIAN = {"matrix": [[2.25e-6, [0, 1e-13], 0, 0],
                                    [0, 2.5e-7, 0, 0], [0, 0, 2.5e-7, 0],
                                    [0, 0, 0, 2.25e-6]]}
_COUPLINGS = ("sy2", "sxsy_sym", "sxsysz", "sysz", "sx2", "sz", "isz", "sx",
              "sxsysz_sym", "i_sxsysz_asym", "i_sxsysz_sym", "sxsy", "sx2sz")


def _entries() -> dict:
    entries = {}
    # 1e-8: reads 13/16, a known-wrong answer past the propagator's horizon
    for gamma in ("0.025", "0.1", "0.3", "0.4", "1e-8"):
        entries[f"table-gamma-{gamma}"] = dict(
            argv=["table", "--gamma", gamma, "--out", "out"], config=None)
    for op in ("sy2", "sx2sz", "sxsy", "sx"):  # sx: the dark default state
        entries[f"simulate-expm-both_symmetric-{op}"] = dict(
            argv=["simulate", "--config", "run.json", "--out", "out"],
            config={"hamiltonian": "both_symmetric", "coupling": op})
    for spin in ("3.5", "7.5"):  # one system's 64^2 and 256^2 Liouvillians
        entries[f"simulate-expm-both_symmetric-sx2sz-spin-{spin}"] = dict(
            argv=["simulate", "--config", "run.json", "--out", "out"],
            config={"hamiltonian": "both_symmetric", "coupling": "sx2sz",
                    "spin": float(spin)})
    # -Sx^2 at spin 1: T^2 = +1 maps each ground state onto its own ray
    entries["simulate-expm-minus-sx2-spin-1-sx2"] = dict(
        argv=["simulate", "--config", "run.json", "--out", "out"],
        config={"hamiltonian": {"matrix": [[-0.5, 0, -0.5], [0, -1, 0],
                                           [-0.5, 0, -0.5]]},
                "coupling": "sx2", "spin": 1.0})
    entries["simulate-rk4-both_symmetric-sx2sz-horizon-0.5"] = dict(
        argv=["simulate", "--config", "run.json", "--integrator", "rk4",
              "--horizon", "0.5", "--out", "out"],
        config={"hamiltonian": "both_symmetric", "coupling": "sx2sz"})
    for integrator in ("expm", "rk4"):
        entries[f"sweep-{integrator}-tr_invariant-isz"] = dict(
            argv=["sweep", "--config", "run.json", "--out", "out"],
            config={"hamiltonian": "tr_invariant", "coupling": "isz",
                    "integrator": integrator, "gammas": [1e-3, 2e-3, 4e-3]})
        entries[f"sweep-{integrator}-both_symmetric-sx2sz-floor"] = dict(
            argv=["sweep", "--config", "run.json", "--out", "out"],
            config={"hamiltonian": "both_symmetric", "coupling": "sx2sz",
                    "integrator": integrator, "gammas": [1e-12, 2e-12]})
    for op in _COUPLINGS:
        entries[f"classify-op-{op}"] = dict(argv=["classify-op", op],
                                            config=None)
    for name, command, kw in (
            ("rk4-step-budget", "simulate",
             {"integrator": "rk4", "t_max": 1e9}),
            ("sweep-rk4-matrix-1e154", "sweep",
             {"integrator": "rk4", "coupling": {"matrix": [
                 [1e154, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                 [0, 0, 0, 1]]}}),
            ("sweep-drained", "sweep", {**_DRAINED, "gammas": [0.1, 0.2]}),
            ("hamiltonian-scaled-not-hermitian", "simulate", {
                "hamiltonian": _SCALED_NOT_HERMITIAN, "coupling": "sz",
                "e_g": 1e6}),
            # the last two: RK4's trace refusal and a state that is no
            # longer positive when observed
            ("rk4-trace-drift", "simulate", {
                "hamiltonian": "both_symmetric", "coupling": "sx2sz",
                "gamma": 2.0, "integrator": "rk4", "dt": 0.3,
                "t_max": 20.0, "n_samples": 11}),
            ("rk4-not-positive", "simulate", {
                "hamiltonian": "both_symmetric", "coupling": "sxsy",
                "gamma": 2.0, "integrator": "rk4", "dt": 0.4,
                "t_max": 10.0, "n_samples": 11})):
        entries[f"exit-2-{name}"] = dict(
            argv=[command, "--config", "run.json", "--out", "out"],
            config={**_EXIT_2_BASE, **kw})
    return entries


ENTRIES = _entries()


def run(entry: dict, workdir: Path) -> dict:
    """Run one entry through cli.main inside workdir, which must be empty:
    {"exit", "stdout", "stderr", "files": {name: text}}. Paths in the
    messages are relative to workdir, so they do not depend on it."""
    # imported here: run as a script, this file puts src on the path first
    from lindsymlab.cli import main

    if entry["config"] is not None:
        (workdir / "run.json").write_text(json.dumps(entry["config"]))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(list(entry["argv"]))
    except SystemExit as exc:  # argparse refuses a command line
        code = exc.code
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    files = {path.relative_to(out).as_posix(): path.read_text()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return dict(exit=code, stdout=stdout.getvalue(),
                stderr=stderr.getvalue(), files=files)


def texts(result: dict) -> dict:
    """Every text of a result by label: the two streams, then each file."""
    return {"stdout": result["stdout"], "stderr": result["stderr"],
            **{f"out/{name}": text for name, text in result["files"].items()}}


def dump(name: str, result: dict) -> str:
    """An entry's corpus file: its input and its result, texts as lists of
    lines so that a changed line shows as one line of diff."""
    entry = ENTRIES[name]
    doc = dict(argv=entry["argv"], config=entry["config"],
               exit=result["exit"],
               texts={label: text.split("\n")
                      for label, text in texts(result).items()})
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load(name: str) -> dict:
    """An entry's corpus file, its texts joined back into strings."""
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    doc["texts"] = {label: "\n".join(lines)
                    for label, lines in doc["texts"].items()}
    return doc


def main() -> int:
    changed = []
    for name, entry in ENTRIES.items():
        path = CORPUS / f"{name}.json"
        with tempfile.TemporaryDirectory() as tmp:
            text = dump(name, run(entry, Path(tmp)))
        old = path.read_text() if path.exists() else None
        if old != text:
            changed.append(("new" if old is None else "changed", name))
            path.write_text(text)
    for path in sorted(CORPUS.glob("*.json")):
        if path.stem not in ENTRIES:
            changed.append(("removed", path.stem))
            path.unlink()
    for what, name in changed:
        print(f"{what}: {name}")
    print(f"{len(ENTRIES)} entries, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(CORPUS.parent.parent / "src"))
    sys.exit(main())
