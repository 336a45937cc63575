"""Config documents drawn at random never end a run in a traceback.

Each document starts from plausible values for some of the known keys and
then has up to two of them replaced by a non-finite, huge, negative or
wrongly typed value, or gains an unknown key. Some carry a retired key
(`csv`, `summary`) or a retired spelling of an operator (an alias, a name
in upper case or padded, a `{"name": ...}` or `{"matrix": ...}` object),
and some command lines a retired flag (`simulate --gamma` or
`--integrator`, `sweep --gamma`): each such run must exit 2. Every
`simulate` and `sweep` run must end in exit 0, 1 or 2 without an
exception or a numpy RuntimeWarning, and a rejected run (exit 2) must
leave no output directory and print one `error:` line that names a config
key or a flag, or argparse's refusal of the flag. A retired spelling in
an otherwise valid document is refused under its own key.
An answered `simulate` (exit 0) must not find more population in the
doublet than the state holds.
`spin` stays small, and `n_samples` is either small or above the
trajectory size limit, so no draw takes long or allocates much.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindsymlab import operators
from lindsymlab.cli import _KNOWN_KEYS, main
from lindsymlab.lindblad import MAX_TRAJECTORY_ENTRIES

_BAD = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, math.inf,
                     -math.inf, math.nan]),
    st.sampled_from(["bogus", "..", "x/y.csv"]),
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.just({"name": "sx"}),
)

_HAMILTONIANS = ["q_symmetric", "tr_invariant", "both_symmetric"]
_COUPLINGS = ["sx", "sz", "isz", "sy2", "sx2", "sxsy", "sx2sz"]
_ENTRY = st.one_of(st.sampled_from([0, 1, -0.5, 1e308]),
                   st.lists(st.sampled_from([0, 1, 2.5]), min_size=2,
                            max_size=2), _BAD)
_MATRIX = st.one_of(
    st.sampled_from([[[big if i == j == 0 else int(i == j) for j in range(4)]
                      for i in range(4)] for big in (1, 1e154, 1e308)]),
    st.lists(st.lists(_ENTRY, min_size=1, max_size=4), min_size=1,
             max_size=4))


def _operator(names):
    """A name three times in four, so that most documents are answered;
    one_of draws a strategy it is given twice as one branch, so each name
    branch is its own sampled_from."""
    return st.one_of(*(st.sampled_from(names) for _ in range(3)), _MATRIX)


_GOOD = {
    "spin": st.sampled_from([0.5, 1.5]),
    "hamiltonian": _operator(_HAMILTONIANS),
    "coupling": _operator(_COUPLINGS),
    "gamma": st.sampled_from([0.5, 1.0, 2.0]),
    "e_g": st.sampled_from([1.0, 0.5, 2.0]),
    "t_max": st.sampled_from([0.5, 2.0, 6.0]),
    "dt": st.sampled_from([0.01, 0.1, 1.0, 6.0]),
    "integrator": st.sampled_from(["expm", "rk4"]),
    "n_samples": st.one_of(
        st.integers(2, 11),
        st.integers(MAX_TRAJECTORY_ENTRIES + 1, 2**62)),
    "gammas": st.lists(st.sampled_from([1e-3, 2e-3, 4e-3, 0.1]),
                       min_size=2, max_size=3, unique=True),
}
_REQUIRED = ("hamiltonian", "coupling", "gammas")
# normalized (alpha, beta) pairs; one key alone is normalized only by luck
_STATES = [(0.6, 0.8), ([0.0, 0.8], [0.6, 0.0]), (1.0, 0.0)]
_UNKNOWN = ("Gamma", "tmax", "seed")
_ALIASES = {"hamiltonian": ["{sx,sz}", "sz^2"],
            "coupling": ["sx^2", "sy^2", "sxsy+sysx", "i(sxsysz-szsysx)"]}


def _misspelt(key, names):
    """(key, a retired spelling of one of names)."""
    name = st.sampled_from(names)
    return st.tuples(st.just(key), st.one_of(
        st.sampled_from(_ALIASES[key]), name.map(str.upper),
        name.map(lambda n: f" {n} "),
        st.fixed_dictionaries({"name": name}),
        st.fixed_dictionaries({"matrix": _MATRIX})))


_MISSPELT = st.one_of(_misspelt("hamiltonian", _HAMILTONIANS),
                      _misspelt("coupling", _COUPLINGS))
# each command writes fixed file names, and an operator has one spelling
_RETIRED = st.one_of(st.tuples(st.sampled_from(["csv", "summary"]), _BAD),
                     _MISSPELT)


@st.composite
def config_documents(draw):
    doc = draw(st.fixed_dictionaries(
        {key: _GOOD[key] for key in _REQUIRED},
        optional={key: s for key, s in _GOOD.items()
                  if key not in _REQUIRED}))
    if draw(st.booleans()):
        doc["alpha"], doc["beta"] = draw(st.sampled_from(_STATES))
    bad_keys = st.sampled_from(sorted(_GOOD) + ["alpha", "beta"])
    for key in draw(st.lists(bad_keys, max_size=2)):
        doc[key] = draw(_BAD)
    if draw(st.integers(0, 9)) == 5:  # one document in ten
        doc[draw(st.sampled_from(_UNKNOWN))] = draw(_BAD)
    if draw(st.integers(0, 9)) == 3:  # one document in ten
        key, value = draw(_RETIRED)
        doc[key] = value
    return doc


# the draws rarely pair a huge count with an otherwise valid document, so
# the trajectory size bound is reached by an explicit example
_VALID = {"hamiltonian": "tr_invariant", "coupling": "sx",
          "gammas": [1e-3, 2e-3]}
# 1e-6 Sz^2 at spin 3/2 with 1e-13i added to entry (0, 1): Hermitian to
# 1e-12 as written, but not once e_g scales it by 1e6
_SCALED_NOT_HERMITIAN = {
    **_VALID, "coupling": "sz", "e_g": 1e6, "hamiltonian": [
        [2.25e-6, [0, 1e-13], 0, 0], [0, 2.5e-7, 0, 0], [0, 0, 2.5e-7, 0],
        [0, 0, 0, 2.25e-6]]}


_FLAGS = ("--config", "--horizon", "--out")
_RETIRED_FLAGS = {"simulate": [["--gamma", "0.05"], ["--integrator", "rk4"]],
                  "sweep": [["--gamma", "1e-3,2e-3"]]}


def _carries_a_retired_key(doc):
    """A retired key, or an operator that is an object or a string its
    catalog does not list exactly."""
    return ("csv" in doc or "summary" in doc
            or any(isinstance(doc[key], dict)
                   or (isinstance(doc[key], str) and doc[key] not in names)
                   for key, names in (("hamiltonian", operators._HAMILTONIANS),
                                      ("coupling", operators._COUPLINGS))))


def _names_a_key_or_flag(message, doc):
    """Whether message names, as a whole word, a known key, one of doc's
    own keys (an unknown key is refused by its name) or a flag."""
    names = "|".join(map(re.escape, sorted({*_KNOWN_KEYS, *doc, *_FLAGS})))
    return re.search(rf"(?<![\w-])({names})(?!\w)", message) is not None


@st.composite
def command_lines(draw):
    """A command and, one time in ten, one of its retired flags."""
    command = draw(st.sampled_from(["simulate", "sweep"]))
    if draw(st.integers(0, 9)) == 7:
        return command, draw(st.sampled_from(_RETIRED_FLAGS[command]))
    return command, []


@settings(max_examples=150, derandomize=True, deadline=None)
@given(config_documents(), command_lines())
@example({**_VALID, "n_samples": MAX_TRAJECTORY_ENTRIES + 1},
         ("simulate", []))
# finite entries whose squares overflow: refused where H is built, before
# a symmetry test reads inf <= inf as a symmetry
@example({**_VALID, "hamiltonian": "q_symmetric", "e_g": 1e300},
         ("simulate", []))
# refused where H is built, not by an internal gate that names no key
@example(_SCALED_NOT_HERMITIAN, ("simulate", []))
@example(_SCALED_NOT_HERMITIAN, ("sweep", []))
def test_any_config_document_exits_0_1_or_2(doc, command_line):
    command, retired = command_line
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg), *retired, "--out", str(out)]
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(io.StringIO()) as stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert code in (0, 1, 2)
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        if retired:
            assert code == 2 and not out.exists()
            assert stderr.getvalue().splitlines()[-1].endswith(
                f"unrecognized arguments: {' '.join(retired)}")
            return
        if _carries_a_retired_key(doc):
            assert code == 2
        if code == 2:
            assert not out.exists()
            # the config's path, which prefixes a read-time refusal, is
            # not a name
            lines = stderr.getvalue().replace(str(cfg), "").splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert _names_a_key_or_flag(lines[0], doc), lines[0]
        if code == 0 and command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            assert summary["terminal_trace_g"] <= 1 + 1e-9, summary


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_MISSPELT, st.sampled_from(["simulate", "sweep"]))
def test_a_retired_operator_spelling_exits_2_naming_its_key(misspelt,
                                                             command):
    key, value = misspelt
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**_VALID, key: value}))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        # a read-time refusal follows the config's path, a build-time one
        # starts the line
        [line] = stderr.getvalue().replace(f"{cfg}: ", "").splitlines()
        assert line.startswith(f"error: {key}: "), line
