"""Every golden-corpus entry gives what it gave when it was recorded.

The exit code and every non-numeric token must match exactly, and each
number within RTOL and ATOL, since the last digits can differ on another
CPU or BLAS. Each entry also prints how many of its texts differ in their
sha256; that count does not fail the test. The count depends on the BLAS
thread count as well as the code: on the 2-CPU host the corpus was recorded
on, every entry gives 0 at the default thread count, while
`OPENBLAS_NUM_THREADS=1` makes 2 of the 4 texts of
`simulate-expm-both_symmetric-sx2sz-spin-7.5` differ, with the same exit
code, tokens and numbers within the tolerance. Compare counts at one thread
setting before reading a nonzero count as a moved byte.
`python tests/golden/record.py` re-records the corpus.
"""

import hashlib
import re

import pytest

from golden.record import CORPUS, ENTRIES, load, run, texts

RTOL = 1e-9
ATOL = 1e-12

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def tokens(text: str) -> tuple[list, list]:
    """The text's non-numeric pieces and its numbers, in order."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


def assert_close(got: str, want: str, label: str) -> None:
    words, numbers = tokens(got)
    want_words, want_numbers = tokens(want)
    assert words == want_words, label
    assert len(numbers) == len(want_numbers), label
    for i, (x, y) in enumerate(zip(numbers, want_numbers)):
        assert abs(x - y) <= ATOL + RTOL * abs(y), (label, i, x, y)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ENTRIES)
def test_a_corpus_entry_gives_its_recorded_output(name, tmp_path):
    recorded = load(name)
    entry = ENTRIES[name]
    assert (recorded["argv"], recorded["config"]) == (
        entry["argv"], entry["config"]), "re-record the corpus"
    result = run(entry, tmp_path)
    got = texts(result)
    assert result["exit"] == recorded["exit"]
    assert sorted(got) == sorted(recorded["texts"])
    for label, text in got.items():
        assert_close(text, recorded["texts"][label], f"{name} {label}")
    mismatches = sum(sha256(text) != sha256(recorded["texts"][label])
                     for label, text in got.items())
    print(f"{name}: {mismatches} of {len(got)} texts differ in sha256")


def test_tokens_split_numbers_from_words():
    assert tokens("gamma=1e-3, s_v -2.5E+01 sx2sz ---") == (
        ["gamma=", ", s_v ", " sx", "sz ---"], [1e-3, -25.0, 2.0])


@pytest.mark.parametrize("got, want, close", [
    ("verdict: Coherence 1.0", "verdict: Coherence 1.0", True),
    ("peak 3.0e-16", "peak 1.2e-15", True),  # within ATOL
    ("exponent 2.0000000001", "exponent 2.0", True),  # within RTOL
    ("exponent 2.00001", "exponent 2.0", False),
    ("verdict: Decoherence 1.0", "verdict: Coherence 1.0", False),
    ('"passed": false', '"passed": true', False),
    ("1.0,2.0", "1.0,2.0,3.0", False),
])
def test_assert_close_holds_words_exactly_and_numbers_within_tolerance(
        got, want, close):
    if close:
        assert_close(got, want, "label")
    else:
        with pytest.raises(AssertionError):
            assert_close(got, want, "label")


def test_the_readme_states_the_corpus_size():
    readme = (CORPUS.parent.parent / "README.md").read_text()
    stated = re.findall(r"a fixed list of (\d+) CLI\s+runs", readme)
    assert stated == [str(len(list(CORPUS.glob("*.json"))))]
