"""Fuzz of the command line over argv and two environment variables.

Every subcommand, on small words and on flag values inside and outside
their ranges, must exit 0, 1 or 2 without an exception escaping
``main``.  Each argv runs with and without ``--json``, which must not
change the exit code or stderr, and every ``--json`` output must
re-serialize byte for byte.  The words have at most 3 positive
occurrences of each of x, y and z, so every scan is small.
``WORDMEASURE_SEED`` and ``WORDMEASURE_PARALLELISM`` are drawn too,
though no subcommand reads them: a value that changed an exit code or
stderr would show that one does.  Each example records its exit code
as a hypothesis event (``--hypothesis-show-statistics``), so a strategy
that only ever yields usage errors is visible.
Values inside a flag's range are listed first, since the generator
favours the first entries.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wordmeasure.cli import canonical_dumps, main
from wordmeasure.words import parse

MAX_OCCURRENCES = 3
ENV_VALUES = (None, "2", "abc", "-3")

letters = st.sampled_from("xyzXYZ")
atoms = st.one_of(letters, letters.map(lambda a: a + "^2"))
commutators = (
    st.tuples(atoms, atoms)
    .filter(lambda uv: uv[0][0].lower() != uv[1][0].lower())  # nontrivial
    .map(lambda uv: f"[{uv[0]},{uv[1]}]")
)
terms = st.one_of(
    commutators,
    letters,
    st.tuples(letters, st.sampled_from(["-1", "0"])).map("^".join),
    st.tuples(letters, letters).map(lambda uv: f"({uv[0]}{uv[1]})^-1"),
)
balanced = st.lists(commutators, min_size=1, max_size=2).map("".join)
words = st.one_of(
    balanced,
    balanced.map(lambda w: w + "^-1"),
    st.lists(terms, max_size=3).map("".join),
    st.sampled_from(["[x,y", "x^", "q", "x0", "(x", "x^-", " x y "]),
)


def _small(texts: list[str]) -> bool:
    """Whether every generator occurs at most MAX_OCCURRENCES times positively."""
    counts: dict[int, int] = {}
    for text in texts:
        try:
            word = parse(text, None)
        except ValueError:
            continue  # rejected by the CLI before any scan
        for let in word:
            if let.sign > 0:
                counts[let.gen] = counts.get(let.gen, 0) + 1
    return all(c <= MAX_OCCURRENCES for c in counts.values())


def _required(flag: str, values) -> st.SearchStrategy:
    return st.sampled_from(values).map(lambda v: [flag, str(v)])


def _optional(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), _required(flag, values))


def _argv(*parts) -> st.SearchStrategy:
    """The concatenation of one argument list drawn from each part."""
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


def _words(max_words: int = 2) -> st.SearchStrategy:
    return (
        st.lists(words, min_size=1, max_size=max_words)
        .filter(_small)
        .map(lambda texts: [arg for text in texts for arg in ("-w", text)])
    )


WORD_FLAGS = (_optional("--rank", [3, 2, 1, 0, -1]), _optional("--pair-cap", [10**8, 100, 2, 1]))
MATCHINGS = ["", "2,1;1", "1,2;2,1", "2,1", "1;1", "1", "3,1,2;1", "x", "1;1;7"]

ARGV = {
    "trace": _argv(_words(), *WORD_FLAGS, _optional("--laurent", [3, 1, 0, -1])),
    "chi": _argv(_words(), *WORD_FLAGS, st.sampled_from([[], ["--histogram"]])),
    "classes": _argv(_words(), *WORD_FLAGS),
    "incompressible": _argv(
        _words(), *WORD_FLAGS, _required("--sigma", MATCHINGS), _required("--tau", MATCHINGS)
    ),
    "scl": _argv(_words(max_words=1), *WORD_FLAGS, _required("--budget", [2, 1, 0, -1])),
    "wg": _argv(_required("--L", [4, 6, 5, 3, 2, 1, 0, -1])),
    "verify-mc": _argv(
        _words(),
        *WORD_FLAGS,
        _required("--n", [3, 4, 2, 1, 0, -1]),
        _required("--samples", [17, 64, 2, 1, 0, -1]),
        _optional("--seed", [7, 0, -1, -5]),
    ),
}


def _run(argv: list[str], env: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for name, value in env.items():
            if value is None:
                patch.delenv(name, raising=False)
            else:
                patch.setenv(name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    argv = [command, *data.draw(ARGV[command], label="flags")]
    env = {
        name: data.draw(st.sampled_from(ENV_VALUES), label=name)
        for name in ("WORDMEASURE_SEED", "WORDMEASURE_PARALLELISM")
    }
    code, _, err = _run(argv, env)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, env, err)
    assert "Traceback" not in err
    # --json changes the form of the output only
    json_code, text, json_err = _run([*argv, "--json"], env)
    assert (json_code, json_err) == (code, err)
    if code == 0:
        assert text == canonical_dumps(json.loads(text)) + "\n"
