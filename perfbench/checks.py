"""Output checks for benchmark requests.

Anchor requests must print exactly the ``--json`` output recorded in
``expected.json`` (schema "1" is byte-stable).  Seeded requests have no
recorded output; they are checked against the identities that tie the
program's independent routes together, using counterpart requests on
the same word that the benchmark runs once per run, outside the timed
passes:

- trace: parity_ok; the Laurent leading term equals the Mobius-sum
  ch-term unless that is degenerate; ch_term.exponent equals chi's ch;
  for a single word, ch_term.coefficient equals the coefficient summed
  over classes;
- chi: the histogram counts every pair once and peaks at ch; ch equals
  trace's ch_term.exponent;
- classes: leading term equals trace's ch-term;
- scl: the bound is at most the budget-1 bound -ch/2;
- verify-mc: within 4 sigma of the recorded exact value;
- incompressible: pair chi is at most ch, and a pair attaining ch is
  incompressible.

``check`` returns None for a good output and a reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _word(argv: list[str]) -> str:
    return argv[argv.index("-w") + 1]


# subcommands run on the same word to check each kind of seeded request
COUNTERPARTS = {
    "seeded-trace": ("chi", "classes"),
    "seeded-chi": ("trace",),
    "seeded-classes": ("trace",),
    "seeded-scl": ("chi",),
}


def counterparts(req: dict) -> list[list[str]]:
    """Untimed requests whose outputs the check of ``req`` compares with."""
    routes = COUNTERPARTS.get(req["kind"], ())
    return [[route, "-w", _word(req["argv"]), "--json"] for route in routes]


def _golden_ch(expected: dict, word: str, rank: str) -> int:
    chi = json.loads(expected["outputs"][key(["chi", "-w", word, "--rank", rank, "--json"])])
    return chi["ch"]


def _check_seeded(req: dict, obj: dict, routes: dict, expected: dict) -> str | None:
    kind, argv = req["kind"], req["argv"]
    if kind == "seeded-trace":
        term = obj["ch_term"]
        if obj["parity_ok"] is not True:
            return "parity check failed"
        if not term["degenerate"] and obj["leading"] != {
            "exponent": term["exponent"], "coefficient": [term["coefficient"], 1]
        }:
            return "Laurent leading term differs from the Mobius-sum ch-term"
        if term["exponent"] != routes["chi"]["ch"]:
            return "ch_term.exponent differs from chi's ch"
        if term["coefficient"] != routes["classes"]["leading"]["coefficient"]:
            return "ch_term.coefficient differs from the classes' coefficient"
    elif kind == "seeded-chi":
        hist = {int(chi): n for chi, n in obj["histogram"].items()}
        if sum(hist.values()) != obj["pair_count"] or obj["pair_count"] != req["pairs"]:
            return "histogram does not count every pair once"
        if max(hist) != obj["ch"]:
            return "histogram does not peak at ch"
        if obj["ch"] != routes["trace"]["ch_term"]["exponent"]:
            return "ch differs from trace's ch_term.exponent"
    elif kind == "seeded-classes":
        term = routes["trace"]["ch_term"]
        if obj["leading"] != {"exponent": term["exponent"], "coefficient": term["coefficient"]}:
            return "leading term via classes differs from trace's ch-term"
    elif kind == "seeded-scl":
        if Fraction(*obj["bound"]) > Fraction(-routes["chi"]["ch"], 2):
            return "scl bound exceeds -ch/2"
    elif kind == "seeded-mc":
        if obj["exact"] != expected["mc_exact"][_word(argv)]:
            return "exact value differs from the recorded one"
        if obj["within_4_sigma"] is not True:
            return "Monte-Carlo mean not within 4 sigma"
    elif kind == "seeded-incompressible":
        ch = _golden_ch(expected, _word(argv), argv[argv.index("--rank") + 1])
        if obj["chi"] > ch:
            return "pair chi exceeds ch"
        if obj["chi"] == ch and obj["incompressible"] is not True:
            return "a pair attaining ch is reported compressible"
    else:
        return f"unknown request kind {kind}"
    return None


def check(req: dict, code: int, stdout: str, stderr: str, expected: dict, routes: dict) -> str | None:
    """Why the output of ``req`` is wrong, or None.

    ``routes`` maps a counterpart subcommand to its parsed output.
    """
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if code != 0:
        return f"exit code {code}"
    if req["kind"] == "anchor":
        want = expected["outputs"].get(key(req["argv"]))
        if want is None:
            return "no recorded output"
        return None if stdout == want else "output differs from the recorded output"
    if any(r is None for r in routes.values()):
        return "a counterpart request failed"
    try:
        return _check_seeded(req, json.loads(stdout), routes, expected)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
