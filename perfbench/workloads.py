"""Seeded request lists for the three benchmark workloads.

A request is a dict with the CLI argv (``argv``), a ``kind`` naming how
its output is checked, and the exact enumeration sizes the program will
scan for it (``pairs`` for the full pair scan, ``matchings`` for the
diagonal scan).  Fixed anchors come from the ladder in ROADMAP item 1;
the seeded words are drawn here and never by the program.

Seeded words are products of commutators of random subwords.  Each one
is drawn for a fixed vector of per-generator occurrence counts, so its
pair count prod(c_i!)^2 is the same for every seed: the seed changes
which words are scanned, not how much work the scan is.  Words are kept
cyclically reduced as written, because the program reduces before it
scans and a cancellation would shrink the scan.
"""

from __future__ import annotations

import math
import random

LETTERS = "xyzt"

# golden words of the test suite: text, rank, positive occurrences of
# each generator (the words are cyclically reduced as written)
GOLDEN = (
    ("[x,y]", 2, (1, 1)),
    ("[x^2,y]", 2, (2, 1)),
    ("[x,y]^2", 2, (2, 2)),
    ("[x,y]^3", 2, (3, 3)),
    ("[x,y][x,z]", 3, (2, 1, 1)),
    ("[x,y][x^2y^2,z]", 3, (3, 3, 1)),
    ("[x,y][x,z][x,t]", 4, (3, 1, 1, 1)),
)

# golden words whose Haar estimate tables-mc checks at n = 4
MC_WORDS = ("[x,y]^2", "[x,y][x,z]", "[x,y]^3")
MC_N = 4
MC_SAMPLES = 50_000

WORKLOADS = ("trace-ladder", "structure-ladder", "tables-mc")


def _render(letters: list[tuple[int, int]]) -> str:
    return "".join(
        LETTERS[g] if s > 0 else LETTERS[g].upper() for g, s in letters
    )


def _inverse(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -s) for g, s in reversed(letters)]


def _cyclically_reduced(letters: list[tuple[int, int]]) -> bool:
    k = len(letters)
    return all(
        letters[i][0] != letters[(i + 1) % k][0]
        or letters[i][1] == letters[(i + 1) % k][1]
        for i in range(k)
    )


def commutator_word(
    rng: random.Random, counts: tuple[int, ...], commutators: int
) -> str:
    """A cyclically reduced product of ``commutators`` commutators.

    Generator g occurs exactly ``counts[g]`` times positively in the
    expanded word, so the pair scan has prod(counts[g]!)^2 pairs.
    """
    pool = [g for g, c in enumerate(counts) for _ in range(c)]
    pieces = 2 * commutators
    if len(pool) < pieces:
        raise ValueError("too few letters for the commutators asked for")
    while True:
        rng.shuffle(pool)
        letters = [(g, rng.choice((1, -1))) for g in pool]
        cuts = sorted(rng.sample(range(1, len(pool)), pieces - 1))
        bounds = [0, *cuts, len(pool)]
        parts = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
        expanded: list[tuple[int, int]] = []
        for u, v in zip(parts[::2], parts[1::2]):
            expanded += u + v + _inverse(u) + _inverse(v)
        if _cyclically_reduced(expanded):
            return "".join(
                f"[{_render(u)},{_render(v)}]"
                for u, v in zip(parts[::2], parts[1::2])
            )


def _request(kind: str, argv: list[str], counts: tuple[int, ...] | None = None) -> dict:
    req = {"kind": kind, "argv": argv}
    if counts is not None:
        matchings = math.prod(math.factorial(c) for c in counts)
        req |= {"matchings": matchings, "pairs": matchings**2}
    return req


def _random_matching(rng: random.Random, counts: tuple[int, ...]) -> str:
    chunks = []
    for c in counts:
        images = list(range(1, c + 1))
        rng.shuffle(images)
        chunks.append(",".join(map(str, images)))
    return ";".join(chunks)


def trace_ladder(rng: random.Random) -> list[dict]:
    reqs = [
        _request("anchor", ["trace", "-w", "[x,y]^4", "--json"], (4, 4)),
        _request("anchor", ["trace", "-w", "[x^2,y^2]^2", "--json"], (4, 4)),
        _request(
            "anchor", ["trace", "-w", "[x,y]^2", "-w", "[x,y]^2", "--json"], (4, 4)
        ),
    ]
    # 2.1e4 and 8.3e4 pairs; the anchors have 3.3e5, and a seeded word that
    # large would leave too few repeats of each request in a run.  Both run
    # faster than the anchors, so the median request is an anchor and its
    # time does not depend on the seed.
    for counts in ((4, 3), (4, 3, 2)):
        word = commutator_word(rng, counts, 2)
        reqs.append(_request("seeded-trace", ["trace", "-w", word, "--json"], counts))
    return reqs


def structure_ladder(rng: random.Random) -> list[dict]:
    # classes [x,y]^4 (~17 s) and scl [x,y]^2 --budget 3 (~13 s) are left
    # out: a run must repeat every request several times to be steady
    reqs = [
        _request("anchor", ["chi", "-w", "[x,y]^4", "--histogram", "--json"], (4, 4)),
        _request("anchor", ["classes", "-w", "[x^2,y^2]^2", "--json"], (4, 4)),
        _request("anchor", ["scl", "-w", "[x,y]", "--budget", "5", "--json"], (1, 1)),
    ]
    # the histogram scan is linear in the pairs, so its seeded word has as
    # many as [x,y]^4; classes is quadratic in the maximal pairs and scl
    # scans the diagonal of w^b, whose counts are b * c_i, so their seeded
    # words stay small.  Two requests run faster and two slower than the
    # anchors chi [x,y]^4 and scl [x,y] --budget 5, so the median request
    # time is the mean of those two and does not depend on the seed.
    counts = (4, 4, 1)
    word = commutator_word(rng, counts, 2)
    reqs.append(_request("seeded-chi", ["chi", "-w", word, "--histogram", "--json"], counts))
    counts = (4, 3, 1)
    word = commutator_word(rng, counts, 2)
    reqs.append(_request("seeded-classes", ["classes", "-w", word, "--json"], counts))
    counts = (3, 2)
    word = commutator_word(rng, counts, 1)
    reqs.append(
        _request("seeded-scl", ["scl", "-w", word, "--budget", "2", "--json"], counts)
    )
    return reqs


def tables_mc(rng: random.Random) -> list[dict]:
    # wg --L 9 (~4 s) is left out, as are the default 200000 Monte-Carlo
    # samples: a run must repeat every request several times to be steady
    reqs = [_request("anchor", ["wg", "--L", str(L), "--json"]) for L in range(6, 9)]
    golden_counts = {text: counts for text, _, counts in GOLDEN}
    for text in MC_WORDS:
        seed = str(rng.randrange(2**31))
        reqs.append(
            _request(
                "seeded-mc",
                [
                    "verify-mc", "-w", text, "--n", str(MC_N),
                    "--samples", str(MC_SAMPLES), "--seed", seed, "--json",
                ],
                golden_counts[text],
            )
        )
    for text, rank, counts in GOLDEN:
        rank_args = ["--rank", str(rank)]
        reqs.append(_request("anchor", ["trace", "-w", text, *rank_args, "--json"], counts))
        reqs.append(_request("anchor", ["chi", "-w", text, *rank_args, "--json"], counts))
        reqs.append(
            _request(
                "seeded-incompressible",
                [
                    "incompressible", "-w", text, *rank_args,
                    "--sigma", _random_matching(rng, counts),
                    "--tau", _random_matching(rng, counts),
                    "--json",
                ],
                counts,
            )
        )
    return reqs


_GENERATORS = {
    "trace-ladder": trace_ladder,
    "structure-ladder": structure_ladder,
    "tables-mc": tables_mc,
}


def requests(workload: str, seed: int) -> list[dict]:
    """The request list of one pass; the same seed gives the same list."""
    reqs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs
