"""Command-line front end.

Subcommands: trace, chi, classes, incompressible, scl, wg, verify-mc.
Text output is human-readable; ``--json`` emits a single object with a
``schema_version`` field, canonical key order and exact integer-pair
rationals, so re-serializing parsed output is byte-identical.

Exit codes: 0 success, 1 usage error, 2 computational-limit error.

Each subcommand imports the modules it runs when it runs, so a request
loads only those: ``wg`` never loads the pair scan, only ``classes``
and ``incompressible`` load ``solutions``, and only ``verify-mc`` loads
numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .ratfn import LaurentSeries, RationalFunction
    from .surfaces import Matching
    from .words import WordTuple

SCHEMA_VERSION = "1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _fraction_pair(c: Fraction) -> list[int]:
    return [c.numerator, c.denominator]


def _laurent_obj(series: LaurentSeries) -> dict:
    return {
        "leading_exponent": series.leading_exponent,
        "coefficients": [_fraction_pair(c) for c in series.coefficients],
        "truncation_order": series.truncation_order,
        "zero": series.zero,
    }


def _function_obj(f: RationalFunction) -> dict:
    obj = f.to_json_obj()
    obj["human"] = str(f)
    return obj


def _render_matching(m: Matching) -> str:
    parts = []
    for i, part in enumerate(m):
        if part:
            parts.append(f"x{i + 1}:" + ",".join(str(v + 1) for v in part))
    return ";".join(parts) if parts else "-"


def _parse_matching_arg(flag: str, text: str, counts: tuple[int, ...]) -> Matching:
    """Per-generator 1-based image vectors, generators separated by ';'.

    Example for [x,y]^2: ``2,1;1,2`` sends the first positive x to the
    second negative x, and so on; generators with no occurrences may be
    omitted or left empty, and a non-empty segment past the rank is an
    error.
    """
    chunks = text.split(";") if text.strip() else []
    extra = [chunk.strip() for chunk in chunks[len(counts):] if chunk.strip()]
    if extra:
        raise ValueError(
            f"{flag} has a segment past the rank {len(counts)}, got {extra[0]!r}"
        )
    out = []
    for i, c in enumerate(counts):
        chunk = chunks[i].strip() if i < len(chunks) else ""
        if not chunk:
            images = tuple(range(c))  # identity by default
        else:
            try:
                images = tuple(int(v) - 1 for v in chunk.split(","))
            except ValueError:
                raise ValueError(
                    f"{flag} must list integers, got {chunk!r}"
                ) from None
        out.append(images)
    return tuple(out)


def _read_words_file(path: str) -> tuple[list[str], int | None]:
    texts = []
    rank = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("rank="):
                if rank is not None:
                    raise ValueError(f"{path}: the rank= header is given twice")
                text = line[len("rank="):]
                try:
                    rank = int(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: the rank= header must be an integer, got {text!r}"
                    ) from None
                continue
            texts.append(line)
    return texts, rank


def _words(args) -> tuple[WordTuple, int]:
    """The word tuple of -w and --words-file, and the checked --pair-cap."""
    from .surfaces import DEFAULT_PAIR_CAP
    from .words import parse, word_tuple

    cap = DEFAULT_PAIR_CAP if args.pair_cap is None else args.pair_cap
    if cap < 1:
        raise ValueError(f"--pair-cap must be at least 1, got {cap}")
    texts = list(args.word or [])
    rank = args.rank
    if args.words_file:
        file_texts, file_rank = _read_words_file(args.words_file)
        texts.extend(file_texts)
        if rank is None:
            rank = file_rank
    if not texts:
        raise ValueError("no words given; use -w or --words-file")
    return word_tuple([parse(text, rank) for text in texts], rank), cap


def _emit(as_json: bool, obj: dict, text_lines: list[str]) -> None:
    if as_json:
        obj["schema_version"] = SCHEMA_VERSION
        print(canonical_dumps(obj))
    else:
        for line in text_lines:
            print(line)


def cmd_trace(args) -> int:
    from .trace import DEFAULT_LAURENT_TERMS, trace_exact

    t, cap = _words(args)
    laurent = DEFAULT_LAURENT_TERMS if args.laurent is None else args.laurent
    if laurent < 1:
        raise ValueError(f"--laurent must be at least 1, got {laurent}")
    result = trace_exact(t, cap=cap, laurent_terms=laurent)
    lines = [f"words: {t}  (rank {t.rank})"]
    obj: dict = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "balanced": result.balanced,
        "function": _function_obj(result.function),
        "validity_threshold": result.validity_threshold,
        "laurent": _laurent_obj(result.laurent),
    }
    if not result.balanced:
        lines.append("trace = 0 (unbalanced)")
        obj["leading"] = None
        obj["ch_term"] = None
        obj["parity_ok"] = True
        _emit(args.json, obj, lines)
        return 0
    lead = result.ch_term
    lines.append(f"trace = {result.function}")
    lines.append(f"valid for integer n >= {result.validity_threshold}")
    lines.append(f"laurent: {result.laurent}")
    if result.leading is not None:
        e, c = result.leading
        lines.append(f"leading term: {c} * n^{e}")
    else:
        lines.append("leading term: none (function is 0)")
    degen = " (degenerate: true order below ch)" if lead.degenerate else ""
    lines.append(
        f"ch-order term: exponent {lead.exponent}, coefficient {lead.coefficient}{degen}"
    )
    lines.append(f"parity check: {'ok' if result.parity_ok else 'FAILED'}")
    obj["leading"] = (
        None
        if result.leading is None
        else {"exponent": result.leading[0], "coefficient": _fraction_pair(result.leading[1])}
    )
    obj["ch_term"] = {
        "exponent": lead.exponent,
        "coefficient": lead.coefficient,
        "degenerate": lead.degenerate,
    }
    # statistic tracked per run: a vanishing ch-coefficient came with an
    # identically zero function (observed without exception so far)
    obj["degenerate_with_zero_function"] = (
        lead.degenerate and result.function.is_zero
    )
    obj["parity_ok"] = result.parity_ok
    _emit(args.json, obj, lines)
    return 0


def cmd_chi(args) -> int:
    from .surfaces import pair_statistics

    t, cap = _words(args)
    scan = pair_statistics(t, cap=cap, collect_argmax=False)
    obj: dict = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "balanced": scan.balanced,
    }
    if not scan.balanced:
        _emit(args.json, obj | {"ch": None}, ["ch = -inf (unbalanced)"])
        return 0
    lines = []
    cl = None
    if len(t.words) == 1:
        cl = (1 - scan.ch) // 2
        lines.append(f"ch = {scan.ch}, cl = {cl}")
    else:
        lines.append(f"ch = {scan.ch}")
    achieving = scan.histogram[scan.ch]
    lines.append(f"achieving pairs: {achieving} of {scan.pair_count}")
    lines.append(f"diagonal ch: {scan.diagonal_ch}")
    obj |= {
        "ch": scan.ch,
        "cl": cl,
        "achieving_pairs": achieving,
        "pair_count": scan.pair_count,
        "diagonal_ch": scan.diagonal_ch,
    }
    histogram = {str(chi): count for chi, count in sorted(scan.histogram.items())}
    obj["histogram"] = histogram
    if args.histogram:
        lines.append(canonical_dumps(histogram))
    _emit(args.json, obj, lines)
    return 0


def cmd_classes(args) -> int:
    from .solutions import solution_classes

    t, cap = _words(args)
    classes = solution_classes(t, cap=cap)
    lines = [f"words: {t}  (rank {t.rank})", f"solution classes: {len(classes)}"]
    cls_objs = []
    for k, cls in enumerate(classes):
        fvec = (cls.size, cls.complex.num_edges, cls.complex.num_triangles)
        rep = cls.members[0]
        lines.append(
            f"  class {k + 1}: size {cls.size}, rank histogram "
            f"{dict(sorted(cls.rank_histogram().items()))}, f-vector (V,E,T) = {fvec}, "
            f"chi = {cls.complex_euler}, mobius sum = {cls.mobius_sum}, "
            f"pi1: {cls.pi1.num_generators} generators / {len(cls.pi1.relators)} relators"
        )
        lines.append(
            f"    representative: sigma {_render_matching(rep[0])}  tau {_render_matching(rep[1])}"
        )
        cls_objs.append(
            {
                "size": cls.size,
                "rank_histogram": {
                    str(r): c for r, c in sorted(cls.rank_histogram().items())
                },
                "f_vector": list(fvec),
                "euler_characteristic": cls.complex_euler,
                "mobius_sum": cls.mobius_sum,
                "pi1": {
                    "generators": cls.pi1.num_generators,
                    "relators": [list(rel) for rel in cls.pi1.relators],
                },
                "representative": {
                    "sigma": _render_matching(rep[0]),
                    "tau": _render_matching(rep[1]),
                },
            }
        )
    ch = classes[0].chi if classes else None
    coeff = sum(c.complex_euler for c in classes)
    lines.append(f"leading term via classes: exponent {ch}, coefficient {coeff}")
    obj = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "classes": cls_objs,
        "leading": {"exponent": ch, "coefficient": coeff},
    }
    _emit(args.json, obj, lines)
    return 0


def cmd_incompressible(args) -> int:
    from .solutions import is_incompressible
    from .surfaces import euler_char, occurrences

    t, cap = _words(args)
    t = t.cyclically_reduced()
    occ = occurrences(t)
    sigma = occ.check_matching(_parse_matching_arg("--sigma", args.sigma, occ.counts))
    tau = occ.check_matching(_parse_matching_arg("--tau", args.tau, occ.counts))
    chi = euler_char(occ, sigma, tau)
    verdict = is_incompressible(occ, sigma, tau, cap=cap)
    lines = [
        f"pair chi = {chi}",
        f"incompressible: {'yes' if verdict else 'no'}",
    ]
    obj = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "sigma": _render_matching(sigma),
        "tau": _render_matching(tau),
        "chi": chi,
        "incompressible": verdict,
    }
    _emit(args.json, obj, lines)
    return 0


def cmd_scl(args) -> int:
    from .trace import scl_upper_bound

    t, cap = _words(args)
    if len(t.words) != 1:
        raise ValueError("scl takes exactly one word")
    word = t.words[0]
    bound = scl_upper_bound(word, args.budget, rank=t.rank, cap=cap)
    lines = [f"scl({word}) <= {bound}  (budget {args.budget})"]
    obj = {
        "word": str(word),
        "rank": t.rank,
        "budget": args.budget,
        "bound": _fraction_pair(bound),
    }
    _emit(args.json, obj, lines)
    return 0


def cmd_wg(args) -> int:
    from .perm import partitions
    from .weingarten import wg_table

    table = wg_table(args.L)
    lines = [f"Weingarten table for L = {args.L}"]
    entries = []
    for mu in partitions(args.L):
        value = table[mu]
        mu_str = "(" + ",".join(map(str, mu)) + ")"
        lines.append(f"  {mu_str:16s} {value}")
        entries.append({"cycle_type": list(mu), "value": _function_obj(value)})
    obj = {"L": args.L, "entries": entries}
    _emit(args.json, obj, lines)
    return 0


def cmd_verify_mc(args) -> int:
    from .ratfn import PoleError
    from .trace import trace_exact

    t, cap = _words(args)
    seed = args.seed
    if seed < 0:
        raise ValueError(f"--seed must be at least 0, got {seed}")
    # estimate's own checks, made before the exact scan and the numpy import
    if args.n < 1:
        raise ValueError("dimension must be positive")
    if args.samples < 1:
        raise ValueError(f"sample count must be positive, got {args.samples}")
    from .montecarlo import estimate  # the only subcommand that loads numpy

    result = trace_exact(t, cap=cap)
    mc = estimate(t, args.n, args.samples, seed)
    lines = [
        f"words: {t}  (rank {t.rank}), n = {args.n}, samples = {args.samples}, seed = {seed}",
        f"mc mean = {mc.mean.real:+.6f} {mc.mean.imag:+.6f}i, stderr = {mc.stderr:.2e}",
    ]
    obj: dict = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "n": args.n,
        "samples": args.samples,
        "seed": seed,
        "mean": [mc.mean.real, mc.mean.imag],
        "stderr": mc.stderr,
    }
    try:
        exact = result.evaluate(args.n)
    except (ValueError, PoleError):
        exact = None
    if exact is not None:
        miss = abs(mc.mean.real - float(exact))
        tol = 4 * mc.stderr + 1e-12  # floor covers point-mass distributions
        ok = miss <= tol and abs(mc.mean.imag) <= tol
        if mc.stderr:
            sigmas = miss / mc.stderr
        else:  # a point mass: it agrees exactly or not at all
            sigmas = 0.0 if ok else float("inf")
        lines.append(f"exact = {exact} = {float(exact):+.6f}")
        lines.append(f"agreement: {sigmas:.2f} sigma -> {'ok' if ok else 'FAILED'}")
        obj["exact"] = _fraction_pair(exact)
        obj["within_4_sigma"] = ok
    else:
        lines.append(
            f"exact value not evaluated (n below validity threshold "
            f"{result.validity_threshold})"
        )
        obj["exact"] = None
        obj["within_4_sigma"] = None
    _emit(args.json, obj, lines)
    return 0


def _add_word_options(sub) -> None:
    sub.add_argument(
        "-w", "--word", action="append", metavar="WORD",
        help="word in the grammar, e.g. \"[x,y]^2\" (repeatable)",
    )
    sub.add_argument("--words-file", metavar="PATH",
                     help="file with one word per line, # comments, optional rank= header")
    sub.add_argument("--rank", type=int, default=None,
                     help="number of generators (default: inferred)")
    # the defaults of --pair-cap and --laurent live with the code they
    # bound, and are read only by the subcommands that load it
    sub.add_argument("--pair-cap", type=int, default=None,
                     help="abort enumerations beyond this many matching pairs")
    sub.add_argument("--json", action="store_true", help="emit a JSON object")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmeasure",
        description="Exact word measures on unitary groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("trace", help="exact expected product of traces")
    _add_word_options(p)
    p.add_argument("--laurent", type=int, default=None,
                   help="number of Laurent terms to expand")
    p.set_defaults(func=cmd_trace)

    p = subs.add_parser("chi", help="maximal Euler characteristic and histogram")
    _add_word_options(p)
    p.add_argument("--histogram", action="store_true",
                   help="also print the chi histogram as JSON")
    p.set_defaults(func=cmd_chi)

    p = subs.add_parser("classes", help="solution classes and their invariants")
    _add_word_options(p)
    p.set_defaults(func=cmd_classes)

    p = subs.add_parser("incompressible", help="check a user-supplied matching pair")
    _add_word_options(p)
    p.add_argument("--sigma", required=True,
                   help="per-generator 1-based image lists, e.g. \"2,1;1\"")
    p.add_argument("--tau", required=True, help="same format as --sigma")
    p.set_defaults(func=cmd_incompressible)

    p = subs.add_parser("scl", help="upper bound for stable commutator length")
    _add_word_options(p)
    p.add_argument("--budget", type=int, required=True,
                   help="max total power of the word across the tuple")
    p.set_defaults(func=cmd_scl)

    p = subs.add_parser("wg", help="dump a Weingarten table")
    p.add_argument("--L", type=int, required=True,
                   help="order of the symmetric group (values by the character formula)")
    p.add_argument("--json", action="store_true", help="emit a JSON object")
    p.set_defaults(func=cmd_wg)

    p = subs.add_parser("verify-mc", help="Monte-Carlo cross-check of the exact value")
    _add_word_options(p)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_verify_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # WordSyntaxError, RankError and UnbalancedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the array it could not allocate; a list names nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"limit exceeded: out of memory{detail}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .surfaces import PairCapExceeded  # loaded by whatever raised it

        # every route's call depth is bounded; should a call chain still
        # pass Python's recursion limit, that is a limit, not a crash
        if not isinstance(exc, (PairCapExceeded, RecursionError)):
            raise
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
