"""Command-line front end.

Subcommands: trace, chi, classes, incompressible, scl, wg, verify-mc.
Text output is human-readable; ``--json`` emits a single object with a
``schema_version`` field, canonical key order and exact integer-pair
rationals, so re-serializing parsed output is byte-identical.

Exit codes: 0 success, 1 usage error, 2 computational-limit error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .perm import partitions
from .ratfn import LaurentSeries, PoleError, RationalFunction
from .solutions import is_incompressible, solution_classes
from .surfaces import (
    DEFAULT_PAIR_CAP,
    Matching,
    PairCapExceeded,
    UnbalancedError,
    euler_char,
    occurrences,
    pair_statistics,
)
from .trace import DEFAULT_LAURENT_TERMS, scl_upper_bound, trace_exact
from .weingarten import wg_table
from .words import RankError, Word, WordSyntaxError, WordTuple, parse

SCHEMA_VERSION = "1"
SEED_ENV = "WORDMEASURE_SEED"
JOBS_ENV = "WORDMEASURE_PARALLELISM"


@dataclass
class RunConfig:
    """Shared run options resolved from flags, files and environment."""

    words: WordTuple
    laurent_terms: int = DEFAULT_LAURENT_TERMS
    pair_cap: int = DEFAULT_PAIR_CAP
    jobs: int = 1
    seed: int = 0
    as_json: bool = False


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


def _resolve_words(args) -> WordTuple:
    texts = list(args.word or [])
    file_rank = None
    if getattr(args, "words_file", None):
        file_texts, file_rank = _read_words_file(args.words_file)
        texts.extend(file_texts)
    if not texts:
        raise ValueError("no words given; use -w or --words-file")
    rank = args.rank if args.rank is not None else file_rank
    if rank is not None:
        words = tuple(parse(t, rank) for t in texts)
        return WordTuple(words, rank)
    words = tuple(parse(t, None) for t in texts)
    inferred = max((w.max_generator for w in words), default=1)
    return WordTuple(words, max(inferred, 1))


def _config(args) -> RunConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0"))
    # subcommands that split no scan register no --jobs and ignore the env
    jobs = getattr(args, "jobs", 1)
    if jobs is None:
        text = os.environ.get(JOBS_ENV, "1")
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(f"{JOBS_ENV} must be an integer, got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"--jobs / {JOBS_ENV} must be at least 1, got {jobs}")
    pair_cap = getattr(args, "pair_cap", DEFAULT_PAIR_CAP)
    if pair_cap < 1:
        raise ValueError(f"--pair-cap must be at least 1, got {pair_cap}")
    return RunConfig(
        words=_resolve_words(args),
        laurent_terms=getattr(args, "laurent", DEFAULT_LAURENT_TERMS),
        pair_cap=pair_cap,
        jobs=jobs,
        seed=seed,
        as_json=getattr(args, "json", False),
    )


def _emit(cfg_json: bool, obj: dict, text_lines: list[str]) -> None:
    if cfg_json:
        obj["schema_version"] = SCHEMA_VERSION
        print(canonical_dumps(obj))
    else:
        for line in text_lines:
            print(line)


def cmd_trace(args) -> int:
    cfg = _config(args)
    t = cfg.words
    result = trace_exact(
        t, cap=cfg.pair_cap, laurent_terms=cfg.laurent_terms, jobs=cfg.jobs
    )
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
        _emit(cfg.as_json, obj, lines)
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
    _emit(cfg.as_json, obj, lines)
    return 0


def cmd_chi(args) -> int:
    cfg = _config(args)
    t = cfg.words
    scan = pair_statistics(
        t, cap=cfg.pair_cap, collect_argmax=False, jobs=cfg.jobs
    )
    obj: dict = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "balanced": scan.balanced,
    }
    if not scan.balanced:
        _emit(cfg.as_json, obj | {"ch": None}, ["ch = -inf (unbalanced)"])
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
    if getattr(args, "histogram", False):
        lines.append(canonical_dumps(histogram))
    _emit(cfg.as_json, obj, lines)
    return 0


def cmd_classes(args) -> int:
    cfg = _config(args)
    t = cfg.words
    classes = solution_classes(t, cap=cfg.pair_cap)
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
    _emit(cfg.as_json, obj, lines)
    return 0


def cmd_incompressible(args) -> int:
    cfg = _config(args)
    t = cfg.words.cyclically_reduced()
    occ = occurrences(t)
    sigma = occ.check_matching(_parse_matching_arg("--sigma", args.sigma, occ.counts))
    tau = occ.check_matching(_parse_matching_arg("--tau", args.tau, occ.counts))
    chi = euler_char(occ, sigma, tau)
    verdict = is_incompressible(occ, sigma, tau, cap=cfg.pair_cap)
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
    _emit(cfg.as_json, obj, lines)
    return 0


def cmd_scl(args) -> int:
    cfg = _config(args)
    if len(cfg.words.words) != 1:
        raise ValueError("scl takes exactly one word")
    word = cfg.words.words[0]
    bound = scl_upper_bound(
        word, args.budget, rank=cfg.words.rank, cap=cfg.pair_cap
    )
    lines = [f"scl({cfg.words.words[0]}) <= {bound}  (budget {args.budget})"]
    obj = {
        "word": str(word),
        "rank": cfg.words.rank,
        "budget": args.budget,
        "bound": _fraction_pair(bound),
    }
    _emit(cfg.as_json, obj, lines)
    return 0


def cmd_wg(args) -> int:
    as_json = getattr(args, "json", False)
    table = wg_table(args.L)
    lines = [f"Weingarten table for L = {args.L}"]
    entries = []
    for mu in partitions(args.L):
        value = table[mu]
        mu_str = "(" + ",".join(map(str, mu)) + ")"
        lines.append(f"  {mu_str:16s} {value}")
        entries.append({"cycle_type": list(mu), "value": _function_obj(value)})
    obj = {"L": args.L, "entries": entries}
    _emit(as_json, obj, lines)
    return 0


def cmd_verify_mc(args) -> int:
    cfg = _config(args)
    t = cfg.words
    # estimate's own checks, made before the exact scan and the numpy import
    if args.n < 1:
        raise ValueError("dimension must be positive")
    if args.samples < 1:
        raise ValueError(f"sample count must be positive, got {args.samples}")
    from .montecarlo import estimate  # the only subcommand that loads numpy

    result = trace_exact(t, cap=cfg.pair_cap)
    mc = estimate(t, args.n, args.samples, cfg.seed, jobs=cfg.jobs)
    lines = [
        f"words: {t}  (rank {t.rank}), n = {args.n}, samples = {args.samples}, seed = {cfg.seed}",
        f"mc mean = {mc.mean.real:+.6f} {mc.mean.imag:+.6f}i, stderr = {mc.stderr:.2e}",
    ]
    obj: dict = {
        "words": [str(w) for w in t.words],
        "rank": t.rank,
        "n": args.n,
        "samples": args.samples,
        "seed": cfg.seed,
        "mean": [mc.mean.real, mc.mean.imag],
        "stderr": mc.stderr,
    }
    try:
        exact = result.evaluate(args.n)
    except (ValueError, PoleError):
        exact = None
    if exact is not None:
        sigmas = (
            abs(mc.mean.real - float(exact)) / mc.stderr if mc.stderr else 0.0
        )
        tol = 4 * mc.stderr + 1e-12  # floor covers point-mass distributions
        ok = (
            abs(mc.mean.real - float(exact)) <= tol
            and abs(mc.mean.imag) <= tol
        )
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
    _emit(cfg.as_json, obj, lines)
    return 0


def _add_word_options(sub, *, jobs: bool = True) -> None:
    sub.add_argument(
        "-w", "--word", action="append", metavar="WORD",
        help="word in the grammar, e.g. \"[x,y]^2\" (repeatable)",
    )
    sub.add_argument("--words-file", metavar="PATH",
                     help="file with one word per line, # comments, optional rank= header")
    sub.add_argument("--rank", type=int, default=None,
                     help="number of generators (default: inferred)")
    sub.add_argument("--pair-cap", type=int, default=DEFAULT_PAIR_CAP,
                     help="abort enumerations beyond this many matching pairs")
    if jobs:
        sub.add_argument("--jobs", type=int, default=None,
                         help=f"worker processes for the pair scan (env {JOBS_ENV})")
    sub.add_argument("--json", action="store_true", help="emit a JSON object")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmeasure",
        description="Exact word measures on unitary groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("trace", help="exact expected product of traces")
    _add_word_options(p)
    p.add_argument("--laurent", type=int, default=DEFAULT_LAURENT_TERMS,
                   help="number of Laurent terms to expand")
    p.set_defaults(func=cmd_trace)

    p = subs.add_parser("chi", help="maximal Euler characteristic and histogram")
    _add_word_options(p)
    p.add_argument("--histogram", action="store_true",
                   help="also print the chi histogram as JSON")
    p.set_defaults(func=cmd_chi)

    p = subs.add_parser("classes", help="solution classes and their invariants")
    _add_word_options(p, jobs=False)
    p.set_defaults(func=cmd_classes)

    p = subs.add_parser("incompressible", help="check a user-supplied matching pair")
    _add_word_options(p, jobs=False)
    p.add_argument("--sigma", required=True,
                   help="per-generator 1-based image lists, e.g. \"2,1;1\"")
    p.add_argument("--tau", required=True, help="same format as --sigma")
    p.set_defaults(func=cmd_incompressible)

    p = subs.add_parser("scl", help="upper bound for stable commutator length")
    _add_word_options(p, jobs=False)
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
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (env {SEED_ENV}, default 0)")
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
    except PairCapExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (WordSyntaxError, RankError, UnbalancedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
