"""Run one CLI request in this process with spans around the layer calls.

Usage: python3 perfbench/replay.py <wordmeasure arguments...>

The program is imported from ``src`` on PYTHONPATH and run through
``wordmeasure.cli.main``, so the request makes exactly the calls its
subcommand makes.  Before that, each function in ``TRACED`` is replaced,
in every ``wordmeasure`` module that binds it, by a wrapper that records
a span (name, start, end, parent) and the counts read off its arguments
and result.  Functions called per pair or per matching are not wrapped:
a span there would cost more than the call.  ``weingarten.wg`` is cached
per cycle type inside the program, so only its first call per type gets
a span.

Prints one JSON object: exit code, the CLI's stdout and stderr, and the
spans, with times in seconds from the start of this process.
"""

import time

_T0 = time.perf_counter()

import wordmeasure.cli  # noqa: E402

_T1 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from wordmeasure import montecarlo, solutions, surfaces, trace, weingarten, words  # noqa: E402


def _pair_counts(result, occ, **_):
    return {"pairs": occ.pair_count(), "classes": len(result)}


def _scan_counts(result, t, **_):
    return {"pairs": result.pair_count, "argmax": len(result.argmax)}


def _diagonal_counts(result, t, *, cyclic_reduce=True, **_):
    if cyclic_reduce:
        t = t.cyclically_reduced()
    if not t.is_balanced():
        return {"matchings": 0}
    return {"matchings": surfaces.occurrences(t).match_count()}


def _classes_found(result, *_, **__):
    return {"classes": len(result)}


def _sample_counts(result, *_, **__):
    return {"samples": result.samples}


# (module, function, counts read off the call) for every traced boundary
TRACED = (
    (words, "parse", None),
    (surfaces, "class_counts", _pair_counts),
    (surfaces, "pair_statistics", _scan_counts),
    (surfaces, "diagonal_max_euler", _diagonal_counts),
    (trace, "trace_exact", None),
    (trace, "trace_leading", None),
    (trace, "parity_report", None),
    (trace, "scl_upper_bound", None),
    (weingarten, "wg_table", None),
    (weingarten, "wg", None),
    (solutions, "solution_classes", _classes_found),
    (solutions, "build_poset", None),
    (solutions, "order_complex", None),
    (solutions, "pi1_presentation", None),
    (solutions, "is_incompressible", None),
    (montecarlo, "estimate", _sample_counts),
)


class Tracer:
    """Spans kept in memory; ``parent`` is an index into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(record)
            self._stack.append(index)
            record["start"] = time.perf_counter() - _T0
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter() - _T0
                self._stack.pop()
            if counts is not None:
                record["counts"] = counts(result, *args, **kwargs)
            return result

        return traced

    def first_call_span(self, name: str, fn):
        """Span only the first call per (sorted) argument tuple."""
        seen = set()
        traced = self.span(name, fn, lambda *_: {"types": 1})

        def first(mu):
            key = tuple(sorted(mu, reverse=True))
            if key in seen:
                return fn(mu)
            seen.add(key)
            return traced(mu)

        return first


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items() if name.startswith("wordmeasure")]
    for module, fname, counts in TRACED:
        original = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[1]}.{fname}"
        if original is weingarten.wg:
            wrapper = tracer.first_call_span(name, original)
        else:
            wrapper = tracer.span(name, original, counts)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.spans.append({"name": "cli.import", "parent": None, "start": 0.0, "end": _T1 - _T0})
    install(tracer)
    out, err = io.StringIO(), io.StringIO()
    cli_main = tracer.span("cli.main", wordmeasure.cli.main)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    print(json.dumps({
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
