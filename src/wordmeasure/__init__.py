"""Exact word measures on unitary groups.

Given words in a free group, compute the expected product of traces
under Haar measure as an exact rational function of the dimension n,
along with the combinatorial invariants governing its leading term:
commutator length, solution classes, their poset Euler characteristics
and stabilizer presentations.

Every exported name is served from its module on first use, so
importing the package loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each module; numpy comes in with montecarlo only
_NAMES = {
    "perm": ("character", "dimension", "partitions"),
    "ratfn": ("LaurentSeries", "PoleError", "RationalFunction"),
    "solutions": (
        "OrderComplex", "PairPoset", "Presentation", "SolutionClass", "complex_euler",
        "is_incompressible", "mobius_sum", "order_complex", "pi1_presentation",
        "solution_classes",
    ),
    "surfaces": (
        "DEFAULT_PAIR_CAP", "Matching", "MatchingPair", "OccurrenceTable",
        "PairCapExceeded", "UnbalancedError", "diagonal_max_euler",
        "euler_char", "occurrences", "pair_statistics",
    ),
    "trace": (
        "LeadingTerm", "TraceResult", "parity_report", "scl_upper_bound",
        "trace_exact", "trace_leading",
    ),
    "weingarten": ("WeingartenTable", "wg", "wg_table"),
    "words": (
        "Letter", "RankError", "Word", "WordSyntaxError", "WordTuple", "commutator",
        "parse", "parse_tuple", "word_tuple",
    ),
    "montecarlo": ("McEstimate", "estimate"),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
