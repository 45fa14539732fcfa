"""Exact word measures on unitary groups.

Given words in a free group, compute the expected product of traces
under Haar measure as an exact rational function of the dimension n,
along with the combinatorial invariants governing its leading term:
commutator length, solution classes, their poset Euler characteristics
and stabilizer presentations.
"""

from .perm import (
    Permutation,
    character,
    content_polynomial,
    dimension,
    leq,
    mobius,
    norm,
    partitions,
)
from .ratfn import LaurentSeries, PoleError, Polynomial, RationalFunction
from .solutions import (
    OrderComplex,
    PairPoset,
    Presentation,
    SolutionClass,
    complex_euler,
    is_incompressible,
    leading_via_classes,
    mobius_sum,
    order_complex,
    pair_leq,
    pi1_presentation,
    solution_classes,
)
from .surfaces import (
    DEFAULT_PAIR_CAP,
    Matching,
    MatchingPair,
    OccurrenceTable,
    PairCapExceeded,
    UnbalancedError,
    block_count,
    commutator_length,
    diagonal_max_euler,
    enumerate_matchings,
    euler_char,
    occurrences,
    pair_statistics,
    z_disc_count,
)
from .trace import (
    LeadingTerm,
    TraceResult,
    parity_report,
    scl_upper_bound,
    trace_exact,
    trace_leading,
)
from .weingarten import (
    WeingartenTable,
    moment,
    wg,
    wg_inversion,
    wg_leading,
    wg_table,
)
from .words import (
    Letter,
    RankError,
    Word,
    WordSyntaxError,
    WordTuple,
    commutator,
    parse,
    parse_tuple,
    word_tuple,
)

__version__ = "0.1.0"

_MONTECARLO = ("McEstimate", "estimate", "sample_haar")


def __getattr__(name: str):
    # the Monte-Carlo names are served on first use, so that importing
    # the package (and every exact subcommand) does not load numpy
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
