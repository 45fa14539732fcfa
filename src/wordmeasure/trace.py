"""Exact expected products of traces over Haar-random unitaries.

The pair enumeration of ``surfaces`` is grouped by (cycle types, block
count), and the classes by cycle types, so each distinct Weingarten
product is taken once, by a single ``weingarten.wg_sum`` call; the hot
loop touches only integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .perm import mobius_of_cycle_type, partitions
from .ratfn import LaurentSeries, RationalFunction
from .surfaces import (
    DEFAULT_PAIR_CAP,
    OccurrenceTable,
    class_chi,
    class_counts,
    diagonal_max_euler,
    occurrences,
)
from .weingarten import wg_sum
from .words import Word, WordTuple, word_tuple

DEFAULT_LAURENT_TERMS = 8


class LeadingTerm(NamedTuple):
    """Leading-term shortcut: exponent ch and the Mobius sum over argmax pairs."""

    exponent: int | None
    coefficient: int
    degenerate: bool     # True when the Mobius sum vanishes (true order < ch)
    balanced: bool


_UNBALANCED_LEADING = LeadingTerm(None, 0, True, False)


class TraceResult(NamedTuple):
    """Exact trace function with its expansion at n = infinity."""

    function: RationalFunction
    validity_threshold: int              # exact for integer n >= this
    leading: tuple[int, Fraction] | None  # first nonzero Laurent term
    laurent: LaurentSeries
    balanced: bool
    ch_term: LeadingTerm                 # order-ch term from the same class counts
    parity_ok: bool                      # Laurent exponents share the word count's parity

    def evaluate(self, n0: int) -> Fraction:
        """Evaluate at an integer dimension, guarding the validity range."""
        if n0 < self.validity_threshold:
            raise ValueError(
                f"n = {n0} is below the validity threshold "
                f"{self.validity_threshold}; .function is the bare rational function"
            )
        return self.function.evaluate(n0)


def _zero_result(laurent_terms: int) -> TraceResult:
    zero = RationalFunction.zero()
    return TraceResult(
        zero, 1, None, zero.laurent_at_infinity(laurent_terms), False,
        _UNBALANCED_LEADING, True,
    )


def _leading_from_counts(occ: OccurrenceTable, counts: dict) -> LeadingTerm:
    """Order-ch term: ch is the largest chi, its coefficient the Mobius sum."""
    ch: int | None = None
    coefficient = 0
    for (types, blocks), count in counts.items():
        chi = class_chi(occ, types, blocks)
        if ch is None or chi > ch:
            ch = chi
            coefficient = 0
        if chi == ch:
            moeb = math.prod(mobius_of_cycle_type(mu) for mu in types)
            coefficient += count * moeb
    return LeadingTerm(ch, coefficient, coefficient == 0, True)


def _assemble(occ: OccurrenceTable, counts: dict, laurent_terms: int) -> TraceResult:
    """Weingarten assembly of the class counts into the exact trace.

    Counts are grouped by cycle types first, so each type tuple
    contributes one Weingarten product against the polynomial
    sum of count * n^(blocks + #empty).  ``wg_sum`` adds the products
    over the Weingarten tables' own denominators and reduces once.
    """
    by_types: dict[tuple, list[int]] = {}
    for (types, blocks), count in counts.items():
        coeffs = by_types.setdefault(types, [])
        degree = blocks + occ.num_empty
        coeffs.extend([0] * (degree + 1 - len(coeffs)))
        coeffs[degree] += count
    total = wg_sum([occ.counts[i] for i in occ.active], by_types)
    threshold = max(occ.counts, default=1)
    laurent = total.laurent_at_infinity(laurent_terms)
    parity_ok = all(
        (e - occ.num_words) % 2 == 0 for e, _ in laurent.nonzero_terms()
    )
    return TraceResult(
        total, max(threshold, 1), laurent.leading_term(), laurent, True,
        _leading_from_counts(occ, counts), parity_ok,
    )


def trace_exact(
    t: WordTuple,
    *,
    cap: int = DEFAULT_PAIR_CAP,
    laurent_terms: int = DEFAULT_LAURENT_TERMS,
) -> TraceResult:
    """The expected product of traces as a canonical rational function.

    Identically zero for unbalanced tuples.  Empty words contribute a
    factor n each.  Valid for integer n >= max occurrences of a single
    generator.  One serial class-count scan feeds the function, the
    ch-term and the parity check.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        return _zero_result(laurent_terms)
    occ = occurrences(t)
    return _assemble(occ, class_counts(occ, cap=cap), laurent_terms)


def trace_leading(t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP) -> LeadingTerm:
    """Order-ch term of the trace: exponent ch, coefficient the Mobius sum.

    When the coefficient vanishes the true leading exponent is at most
    ch - 2 and the result is flagged degenerate.  Needs the class counts
    but no Weingarten assembly.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        return _UNBALANCED_LEADING
    occ = occurrences(t)
    return _leading_from_counts(occ, class_counts(occ, cap=cap))


def parity_report(t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP) -> bool:
    """Whether all Laurent exponents share the parity of the word count.

    Vacuously true for the zero function (in particular for unbalanced
    tuples).
    """
    return trace_exact(t, cap=cap).parity_ok


def scl_upper_bound(
    w: Word,
    budget: int,
    *,
    rank: int | None = None,
    cap: int = DEFAULT_PAIR_CAP,
) -> Fraction:
    """Upper bound for the stable commutator length of w.

    Minimizes -ch(w^j1, ..., w^jl) / (2 sum j) over all power multisets
    with total at most ``budget``; nonincreasing in the budget.  Every
    tuple of total j has prod((j c_i)!) matchings, with c_i the counts
    of the cyclic core of w, so the search stops at the first total past
    the cap: every later tuple would be skipped too.  If the first total
    is past it, ``diagonal_max_euler`` raises the cap error on w itself.
    A tuple only has to beat the best bound so far, so
    ``diagonal_max_euler`` dismisses the others early.
    """
    t = word_tuple([w], rank)
    if not t.is_balanced() or w.cyclic_reduce().is_empty:
        raise ValueError("scl bound requires a balanced, nontrivial word")
    if budget < 1:
        raise ValueError("budget must be positive")
    counts = occurrences(t.cyclically_reduced()).counts
    best: Fraction | None = None
    for total in range(1, budget + 1):
        needed = math.prod(math.factorial(total * c) for c in counts)
        if needed > cap and best is not None:
            break
        for parts in partitions(total):
            # diagonal pairs attain the maximum; -ch / (2 total) < best
            # exactly when ch > floor(-2 total best)
            above = None if best is None else math.floor(-2 * total * best)
            ch = diagonal_max_euler(
                WordTuple(tuple(w ** j for j in parts), t.rank), cap=cap, above=above
            )
            if ch is not None:
                best = Fraction(-ch, 2 * total)
    return best
