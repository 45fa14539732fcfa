"""Exact expected products of traces over Haar-random unitaries.

The pair enumeration of ``surfaces`` is grouped by (cycle types, block
count), and the classes by cycle types, so each distinct Weingarten
product is taken once; the hot loop touches only integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .perm import Partition, mobius_of_cycle_type, partitions
from .ratfn import ONE, ZERO, LaurentSeries, Polynomial, RationalFunction, poly_gcd
from .surfaces import (
    DEFAULT_PAIR_CAP,
    OccurrenceTable,
    PairCapExceeded,
    class_counts,
    diagonal_max_euler,
    occurrences,
)
from .weingarten import wg
from .words import Word, WordTuple, word_tuple

DEFAULT_LAURENT_TERMS = 8


@dataclass(frozen=True)
class LeadingTerm:
    """Leading-term shortcut: exponent ch and the Mobius sum over argmax pairs."""

    exponent: int | None
    coefficient: int
    degenerate: bool     # True when the Mobius sum vanishes (true order < ch)
    balanced: bool


_UNBALANCED_LEADING = LeadingTerm(None, 0, True, False)


@dataclass(frozen=True)
class TraceResult:
    """Exact trace function with its expansion at n = infinity."""

    function: RationalFunction
    validity_threshold: int              # exact for integer n >= this
    leading: tuple[int, Fraction] | None  # first nonzero Laurent term
    laurent: LaurentSeries
    balanced: bool
    ch_term: LeadingTerm                 # order-ch term from the same class counts
    parity_ok: bool                      # Laurent exponents share the word count's parity

    def evaluate(self, n0: int, *, allow_below_threshold: bool = False) -> Fraction:
        """Evaluate at an integer dimension, guarding the validity range."""
        if n0 < self.validity_threshold and not allow_below_threshold:
            raise ValueError(
                f"n = {n0} is below the validity threshold "
                f"{self.validity_threshold}; pass allow_below_threshold=True "
                "to evaluate the bare rational function"
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
    shift = occ.num_empty - occ.num_letters
    ch: int | None = None
    coefficient = 0
    for (types, blocks), count in counts.items():
        chi = blocks + sum(len(mu) for mu in types) + shift
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
    sum of count * n^(blocks + #empty).  The products are summed over a
    common denominator, the product over generators of the lcm of the
    wg denominators met there, so only the final quotient is reduced.
    """
    by_types: dict[tuple, list[int]] = {}
    for (types, blocks), count in counts.items():
        coeffs = by_types.setdefault(types, [])
        degree = blocks + occ.num_empty
        if len(coeffs) <= degree:
            coeffs.extend([0] * (degree + 1 - len(coeffs)))
        coeffs[degree] += count
    # per generator, wg(mu) as a numerator over that generator's lcm
    scaled: list[dict[Partition, Polynomial]] = []
    den = ONE
    for mus in map(set, zip(*by_types)):
        lcm = ONE
        for mu in mus:
            d = wg(mu).den
            lcm = (lcm * d).exact_div(poly_gcd(lcm, d))
        scaled.append({mu: wg(mu).num * lcm.exact_div(wg(mu).den) for mu in mus})
        den = den * lcm
    num = ZERO
    for types, coeffs in by_types.items():
        term = Polynomial(coeffs)
        for mu, numerators in zip(types, scaled):
            term = term * numerators[mu]
        num = num + term
    total = RationalFunction(num, den)
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
    cyclic_reduce: bool = True,
    cap: int = DEFAULT_PAIR_CAP,
    laurent_terms: int = DEFAULT_LAURENT_TERMS,
    jobs: int = 1,
) -> TraceResult:
    """The expected product of traces as a canonical rational function.

    Identically zero for unbalanced tuples.  Empty words contribute a
    factor n each.  Valid for integer n >= max occurrences of a single
    generator.  One class-count scan feeds the function, the ch-term and
    the parity check; ``jobs`` > 1 splits that scan across processes.
    """
    if cyclic_reduce:
        t = t.cyclically_reduced()
    if not t.is_balanced():
        return _zero_result(laurent_terms)
    occ = occurrences(t)
    return _assemble(occ, class_counts(occ, cap=cap, jobs=jobs), laurent_terms)


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
    is past it, the cap error is raised.  A tuple only has to beat the
    best bound so far, so ``diagonal_max_euler`` dismisses the others
    early.
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
        if needed > cap:
            if best is None:
                raise PairCapExceeded(
                    needed, cap, f"enumeration of {needed} matchings exceeds the cap {cap}"
                )
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
