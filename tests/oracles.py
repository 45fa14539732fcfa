"""Independent test oracles for the exact routes of ``wordmeasure``.

Each function here is a reference implementation that the tests check a
production route against: a per-pair scan, a per-matching diagonal
scan, a group-ring Weingarten inversion, the pair order by distances,
the leading term via solution classes, and small helpers.  The package
itself calls none of them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from wordmeasure.perm import (
    Partition,
    Permutation,
    check_partition,
    mobius_of_cycle_type,
    partitions,
)
from wordmeasure.ratfn import Polynomial, RationalFunction
from wordmeasure.solutions import matching_dist, solution_classes
from wordmeasure.surfaces import (
    DEFAULT_PAIR_CAP,
    Matching,
    MatchingPair,
    OccurrenceTable,
    PairCapExceeded,
    _cycle_lengths,
    _link,
    _sigma_partition,
)
from wordmeasure.weingarten import WeingartenTable, _pmul
from wordmeasure.words import WordTuple

# ---------------------------------------------------------------------------
# oracles for wordmeasure.surfaces


# oracle: every matching, one at a time
def enumerate_matchings(occ: OccurrenceTable) -> Iterator[Matching]:
    """All color-preserving bijections, in a fixed lexicographic order."""
    for parts in itertools.product(
        *(itertools.permutations(range(c)) for c in occ.counts)
    ):
        yield parts


# oracle for class_counts and pair_statistics: every pair, one at a time
def _scan(
    occ: OccurrenceTable, cap: int
) -> Iterator[tuple[tuple, tuple, int, int, tuple[Partition, ...]]]:
    """Yield (sigma_parts, tau_parts, blocks, z_discs, cycle_types) per pair.

    The per-pair oracle: the differential tests fold it to check
    ``class_counts``, which sums one generator's tau out instead, and
    ``pair_statistics``, which is read off ``class_counts``; it is in
    turn checked against ``block_count`` and ``cycle_types``.
    The parts tuples range over active generators only; use
    ``occ.expand`` to recover full matchings.  The sigma-side merges are
    frozen into a flattened parent array once per sigma and copied per
    tau, so the inner loop does only the tau unions and cycle walks.
    """
    total = occ.pair_count()
    if total > cap:
        raise PairCapExceeded(total, cap)
    pos_ids = [occ.pos_ids[i] for i in occ.active]
    neg_prev = [occ.neg_prev[i] for i in occ.active]
    perms = [list(itertools.permutations(range(occ.counts[i]))) for i in occ.active]

    for sigma_parts in itertools.product(*perms):
        parent0, count0 = _sigma_partition(occ, sigma_parts)
        for tau_parts in itertools.product(*perms):
            parent = parent0.copy()
            merges = 0
            for po, np_, tp in zip(pos_ids, neg_prev, tau_parts):
                merges += _link(parent, po, np_, tp)
            types = tuple(
                tuple(sorted(_cycle_lengths(sp, tp), reverse=True))
                for sp, tp in zip(sigma_parts, tau_parts)
            )
            yield (
                sigma_parts,
                tau_parts,
                occ.num_letters - count0 - merges,
                sum(map(len, types)),
                types,
            )


# oracle for the blocks of _scan, with a union-find of its own
def block_count(occ: OccurrenceTable, sigma: Matching, tau: Matching) -> int:
    """Blocks of the index partition induced by the pair.

    An independent oracle, with its own union-find, that the tests check
    ``_scan`` against.  Each occurrence carries an in-slot and an out-slot; the word
    structure identifies out(t) with in(t+1) cyclically (collapsed here
    to one node per letter junction), sigma identifies in(m) with
    out(sigma(m)) and tau identifies out(m) with in(tau(m)).
    """
    sigma = occ.check_matching(sigma)
    tau = occ.check_matching(tau)
    parent = list(range(occ.num_letters))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for i in occ.active:
        for k in range(occ.counts[i]):
            for a, b in (
                (occ.pos_prev[i][k], occ.neg_ids[i][sigma[i][k]]),
                (occ.pos_ids[i][k], occ.neg_prev[i][tau[i][k]]),
            ):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    merges += 1
    return occ.num_letters - merges


# oracle for the cycle types of _scan, with a cycle walk of its own
def cycle_types(
    occ: OccurrenceTable, sigma: Matching, tau: Matching
) -> tuple[Partition, ...]:
    """Cycle type of (sigma^-1 tau) restricted to E_i+, per active generator.

    An independent oracle, with its own cycle walk, that the tests check
    ``_scan`` against.
    """
    sigma = occ.check_matching(sigma)
    tau = occ.check_matching(tau)
    out = []
    for i in occ.active:
        inv = [0] * occ.counts[i]
        for k, v in enumerate(sigma[i]):
            inv[v] = k
        seen = [False] * occ.counts[i]
        lengths = []
        for start in range(occ.counts[i]):
            if seen[start]:
                continue
            size = 0
            k = start
            while not seen[k]:
                seen[k] = True
                size += 1
                k = inv[tau[i][k]]
            lengths.append(size)
        out.append(tuple(sorted(lengths, reverse=True)))
    return tuple(out)


# oracle for diagonal._diagonal_search: every matching, one at a time
def _diagonal_scan(occ: OccurrenceTable) -> Iterator[tuple[tuple, int]]:
    """Yield (sigma_parts, chi(sigma, sigma)) for every matching sigma.

    A test oracle for ``_diagonal_search``, one fresh union-find per
    matching.  The parts range over active generators, in ``_scan``'s
    sigma order.
    """
    edges = [
        (occ.pos_prev[i], occ.neg_ids[i], occ.pos_ids[i], occ.neg_prev[i])
        for i in occ.active
    ]
    # chi(sigma, sigma) = B - L + #empty: all L z-discs are fixed points
    shift = occ.num_empty - occ.L
    for parts in itertools.product(
        *(itertools.permutations(range(occ.counts[i])) for i in occ.active)
    ):
        parent = list(range(occ.num_letters))
        merges = 0
        for (pp, ng, po, np_), sp in zip(edges, parts):
            merges += _link(parent, pp, ng, sp) + _link(parent, po, np_, sp)
        yield parts, occ.num_letters - merges + shift


# ---------------------------------------------------------------------------
# oracles for wordmeasure.weingarten
#
# Solving the convolution system uses fraction-free (Bareiss)
# elimination over integer-coefficient polynomials, held as plain
# coefficient lists: all divisions below are exact, so no gcds are
# needed until the final back-substitution.

WG_INVERSION_LIMIT = 8


def _psub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    if not a:
        return []
    rem = list(a)
    lead = b[-1]
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead:
            raise ArithmeticError("inexact polynomial division in elimination")
        c //= lead
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division in elimination")
    return quot


def _class_rep(mu: Partition, L: int) -> Permutation:
    images = list(range(L))
    start = 0
    for part in mu:
        for k in range(part):
            images[start + k] = start + (k + 1) % part
        start += part
    return Permutation(images)


# oracle for wg and wg_table: the group-ring inversion route
def wg_inversion(L: int, *, limit: int = WG_INVERSION_LIMIT) -> WeingartenTable:
    """Invert sigma -> n^#cycles(sigma) in the group ring directly.

    Independent of the character formula; intended as an oracle for
    ``wg``.  Cost grows with L!, hence the configurable limit.
    """
    if L > limit:
        raise ValueError(f"wg_inversion limited to L <= {limit}, got {L}")
    classes = list(partitions(L))
    index = {mu: a for a, mu in enumerate(classes)}
    reps = [_class_rep(mu, L) for mu in classes]
    p = len(classes)
    # matrix[a][b] = sum over pi in class b of n^#cycles(pi^-1 rep_a)
    matrix: list[list[list[int]]] = [
        [[0] * (L + 1) for _ in range(p)] for _ in range(p)
    ]
    for pi in all_permutations(L):
        b = index[pi.cycle_type()]
        pi_inv = pi.inverse()
        for a in range(p):
            k = (pi_inv * reps[a]).num_cycles()
            matrix[a][b][k] += 1
    rows = matrix
    for row in rows:
        for entry in row:
            while entry and entry[-1] == 0:
                entry.pop()
    rhs: list[list[int]] = [[] for _ in range(p)]
    rhs[index[tuple([1] * L)]] = [1]

    # Bareiss elimination on the augmented system
    aug = [rows[a] + [rhs[a]] for a in range(p)]
    prev = [1]
    for k in range(p):
        if not aug[k][k]:
            swap = next(i for i in range(k + 1, p) if aug[i][k])
            aug[k], aug[swap] = aug[swap], aug[k]
        for i in range(k + 1, p):
            for j in range(k + 1, p + 1):
                aug[i][j] = _pdiv_exact(
                    _psub(_pmul(aug[i][j], aug[k][k]), _pmul(aug[i][k], aug[k][j])),
                    prev,
                )
            aug[i][k] = []
        prev = aug[k][k]

    values: list[RationalFunction | None] = [None] * p
    for i in range(p - 1, -1, -1):
        acc = RationalFunction(Polynomial(aug[i][p]))
        for j in range(i + 1, p):
            acc = acc - RationalFunction(Polynomial(aug[i][j])) * values[j]
        values[i] = acc / RationalFunction(Polynomial(aug[i][i]))
    return WeingartenTable(
        L, {mu: values[a] for a, mu in enumerate(classes)}
    )


# oracle for the leading terms of wg: from the Mobius function alone
def wg_leading(mu: Partition) -> tuple[int, int]:
    """Leading term of wg(mu) without computing the function.

    Returns (-(L + ||sigma||), Mobius(sigma)) for sigma of type mu.
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    L = sum(mu)
    nrm = L - len(mu)
    return -(L + nrm), mobius_of_cycle_type(mu)


# ---------------------------------------------------------------------------
# oracles for wordmeasure.solutions


# oracle for build_poset: the pair order by distances, one pair at a time
def pair_leq(a: MatchingPair, b: MatchingPair) -> bool:
    """Whether a = (s', t') precedes b = (s, t) in the pair order.

    Holds exactly when ||s^-1 t|| = ||s^-1 s'|| + ||s'^-1 t'|| + ||t'^-1 t||,
    i.e. some geodesic from s to t visits s' then t'.  A test oracle:
    ``build_poset`` reaches the same order through covers.
    """
    sp, tp = a
    s, t = b
    return matching_dist(s, t) == (
        matching_dist(s, sp) + matching_dist(sp, tp) + matching_dist(tp, t)
    )


# oracle for trace_leading: the leading term via the solution classes
def leading_via_classes(
    t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP
) -> tuple[int, int]:
    """(ch, sum of class complex Euler characteristics).

    Must agree with the Mobius-sum leading term of the trace.
    """
    classes = solution_classes(t, cap=cap)
    if not classes:
        raise ValueError("no solution classes (unbalanced input?)")
    return classes[0].chi, sum(c.complex_euler for c in classes)


# ---------------------------------------------------------------------------
# oracles for wordmeasure.perm


# oracle: every permutation of S_L, one at a time
def all_permutations(L: int) -> Iterator[Permutation]:
    for images in itertools.permutations(range(L)):
        yield Permutation(images)


# oracle for class sizes, by the centralizer order
def conjugacy_class_size(mu: Partition) -> int:
    """Number of permutations in S_L with cycle type mu."""
    L = sum(mu)
    z = 1
    for part, count in itertools.groupby(mu):
        k = len(list(count))
        z *= part ** k * math.factorial(k)
    return math.factorial(L) // z


# oracle for the Weingarten denominators: content polynomials cell by cell
def content_polynomial(lam: Partition) -> Polynomial:
    """Product of (n + j - i) over the cells (i, j) of the diagram."""
    lam = check_partition(lam)
    poly = Polynomial((1,))
    for i, row in enumerate(lam):
        for j in range(row):
            poly = poly * Polynomial((j - i, 1))
    return poly


# ---------------------------------------------------------------------------
# oracles for wordmeasure.ratfn


# oracle helper: a rational function from coefficient lists
def rf(num: Sequence[Fraction | int], den: Sequence[Fraction | int] = (1,)) -> RationalFunction:
    """Shorthand constructor from coefficient lists (index = degree)."""
    return RationalFunction(Polynomial(num), Polynomial(den))


# oracle helper: the order of a rational function at n = infinity
def degree_at_infinity(f: RationalFunction) -> int | None:
    """deg(num) - deg(den); None for the zero function."""
    if f.is_zero:
        return None
    return f.num.degree - f.den.degree


# oracle for RationalFunction.to_json_obj: its inverse
def from_json_obj(obj: dict) -> RationalFunction:
    num = Polynomial(Fraction(p, q) for p, q in obj["num"])
    den = Polynomial(Fraction(p, q) for p, q in obj["den"])
    return RationalFunction(num, den)
