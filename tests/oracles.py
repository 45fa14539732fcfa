"""Independent test oracles for the exact routes of ``wordmeasure``.

Each function here is a reference implementation that the tests check a
production route against: a per-pair scan, a sigma-by-sigma class-count
scan, a per-matching diagonal scan, a group-ring Weingarten inversion,
the general Haar moment integral, the pair order by distances, the
leading term via solution classes, permutations under the absolute
order with its Mobius function, the reduction of a rational function
over Q by Fraction long division (``reduce_over_q``), and small helpers,
among them the sum ``rf_add`` and product ``rf_mul`` of rational
functions and the ``monomial`` c * n^e that the tests write rational
functions with.  Polynomials are coefficient sequences, index = degree,
as in the package.  The package itself calls none of them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from wordmeasure.perm import Partition, check_partition, mobius_of_cycle_type, partitions
from wordmeasure.ratfn import RationalFunction
from wordmeasure.solutions import matching_dist, solution_classes
from wordmeasure.surfaces import (
    DEFAULT_PAIR_CAP,
    Matching,
    MatchingPair,
    OccurrenceTable,
    PairCapExceeded,
    _cycle_type,
    _lay,
    _sigma_paths,
    diagonal_max_euler,
)
from wordmeasure.weingarten import WeingartenTable, wg_sum
from wordmeasure.words import Word, WordTuple, word_tuple

# ---------------------------------------------------------------------------
# oracles for wordmeasure.surfaces


# oracle: every matching, one at a time
def enumerate_matchings(occ: OccurrenceTable) -> Iterator[Matching]:
    """All color-preserving bijections, in a fixed lexicographic order."""
    for parts in itertools.product(
        *(itertools.permutations(range(c)) for c in occ.counts)
    ):
        yield parts


# oracle helper: a plain union-find over letter junctions
def _union(parent: list[int], a: int, b: int) -> int:
    """Merge the blocks of a and b; 1 if they were apart, else 0."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    while parent[b] != b:
        parent[b] = parent[parent[b]]
        b = parent[b]
    if a == b:
        return 0
    parent[a] = b
    return 1


# oracle helper: letter ids read off the words, without the occurrence table
def _letters(t: WordTuple) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """(prev, pos_ids, neg_ids) of the letters of t, numbered in reading order.

    ``prev[g]`` is the letter cyclically before letter g in its word, and
    ``pos_ids[i]`` and ``neg_ids[i]`` list the positive and negative
    letters of generator i + 1.
    """
    prev: list[int] = []
    pos_ids: list[list[int]] = [[] for _ in range(t.rank)]
    neg_ids: list[list[int]] = [[] for _ in range(t.rank)]
    for w in t.words:
        base = len(prev)
        for k, let in enumerate(w):
            (pos_ids if let.sign > 0 else neg_ids)[let.gen - 1].append(len(prev))
            prev.append(base + (k - 1) % len(w))
    return prev, pos_ids, neg_ids


def _junction_edges(t: WordTuple) -> list[tuple[tuple, tuple, tuple, tuple]]:
    """Per active generator, the junctions its sigma and tau edges join.

    Junction g sits after letter g.  Positive end k's sigma edge runs
    from the junction before it to the junction after negative end
    sigma(k), and its tau edge from the junction after it to the
    junction before negative end tau(k).
    """
    prev, pos_ids, neg_ids = _letters(t)
    return [
        (
            tuple(prev[g] for g in pos),
            tuple(neg),
            tuple(pos),
            tuple(prev[g] for g in neg),
        )
        for pos, neg in zip(pos_ids, neg_ids)
        if pos
    ]


def _merges(parent: list[int], sources, targets, images) -> int:
    """Union sources[k] with targets[images[k]] for each k; return the merges."""
    return sum(_union(parent, a, targets[v]) for a, v in zip(sources, images))


# oracle for class_counts and pair_statistics: every pair, one at a time
def _scan(
    t: WordTuple, cap: float = math.inf
) -> Iterator[tuple[tuple, tuple, int, int, tuple[Partition, ...]]]:
    """Yield (sigma_parts, tau_parts, blocks, z_discs, cycle_types) per pair.

    The per-pair oracle: the differential tests fold it to check
    ``class_counts``, which sums one generator's tau out instead, and
    ``pair_statistics``, which is read off ``class_counts``; it is in
    turn checked against ``block_count`` and ``cycle_types``.
    The parts tuples range over active generators only; use
    ``occ.expand`` to recover full matchings.  The sigma-side merges are
    made once per sigma and their parent array copied per tau, and the
    cycle type of each pair of image vectors is composed once.  Junctions
    come from t's letters (``_letters``), not from the occurrence table.
    """
    edges = _junction_edges(t)
    total = math.prod(math.factorial(len(pos)) for pos, _, _, _ in edges) ** 2
    if total > cap:
        raise PairCapExceeded(total, cap)
    num_letters = t.total_length
    perms = [list(itertools.permutations(range(len(pos)))) for pos, _, _, _ in edges]
    types_of: dict[tuple[tuple, tuple], Partition] = {}

    def cycle_type(sp: tuple, tp: tuple) -> Partition:
        mu = types_of.get((sp, tp))
        if mu is None:
            mu = (Permutation(sp).inverse() * Permutation(tp)).cycle_type()
            types_of[sp, tp] = mu
        return mu

    for sigma_parts in itertools.product(*perms):
        parent0 = list(range(num_letters))
        count0 = 0
        for (pp, ng, _, _), sp in zip(edges, sigma_parts):
            count0 += _merges(parent0, pp, ng, sp)
        for tau_parts in itertools.product(*perms):
            parent = parent0.copy()
            merges = 0
            for (_, _, po, np_), tp in zip(edges, tau_parts):
                merges += _merges(parent, po, np_, tp)
            types = tuple(map(cycle_type, sigma_parts, tau_parts))
            yield (
                sigma_parts,
                tau_parts,
                num_letters - count0 - merges,
                sum(map(len, types)),
                types,
            )


# oracle for the blocks of _scan, with a union-find of its own
def block_count(t: WordTuple, sigma: Matching, tau: Matching) -> int:
    """Blocks of the index partition the full matchings induce on t.

    An independent oracle, with its own union-find, that the tests check
    ``_scan`` against.  Each occurrence carries an in-slot and an out-slot; the word
    structure identifies out(t) with in(t+1) cyclically (collapsed here
    to one node per letter junction), sigma identifies in(m) with
    out(sigma(m)) and tau identifies out(m) with in(tau(m)).
    """
    prev, pos_ids, neg_ids = _letters(t)
    parent = list(range(len(prev)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for i, (pos, neg) in enumerate(zip(pos_ids, neg_ids)):
        for k, g in enumerate(pos):
            for a, b in (
                (prev[g], neg[sigma[i][k]]),
                (g, prev[neg[tau[i][k]]]),
            ):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    merges += 1
    return len(prev) - merges


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


# oracle for surfaces._diagonal_search: every matching, one at a time
def _diagonal_scan(t: WordTuple) -> Iterator[tuple[tuple, int]]:
    """Yield (sigma_parts, chi(sigma, sigma)) for every matching sigma of t.

    A test oracle for ``_diagonal_search``, one fresh union-find per
    matching.  The parts range over active generators, in ``_scan``'s
    sigma order.
    """
    edges = _junction_edges(t)
    num_letters = t.total_length
    # chi(sigma, sigma) = B - L + #empty: all L z-discs are fixed points
    shift = sum(1 for w in t.words if w.is_empty) - num_letters // 2
    for parts in itertools.product(
        *(itertools.permutations(range(len(pos))) for pos, _, _, _ in edges)
    ):
        parent = list(range(num_letters))
        merges = 0
        for (pp, ng, po, np_), sp in zip(edges, parts):
            merges += _merges(parent, pp, ng, sp) + _merges(parent, po, np_, sp)
        yield parts, num_letters - merges + shift


# oracle helper: cl(w) = (1 - ch) / 2 with ch the diagonal maximum, the
# formula ``chi`` prints; inf when w is not a product of commutators
def commutator_length(w: Word, *, rank: int | None = None) -> int | float:
    ch = diagonal_max_euler(word_tuple([w], rank))
    return math.inf if ch == -math.inf else (1 - ch) // 2


# oracle for surfaces._summed_scan, sigma by sigma: every sigma is laid
# whole, the boundaries it leaves are merged by ``_boundary_class``, and
# pi goes one generator at a time from there.  It lays all prod(c_i!)
# sigma, so it reaches sizes the per-pair ``_scan`` cannot.


def _label_order(occ: OccurrenceTable) -> list[int]:
    """Active generator positions in label order: the summed g* first.

    g* is the active generator with the most occurrences, the first of
    them on a tie.
    """
    sizes = [occ.counts[i] for i in occ.active]
    star = max(range(len(sizes)), key=sizes.__getitem__)
    return [star, *(gi for gi in range(len(sizes)) if gi != star)]


def _boundary_class(links, sizes) -> tuple:
    """The class of a boundary permutation under index relabelling.

    Indices are numbered generator by generator, ``sizes`` giving each
    generator's count, and ``links[m]`` is an index of any generator.
    Relabelling each generator's indices alike on both sides of
    ``links`` conjugates it by a permutation that keeps every generator,
    so the class is the sorted list of its cycles, each read as the
    generators it passes, at its least rotation.
    """
    gen: list[int] = []
    for j, c in enumerate(sizes):
        gen += [j] * c
    seen = [False] * len(gen)
    words = []
    for start in range(len(gen)):
        if seen[start]:
            continue
        word = []
        m = start
        while not seen[m]:
            seen[m] = True
            word.append(gen[m])
            m = links[m]
        n = len(word)
        least = min(word)
        twice = word * 2
        words.append(tuple(min([twice[k:k + n] for k in range(n) if word[k] == least])))
    words.sort()
    return tuple(words)


def _boundary_classes(occ: OccurrenceTable) -> dict[tuple, list]:
    """The boundaries the sigmas leave, merged by relabelling class.

    Once a sigma's edges are laid, the free slots are the tau ends, and
    every open path runs from a tau source to a tau target.  Number the
    indices generator by generator in ``_label_order``: index k of
    generator i stands for its tau source and for the tau target that
    positive end k reaches through sigma.  The key of a sigma is its
    boundary permutation, ``links[m]`` the index whose target the path
    from m's source reaches, with the cycles sigma closed.  Relabelling
    one generator's indices alike on sources and targets only conjugates
    the pi that tau = sigma pi adds, which keeps every count the scan
    reads, so keys of one ``_boundary_class`` are merged.  Returns, per
    class, [number of sigmas, links of one of them].
    """
    order = _label_order(occ)
    gens = [occ.active[gi] for gi in order]
    sizes = [occ.counts[i] for i in gens]
    bases = [sum(sizes[:j]) for j in range(len(sizes))]
    sources = [s for i in gens for s in occ.tau_src[i]]
    where = [0] * len(occ.bare)
    keys: dict[tuple, int] = {}
    for sigma_parts in itertools.product(
        *(itertools.permutations(range(occ.counts[i])) for i in occ.active)
    ):
        other, closed = _sigma_paths(occ, sigma_parts)
        for i, gi, base in zip(gens, order, bases):
            tgt = occ.tau_tgt[i]
            for m, v in enumerate(sigma_parts[gi], base):
                where[tgt[v]] = m
        key = (closed, tuple([where[other[s]] for s in sources]))
        keys[key] = keys.get(key, 0) + 1
    classes: dict[tuple, list] = {}
    for (closed, links), count in keys.items():
        name = (closed, _boundary_class(links, sizes))
        entry = classes.get(name)
        if entry is None:
            classes[name] = [count, links]
        else:
            entry[0] += count
    return classes


def summed_scan_by_sigma(occ: OccurrenceTable) -> dict[tuple[tuple[Partition, ...], int], int]:
    """Class counts, one generator at a time, states merged by boundary class.

    Each tau is written as sigma pi, so the cycle type of sigma^-1 tau is
    that of pi, read per generator.  Index m gets source label 2m and
    target label 2m + 1, paired as a boundary permutation says, and pi's
    edge from index k runs from k's source label to pi(k)'s target label,
    as in the per-pair test oracle ``_scan``.  The generators go in
    reverse ``_label_order``, so g* comes last and the indices left are
    a prefix.  Every open path runs from a source label to a target
    label, so once one generator's edges are laid, the boundary left on
    the remaining indices is again a permutation, ``other[2m] // 2``.  A
    state is one ``_boundary_class`` of it: relabelling the remaining
    indices conjugates their pi, which keeps every count read later.  It
    keeps one boundary of the class and the histogram {(cycle types so
    far, cycles closed): pairs}; the first states come from
    ``_boundary_classes``, and after g* one state holds the class counts.
    """
    active = occ.active
    if not active:
        return {((), 0): 1}
    order = _label_order(occ)
    sizes = [occ.counts[active[gi]] for gi in order]
    # class -> [one boundary of it, {(cycle types, cycles closed): pairs}]
    states: dict[tuple, list] = {}
    for (closed, name), (count, links) in _boundary_classes(occ).items():
        hist = states.setdefault(name, [links, {}])[1]
        hist[(), closed] = hist.get(((), closed), 0) + count
    for j in reversed(range(len(sizes))):
        base, c = sum(sizes[:j]), sizes[j]
        src, tgt = range(2 * base, 2 * (base + c), 2), range(2 * base + 1, 2 * (base + c), 2)
        pis = [(p, _cycle_type(p)) for p in itertools.permutations(range(c))]
        names: dict[tuple, tuple] = {}
        merged: dict[tuple, list] = {}
        for links, hist in states.values():
            partners = [0] * (2 * len(links))
            for m, n in enumerate(links):
                partners[2 * m] = 2 * n + 1
                partners[2 * n + 1] = 2 * m
            # (boundary left, cycle type of pi, cycles closed) -> pis
            outcomes: dict[tuple, int] = {}
            for p, mu in pis:
                other = partners.copy()
                extra = _lay(other, src, tgt, p)
                key = (tuple([label // 2 for label in other[:2 * base:2]]), mu, extra)
                outcomes[key] = outcomes.get(key, 0) + 1
            for (rest, mu, extra), m in outcomes.items():
                name = names.get(rest)
                if name is None:
                    name = names[rest] = _boundary_class(rest, sizes[:j])
                target = merged.setdefault(name, [rest, {}])[1]
                for (types, closed), count in hist.items():
                    key = ((mu, *types), closed + extra)
                    target[key] = target.get(key, 0) + count * m
        states = merged
    ((_, hist),) = states.values()
    # types in label order, g* first, back to active order
    star = order[0]
    return {(t[1:star + 1] + t[:1] + t[star + 1:], blocks): count
            for (t, blocks), count in hist.items()}


# ---------------------------------------------------------------------------
# oracles for wordmeasure.weingarten
#
# Solving the convolution system uses fraction-free (Bareiss)
# elimination over integer-coefficient polynomials, held as plain
# coefficient lists: all divisions below are exact, back-substitution
# included, so the only gcds are those of the final reduction.

WG_INVERSION_LIMIT = 8


def _pmul(a: Sequence, b: Sequence) -> list:
    """Product of coefficient sequences (index = degree), integer or Fraction."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


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

    # back-substitution over the last pivot det: by Cramer's rule each
    # det * x_i is a polynomial, so every division is exact
    det = prev
    nums: list[list[int]] = [[] for _ in range(p)]
    for i in range(p - 1, -1, -1):
        acc = _pmul(det, aug[i][p])
        for j in range(i + 1, p):
            acc = _psub(acc, _pmul(aug[i][j], nums[j]))
        nums[i] = _pdiv_exact(acc, aug[i][i])
    return WeingartenTable(
        L,
        {mu: RationalFunction(nums[a], det) for a, mu in enumerate(classes)},
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


# oracle for wg_sum: the Haar integral of a monomial in matrix entries
def moment(
    row_pairs: list[tuple[object, object]],
    col_pairs: list[tuple[object, object]],
) -> RationalFunction:
    """Haar integral of a balanced monomial in matrix entries.

    ``row_pairs[k]`` holds the row labels (i_k, i'_k) of the k-th
    unconjugated and k-th conjugated entry, ``col_pairs[k]`` the column
    labels.  Labels are compared only for equality.  Sums
    Wg(sigma^-1 tau) over permutations sigma aligning the row labels
    and tau aligning the column labels; an empty sum is 0.
    """
    if len(row_pairs) != len(col_pairs):
        raise ValueError("row and column pairings must have equal length")
    m = len(row_pairs)
    i_lab = [p[0] for p in row_pairs]
    i_conj = [p[1] for p in row_pairs]
    j_lab = [p[0] for p in col_pairs]
    j_conj = [p[1] for p in col_pairs]

    def matching_perms(plain, conj) -> list[Permutation]:
        out = []
        for images in itertools.permutations(range(m)):
            if all(plain[k] == conj[images[k]] for k in range(m)):
                out.append(Permutation(images))
        return out

    sigmas = matching_perms(i_lab, i_conj)
    taus = matching_perms(j_lab, j_conj)
    types = Counter((s.inverse() * t).cycle_type() for s in sigmas for t in taus)
    return wg_sum([m], {(mu,): [count] for mu, count in types.items()})


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


# oracle: permutations as image vectors, composed and split into cycles
class Permutation:
    """A permutation of {0, ..., L-1} stored as its image vector."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, L: int) -> "Permutation":
        return cls(range(L))

    @classmethod
    def from_cycles(cls, L: int, cycles) -> "Permutation":
        images = list(range(L))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(k) = p(q(k))."""
        return Permutation(self.images[j] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for k, v in enumerate(self.images):
            inv[v] = k
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            k = self.images[start]
            while k != start:
                cycle.append(k)
                seen[k] = True
                k = self.images[k]
            out.append(tuple(cycle))
        return out

    def num_cycles(self) -> int:
        return len(self.cycles())

    def cycle_type(self) -> Partition:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = " ".join(
            "(" + " ".join(str(v + 1) for v in c) + ")" for c in self.cycles()
        )
        return f"Permutation[{cyc}]"


# oracle helper: the length in transpositions
def norm(p: Permutation) -> int:
    """Minimal number of transpositions producing p: L - #cycles."""
    return p.size - p.num_cycles()


# oracle: the absolute order on S_L, whose Mobius function the package
# knows only by cycle type
def leq(s: Permutation, t: Permutation) -> bool:
    """Absolute order: some geodesic of transpositions to t passes via s."""
    if s.size != t.size:
        raise ValueError("permutations act on different sets")
    return norm(t) == norm(s) + norm(s.inverse() * t)


# oracle for mobius_of_cycle_type: the Mobius function of the absolute
# order at (id, p), which the tests check against its defining relation
def mobius(p: Permutation) -> int:
    """Mobius function of the absolute order at (id, p)."""
    return mobius_of_cycle_type(p.cycle_type())


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
def content_polynomial(lam: Partition) -> tuple[int, ...]:
    """Product of (n + j - i) over the cells (i, j) of the diagram."""
    lam = check_partition(lam)
    poly = [1]
    for i, row in enumerate(lam):
        for j in range(row):
            poly = _pmul(poly, [j - i, 1])
    return tuple(poly)


# ---------------------------------------------------------------------------
# oracles for wordmeasure.ratfn


# oracle helpers: the sum and product of rational functions, over the
# product of the denominators, reduced once by the constructor
def rf_add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    left = _pmul(f.num, g.den)
    right = _pmul(g.num, f.den)
    num = [a + b for a, b in itertools.zip_longest(left, right, fillvalue=0)]
    return RationalFunction(num, _pmul(f.den, g.den))


def rf_mul(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return RationalFunction(_pmul(f.num, g.num), _pmul(f.den, g.den))


# oracle helper: c * n^e for any integer e
def monomial(e: int, c: Fraction | int = 1) -> RationalFunction:
    if e >= 0:
        return RationalFunction((0,) * e + (c,))
    return RationalFunction((c,), (0,) * -e + (1,))


# oracle helper: the order of a rational function at n = infinity
def degree_at_infinity(f: RationalFunction) -> int | None:
    """deg(num) - deg(den); None for the zero function."""
    if f.is_zero:
        return None
    return len(f.num) - len(f.den)


# oracle for RationalFunction.to_json_obj: its inverse
def from_json_obj(obj: dict) -> RationalFunction:
    return RationalFunction(
        [Fraction(p, q) for p, q in obj["num"]],
        [Fraction(p, q) for p, q in obj["den"]],
    )


# oracle for the RationalFunction constructor: reduction over Q, by
# Fraction long division and a content-stripped remainder sequence,
# where the constructor takes pseudo-remainders over Z
def integer_primitive(a: Sequence[Fraction | int]) -> tuple[Fraction, list[int]]:
    """Write a == scale * prim with scale > 0 and prim a primitive integer
    polynomial of the sign of a; the zero polynomial gives (1, [])."""
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return Fraction(1), []
    m = math.lcm(*(c.denominator for c in a))
    ints = [int(c * m) for c in a]
    content = math.gcd(*ints)
    return Fraction(content, m), [v // content for v in ints]


def qdivmod(a: Sequence, b: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b, by long division over Q."""
    rem = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    for p in (rem, b):
        while p and p[-1] == 0:
            p.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(rem) < len(b):
        return [], rem
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def reduce_over_q(
    num: Sequence[Fraction | int], den: Sequence[Fraction | int]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The canonical (num, den) of num / den: coprime, den primitive
    integer with positive leading coefficient, zero as () over (1,)."""
    s_num, p_num = integer_primitive(num)
    s_den, p_den = integer_primitive(den)
    if not p_den:
        raise ZeroDivisionError("zero denominator")
    if not p_num:
        return (), (Fraction(1),)
    a, b = p_num, p_den
    while b:
        a, b = b, integer_primitive(qdivmod(a, b)[1])[1]
    (p_num, r_num), (p_den, r_den) = qdivmod(p_num, a), qdivmod(p_den, a)
    assert not r_num and not r_den
    sign = 1 if p_den[-1] > 0 else -1
    scale = sign * s_num / s_den
    return tuple(c * scale for c in p_num), tuple(sign * c for c in p_den)
