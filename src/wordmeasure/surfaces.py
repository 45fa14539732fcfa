"""Matchings of letter occurrences and the invariants of their surfaces.

A matching pair (sigma, tau) determines a closed-up surface whose
2-cells come in two kinds: discs counted by blocks of an index
partition (union-find below), and discs counted by cycles of
sigma^-1 tau within each generator.  Only those two counts matter:
Euler characteristic = blocks + cycles - 2L, so no complex is ever
built.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .diagonal import _diagonal_search
from .perm import Partition, Permutation
from .words import Word, WordTuple, word_tuple

DEFAULT_PAIR_CAP = 10**8
# fewest summed-scan iterations for which class_counts starts a pool
PARALLEL_MIN_SCAN = 50_000

# per generator, the image vector of a bijection E_i+ -> E_i- (canonical order)
Matching = tuple[tuple[int, ...], ...]
MatchingPair = tuple[Matching, Matching]


class UnbalancedError(ValueError):
    """Occurrence tables require a balanced word tuple."""


class PairCapExceeded(RuntimeError):
    """An enumeration would exceed the configured pair cap."""

    def __init__(self, needed: int, cap: int, message: str | None = None) -> None:
        super().__init__(
            message or f"enumeration of {needed} matching pairs exceeds the cap {cap}"
        )
        self.needed = needed
        self.cap = cap


class OccurrenceTable:
    """Occurrence positions of each generator, in (word, letter) order.

    Letters get global ids in reading order; ``prev[g]`` is the id of
    the cyclically preceding letter in the same word.  Empty words
    contribute no letters but are remembered: each one caps off a disc,
    adding 1 to every Euler characteristic.
    """

    __slots__ = (
        "rank", "num_words", "num_empty", "prev",
        "pos_ids", "neg_ids", "pos_prev", "neg_prev",
        "counts", "L", "num_letters", "active",
    )

    def __init__(self, t: WordTuple) -> None:
        if not t.is_balanced():
            raise UnbalancedError(f"word tuple {t} is not balanced")
        self.rank = t.rank
        self.num_words = len(t.words)
        self.num_empty = sum(1 for w in t.words if w.is_empty)
        prev: list[int] = []
        pos_ids: list[list[int]] = [[] for _ in range(t.rank)]
        neg_ids: list[list[int]] = [[] for _ in range(t.rank)]
        gid = 0
        for w in t.words:
            base = gid
            k = len(w)
            for li, let in enumerate(w.letters):
                prev.append(base + (li - 1) % k)
                (pos_ids if let.sign > 0 else neg_ids)[let.gen - 1].append(gid)
                gid += 1
        self.prev = tuple(prev)
        self.pos_ids = tuple(tuple(v) for v in pos_ids)
        self.neg_ids = tuple(tuple(v) for v in neg_ids)
        self.pos_prev = tuple(
            tuple(prev[g] for g in gens) for gens in self.pos_ids
        )
        self.neg_prev = tuple(
            tuple(prev[g] for g in gens) for gens in self.neg_ids
        )
        self.counts = tuple(len(v) for v in self.pos_ids)
        self.L = sum(self.counts)
        self.num_letters = gid
        self.active = tuple(i for i, c in enumerate(self.counts) if c)

    def match_count(self) -> int:
        return math.prod(math.factorial(c) for c in self.counts)

    def pair_count(self) -> int:
        return self.match_count() ** 2

    def check_matching(self, m: Matching) -> Matching:
        m = tuple(tuple(part) for part in m)
        if len(m) != self.rank:
            raise ValueError(f"matching must have {self.rank} parts")
        for i, part in enumerate(m):
            if sorted(part) != list(range(self.counts[i])):
                raise ValueError(
                    f"part {i + 1} is not a bijection of {self.counts[i]} occurrences"
                )
        return m

    def expand(self, parts: tuple[tuple[int, ...], ...]) -> Matching:
        """Lift per-active-generator vectors to a full rank-length matching."""
        full = [()] * self.rank
        for gi, i in enumerate(self.active):
            full[i] = parts[gi]
        return tuple(full)


def occurrences(t: WordTuple) -> OccurrenceTable:
    return OccurrenceTable(t)


def _link(parent: list[int], sources, targets, images) -> int:
    """Join sources[k] with targets[images[k]] for each k; return the merges.

    The union-find over letter junctions that every sigma, tau and pi
    edge set of the scans goes through, with path halving.  The diagonal
    search takes edges back, so it uses ``diagonal._Junctions`` instead.
    """
    merges = 0
    for a, v in zip(sources, images):
        b = targets[v]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _cycle_lengths(a, b) -> list[int]:
    """Cycle lengths of a^-1 b, for image vectors a and b of one generator."""
    inv = [0] * len(a)
    for k, v in enumerate(a):
        inv[v] = k
    seen = [False] * len(a)
    lengths = []
    for start in range(len(a)):
        if seen[start]:
            continue
        size = 0
        k = start
        while not seen[k]:
            seen[k] = True
            size += 1
            k = inv[b[k]]
        lengths.append(size)
    return lengths


def _sigma_partition(occ: OccurrenceTable, sigma_parts) -> tuple[list[int], int]:
    """Union-find parents after the sigma edges alone, and the merge count.

    The parents are flattened, so copies made per tau resolve every node
    in one hop until the tau edges merge further.
    """
    parent = list(range(occ.num_letters))
    merges = 0
    for i, sp in zip(occ.active, sigma_parts):
        merges += _link(parent, occ.pos_prev[i], occ.neg_ids[i], sp)
    for v in range(len(parent)):
        r = v
        while parent[r] != r:
            r = parent[r]
        parent[v] = r
    return parent, merges


def euler_char(occ: OccurrenceTable, sigma: Matching, tau: Matching) -> int:
    return _euler(occ, occ.check_matching(sigma), occ.check_matching(tau), {})


def _euler(
    occ: OccurrenceTable, sigma: Matching, tau: Matching, partitions: dict
) -> int:
    """Euler characteristic of a pair of valid full matchings.

    blocks + cycles - L_total + #empty, with blocks = L_total - merges.
    ``partitions`` memoises ``_sigma_partition`` by sigma, so a search
    that meets one sigma with many taus runs only the tau side for each.
    """
    frozen = partitions.get(sigma)
    if frozen is None:
        frozen = _sigma_partition(occ, [sigma[i] for i in occ.active])
        partitions[sigma] = frozen
    parent = frozen[0].copy()
    merges = frozen[1]
    cycles = 0
    for i in occ.active:
        merges += _link(parent, occ.pos_ids[i], occ.neg_prev[i], tau[i])
        cycles += len(_cycle_lengths(sigma[i], tau[i]))
    return cycles - merges + occ.num_empty


@dataclass(frozen=True)
class PairScan:
    """Statistics of the matching-pair enumeration, read off the class counts."""

    balanced: bool
    ch: int | float                      # max Euler characteristic; -inf if unbalanced
    argmax: tuple[MatchingPair, ...]     # pairs achieving ch (sorted), if collected
    diagonal_ch: int | None              # max over pairs with sigma == tau
    histogram: dict[int, int]            # chi -> number of pairs
    match_count: int
    pair_count: int


_UNBALANCED_SCAN = PairScan(False, float("-inf"), (), None, {}, 0, 0)


def pair_statistics(
    t: WordTuple,
    *,
    cyclic_reduce: bool = True,
    cap: int = DEFAULT_PAIR_CAP,
    collect_argmax: bool = True,
    jobs: int = 1,
) -> PairScan:
    """The chi histogram of all matching pairs of t, and the pairs achieving ch.

    A pair of class (cycle types, blocks) has chi = blocks + sum of the
    cycle counts + #empty - L, so the histogram, ch and the diagonal ch
    (classes whose types are all ones, since sigma^-1 tau = id exactly
    when sigma = tau) all come from ``class_counts``; ``jobs`` splits
    that scan.  The argmax, only when collected, is the union of the
    classes ``_maximal_components`` finds, sorted canonically.
    """
    if cyclic_reduce:
        t = t.cyclically_reduced()
    if not t.is_balanced():
        return _UNBALANCED_SCAN
    occ = occurrences(t)
    shift = occ.num_empty - occ.num_letters
    hist: dict[int, int] = {}
    diag: int | None = None
    for (types, blocks), count in class_counts(occ, cap=cap, jobs=jobs).items():
        chi = blocks + sum(map(len, types)) + shift
        hist[chi] = hist.get(chi, 0) + count
        if all(mu[0] == 1 for mu in types) and (diag is None or chi > diag):
            diag = chi
    ch = max(hist)
    argmax = ()
    if collect_argmax:
        argmax = tuple(sorted(itertools.chain(*_maximal_components(occ)[1])))
    return PairScan(
        True, ch, argmax, diag, hist, occ.match_count(), occ.pair_count()
    )


def _transposition_neighbours(p: MatchingPair) -> list[MatchingPair]:
    """All pairs differing from p by one transposition in one coordinate.

    Every such pair is comparable with p (one covers the other), since
    the middle norm changes by exactly 1.
    """
    out = []
    for side in (0, 1):
        m = p[side]
        for i, part in enumerate(m):
            for j, k in itertools.combinations(range(len(part)), 2):
                moved = list(part)
                moved[j], moved[k] = moved[k], moved[j]
                new = m[:i] + (tuple(moved),) + m[i + 1:]
                out.append((new, p[1]) if side == 0 else (p[0], new))
    return out


def _level_set(
    occ: OccurrenceTable, starts, chi: int, cap: int
) -> set[MatchingPair] | None:
    """The pairs of Euler characteristic chi reached from starts by transpositions.

    A breadth-first search through single-transposition moves that stays
    at chi; None as soon as some neighbour has a higher characteristic.
    Raises PairCapExceeded once the set grows past ``cap``.
    """
    seen = set(starts)
    queue = deque(seen)
    partitions: dict = {}
    while queue:
        for nxt in _transposition_neighbours(queue.popleft()):
            if nxt in seen:
                continue
            value = _euler(occ, *nxt, partitions)
            if value > chi:
                return None
            if value == chi:
                seen.add(nxt)
                if len(seen) > cap:
                    raise PairCapExceeded(
                        len(seen), cap,
                        f"the incompressibility search visited {len(seen)} "
                        f"pairs, past the cap {cap}",
                    )
                queue.append(nxt)
    return seen


def _maximal_components(
    occ: OccurrenceTable,
) -> tuple[int, list[list[MatchingPair]]]:
    """ch and the pairs at ch, split into components of transposition moves.

    chi never rises along the pair order and (sigma, sigma) precedes
    (sigma, tau), so ch is the diagonal maximum, and every pair at ch
    lies above a diagonal pair at ch, as does every pair on a
    transposition geodesic between the two.  Single transpositions that
    stay at ch therefore reach every maximal pair from the maximal
    diagonal ones: one search from each diagonal seed not yet reached
    finds one whole component.  Each component is sorted, and so is
    their list.
    """
    ch, found = _diagonal_search(occ, every=True)
    seeds = [(m, m) for m in map(occ.expand, found)]
    reached: set[MatchingPair] = set()
    components = []
    for seed in seeds:
        if seed not in reached:
            members = _level_set(occ, [seed], ch, occ.pair_count())
            reached |= members
            components.append(sorted(members))
    return ch, sorted(components)


def diagonal_max_euler(
    t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP, above: int | None = None
) -> int | float | None:
    """Max Euler characteristic over diagonal pairs (sigma, sigma) only.

    Agrees with ``pair_statistics``.  The branch and bound of
    ``_diagonal_search`` visits at most the |Match| diagonal pairs, and
    usually far fewer; used where only the maximum is needed.  With
    ``above``, only a maximum greater than ``above`` is sought, and None
    is returned when there is none.  The cap applies to |Match|.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        return float("-inf") if above is None else None
    occ = occurrences(t)
    needed = occ.match_count()
    if needed > cap:
        raise PairCapExceeded(
            needed, cap, f"enumeration of {needed} matchings exceeds the cap {cap}"
        )
    return _diagonal_search(occ, above)[0]


def _summed_scan(
    occ: OccurrenceTable, sigma_range: tuple[int, int] | None = None
) -> dict[tuple[tuple[Partition, ...], int], int]:
    """Class counts with the tau of one generator summed out by a memo.

    Each tau is written as sigma pi, so the cycle type of sigma^-1 tau is
    that of pi, read from one list per generator, and tau's edge from
    positive end k goes to negative end sigma(pi(k)).  The summed
    generator g* is the active one with the most occurrences.  For each
    sigma and each pi over the other generators the union-find runs as in
    the per-pair test oracle ``_scan``; its partition matters to g*'s
    edges only through the blocks of g*'s 2c tau-endpoints, read in that
    order and reduced to first-appearance labels (the boundary pattern).  A memo keyed on the
    pattern holds the histogram of (cycle type of pi_g*, extra merges)
    over all pi_g*, so the loop runs prod(c_i!)^2 / c_g*! times.
    ``sigma_range`` slices the sigma enumeration, in lexicographic order.
    """
    active = occ.active
    if not active:
        return {((), occ.num_letters): 1}
    n_act = len(active)
    sizes = [occ.counts[i] for i in active]
    star = max(range(n_act), key=sizes.__getitem__)
    rest = [gi for gi in range(n_act) if gi != star]
    perms = [list(itertools.permutations(range(c))) for c in sizes]
    types = [[Permutation(p).cycle_type() for p in ps] for ps in perms]
    pos_ids = [occ.pos_ids[i] for i in active]
    neg_prev = [occ.neg_prev[i] for i in active]
    # pi over the other generators: (pi per generator, their cycle types)
    pis = [
        ([p for p, _ in combo], tuple(mu for _, mu in combo))
        for combo in itertools.product(*(zip(perms[gi], types[gi]) for gi in rest))
    ]

    sigma_iter = itertools.product(*perms)
    if sigma_range is not None:
        sigma_iter = itertools.islice(sigma_iter, *sigma_range)
    # (other types, pattern, blocks before g*'s tau edges) -> pairs
    partial: dict[tuple, int] = {}
    for sigma_parts in sigma_iter:
        parent0, count0 = _sigma_partition(occ, sigma_parts)
        blocks0 = occ.num_letters - count0
        # negative tau-end j of each generator is neg_prev at sigma(j)
        targets = [
            [neg_prev[gi][v] for v in sigma_parts[gi]] for gi in range(n_act)
        ]
        edges = [(pos_ids[gi], targets[gi]) for gi in rest]
        ends = pos_ids[star] + tuple(targets[star])

        for pi_parts, pi_types in pis:
            parent = parent0.copy()
            merges = 0
            for (po, tg), p in zip(edges, pi_parts):
                merges += _link(parent, po, tg, p)
            labels: dict[int, int] = {}
            pattern = []
            for v in ends:
                while parent[v] != v:
                    v = parent[v]
                pattern.append(labels.setdefault(v, len(labels)))
            key = (pi_types, tuple(pattern), blocks0 - merges)
            partial[key] = partial.get(key, 0) + 1

    c_star = sizes[star]
    hist_of: dict[tuple[int, ...], dict[tuple[Partition, int], int]] = {}
    counts: dict[tuple[tuple[Partition, ...], int], int] = {}
    for (others, pattern, blocks), count in partial.items():
        hist = hist_of.get(pattern)
        if hist is None:
            hist = {}
            sources, targets = pattern[:c_star], pattern[c_star:]
            for p, mu in zip(perms[star], types[star]):
                extra = _link(list(range(len(pattern))), sources, targets, p)
                hist[mu, extra] = hist.get((mu, extra), 0) + 1
            hist_of[pattern] = hist
        for (mu, extra), m in hist.items():
            key = (others[:star] + (mu,) + others[star:], blocks - extra)
            counts[key] = counts.get(key, 0) + count * m
    return counts


def _class_counts_worker(args):
    occ, lo, hi = args
    return _summed_scan(occ, (lo, hi))


def summed_scan_size(occ: OccurrenceTable) -> int:
    """Inner iterations of ``_summed_scan``: prod(c_i!)^2 / max c_i!."""
    return occ.pair_count() // math.factorial(max(occ.counts, default=0))


def class_counts(
    occ: OccurrenceTable, *, cap: int = DEFAULT_PAIR_CAP, jobs: int = 1
) -> dict[tuple[tuple[Partition, ...], int], int]:
    """Multiplicity of each (per-generator cycle types, block count) class.

    This is the whole content of the pair enumeration needed for the
    exact trace: the Weingarten weight of a pair depends only on the
    cycle types, and the power of n only on the block count.  The cap
    applies to the full pair count, although ``_summed_scan`` visits
    only ``summed_scan_size`` of them.  With ``jobs`` > 1 and at least
    ``PARALLEL_MIN_SCAN`` inner iterations, contiguous sigma slices are
    scanned in worker processes and their counts summed; smaller scans
    finish before a pool would start, so they stay serial.
    """
    total = occ.pair_count()
    if total > cap:
        raise PairCapExceeded(total, cap)
    match_count = occ.match_count()
    small = summed_scan_size(occ) < PARALLEL_MIN_SCAN
    if jobs <= 1 or match_count < jobs or small:
        return _summed_scan(occ)
    from concurrent.futures import ProcessPoolExecutor

    bounds = [match_count * k // jobs for k in range(jobs + 1)]
    tasks = [(occ, bounds[k], bounds[k + 1]) for k in range(jobs)]
    counts: dict[tuple[tuple[Partition, ...], int], int] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_class_counts_worker, tasks):
            for key, count in part.items():
                counts[key] = counts.get(key, 0) + count
    return counts


def commutator_length(
    w: Word, *, rank: int | None = None, cap: int = DEFAULT_PAIR_CAP
) -> int | float:
    """Least g such that w is a product of g commutators; inf if none.

    Computed as (1 - ch(w)) / 2, with ch from the diagonal pairs alone.
    """
    t = word_tuple([w], rank)
    if not t.is_balanced():
        return math.inf
    if w.cyclic_reduce().is_empty:
        return 0
    return (1 - diagonal_max_euler(t, cap=cap)) // 2
