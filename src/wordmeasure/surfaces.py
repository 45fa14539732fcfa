"""Matchings of letter occurrences and the invariants of their surfaces.

A matching pair (sigma, tau) determines a closed-up surface whose
2-cells come in two kinds: discs counted by blocks, and discs counted
by cycles of sigma^-1 tau within each generator.  Every letter junction
meets exactly two edge ends, so the sigma and tau edges form a 2-regular
graph on the junctions, and the blocks are its cycles: ``_lay`` counts
them as it closes them.  Only those two counts matter: Euler
characteristic = blocks + cycles - 2L, so no complex is ever built.
The class counts of all pairs come from ``_summed_scan``, which lays
one generator's edges at a time and merges the partial states that a
relabelling of occurrences carries into each other (``_form``).  The
diagonal maximum and the diagonal pairs at it come from
``_diagonal_search``, which lays one positive occurrence at a time and
merges its states by the same ``_form``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from typing import NamedTuple

from .perm import Partition
from .words import WordTuple

DEFAULT_PAIR_CAP = 10**8

# per generator, the image vector of a bijection E_i+ -> E_i- (canonical order)
Matching = tuple[tuple[int, ...], ...]
MatchingPair = tuple[Matching, Matching]


class UnbalancedError(ValueError):
    """Occurrence tables require a balanced word tuple."""


class PairCapExceeded(RuntimeError):
    """An enumeration would exceed the configured pair cap.

    ``message`` is filled in with ``needed`` and ``cap``.  A count too
    long for ``str`` is stated as the power of ten it exceeds, so the
    message itself never fails.
    """

    def __init__(
        self,
        needed: int,
        cap: int,
        message: str = "enumeration of {needed} matching pairs exceeds the cap {cap}",
    ) -> None:
        try:
            text = str(needed)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            text = f"over 10^{int(math.log10(needed))}"
        super().__init__(message.format(needed=text, cap=cap))
        self.needed = needed
        self.cap = cap


class OccurrenceTable:
    """Occurrence positions of each generator, in (word, letter) order.

    Letters get ids in reading order.  Empty words contribute no letters
    but are remembered: each one caps off a disc, adding 1 to every
    Euler characteristic.

    Junction x sits after letter x and has two slots, one per edge end:
    slot 2x, the end of letter x, and slot 2x + 1, the start of the
    letter after it.  Generator i's sigma edges run from ``sigma_src[i]``
    (the starts of its positive letters) to ``sigma_tgt[i]`` (the ends of
    its negative ones), and its tau edges from ``tau_src[i]`` (the ends of
    the positive letters) to ``tau_tgt[i]`` (the starts of the negative
    ones); positive end k meets negative end sigma(k), or tau(k).  Slot s
    has kind ``kind[s]``: 4i plus 0 to 3 in that order, so the two kinds
    an edge joins differ in bit 0 alone.  ``bare`` is the path-end array
    before any edge is laid, with each junction one open path.
    """

    __slots__ = (
        "rank", "num_words", "num_empty", "sigma_src", "sigma_tgt", "tau_src",
        "tau_tgt", "kind", "bare", "counts", "L", "num_letters", "active",
    )

    def __init__(self, t: WordTuple) -> None:
        if not t.is_balanced():
            raise UnbalancedError(f"word tuple {t} is not balanced")
        self.rank = t.rank
        self.num_words = len(t.words)
        self.num_empty = sum(1 for w in t.words if w.is_empty)
        # per generator, the ids of its positive and negative letters,
        # and the id of the letter cyclically before each letter
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
        self.sigma_src = tuple(tuple(2 * prev[g] + 1 for g in v) for v in pos_ids)
        self.sigma_tgt = tuple(tuple(2 * g for g in v) for v in neg_ids)
        self.tau_src = tuple(tuple(2 * g for g in v) for v in pos_ids)
        self.tau_tgt = tuple(tuple(2 * prev[g] + 1 for g in v) for v in neg_ids)
        kind = [0] * (2 * gid)
        for i, sides in enumerate(
            zip(self.sigma_src, self.sigma_tgt, self.tau_src, self.tau_tgt)
        ):
            for j, side in enumerate(sides):
                for s in side:
                    kind[s] = 4 * i + j
        self.kind = tuple(kind)
        self.bare = tuple(s ^ 1 for s in range(2 * gid))
        self.counts = tuple(len(v) for v in pos_ids)
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
        for i, (part, c) in enumerate(zip(m, self.counts)):
            occs = f"{c} occurrence" + ("" if c == 1 else "s")
            if len(part) != c:
                images = f"{len(part)} image" + ("" if len(part) == 1 else "s")
                raise ValueError(f"part {i + 1} lists {images} for {occs}")
            if sorted(part) != list(range(c)):
                raise ValueError(f"part {i + 1} is not a bijection of {occs}")
        return m

    def expand(self, parts: tuple[tuple[int, ...], ...]) -> Matching:
        """Lift per-active-generator vectors to a full rank-length matching."""
        full = [()] * self.rank
        for gi, i in enumerate(self.active):
            full[i] = parts[gi]
        return tuple(full)


def occurrences(t: WordTuple) -> OccurrenceTable:
    return OccurrenceTable(t)


def _lay(other: list[int], sources, targets, images) -> int:
    """Lay an edge from sources[k] to targets[images[k]] for each k.

    ``other[s]`` is the far free end of the open path at free slot s.  An
    edge between the two ends of one path closes a cycle; any other edge
    joins two paths into one, whose far ends now point at each other.
    Returns the cycles closed.  Every sigma, tau and pi edge of the
    scans and of the diagonal search is laid here.
    """
    closed = 0
    for a, v in zip(sources, images):
        b = targets[v]
        oa = other[a]
        if oa == b:
            closed += 1
        else:
            ob = other[b]
            other[oa] = ob
            other[ob] = oa
    return closed


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


def _cycle_type(p) -> Partition:
    """Cycle type of the permutation with image vector p."""
    return tuple(sorted(_cycle_lengths(range(len(p)), p), reverse=True))


def _sigma_paths(occ: OccurrenceTable, sigma_parts) -> tuple[list[int], int]:
    """The path ends after the sigma edges alone, and the cycles they close."""
    other = list(occ.bare)
    closed = 0
    for i, sp in zip(occ.active, sigma_parts):
        closed += _lay(other, occ.sigma_src[i], occ.sigma_tgt[i], sp)
    return other, closed


def euler_char(occ: OccurrenceTable, sigma: Matching, tau: Matching) -> int:
    return _euler(occ, occ.check_matching(sigma), occ.check_matching(tau), {})


def _euler(
    occ: OccurrenceTable, sigma: Matching, tau: Matching, sigma_paths: dict
) -> int:
    """Euler characteristic of a pair of valid full matchings.

    blocks + cycles - num_letters + #empty, where num_letters = 2L.
    ``sigma_paths`` memoises ``_sigma_paths`` by sigma, so a search that
    meets one sigma with many taus runs only the tau side for each.
    """
    frozen = sigma_paths.get(sigma)
    if frozen is None:
        frozen = _sigma_paths(occ, [sigma[i] for i in occ.active])
        sigma_paths[sigma] = frozen
    other = frozen[0].copy()
    blocks = frozen[1]
    cycles = 0
    for i in occ.active:
        blocks += _lay(other, occ.tau_src[i], occ.tau_tgt[i], tau[i])
        cycles += len(_cycle_lengths(sigma[i], tau[i]))
    return blocks + cycles + occ.num_empty - occ.num_letters


class PairScan(NamedTuple):
    """Statistics of the matching-pair enumeration, read off the class counts."""

    balanced: bool
    ch: int | float                      # max Euler characteristic; -inf if unbalanced
    argmax: tuple[MatchingPair, ...]     # pairs achieving ch (sorted), if collected
    diagonal_ch: int | None              # max over pairs with sigma == tau
    histogram: dict[int, int]            # chi -> number of pairs
    match_count: int
    pair_count: int


_UNBALANCED_SCAN = PairScan(False, float("-inf"), (), None, {}, 0, 0)


def class_chi(occ: OccurrenceTable, types: tuple[Partition, ...], blocks: int) -> int:
    """chi of the pairs of class (types, blocks): blocks + cycles + #empty - 2L."""
    return blocks + sum(map(len, types)) + occ.num_empty - occ.num_letters


def pair_statistics(
    t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP, collect_argmax: bool = True
) -> PairScan:
    """The chi histogram of all matching pairs of t, and the pairs achieving ch.

    The histogram, ch and the diagonal ch (classes whose types are all
    ones, since sigma^-1 tau = id exactly when sigma = tau) all come
    from the ``class_chi`` of each ``class_counts`` class.  The argmax,
    only when collected, is the union of the classes
    ``_maximal_components`` finds, sorted canonically.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        return _UNBALANCED_SCAN
    occ = occurrences(t)
    hist: dict[int, int] = {}
    diag: int | None = None
    for (types, blocks), count in class_counts(occ, cap=cap).items():
        chi = class_chi(occ, types, blocks)
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
    sigma_paths: dict = {}
    while queue:
        for nxt in _transposition_neighbours(queue.popleft()):
            if nxt in seen:
                continue
            value = _euler(occ, *nxt, sigma_paths)
            if value > chi:
                return None
            if value == chi:
                seen.add(nxt)
                if len(seen) > cap:
                    raise PairCapExceeded(
                        len(seen), cap,
                        "the incompressibility search visited {needed} "
                        "pairs, past the cap {cap}",
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
    finds one whole component.  The seeds are every sigma at ch that
    ``_diagonal_search`` keeps with ``every``.  Each component is
    sorted, and so is their list.
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

    Agrees with ``pair_statistics``.  ``_diagonal_search`` lays one
    positive occurrence at a time and merges its states by relabelling,
    so it visits far fewer states than the |Match| diagonal pairs; used
    where only the maximum is needed.  With ``above``, only a maximum
    greater than ``above`` is sought, and None is returned when there
    is none.  The cap applies to |Match|.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        return float("-inf") if above is None else None
    occ = occurrences(t)
    needed = occ.match_count()
    if needed > cap:
        raise PairCapExceeded(
            needed, cap, "enumeration of {needed} matchings exceeds the cap {cap}"
        )
    return _diagonal_search(occ, above)[0]


def _form(other, mate, kind, ports) -> tuple:
    """The name of a partial state of either loop up to relabelling.

    The loops are ``_summed_scan`` and ``_diagonal_pass``.  The free
    slots pair up twice: by ``other``, the two ends of an open path, and
    by ``mate``, the two free slots of one occurrence, or of one index
    once the summed scan lays its sigma.  So they form disjoint cycles.
    Both pairings join a letter end (a tau source or sigma target) to a
    letter start, and ``ports`` lists the free letter ends, so a walk
    from a port that takes ``mate`` first reads each cycle one way
    round.  A relabelling permutes the occurrences, or the indices, of
    one generator and keeps every kind, and at one level of either loop
    a port's kind fixes its mate's.  So a state is named by the sorted
    words of ``kind`` values its cycles pass at their ports, each at its
    least rotation.
    """
    seen = set()
    words = []
    for start in ports:
        if start in seen:
            continue
        word = []
        s = start
        while s not in seen:
            seen.add(s)
            word.append(kind[s])
            s = other[mate[s]]
        n = len(word)
        if n > 1:
            least = min(word)
            twice = word * 2
            word = min([twice[k:k + n] for k in range(n) if word[k] == least])
        words.append(tuple(word))
    words.sort()
    return tuple(words)


def _mates_and_ports(occ: OccurrenceTable) -> tuple[list[int], list[int]]:
    """``mate`` and ``ports`` of the bare state, for ``_form``.

    ``mate`` pairs the sigma and tau sources of each positive occurrence
    and the sigma and tau targets of each negative one; ``ports`` lists
    the letter ends (tau sources and sigma targets), one on each open
    path.
    """
    mate = [0] * len(occ.kind)
    for i in occ.active:
        for a, b in (*zip(occ.sigma_src[i], occ.tau_src[i]),
                     *zip(occ.sigma_tgt[i], occ.tau_tgt[i])):
            mate[a], mate[b] = b, a
    return mate, [s for s, k in enumerate(occ.kind) if k % 4 in (1, 2)]


def _summed_scan(occ: OccurrenceTable) -> dict[tuple[tuple[Partition, ...], int], int]:
    """Class counts, one generator's edges at a time, states merged by ``_form``.

    Each tau is written as sigma pi, so the cycle type of sigma^-1 tau is
    that of pi, read per generator.  The stages lay sigma of each active
    generator and then pi of each, in one order: by count, the most
    occurrences last.  Once sigma(k) = j is laid, index k has the tau
    source of k and the tau target of j, which the state's path-end
    array names as the tau target of k; so pi's edge from k runs to the
    target named pi(k), as in the per-pair test oracle ``_scan``.
    Relabelling a pending generator's occurrences
    (sigma -> beta sigma alpha^-1) or a laid one's indices (pi -> gamma
    pi gamma^-1) keeps every count read later, so a state is one
    ``_form``, with one path-end array and the histogram {(cycle types
    so far, cycles closed): pairs}.  A move's boundary is keyed by the
    port each port reaches through its mate and then its path, which
    names each index by its tau source, and ``_form`` is memoised on it.
    """
    active = occ.active
    order = sorted(active, key=occ.counts.__getitem__)
    kind, size = occ.kind, len(occ.kind)
    mate, ports = _mates_and_ports(occ)
    states = {(): [list(occ.bare), {((), 0): 1}]}
    for pi_stage, i in [(False, i) for i in order] + [(True, i) for i in order]:
        src, tgt = (occ.tau_src[i], occ.tau_tgt[i]) if pi_stage else (
            occ.sigma_src[i], occ.sigma_tgt[i])
        ports = [s for s in ports if s not in src and s not in tgt]
        if not pi_stage:
            for a, b in zip(occ.tau_src[i], occ.tau_tgt[i]):
                mate[a], mate[b] = b, a
            at = [ports.index(a) for a in occ.tau_src[i]]
        ends = [mate[s] for s in ports]
        moves = []
        for p in itertools.permutations(range(occ.counts[i])):
            if pi_stage:
                moves.append((p, ends, (_cycle_type(p),)))
            else:
                # the path from tau source k now ends at sigma(k)'s tau target
                reached = ends.copy()
                for k, v in zip(at, p):
                    reached[k] = occ.tau_tgt[i][v]
                moves.append((p, reached, ()))
        names: dict[tuple, tuple] = {}
        merged: dict[tuple, list] = {}
        for base, hist in states.values():
            # (boundary left, cycle type grown, cycles closed) -> moves
            outcomes: dict[tuple, int] = {}
            for p, reached, grow in moves:
                other = base.copy()
                extra = _lay(other, src, tgt, p)
                key = (tuple(map(other.__getitem__, reached)), grow, extra)
                outcomes[key] = outcomes.get(key, 0) + 1
            for (rest, grow, extra), m in outcomes.items():
                form = names.get(rest)
                if form is None:
                    other = [0] * size
                    for b, a in zip(ends, rest):
                        other[a], other[b] = b, a
                    form = names[rest] = _form(other, mate, kind, ports)
                    merged.setdefault(form, [other, {}])
                target = merged[form][1]
                for (types, closed), count in hist.items():
                    key = (types + grow, closed + extra)
                    target[key] = target.get(key, 0) + count * m
        states = merged
    ((_, hist),) = states.values()
    # types in stage order, back to active order
    back = [order.index(i) for i in active]
    return {(tuple([t[j] for j in back]), blocks): count
            for (t, blocks), count in hist.items()}


def _diagonal_search(
    occ: OccurrenceTable, above: int | None = None, *, every: bool = False
) -> tuple[int | None, list[tuple]]:
    """The largest chi(sigma, sigma) above ``above``, or None if there is none.

    chi(sigma, sigma) = closed + L + #empty - num_letters, since all L
    cycles of sigma^-1 sigma are fixed points, so ``_diagonal_pass``
    seeks the most cycles closed.  With ``every``, the parts of every
    sigma at the maximum are returned too, in lexicographic order; the
    parts range over active generators.  Without ``above``, a first pass
    finds the maximum, so that the second keeps only prefixes that can
    reach it.
    """
    base = occ.L + occ.num_empty - occ.num_letters
    floor = 0 if above is None else above + 1 - base
    if every and above is None:
        floor = _diagonal_pass(occ, floor, False)[0]
    best = _diagonal_pass(occ, floor, every)
    return (None, []) if best is None else (best[0] + base, best[1])


def _diagonal_pass(
    occ: OccurrenceTable, floor: int, every: bool
) -> tuple[int, list[tuple]] | None:
    """The most cycles a diagonal pair closes if at least ``floor``, else None.

    Each step takes one positive occurrence, in ``_summed_scan``'s
    generator order, and lays its sigma and tau edges to each free
    negative occurrence; both occurrences leave the state, which
    ``_form`` names up to relabelling with ``_mates_and_ports``' mates,
    memoised on the path ends at the ports.  States of one form have
    the same completions, so a form keeps its best count, with one
    representative, or with ``every`` each prefix at that count, whose
    sigmas are returned too.  A state has P open paths, one per port,
    and P edges still to lay; an open path closes alone only if
    closable (its free ends differ in bit 0 of kind alone) and
    otherwise joins another first, so with A closable paths at most
    (P + A) // 2 more cycles close.  A state is dropped once closed +
    (P + A) // 2 falls short of ``floor``; A is counted only when
    closed + P // 2 does.
    """
    kind = occ.kind
    # an open path is closable when the kind at its far end closes its port's
    closer = [k ^ 1 for k in kind]
    mate, ports = _mates_and_ports(occ)
    # form -> [closed, [(path ends, ports, images so far)]]
    states = {(): [0, [(list(occ.bare), ports, ())]]}
    order = sorted(occ.active, key=occ.counts.__getitem__)
    for i in order:
        ends = list(zip(occ.sigma_tgt[i], occ.tau_tgt[i]))
        for k in range(occ.counts[i]):
            starts = (occ.sigma_src[i][k], occ.tau_src[i][k])
            names: dict[tuple, tuple] = {}
            merged: dict[tuple, list] = {}
            for closed, entries in states.values():
                for other, ports, images in entries:
                    taken = images[len(images) - k:]  # generator i's so far
                    rest = ports.copy()
                    rest.remove(starts[1])
                    for v, end in enumerate(ends):
                        if v in taken:
                            continue
                        child = other.copy()
                        count = closed + _lay(child, starts, end, (0, 1))
                        left = rest.copy()
                        left.remove(end[0])
                        far = tuple(map(child.__getitem__, left))
                        if count + len(left) // 2 < floor:
                            closable = sum(map(operator.eq, map(kind.__getitem__, far),
                                               map(closer.__getitem__, left)))
                            if count + (len(left) + closable) // 2 < floor:
                                continue
                        form = names.get(far)
                        if form is None:
                            form = names[far] = _form(child, mate, kind, left)
                        known = merged.get(form)
                        if known is None or count > known[0]:
                            merged[form] = [count, [(child, left, images + (v,))]]
                        elif every and count == known[0]:
                            known[1].append((child, left, images + (v,)))
            states = merged
    if not states:
        return None
    ((closed, entries),) = states.values()
    if closed < floor:  # no steps were taken to drop it
        return None
    found = []
    if every:
        # images in stage order, back to parts in active order
        cuts = list(itertools.accumulate(occ.counts[i] for i in order))
        back = [order.index(i) for i in occ.active]
        for _, _, images in entries:
            parts = [images[a:b] for a, b in zip([0, *cuts], cuts)]
            found.append(tuple(parts[j] for j in back))
        found.sort()
    return closed, found


def class_counts(
    occ: OccurrenceTable, *, cap: int = DEFAULT_PAIR_CAP
) -> dict[tuple[tuple[Partition, ...], int], int]:
    """Multiplicity of each (per-generator cycle types, block count) class.

    This is the whole content of the pair enumeration needed for the
    exact trace: the Weingarten weight of a pair depends only on the
    cycle types, and the power of n only on the block count.  The cap
    applies to the full pair count, although ``_summed_scan`` visits
    far fewer pairs: it lays one generator's sigma or pi at a time, once
    per relabelling class of the state the generators before it left.
    """
    total = occ.pair_count()
    if total > cap:
        raise PairCapExceeded(total, cap)
    return _summed_scan(occ)
