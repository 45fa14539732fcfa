"""Matchings of letter occurrences and the invariants of their surfaces.

A matching pair (sigma, tau) determines a closed-up surface whose
2-cells come in two kinds: discs counted by blocks, and discs counted
by cycles of sigma^-1 tau within each generator.  Every letter junction
meets exactly two edge ends, so the sigma and tau edges form a 2-regular
graph on the junctions, and the blocks are its cycles: ``_lay`` counts
them as it closes them.  The same edges, read between occurrences, form
a 2-regular graph whose cycles are those of sigma^-1 tau.  Only those
two counts matter: Euler characteristic = blocks + cycles - 2L, so no
complex is ever built.  The class counts of all pairs come from
``_summed_scan``, which lays one sigma or tau edge at a time on both
graphs and merges the partial states that a relabelling of occurrences
carries into each other (``_form``).  The diagonal maximum and the
diagonal pairs at it come from ``_diagonal_search``, which lays one
positive occurrence at a time and merges its states by the same
``_form``.  One pair's blocks and cycles are labelled by one walk each
(``_blocks``, ``_cycle_labels``), from which ``_moves`` reads how each
transposition changes chi, for the level-set search ``_level_set``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from typing import Iterator, NamedTuple

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
    Returns the cycles closed.  Every sigma and tau edge of the scans and
    of the diagonal search is laid here, and the class-count scan lays
    each on its second path-end array, ``mate``, too.
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


def _cycle_labels(a, b) -> list[int]:
    """Each index's label, the least index on its cycle of a^-1 b (one generator's)."""
    inv = [0] * len(a)
    for k, v in enumerate(a):
        inv[v] = k
    label = [-1] * len(a)
    for start in range(len(a)):
        k = start
        while label[k] < 0:
            label[k] = start
            k = inv[b[k]]
    return label


def _blocks(occ: OccurrenceTable, sigma: Matching, tau: Matching) -> list[int]:
    """Each junction slot's label: the least slot of its block.

    Every sigma and tau edge is laid once, as slot-to-slot partners, and
    each block is walked edge, junction (s ^ 1), edge, ... from its least
    slot.
    """
    partner = [0] * len(occ.bare)
    for i in occ.active:
        for a, b in (*zip(occ.sigma_src[i], map(occ.sigma_tgt[i].__getitem__, sigma[i])),
                     *zip(occ.tau_src[i], map(occ.tau_tgt[i].__getitem__, tau[i]))):
            partner[a], partner[b] = b, a
    label = [-1] * len(partner)
    for start in range(len(partner)):
        s = start
        while label[s] < 0:
            label[s] = label[partner[s]] = start
            s = partner[s] ^ 1
    return label


def euler_char(occ: OccurrenceTable, sigma: Matching, tau: Matching) -> int:
    """blocks + cycles of sigma^-1 tau - num_letters + #empty, where num_letters = 2L."""
    sigma, tau = occ.check_matching(sigma), occ.check_matching(tau)
    cycles = sum(len(set(_cycle_labels(a, b))) for a, b in zip(sigma, tau))
    return len(set(_blocks(occ, sigma, tau))) + cycles + occ.num_empty - occ.num_letters


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


def _moves(occ: OccurrenceTable, p: MatchingPair) -> Iterator[tuple[MatchingPair, int, bool]]:
    """Each pair one transposition of one sigma_i or tau_i away from p.

    Yields (neighbour, chi(neighbour) - chi(p), whether the neighbour is
    one rank lower), by side, then generator, then j < k.  Swapping the
    targets of the edges at sources j and k is a 2-opt move in the
    2-regular graph of edges and junctions: it joins two blocks, or
    splits one, since a walk round a block passes both edges the same
    way (every edge and junction joins a letter end to a letter start,
    and both sources are starts for sigma, ends for tau).  It splits the
    cycle of sigma_i^-1 tau_i through j and k if there is one, lowering
    the rank by one, and otherwise joins theirs.
    """
    block = _blocks(occ, *p)
    cycles = [_cycle_labels(a, b) for a, b in zip(*p)]
    for side, sources in ((0, occ.sigma_src), (1, occ.tau_src)):
        m = p[side]
        for i, part in enumerate(m):
            for j, k in itertools.combinations(range(len(part)), 2):
                moved = list(part)
                moved[j], moved[k] = moved[k], moved[j]
                new = m[:i] + (tuple(moved),) + m[i + 1:]
                split = block[sources[i][j]] == block[sources[i][k]]
                down = cycles[i][j] == cycles[i][k]
                delta = (1 if split else -1) + (1 if down else -1)
                yield ((new, p[1]) if side == 0 else (p[0], new)), delta, down


def _level_set(
    occ: OccurrenceTable, start: MatchingPair, chi: int, cap: int
) -> dict[MatchingPair, list[MatchingPair]] | None:
    """The pairs of Euler characteristic chi reached from start by transpositions.

    A breadth-first search through ``_moves`` that stays at chi; None as
    soon as some neighbour has a higher characteristic.  Each pair found
    maps to the pairs it covers: those found one move and one rank below
    it.  Raises PairCapExceeded once the set grows past ``cap``.
    """
    covers: dict[MatchingPair, list[MatchingPair]] = {start: []}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for nxt, delta, down in _moves(occ, p):
            if delta > 0:
                return None
            if delta < 0:
                continue
            if nxt not in covers:
                covers[nxt] = []
                if len(covers) > cap:
                    raise PairCapExceeded(
                        len(covers), cap,
                        "the incompressibility search visited {needed} "
                        "pairs, past the cap {cap}",
                    )
                queue.append(nxt)
            if down:
                covers[p].append(nxt)
    return covers


def _maximal_components(
    occ: OccurrenceTable,
) -> tuple[int, list[dict[MatchingPair, list[MatchingPair]]]]:
    """ch and the pairs at ch, split into components of transposition moves.

    chi never rises along the pair order and (sigma, sigma) precedes
    (sigma, tau), so ch is the diagonal maximum, and every pair at ch
    lies above a diagonal pair at ch, as does every pair on a
    transposition geodesic between the two.  Single transpositions that
    stay at ch therefore reach every maximal pair from the maximal
    diagonal ones: one search from each diagonal seed not yet reached
    finds one whole component.  The seeds are every sigma at ch that
    ``_diagonal_search`` keeps with ``every``.  Each component is the
    ``_level_set`` mapping of its members to their covers, and the
    components are sorted by their sorted members.
    """
    ch, found = _diagonal_search(occ, every=True)
    seeds = [(m, m) for m in map(occ.expand, found)]
    reached: set[MatchingPair] = set()
    components = []
    for seed in seeds:
        if seed not in reached:
            covers = _level_set(occ, seed, ch, occ.pair_count())
            reached.update(covers)
            components.append(covers)
    return ch, sorted(components, key=sorted)


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
    by ``mate``, the two free slots of one occurrence in the diagonal
    pass, and the two ends of a path of sigma and tau edges between
    occurrences in the summed scan.  So they form disjoint cycles.  Both
    pairings join a letter end (a tau source or sigma target) to a letter
    start, and ``ports`` lists the free letter ends, so a walk from a
    port that takes ``mate`` first reads each cycle one way round.
    ``kind`` is the per-slot token: the slot's kind in the diagonal
    pass, and in the summed scan the kind plus a multiple of 4 that
    counts the edges on its ``mate`` path.  A relabelling permutes the
    occurrences of one generator, or its ``mate`` paths of one length,
    and keeps every token, and at one level of either loop a port's
    token fixes its mate's.  So a state is named by the sorted words of
    tokens its cycles pass at their ports, each at its least rotation.
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
    """Class counts, one sigma or tau edge at a time, states merged by ``_form``.

    Besides ``other``, a state keeps a second path-end array, ``mate``,
    over the same free slots.  At the start it pairs the two free slots
    of each occurrence, as ``_mates_and_ports`` does, and each edge
    relinks it by ``_lay``'s rule as well: a ``mate`` path runs through
    occurrences of one generator along sigma and tau edges in turn, so
    one that closes after e edges is a cycle of sigma^-1 tau of length
    (e + 1) / 2.  ``token[s]`` is ``kind[s]`` plus ``width`` times the
    edges on the ``mate`` path at s.  Each step lays the edge from one
    generator's first unlaid source to each of its free targets: every
    sigma edge first, then every tau edge, each in generator order, the
    fewest occurrences first.  Relabelling a generator's free
    occurrences, or its ``mate`` paths of one length, keeps every count
    read later, so a state is one ``_form`` of its two arrays and its
    tokens, with one representative, its images so far and the
    histogram {(cycle types so far, blocks): pairs}.
    """
    order = sorted(occ.active, key=occ.counts.__getitem__)
    kind, width = occ.kind, 4 * occ.rank
    mate, ports = _mates_and_ports(occ)
    # form -> [path ends, mates, tokens, ports, images so far, histogram]
    states = {(): [list(occ.bare), mate, list(kind), ports, (),
                   {(((),) * len(order), 0): 1}]}
    for tau, g in itertools.product((False, True), range(len(order))):
        i = order[g]
        src, tgt = (occ.tau_src[i], occ.tau_tgt[i]) if tau else (
            occ.sigma_src[i], occ.sigma_tgt[i])
        for k, a in enumerate(src):
            merged: dict[tuple, list] = {}
            for other, mate, token, ports, images, hist in states.values():
                taken = images[len(images) - k:]  # generator i's so far
                for v, b in enumerate(tgt):
                    if v in taken:
                        continue
                    o, m, t = other.copy(), mate.copy(), token.copy()
                    closed = _lay(o, (a,), tgt, (v,))
                    length = 0
                    if _lay(m, (a,), tgt, (v,)):
                        length = (t[a] // width + 1) // 2
                    else:
                        edges = (t[a] // width + t[b] // width + 1) * width
                        t[m[a]], t[m[b]] = kind[m[a]] + edges, kind[m[b]] + edges
                    left = ports.copy()
                    left.remove(a if tau else b)
                    form = _form(o, m, t, left)
                    target = merged.setdefault(form, [o, m, t, left, images + (v,), {}])[5]
                    for (types, blocks), count in hist.items():
                        if length:
                            grown = tuple(sorted((*types[g], length), reverse=True))
                            types = (*types[:g], grown, *types[g + 1:])
                        key = (types, blocks + closed)
                        target[key] = target.get(key, 0) + count
            states = merged
    ((*_, hist),) = states.values()
    # types in generator order, back to active order
    back = [order.index(i) for i in occ.active]
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
    applies to the full pair count, although ``_summed_scan`` visits no
    pair: it lays one sigma or tau edge at a time, once per free target
    and per relabelling class of the state the edges before it left.
    """
    total = occ.pair_count()
    if total > cap:
        raise PairCapExceeded(total, cap)
    return _summed_scan(occ)
