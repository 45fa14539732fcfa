"""Equivalence classes of maximal-Euler matching pairs.

Pairs of matchings carry a partial order: (s', t') precedes (s, t) when
some transposition geodesic from s to t passes through s' and then t'.
Restricting to pairs of maximal Euler characteristic and taking
connected components under comparability separates the classes of
solutions; each class's poset has an order complex whose Euler
characteristic is the class's contribution to the leading coefficient,
and whose fundamental group presents the stabilizer of the solution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .perm import mobius_of_cycle_type
from .surfaces import (
    DEFAULT_PAIR_CAP,
    Matching,
    MatchingPair,
    OccurrenceTable,
    PairCapExceeded,
    _cycle_lengths,
    _level_set,
    _maximal_components,
    _transposition_neighbours,
    euler_char,
    occurrences,
)
from .words import WordTuple


def matching_dist(a: Matching, b: Matching) -> int:
    """Transposition distance between two matchings: ||a^-1 b||."""
    total = 0
    for pa, pb in zip(a, b):
        total += len(pa) - len(_cycle_lengths(pa, pb))
    return total


def pair_rank(p: MatchingPair) -> int:
    return matching_dist(p[0], p[1])


def pair_mobius_value(p: MatchingPair) -> int:
    moeb = 1
    for pa, pb in zip(p[0], p[1]):
        if pa:
            moeb *= mobius_of_cycle_type(
                tuple(sorted(_cycle_lengths(pa, pb), reverse=True))
            )
    return moeb


def is_incompressible(
    occ: OccurrenceTable,
    sigma: Matching,
    tau: Matching,
    *,
    cap: int = DEFAULT_PAIR_CAP,
) -> bool:
    """Whether the pair's surface map kills no essential simple curve.

    BFS over single-transposition moves, never visiting pairs of Euler
    characteristic below the start; compressible exactly when some such
    path reaches a strictly higher characteristic.  Covering moves
    suffice because the characteristic along any comparable chain is
    sandwiched between the endpoint values.
    """
    sigma = occ.check_matching(sigma)
    tau = occ.check_matching(tau)
    return _level_set(occ, [(sigma, tau)], euler_char(occ, sigma, tau), cap) is not None


@dataclass(frozen=True)
class PairPoset:
    """A finite poset of matching pairs, graded by ||sigma^-1 tau||."""

    elements: tuple[MatchingPair, ...]
    ranks: tuple[int, ...]
    below: tuple[frozenset[int], ...]   # strictly-smaller element indices


@dataclass(frozen=True)
class OrderComplex:
    """Chain complex data of a poset, with the 2-skeleton explicit."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]       # (lower, upper) comparable pairs
    triangles: tuple[tuple[int, int, int], ...]  # 3-chains, ascending
    chain_counts: tuple[int, ...]            # chain_counts[k] = #(k+1)-chains
    below: tuple[frozenset[int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def euler_by_chain_counts(self) -> int:
        return sum(
            (-1) ** k * count for k, count in enumerate(self.chain_counts)
        )


def _bits(mask: int) -> frozenset[int]:
    """The indices of the set bits of mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def build_poset(elements: list[MatchingPair]) -> PairPoset:
    """The pair order on one solution class, closed up from its covers.

    A pair's covers are its transposition neighbours one rank lower.
    Every comparability between maximal pairs is a chain of covers
    inside the class (the geodesic argument of ``_maximal_components``),
    so OR-ing the covers' below-bitsets, in rank order, gives every
    below-set.
    """
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    ranks = [pair_rank(p) for p in elements]
    below = [0] * len(elements)
    for j in sorted(range(len(elements)), key=ranks.__getitem__):
        for q in _transposition_neighbours(elements[j]):
            c = index.get(q)
            if c is not None and ranks[c] < ranks[j]:
                below[j] |= below[c] | 1 << c
    return PairPoset(tuple(elements), tuple(ranks), tuple(map(_bits, below)))


def order_complex(poset: PairPoset) -> OrderComplex:
    """Chains of the poset: vertices, edges, triangles, and all counts."""
    m = len(poset.elements)
    below = poset.below
    edges = tuple(
        (i, j) for j in range(m) for i in sorted(below[j])
    )
    triangles = tuple(
        (i, k, j)
        for j in range(m)
        for k in sorted(below[j])
        for i in sorted(below[k])
        if i in below[j]
    )
    # chains_ending[v][k] = number of (k+1)-element chains with maximum v
    order = sorted(range(m), key=lambda v: poset.ranks[v])
    chains_ending: list[list[int]] = [[] for _ in range(m)]
    for v in order:
        row = [1]
        k = 1
        while True:
            total = sum(
                chains_ending[u][k - 1]
                for u in below[v]
                if len(chains_ending[u]) >= k
            )
            if not total:
                break
            row.append(total)
            k += 1
        chains_ending[v] = row
    max_len = max((len(r) for r in chains_ending), default=0)
    counts = tuple(
        sum(r[k] for r in chains_ending if len(r) > k) for k in range(max_len)
    )
    return OrderComplex(m, edges, triangles, counts, below)


def complex_euler(complex_: OrderComplex) -> int:
    """Euler characteristic of the order complex.

    Computed by the recursion h(x) = 1 - sum of h over elements below x
    (so h(x) is the signed chain count with maximum x), cross-checked
    against the alternating sum of chain counts.
    """
    m = complex_.num_vertices
    h: dict[int, int] = {}
    # below-sets are acyclic, so resolve in order of |below|
    for v in sorted(range(m), key=lambda v: len(complex_.below[v])):
        h[v] = 1 - sum(h[u] for u in complex_.below[v])
    total = sum(h.values())
    if total != complex_.euler_by_chain_counts():
        raise AssertionError("chain-count and recursion Euler characteristics differ")
    return total


def mobius_sum(poset: PairPoset) -> int:
    return sum(pair_mobius_value(p) for p in poset.elements)


@dataclass(frozen=True)
class Presentation:
    """Group presentation read off a 2-skeleton: free generators and relators.

    Relators are words over generator indices, 1-based, negative for
    inverses; only free reduction and removal of empty or duplicate
    relators is applied.
    """

    num_generators: int
    relators: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        gens = ", ".join(f"g{i + 1}" for i in range(self.num_generators))
        rels = ", ".join(
            " ".join(f"g{abs(s)}" if s > 0 else f"G{abs(s)}" for s in rel)
            for rel in self.relators
        )
        return f"<{gens} | {rels}>"


def pi1_presentation(complex_: OrderComplex) -> Presentation:
    """Fundamental group of the complex from a spanning tree of its 1-skeleton.

    Generators are the non-tree edges; each triangle contributes its
    boundary word as a relator.  Raises on disconnected input, which
    would signal a class-separation bug upstream.
    """
    m = complex_.num_vertices
    adjacency: dict[int, list[tuple[int, tuple[int, int]]]] = {
        v: [] for v in range(m)
    }
    for edge in complex_.edges:
        a, b = edge
        adjacency[a].append((b, edge))
        adjacency[b].append((a, edge))
    tree_edges: set[tuple[int, int]] = set()
    if m:
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for u, edge in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    tree_edges.add(edge)
                    queue.append(u)
        if len(seen) != m:
            raise ValueError("order complex is disconnected")
    generator_of: dict[tuple[int, int], int] = {}
    for edge in complex_.edges:
        if edge not in tree_edges:
            generator_of[edge] = len(generator_of) + 1

    def letter(a: int, b: int) -> int:
        """Signed generator index for the directed edge a -> b; 0 if tree edge."""
        edge = (a, b) if (a, b) in generator_of or (a, b) in tree_edges else (b, a)
        g = generator_of.get(edge, 0)
        return 0 if not g else (g if edge == (a, b) else -g)

    relators: list[tuple[int, ...]] = []
    seen_relators: set[tuple[int, ...]] = set()
    for i, k, j in complex_.triangles:
        word = [letter(i, k), letter(k, j), letter(j, i)]
        reduced: list[int] = []
        for s in word:
            if not s:
                continue
            if reduced and reduced[-1] == -s:
                reduced.pop()
            else:
                reduced.append(s)
        while len(reduced) >= 2 and reduced[0] == -reduced[-1]:
            reduced = reduced[1:-1]
        rel = tuple(reduced)
        if rel and rel not in seen_relators:
            seen_relators.add(rel)
            relators.append(rel)
    return Presentation(len(generator_of), tuple(relators))


@dataclass(frozen=True)
class SolutionClass:
    """One equivalence class of solutions with its derived invariants."""

    members: tuple[MatchingPair, ...]
    chi: int                      # common Euler characteristic (= ch)
    poset: PairPoset
    complex: OrderComplex
    complex_euler: int
    mobius_sum: int
    pi1: Presentation

    @property
    def size(self) -> int:
        return len(self.members)

    def rank_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.poset.ranks:
            hist[r] = hist.get(r, 0) + 1
        return hist


def solution_classes(
    t: WordTuple, *, cap: int = DEFAULT_PAIR_CAP
) -> list[SolutionClass]:
    """Partition the maximal-Euler pairs into solution classes.

    Two pairs share a class when they are joined by comparabilities
    inside the maximal-characteristic level set.  A comparable pair of
    maximal pairs is joined by a geodesic of single transpositions whose
    pairs are all maximal, so the classes are the components of the
    transposition moves among the maximal pairs, one search each
    (``_maximal_components``).  The cap applies to the full pair count.
    """
    t = t.cyclically_reduced()
    if not t.is_balanced():
        raise ValueError(f"word tuple {t} is not balanced")
    occ = occurrences(t)
    if occ.pair_count() > cap:
        raise PairCapExceeded(occ.pair_count(), cap)
    ch, components = _maximal_components(occ)
    out = []
    for members in components:
        poset = build_poset(members)
        complex_ = order_complex(poset)
        out.append(
            SolutionClass(
                poset.elements,
                ch,
                poset,
                complex_,
                complex_euler(complex_),
                mobius_sum(poset),
                pi1_presentation(complex_),
            )
        )
    return out
