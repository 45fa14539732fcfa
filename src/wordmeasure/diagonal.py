"""Branch and bound over the diagonal pairs (sigma, sigma) of a tuple.

The diagonal maximum of chi is ch, which gives the commutator length
and the scl bounds, and the diagonal pairs at ch seed the solution
classes.  One depth-first search serves both, over a union-find that
takes its merges back, so every prefix of a matching is shared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .surfaces import OccurrenceTable

# A free edge end at a letter junction has kind 4 * generator + one of
# these.  A sigma edge joins a source to a target of one generator, and
# so does a tau edge: the two kinds an edge joins differ in bit 0 alone.
_SIGMA_SOURCE, _SIGMA_TARGET, _TAU_SOURCE, _TAU_TARGET = range(4)


class _Junctions:
    """An undoable union-find over letter junctions for diagonal pairs.

    Junction g sits after letter g, and the diagonal edges of the letter
    ending there and of the letter starting there each have one end at
    it.  So the edges laid so far split the junctions into closed cycles
    and open paths, each open path with two free ends, whose kinds its
    root keeps in ``ends``.  ``join`` is union by size without path
    compression and logs each merge, so ``undo`` can take it back.
    """

    __slots__ = ("parent", "size", "ends", "log")

    def __init__(self, occ: OccurrenceTable) -> None:
        own = [0] * occ.num_letters
        before = [0] * occ.num_letters
        for i in range(occ.rank):
            for g in occ.pos_ids[i]:
                own[g] = 4 * i + _TAU_SOURCE
                before[occ.prev[g]] = 4 * i + _SIGMA_SOURCE
            for g in occ.neg_ids[i]:
                own[g] = 4 * i + _SIGMA_TARGET
                before[occ.prev[g]] = 4 * i + _TAU_TARGET
        self.parent = list(range(occ.num_letters))
        self.size = [1] * occ.num_letters
        self.ends = list(zip(own, before))
        self.log: list[tuple[int, tuple[int, int]]] = []

    def join(self, a: int, ka: int, b: int, kb: int) -> int:
        """Lay an edge from the free end of kind ka at a to that of kind kb at b.

        Returns the change in 2 * merges - closable paths, where an open
        path is closable when one edge could join its two free ends.  An
        edge inside one path closes it: nothing merges and one closable
        path is gone.
        """
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return 1
        ends = self.ends
        pa, qa = ends[a]
        pb, qb = ends[b]
        oa = qa if pa == ka else pa
        ob = qb if pb == kb else pb
        change = 2 + ((pa ^ qa) == 1) + ((pb ^ qb) == 1) - ((oa ^ ob) == 1)
        size = self.size
        if size[a] > size[b]:
            a, b = b, a
        self.log.append((a, ends[b]))
        parent[a] = b
        size[b] += size[a]
        ends[b] = (oa, ob)
        return change

    def undo(self, mark: int) -> None:
        """Take back the merges logged after ``mark``, newest first."""
        parent, size, ends, log = self.parent, self.size, self.ends, self.log
        while len(log) > mark:
            a, old = log.pop()
            b = parent[a]
            size[b] -= size[a]
            ends[b] = old
            parent[a] = a


def _diagonal_search(
    occ: OccurrenceTable, above: int | None = None, *, every: bool = False
) -> tuple[int | None, list[tuple]]:
    """The largest chi(sigma, sigma) above ``above``, by branch and bound.

    chi(sigma, sigma) = num_letters - merges + #empty - L, so the
    diagonal maximum has the fewest merges.  A depth-first search fixes
    one positive occurrence's image at a time and lays its sigma and tau
    edges in a ``_Junctions``, so every prefix is shared.  Each open path
    of a prefix ends up in a cycle of its own only if it is closable,
    and in one with another path otherwise, so with P open paths, A of
    them closable, any completion has at least merges + ceil((P - A)/2)
    merges; P is the number of edges still to lay.  A prefix is pruned
    once that bound reaches ``cut``: the count that chi = ``above`` has,
    then the best count of a complete matching so far.  Returns None if
    no diagonal pair has chi > ``above``.

    With ``every``, a prefix is pruned only above the best count, and
    the parts of every sigma at the maximum are returned too, in
    lexicographic order; the parts range over active generators.
    """
    shift = occ.num_letters + occ.num_empty - occ.L
    slots = [
        (gi, k, occ.pos_prev[i][k], occ.pos_ids[i][k], 4 * i)
        for gi, i in enumerate(occ.active)
        for k in range(occ.counts[i])
    ]
    targets = [(occ.neg_ids[i], occ.neg_prev[i]) for i in occ.active]
    images = [[0] * occ.counts[i] for i in occ.active]
    taken = [[False] * occ.counts[i] for i in occ.active]
    junctions = _Junctions(occ)
    join, undo, log = junctions.join, junctions.undo, junctions.log
    cut = occ.num_letters + 1 if above is None else shift - above
    best: int | None = None
    found: list[tuple] = []

    def extend(depth: int, potential: int) -> None:
        # potential = 2 * merges - closable paths
        nonlocal cut, best, found
        if depth == len(slots):
            merges = potential // 2
            if every:
                if merges != best:
                    found = []
                found.append(tuple(map(tuple, images)))
            best = merges
            cut = merges + 1 if every else merges
            return
        gi, k, source, target, base = slots[depth]
        negs, prevs = targets[gi]
        used = taken[gi]
        still_open = 2 * (len(slots) - depth - 1)
        for v in range(len(used)):
            if used[v]:
                continue
            mark = len(log)
            p = (
                potential
                + join(source, base + _SIGMA_SOURCE, negs[v], base + _SIGMA_TARGET)
                + join(target, base + _TAU_SOURCE, prevs[v], base + _TAU_TARGET)
            )
            if (p + still_open + 1) // 2 < cut:
                used[v] = True
                images[gi][k] = v
                extend(depth + 1, p)
                used[v] = False
            undo(mark)

    potential = -sum((p ^ q) == 1 for p, q in junctions.ends)
    if (potential + 2 * len(slots) + 1) // 2 < cut:
        extend(0, potential)
    return (None if best is None else shift - best), found
