"""Branch and bound over the diagonal pairs (sigma, sigma) of a tuple.

The diagonal maximum of chi is ch, which gives the commutator length
and the scl bounds, and the diagonal pairs at ch seed the solution
classes.  One depth-first search serves both.  It lays edges on the path
ends of the occurrence table's junction slots and takes them back, so
every prefix of a matching is shared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .surfaces import OccurrenceTable


def _join(other: list[int], kind, a: int, b: int) -> int:
    """Lay an edge between free slots a and b; return the potential's change.

    ``other[s]`` is the far free end of the open path at free slot s, as
    in ``surfaces._lay``.  The potential is 2 * merges - closable paths,
    where an open path is closable when one edge could join its two free
    ends: their kinds differ in bit 0 alone.  An edge between the two
    ends of one path closes it: nothing merges and one closable path is
    gone.
    """
    oa = other[a]
    if oa == b:
        return 1
    ob = other[b]
    other[oa] = ob
    other[ob] = oa
    return (
        2
        + ((kind[a] ^ kind[oa]) == 1)
        + ((kind[b] ^ kind[ob]) == 1)
        - ((kind[oa] ^ kind[ob]) == 1)
    )


def _unjoin(other: list[int], a: int, b: int) -> None:
    """Take back the latest ``_join`` of a and b.

    A join leaves the entries of a and b as they were, so they still
    name the far ends it relinked; a join that closed a cycle changed
    nothing, and this restores nothing.
    """
    other[other[a]] = a
    other[other[b]] = b


def _diagonal_search(
    occ: OccurrenceTable, above: int | None = None, *, every: bool = False
) -> tuple[int | None, list[tuple]]:
    """The largest chi(sigma, sigma) above ``above``, by branch and bound.

    chi(sigma, sigma) = num_letters - merges + #empty - L, so the
    diagonal maximum has the fewest merges.  A depth-first search fixes
    one positive occurrence's image at a time and lays its sigma and tau
    edges with ``_join``, so every prefix is shared.  Each open path
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
        (gi, k, occ.sigma_src[i][k], occ.tau_src[i][k])
        for gi, i in enumerate(occ.active)
        for k in range(occ.counts[i])
    ]
    targets = [(occ.sigma_tgt[i], occ.tau_tgt[i]) for i in occ.active]
    images = [[0] * occ.counts[i] for i in occ.active]
    taken = [[False] * occ.counts[i] for i in occ.active]
    other, kind = list(occ.bare), occ.kind
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
        gi, k, sigma_end, tau_end = slots[depth]
        sigma_tgt, tau_tgt = targets[gi]
        used = taken[gi]
        still_open = 2 * (len(slots) - depth - 1)
        for v in range(len(used)):
            if used[v]:
                continue
            a, b = sigma_tgt[v], tau_tgt[v]
            p = potential + _join(other, kind, sigma_end, a)
            p += _join(other, kind, tau_end, b)
            if (p + still_open + 1) // 2 < cut:
                used[v] = True
                images[gi][k] = v
                extend(depth + 1, p)
                used[v] = False
            _unjoin(other, tau_end, b)
            _unjoin(other, sigma_end, a)

    # each open path is counted from both of its ends
    potential = -sum((kind[s] ^ kind[o]) == 1 for s, o in enumerate(other)) // 2
    if (potential + 2 * len(slots) + 1) // 2 < cut:
        extend(0, potential)
    return (None if best is None else shift - best), found
