"""The unitary Weingarten function as an exact rational function of n.

Values come from the character formula, all cycle types of one L at
once as integer numerators over one denominator L! * D_L, kept in one
bounded cache.  ``wg_sum`` adds weighted Weingarten products over those
same denominators and reduces once, so only this module knows them;
``wg`` and ``wg_table`` reduce each value they return, which costs
about 0.1 ms, so no reduced value is cached.  The tests check the
values against an independent route, direct inversion of
sigma -> n^#cycles(sigma) in the group ring (``wg_inversion`` in
``tests/oracles.py``), and ``wg_sum`` on general Haar moment integrals
(the oracle ``moment`` there).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache, reduce

from .perm import Partition, character, check_partition, dimension, partitions
from .ratfn import RationalFunction


def wg(mu: Partition) -> RationalFunction:
    """Weingarten value on the conjugacy class of cycle type mu.

    Character formula: sum over partitions lambda of L of
    dim(lambda) * chi_lambda(mu) / (L! * prod of (n + j - i)).
    """
    mu = check_partition(sorted(mu, reverse=True))
    den, nums = _wg_values(sum(mu))
    return RationalFunction(nums[mu], den)


class WeingartenTable:
    """All Weingarten values for a fixed L, one entry per cycle type."""

    __slots__ = ("L", "entries")

    def __init__(self, L: int, entries: dict[Partition, RationalFunction]) -> None:
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("WeingartenTable is immutable")

    def __reduce__(self):
        return (WeingartenTable, (self.L, self.entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeingartenTable) and (self.L, self.entries) == (
            other.L, other.entries
        )

    def __repr__(self) -> str:
        return f"WeingartenTable(L={self.L!r}, entries={self.entries!r})"

    def __getitem__(self, mu: Partition) -> RationalFunction:
        return self.entries[tuple(sorted(mu, reverse=True))]


def wg_table(L: int) -> WeingartenTable:
    """Table computed through the character formula."""
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    den, nums = _wg_values(L)
    return WeingartenTable(L, {mu: RationalFunction(num, den) for mu, num in nums.items()})


def wg_sum(sizes: list[int], weights: dict[tuple[Partition, ...], list[int]]) -> RationalFunction:
    """Exact sum of weights[key](n) * prod_i wg(key[i]) over all keys.

    ``key[i]`` is a cycle type of ``sizes[i]``; a weight lists integer
    coefficients, index = degree.  All products are integer numerators
    over the product of the tables' denominators L! * D_L: one reduction.
    """
    tables = [_wg_values(L) for L in sizes]
    num: list[int] = []
    for key, weight in weights.items():
        for mu, (_, nums) in zip(key, tables, strict=True):
            weight = _pmul(weight, nums[mu])
        num = [a + b for a, b in itertools.zip_longest(num, weight, fillvalue=0)]
    den = reduce(_pmul, [table[0] for table in tables], [1])
    return RationalFunction(num, den)


@lru_cache(maxsize=16)
def _wg_values(L: int) -> tuple[tuple[int, ...], dict[Partition, tuple[int, ...]]]:
    """wg(mu) for every partition mu of L, in ``partitions`` order, unreduced.

    Every lambda term is written over D, the lcm of the content
    polynomials: the product over contents c of (n + c) to the largest
    number of cells of content c in any diagram.  So each value is one
    integer numerator over L! * D.  Returns L! * D and the numerators, as
    integer coefficient tuples shared by every caller; ``wg``, ``wg_table``
    and ``wg_sum`` read only these.
    """
    lams = list(partitions(L))
    contents = [
        Counter(j - i for i, row in enumerate(lam) for j in range(row))
        for lam in lams
    ]
    top = Counter()
    for cells in contents:
        top |= cells

    def linear_product(cells: Counter) -> list[int]:
        poly = [1]
        for c in sorted(cells.elements()):
            poly = _pmul(poly, [c, 1])
        return poly

    cofactors = [linear_product(top - cells) for cells in contents]
    den = tuple(math.factorial(L) * a for a in linear_product(top))
    dims = [dimension(lam) for lam in lams]
    nums = {}
    for mu in lams:
        num = [0] * len(den)
        for lam, dim, cofactor in zip(lams, dims, cofactors):
            coef = dim * character(lam, mu)
            if coef:
                for k, a in enumerate(cofactor):
                    num[k] += coef * a
        nums[mu] = tuple(num)
    return den, nums


# ---------------------------------------------------------------------------
# integer polynomials as plain coefficient lists (index = degree)

def _pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out
