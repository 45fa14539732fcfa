"""The unitary Weingarten function as an exact rational function of n.

Values come from the character formula, all cycle types of one L at
once over a common denominator.  The tests check them against an
independent route, direct inversion of sigma -> n^#cycles(sigma) in the
group ring (``wg_inversion`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .perm import (
    Partition,
    Permutation,
    character,
    check_partition,
    dimension,
    partitions,
)
from .ratfn import Polynomial, RationalFunction


def wg(mu: Partition) -> RationalFunction:
    """Weingarten value on the conjugacy class of cycle type mu.

    Character formula: sum over partitions lambda of L of
    dim(lambda) * chi_lambda(mu) / (L! * prod of (n + j - i)).
    """
    mu = check_partition(sorted(mu, reverse=True))
    return _wg_values(sum(mu))[mu]


@dataclass(frozen=True)
class WeingartenTable:
    """All Weingarten values for a fixed L, one entry per cycle type."""

    L: int
    entries: dict[Partition, RationalFunction]

    def __getitem__(self, mu: Partition) -> RationalFunction:
        return self.entries[tuple(sorted(mu, reverse=True))]


def wg_table(L: int) -> WeingartenTable:
    """Table computed through the character formula."""
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    return WeingartenTable(L, dict(_wg_values(L)))


@lru_cache(maxsize=16)
def _wg_values(L: int) -> dict[Partition, RationalFunction]:
    """wg(mu) for every partition mu of L, in ``partitions`` order.

    Every lambda term is written over D, the lcm of the content
    polynomials: the product over contents c of (n + c) to the largest
    number of cells of content c in any diagram.  Then each value is
    one integer numerator sum over L! * D, reduced once.  The dict is
    shared by every caller; ``wg_table`` hands out copies.
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
    den = Polynomial([math.factorial(L) * a for a in linear_product(top)])
    dims = [dimension(lam) for lam in lams]
    values = {}
    for mu in lams:
        num = [0] * len(den.coeffs)
        for lam, dim, cofactor in zip(lams, dims, cofactors):
            coef = dim * character(lam, mu)
            if coef:
                for k, a in enumerate(cofactor):
                    num[k] += coef * a
        values[mu] = RationalFunction(Polynomial(num), den)
    return values


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
    total = RationalFunction.zero()
    for sigma in sigmas:
        sigma_inv = sigma.inverse()
        for tau in taus:
            total = total + wg((sigma_inv * tau).cycle_type())
    return total
