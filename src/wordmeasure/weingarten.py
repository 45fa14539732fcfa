"""The unitary Weingarten function as an exact rational function of n.

Two independent routes are implemented: the character formula (the
default, all cycle types of one L at once over a common denominator)
and direct inversion of sigma -> n^#cycles(sigma) in the group ring,
kept as a test oracle.
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
    all_permutations,
    character,
    check_partition,
    dimension,
    mobius_of_cycle_type,
    partitions,
)
from .ratfn import Polynomial, RationalFunction

WG_INVERSION_LIMIT = 8


def wg(mu: Partition) -> RationalFunction:
    """Weingarten value on the conjugacy class of cycle type mu.

    Character formula: sum over partitions lambda of L of
    dim(lambda) * chi_lambda(mu) / (L! * prod of (n + j - i)).
    """
    mu = check_partition(sorted(mu, reverse=True))
    return _wg_values(sum(mu))[mu]


def wg_leading(mu: Partition) -> tuple[int, int]:
    """Leading term of wg(mu) without computing the function.

    Returns (-(L + ||sigma||), Mobius(sigma)) for sigma of type mu.
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    L = sum(mu)
    nrm = L - len(mu)
    return -(L + nrm), mobius_of_cycle_type(mu)


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


# ---------------------------------------------------------------------------
# group-ring inversion oracle
#
# Solving the convolution system uses fraction-free (Bareiss)
# elimination over integer-coefficient polynomials, held as plain
# coefficient lists: all divisions below are exact, so no gcds are
# needed until the final back-substitution.

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
