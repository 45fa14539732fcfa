"""S_L character data: partitions, characters, dimensions, and the
Mobius function of the absolute order by cycle type.

The absolute (cayley-graph) order puts s below t when some minimal
factorization of t into transpositions passes through s.  Its Mobius
function at (id, p) is a signed product of Catalan numbers over the
cycle type of p, which is exactly the leading coefficient of the
Weingarten function.  The package needs it only by cycle type.  The
permutations, the order and the Mobius function on them are test
oracles (``Permutation``, ``leq`` and ``mobius`` in ``tests/oracles.py``),
which check the formula against the order's defining relation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def mobius_of_cycle_type(mu: Partition) -> int:
    moeb = 1
    for part in mu:
        moeb *= catalan(part - 1)
    if (sum(mu) - len(mu)) % 2:
        moeb = -moeb
    return moeb


def partitions(L: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of L in descending lexicographic order."""
    if max_part is None:
        max_part = L
    if L == 0:
        yield ()
        return
    for first in range(min(L, max_part), 0, -1):
        for rest in partitions(L - first, first):
            yield (first,) + rest


def check_partition(p: Partition) -> Partition:
    p = tuple(p)
    if any(a < 1 for a in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"not a partition: {p}")
    return p


def hook_lengths(lam: Partition) -> list[int]:
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            hooks.append((row - j) + (cols[j] - i) - 1)
    return hooks


def dimension(lam: Partition) -> int:
    """chi_lambda(e), by the hook length formula."""
    lam = check_partition(lam)
    L = sum(lam)
    return math.factorial(L) // math.prod(hook_lengths(lam))


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi_lambda at cycle type mu (Murnaghan-Nakayama)."""
    lam = check_partition(lam)
    mu = tuple(sorted(mu, reverse=True))
    check_partition(mu) if mu else ()
    if sum(lam) != sum(mu):
        raise ValueError(f"|lambda| = {sum(lam)} != |mu| = {sum(mu)}")
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    m = len(lam)
    # beta-numbers: strictly decreasing first-column hook lengths
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((nb if c == b else c for c in beta), reverse=True)
        new_lam = tuple(c - (m - 1 - i) for i, c in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * _mn(new_lam, rest)
    return total
