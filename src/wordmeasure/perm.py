"""Permutations under the transposition metric, and S_L character data.

The partial order here is the absolute (cayley-graph) order: s precedes
t when some minimal factorization of t into transpositions passes
through s.  Its Mobius function is a signed product of Catalan numbers,
which is exactly the leading coefficient of the Weingarten function.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]


class Permutation:
    """A permutation of {0, ..., L-1} stored as its image vector."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, L: int) -> "Permutation":
        return cls(range(L))

    @classmethod
    def from_cycles(cls, L: int, cycles) -> "Permutation":
        images = list(range(L))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(k) = p(q(k))."""
        return Permutation(self.images[j] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for k, v in enumerate(self.images):
            inv[v] = k
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            k = self.images[start]
            while k != start:
                cycle.append(k)
                seen[k] = True
                k = self.images[k]
            out.append(tuple(cycle))
        return out

    def num_cycles(self) -> int:
        return len(self.cycles())

    def cycle_type(self) -> Partition:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = " ".join(
            "(" + " ".join(str(v + 1) for v in c) + ")" for c in self.cycles()
        )
        return f"Permutation[{cyc}]"


def norm(p: Permutation) -> int:
    """Minimal number of transpositions producing p: L - #cycles."""
    return p.size - p.num_cycles()


def sign(p: Permutation) -> int:
    return -1 if norm(p) % 2 else 1


def leq(s: Permutation, t: Permutation) -> bool:
    """Absolute order: some geodesic of transpositions to t passes via s."""
    if s.size != t.size:
        raise ValueError("permutations act on different sets")
    return norm(t) == norm(s) + norm(s.inverse() * t)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def mobius_of_cycle_type(mu: Partition) -> int:
    moeb = 1
    for part in mu:
        moeb *= catalan(part - 1)
    if (sum(mu) - len(mu)) % 2:
        moeb = -moeb
    return moeb


def mobius(p: Permutation) -> int:
    """Mobius function of the absolute order at (id, p)."""
    return mobius_of_cycle_type(p.cycle_type())


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
