import itertools
import math
from collections import deque

import pytest

from wordmeasure.perm import catalan, character, dimension, partitions

from oracles import (
    Permutation,
    all_permutations,
    conjugacy_class_size,
    content_polynomial,
    leq,
    mobius,
    norm,
)


def perm(*images):
    return Permutation(images)


def transposition_distances(L):
    """BFS distances from the identity in the transposition Cayley graph."""
    start = Permutation.identity(L)
    dist = {start: 0}
    queue = deque([start])
    transpositions = [
        Permutation.from_cycles(L, [(i, j)])
        for i, j in itertools.combinations(range(L), 2)
    ]
    while queue:
        p = queue.popleft()
        for t in transpositions:
            q = p * t
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


class TestNorm:
    def test_examples(self):
        assert norm(Permutation.identity(3)) == 0
        assert norm(Permutation.from_cycles(3, [(0, 1)])) == 1
        assert norm(Permutation.from_cycles(3, [(0, 1, 2)])) == 2

    def test_matches_cayley_graph_distance_on_s4(self):
        dist = transposition_distances(4)
        for p, d in dist.items():
            assert norm(p) == d

    def test_metric_length_on_s4(self):
        perms = list(all_permutations(4))
        for p in perms:
            assert (norm(p) == 0) == (p == Permutation.identity(4))
        for p, q in itertools.product(perms[:8], perms):
            assert norm(p * q) <= norm(p) + norm(q)


class TestLeq:
    def test_identity_below_everything(self):
        for t in all_permutations(4):
            assert leq(Permutation.identity(4), t)

    def test_geodesic_characterization_s3_s4(self):
        # oracle: s <= t iff dist(t) == dist(s) + dist(s^-1 t) with BFS distances
        for L in (3, 4):
            dist = transposition_distances(L)
            for s, t in itertools.product(all_permutations(L), repeat=2):
                expected = dist[t] == dist[s] + dist[s.inverse() * t]
                assert leq(s, t) == expected

    def test_known_comparabilities(self):
        assert leq(
            Permutation.from_cycles(3, [(0, 1)]),
            Permutation.from_cycles(3, [(0, 1, 2)]),
        )
        assert leq(
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        )
        assert not leq(
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(2, 3)]),
        )

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_partial_order_axioms(self, L):
        perms = list(all_permutations(L))
        above = {p: {q for q in perms if leq(p, q)} for p in perms}
        for p in perms:
            assert p in above[p]  # reflexive
        for p in perms:
            for q in above[p]:
                if p in above[q]:
                    assert p == q  # antisymmetric
                assert above[q] <= above[p]  # transitive


class TestMobius:
    def test_examples(self):
        assert mobius(Permutation.identity(4)) == 1
        assert mobius(Permutation.from_cycles(4, [(0, 1)])) == -1
        assert mobius(Permutation.from_cycles(3, [(0, 1, 2)])) == 2

    def test_catalan_values(self):
        assert [catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_defining_relation(self, L):
        # sum of Mobius over every interval [s, t] is the delta function
        perms = list(all_permutations(L))
        for s, t in itertools.product(perms, repeat=2):
            if not leq(s, t):
                continue
            total = sum(
                mobius(s.inverse() * p)
                for p in perms
                if leq(s, p) and leq(p, t)
            )
            assert total == (1 if s == t else 0)


class TestCharacters:
    def test_trivial_representation(self):
        for mu in partitions(5):
            assert character((5,), mu) == 1

    def test_sign_representation(self):
        for mu in partitions(5):
            expected = (-1) ** (5 - len(mu))
            assert character((1,) * 5, mu) == expected

    def test_standard_of_s3(self):
        assert character((2, 1), (1, 1, 1)) == 2
        assert character((2, 1), (2, 1)) == 0
        assert character((2, 1), (3,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character((2, 1), (2, 2))

    def test_dimension_examples(self):
        assert dimension((3,)) == 1
        assert dimension((2, 1)) == 2
        assert dimension((2, 2)) == 2

    def test_dimension_is_character_at_identity(self):
        for L in range(1, 8):
            for lam in partitions(L):
                assert character(lam, (1,) * L) == dimension(lam)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_orthogonality(self, L):
        mus = list(partitions(L))
        sizes = {mu: conjugacy_class_size(mu) for mu in mus}
        assert sum(sizes.values()) == math.factorial(L)
        for lam1, lam2 in itertools.combinations_with_replacement(
            list(partitions(L)), 2
        ):
            total = sum(
                sizes[mu] * character(lam1, mu) * character(lam2, mu)
                for mu in mus
            )
            assert total == (math.factorial(L) if lam1 == lam2 else 0)

    @pytest.mark.parametrize("L", range(1, 9))
    def test_sum_of_squared_dimensions(self, L):
        assert sum(dimension(lam) ** 2 for lam in partitions(L)) == math.factorial(L)


class TestContentPolynomial:
    def test_examples(self):
        assert content_polynomial((1,)) == (0, 1)  # n
        assert content_polynomial((2,)) == (0, 1, 1)  # n(n+1)
        assert content_polynomial((2, 1)) == (0, -1, 0, 1)  # n^3 - n


def test_cycle_type_and_sign():
    p = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.cycle_type() == (3, 2)
    assert p.inverse().cycle_type() == (3, 2)
