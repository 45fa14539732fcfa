import itertools

import pytest

from wordmeasure import surfaces
from wordmeasure.solutions import (
    build_poset,
    complex_euler,
    is_incompressible,
    mobius_sum,
    order_complex,
    pair_rank,
    pi1_presentation,
    solution_classes,
)
from wordmeasure.surfaces import (
    PairCapExceeded,
    euler_char,
    occurrences,
    pair_statistics,
)
from wordmeasure.trace import trace_leading
from wordmeasure.words import Letter, Word, WordTuple, parse_tuple

from oracles import enumerate_matchings, leading_via_classes, pair_leq


@pytest.fixture(scope="module")
def poset_tuples(golden_tuples):
    """The golden set and [x^2,y^2]^2: 204 maximal pairs in six classes."""
    return dict(golden_tuples) | {"[x^2,y^2]^2": parse_tuple(["[x^2,y^2]^2"], 2)}


def classes_of(text, rank):
    return solution_classes(parse_tuple([text], rank))


# Oracles: the program reads neither the covering relation nor the
# bottom-layer classes; the tests check its posets and classes against them.


def covers(poset, j):
    """Indices covered by element j (strictly below, no gap)."""
    strict = poset.below[j]
    return [
        i
        for i in strict
        if not any(i in poset.below[k] for k in strict if k != i)
    ]


def bottom_layer_partition(pairs):
    """Class partition using only rank-0 and rank-1 pairs.

    Restricted to the bottom two layers, the comparability components
    must induce the same classes as the full computation.
    """
    low = [p for p in pairs if pair_rank(p) <= 1]
    parent = list(range(len(low)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in itertools.combinations(range(len(low)), 2):
        if pair_leq(low[i], low[j]) or pair_leq(low[j], low[i]):
            parent[find(i)] = find(j)
    groups = {}
    for i, p in enumerate(low):
        groups.setdefault(find(i), []).append(p)
    return sorted(tuple(sorted(g)) for g in groups.values())


class TestPairOrder:
    def test_reflexive(self):
        occ = occurrences(parse_tuple(["[x,y]^2"], 2))
        for m in enumerate_matchings(occ):
            assert pair_leq((m, m), (m, m))

    def test_diagonal_below_everything_above_it(self):
        occ = occurrences(parse_tuple(["[x,y][x,z]"], 3))
        m1, m2 = enumerate_matchings(occ)
        # both diagonal pairs sit below both mixed pairs
        for diag in ((m1, m1), (m2, m2)):
            for mixed in ((m1, m2), (m2, m1)):
                assert pair_leq(diag, mixed)
                assert not pair_leq(mixed, diag)

    def test_rank_is_composite_norm(self):
        occ = occurrences(parse_tuple(["[x,y][x,z]"], 3))
        m1, m2 = enumerate_matchings(occ)
        assert pair_rank((m1, m1)) == 0
        assert pair_rank((m1, m2)) == 1

    def test_covering_relation_on_four_cycle(self):
        # each mixed pair covers both diagonal pairs and nothing else
        (cls,) = classes_of("[x,y][x,z]", 3)
        poset = cls.poset
        for j, rank in enumerate(poset.ranks):
            covered = covers(poset, j)
            if rank == 0:
                assert covered == []
            else:
                assert sorted(poset.ranks[i] for i in covered) == [0, 0]


class TestIncompressible:
    def test_maximal_pairs_always(self, golden_tuples):
        t = golden_tuples["[x,y][x,z]"]
        occ = occurrences(t)
        scan = pair_statistics(t)
        for sigma, tau in scan.argmax:
            assert is_incompressible(occ, sigma, tau)

    def test_squared_generator_diagonals(self):
        t = parse_tuple(["[x^2,y]"], 2)
        occ = occurrences(t)
        for sigma, tau in pair_statistics(t).argmax:
            assert is_incompressible(occ, sigma, tau)

    def test_low_chi_pair_is_compressible(self):
        t = parse_tuple(["[x,y]^2"], 2)
        occ = occurrences(t)
        matchings = list(enumerate_matchings(occ))
        low = [
            (s, tt)
            for s, tt in itertools.product(matchings, repeat=2)
            if euler_char(occ, s, tt) == -5
        ]
        assert low
        for sigma, tau in low:
            assert not is_incompressible(occ, sigma, tau)


class TestClassStructure:
    def test_two_commutators_single_four_cycle(self):
        (cls,) = classes_of("[x,y][x,z]", 3)
        assert cls.size == 4
        assert cls.complex.num_edges == 4
        assert cls.complex.num_triangles == 0
        assert cls.complex_euler == 0
        assert cls.mobius_sum == 0
        assert cls.pi1.num_generators == 1  # infinite cyclic
        assert cls.pi1.relators == ()

    def test_squared_generator_two_singletons(self):
        classes = classes_of("[x^2,y]", 2)
        assert len(classes) == 2
        for cls in classes:
            assert cls.size == 1
            assert cls.complex_euler == 1
            assert cls.mobius_sum == 1
            assert cls.pi1.num_generators == 0

    def test_cube_nine_singletons(self):
        classes = classes_of("[x,y]^3", 2)
        assert len(classes) == 9
        assert all(cls.size == 1 for cls in classes)

    def test_commutator_square_free_of_rank_five(self):
        (cls,) = classes_of("[x,y]^2", 2)
        assert cls.size == 12
        assert cls.complex.num_edges == 16
        assert cls.complex.num_triangles == 0
        assert cls.complex_euler == -4
        assert cls.pi1.num_generators == 5
        assert cls.pi1.relators == ()

    def test_three_commutators(self):
        (cls,) = classes_of("[x,y][x,z][x,t]", 4)
        assert cls.size == 30
        assert cls.complex.num_edges == 102
        assert cls.complex.num_triangles == 72
        assert cls.complex_euler == 0
        assert cls.rank_histogram() == {0: 6, 1: 18, 2: 6}

    def test_path_complex_of_mixed_word(self):
        (cls,) = classes_of("[x,y][x^2y^2,z]", 3)
        assert cls.size == 11
        assert cls.complex.num_edges == 10  # a path of ten edges
        assert cls.complex.num_triangles == 0
        assert cls.complex_euler == 1
        assert cls.pi1.num_generators == 0

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            solution_classes(parse_tuple(["x"], 1))


class TestCrossIdentities:
    def test_mobius_sum_equals_complex_euler(self, golden_tuples):
        for t in golden_tuples.values():
            for cls in solution_classes(t):
                assert cls.mobius_sum == cls.complex_euler

    def test_leading_via_classes_examples(self):
        assert leading_via_classes(parse_tuple(["[x,y]^3"], 2)) == (-3, 9)
        assert leading_via_classes(parse_tuple(["[x,y][x^2y^2,z]"], 3)) == (-3, 1)
        assert leading_via_classes(parse_tuple(["[x,y][x,z][x,t]"], 4)) == (-5, 0)

    def test_leading_via_classes_matches_mobius_route(self, golden_tuples):
        for t in golden_tuples.values():
            lead = trace_leading(t)
            assert leading_via_classes(t) == (lead.exponent, lead.coefficient)

    def test_downward_closure_within_class(self, golden_tuples):
        # any equal-chi pair below a member belongs to the same class
        for text in ("[x,y][x,z]", "[x,y]^2", "[x^2,y]"):
            t = golden_tuples[text]
            occ = occurrences(t)
            scan = pair_statistics(t)
            classes = solution_classes(t)
            for pair in scan.argmax:
                owner = next(
                    cls for cls in classes if pair in cls.members
                )
                for other in scan.argmax:
                    if pair_leq(other, pair):
                        assert other in owner.members

    def test_bottom_two_layers_separate_classes(self, golden_tuples):
        for t in golden_tuples.values():
            classes = solution_classes(t)
            expected = sorted(
                tuple(sorted(p for p in cls.members if pair_rank(p) <= 1))
                for cls in classes
            )
            assert bottom_layer_partition(
                [p for cls in classes for p in cls.members]
            ) == expected


class TestCoverRoute:
    def test_below_sets_match_pairwise_oracle(self, poset_tuples):
        for text, t in poset_tuples.items():
            for cls in solution_classes(t):
                poset = build_poset(list(reversed(cls.members)))
                elements = poset.elements
                assert elements == cls.members, text
                expected = tuple(
                    frozenset(
                        i for i, a in enumerate(elements)
                        if i != j and pair_leq(a, b)
                    )
                    for j, b in enumerate(elements)
                )
                assert poset.below == expected, text
                assert poset.ranks == tuple(map(pair_rank, elements)), text

    def test_classes_without_the_class_count_scan(self, golden_tuples, monkeypatch):
        expected = {
            text: [cls.members for cls in solution_classes(t)]
            for text, t in golden_tuples.items()
        }

        def no_scan(*_, **__):
            raise AssertionError("class-count scan started")

        monkeypatch.setattr(surfaces, "class_counts", no_scan)
        monkeypatch.setattr(surfaces, "_summed_scan", no_scan)
        for text, t in golden_tuples.items():
            assert [cls.members for cls in solution_classes(t)] == expected[text], text

    def test_pair_cap_raised_before_any_work(self, monkeypatch):
        def no_scan(*_, **__):
            raise AssertionError("diagonal work started above the cap")

        assert not hasattr(surfaces, "_diagonal_scan")
        monkeypatch.setattr(surfaces, "_diagonal_search", no_scan)
        t = parse_tuple(["[x,y]^3"], 2)
        total = occurrences(t).pair_count()
        with pytest.raises(PairCapExceeded) as exc:
            solution_classes(t, cap=total - 1)
        assert (exc.value.needed, exc.value.cap) == (total, total - 1)


def _swap_xy(w):
    swap = {1: 2, 2: 1}
    return Word(Letter(swap.get(g, g), s) for g, s in w)


def _class_invariants(t):
    """Per class: size, chi, Mobius sum, rank histogram, E, T and pi1 counts."""
    return sorted(
        (
            cls.size,
            cls.complex_euler,
            cls.mobius_sum,
            sorted(cls.rank_histogram().items()),
            cls.complex.num_edges,
            cls.complex.num_triangles,
            cls.pi1.num_generators,
            len(cls.pi1.relators),
        )
        for cls in solution_classes(t)
    )


@pytest.mark.parametrize(
    "move",
    [Word.inverse, _swap_xy],
    ids=["inverse", "swap-xy"],
)
def test_class_invariants_are_invariant(poset_tuples, move):
    for text, t in poset_tuples.items():
        moved = WordTuple(tuple(move(w) for w in t.words), t.rank)
        assert moved != t, text
        assert _class_invariants(moved) == _class_invariants(t), text


class TestComplexMachinery:
    def test_chain_counts_match_skeleton(self):
        (cls,) = classes_of("[x,y][x,z][x,t]", 4)
        counts = cls.complex.chain_counts
        assert counts[0] == 30
        assert counts[1] == 102
        assert counts[2] == 72
        assert cls.complex.euler_by_chain_counts() == 30 - 102 + 72

    def test_single_vertex(self):
        poset = build_poset([((()), (()))])
        complex_ = order_complex(poset)
        assert complex_euler(complex_) == 1
        assert mobius_sum(poset) == 1
        pres = pi1_presentation(complex_)
        assert pres.num_generators == 0 and pres.relators == ()

    def test_presentation_render(self):
        (cls,) = classes_of("[x,y][x,z]", 3)
        assert cls.pi1.render() == "<g1 | >"

    def test_disconnected_complex_rejected(self):
        from wordmeasure.solutions import OrderComplex

        broken = OrderComplex(2, (), (), (2,), (frozenset(), frozenset()))
        with pytest.raises(ValueError):
            pi1_presentation(broken)

    def test_euler_characteristic_of_pi1_data(self, golden_tuples):
        # 1 - generators + relators reproduces chi for connected 2-complexes
        for t in golden_tuples.values():
            for cls in solution_classes(t):
                assert (
                    1 - cls.pi1.num_generators + len(cls.pi1.relators)
                    == cls.complex_euler
                )
