import itertools
import math
import random

import pytest

from wordmeasure import surfaces
from wordmeasure.diagonal import _Junctions
from wordmeasure.perm import Permutation
from wordmeasure.solutions import is_incompressible
from wordmeasure.surfaces import (
    PairCapExceeded,
    UnbalancedError,
    _cycle_lengths,
    _level_set,
    _link,
    commutator_length,
    diagonal_max_euler,
    euler_char,
    occurrences,
    pair_statistics,
)
from wordmeasure.words import parse, parse_tuple

from oracles import block_count, cycle_types, enumerate_matchings, pair_leq

XY = parse_tuple(["[x,y]"], 2)
XY2 = parse_tuple(["[x,y]^2"], 2)
XYXZ = parse_tuple(["[x,y][x,z]"], 3)
XXY = parse_tuple(["[x^2,y]"], 2)
ANNULUS = parse_tuple(["x", "X"], 1)


class TestOccurrences:
    def test_commutator(self):
        occ = occurrences(XY)
        assert occ.L == 2
        assert occ.pos_ids == ((0,), (1,))
        assert occ.neg_ids == ((2,), (3,))

    def test_commutator_square(self):
        occ = occurrences(XY2)
        assert occ.L == 4
        assert occ.counts == (2, 2)

    def test_two_commutators(self):
        occ = occurrences(XYXZ)
        assert occ.L == 4
        assert occ.counts == (2, 1, 1)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedError):
            occurrences(parse_tuple(["x"], 1))

    def test_canonical_order_is_reading_order(self):
        occ = occurrences(parse_tuple(["y X", "x Y"], 2))
        assert occ.pos_ids == ((2,), (0,))
        assert occ.neg_ids == ((1,), (3,))


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_matchings(occurrences(XY)))) == 1
        assert len(list(enumerate_matchings(occurrences(XYXZ)))) == 2
        assert len(list(enumerate_matchings(occurrences(XY2)))) == 4

    def test_deterministic_order(self):
        first = list(enumerate_matchings(occurrences(XY2)))
        second = list(enumerate_matchings(occurrences(XY2)))
        assert first == second
        assert len(set(first)) == len(first)


class TestBlockAndDiscCounts:
    def test_single_commutator(self):
        occ = occurrences(XY)
        (m,) = enumerate_matchings(occ)
        assert block_count(occ, m, m) == 1
        assert sum(map(len, cycle_types(occ, m, m))) == 2
        assert euler_char(occ, m, m) == -1

    def test_annulus_pair(self):
        # the surface for (x, x^-1) must be an annulus: chi = 0
        occ = occurrences(ANNULUS)
        (m,) = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m, m))) == 1
        assert euler_char(occ, m, m) == 0
        assert block_count(occ, m, m) == 1

    def test_diagonal_z_count_is_l(self):
        occ = occurrences(XY2)
        for m in enumerate_matchings(occ):
            assert sum(map(len, cycle_types(occ, m, m))) == occ.L

    def test_mixed_pair_of_two_commutators(self):
        occ = occurrences(XYXZ)
        m1, m2 = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m1, m2))) == 3
        assert cycle_types(occ, m1, m2) == ((2,), (1,), (1,))

    def test_one_occurrence_per_generator(self):
        occ = occurrences(parse_tuple(["[x,y]"], 2))
        (m,) = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m, m))) == 2  # r cycles


class TestHistograms:
    def test_two_commutators_all_at_minus_three(self):
        scan = pair_statistics(XYXZ)
        assert scan.histogram == {-3: 4}

    def test_commutator_square_split(self):
        scan = pair_statistics(XY2)
        assert scan.histogram == {-3: 12, -5: 4}

    def test_parallel_scan_matches(self):
        serial = pair_statistics(XY2, jobs=1)
        parallel = pair_statistics(XY2, jobs=2)
        assert serial == parallel


class TestMaxEuler:
    def test_commutator(self):
        assert pair_statistics(XY).ch == -1

    def test_two_commutators_all_achieve(self):
        scan = pair_statistics(XYXZ)
        assert scan.ch == -3
        assert len(scan.argmax) == 4

    def test_cube(self):
        t = parse_tuple(["[x,y]^3"], 2)
        assert pair_statistics(t, collect_argmax=False).ch == -3

    def test_unbalanced_sentinel(self):
        scan = pair_statistics(parse_tuple(["x"], 1))
        assert scan.ch == float("-inf")
        assert not scan.balanced

    def test_empty_words_shift(self):
        # ch(w, 1) = ch(w) + 1
        with_empty = parse_tuple(["[x,y]", ""], 2)
        assert pair_statistics(with_empty).ch == pair_statistics(XY).ch + 1

    def test_diagonal_agrees(self, golden_tuples):
        for t in golden_tuples.values():
            scan = pair_statistics(t, collect_argmax=False)
            assert scan.diagonal_ch == scan.ch
            assert diagonal_max_euler(t) == scan.ch

    def test_cap_enforced(self, monkeypatch):
        def no_scan(*_, **__):
            raise AssertionError("diagonal work started above the cap")

        assert not hasattr(surfaces, "_diagonal_scan")
        monkeypatch.setattr(surfaces, "_diagonal_search", no_scan)
        with pytest.raises(PairCapExceeded):
            pair_statistics(XY2, cap=10)
        with pytest.raises(PairCapExceeded) as exc:
            diagonal_max_euler(XY2, cap=3)
        assert (exc.value.needed, exc.value.cap) == (4, 3)
        with pytest.raises(PairCapExceeded):
            diagonal_max_euler(XY2, cap=3, above=-10)


class TestCommutatorLength:
    def test_powers_of_commutator(self):
        w = parse("[x,y]", 2)
        for m in (1, 2, 3):
            assert commutator_length(w**m) == m // 2 + 1

    def test_simple_commutator(self):
        assert commutator_length(parse("[x,y]", 2)) == 1

    def test_unbalanced_is_infinite(self):
        assert commutator_length(parse("x", 1)) == math.inf

    def test_trivial_word(self):
        assert commutator_length(parse("x X", 1)) == 0

    def test_no_pair_scan(self, monkeypatch):
        # ch comes from the diagonal pairs alone
        def no_scan(*_, **__):
            raise AssertionError("commutator_length scanned pairs")

        assert not hasattr(surfaces, "_scan")
        monkeypatch.setattr(surfaces, "_summed_scan", no_scan)
        w = parse("[x,y]", 2)
        assert [commutator_length(w**m) for m in (1, 2, 3, 4)] == [1, 2, 2, 3]


SMALL_TUPLES = [XY, XXY, XYXZ, XY2, ANNULUS, parse_tuple(["x^2", "X^2"], 1)]


def _all_pairs(occ):
    matchings = list(enumerate_matchings(occ))
    return [(s, t) for s in matchings for t in matchings]


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_chi_monotone_under_pair_order(t):
    # going down in the pair order never lowers chi; covering steps move by 0 or 2
    occ = occurrences(t.cyclically_reduced())
    pairs = _all_pairs(occ)
    chi = {p: euler_char(occ, *p) for p in pairs}
    for below, above in itertools.product(pairs, repeat=2):
        if below == above or not pair_leq(below, above):
            continue
        assert chi[below] >= chi[above]
        if _pair_rank(above) - _pair_rank(below) == 1:  # covering move
            assert chi[below] - chi[above] in (0, 2)


def _cycles(a, b):
    inv = [0] * len(a)
    for k, v in enumerate(a):
        inv[v] = k
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        size = 0
        k = start
        while not seen[k]:
            seen[k] = True
            size += 1
            k = inv[b[k]]
        out.append(size)
    return out


def _pair_rank(p):
    return sum(len(a) - len(_cycles(a, b)) for a, b in zip(*p))


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_block_count_symmetric_empirically(t):
    occ = occurrences(t.cyclically_reduced())
    for s, tt in _all_pairs(occ):
        assert block_count(occ, s, tt) == block_count(occ, tt, s)


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_chi_parity_matches_word_count(t):
    occ = occurrences(t.cyclically_reduced())
    num_words = len(t.words)
    for s, tt in _all_pairs(occ):
        assert (euler_char(occ, s, tt) - num_words) % 2 == 0


def test_matching_validation():
    occ = occurrences(XY2)
    with pytest.raises(ValueError):
        occ.check_matching(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        occ.check_matching(((0, 1),))


class TestPrimitives:
    def test_cycle_lengths_match_permutation_cycle_type(self):
        for L in range(5):
            for a, b in itertools.product(itertools.permutations(range(L)), repeat=2):
                expected = (Permutation(a).inverse() * Permutation(b)).cycle_type()
                assert tuple(sorted(_cycle_lengths(a, b), reverse=True)) == expected

    def test_link_merges_match_connected_components(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 12)
            parent = list(range(n))
            merges = 0
            edges = []
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(0, n + 1)
                sources = [rng.randrange(n) for _ in range(k)]
                targets = [rng.randrange(n) for _ in range(k)]
                images = rng.sample(range(k), k)
                merges += _link(parent, sources, targets, images)
                edges += [(a, targets[v]) for a, v in zip(sources, images)]
            # naive components: relabel until every edge joins equal labels
            label = list(range(n))
            changed = True
            while changed:
                changed = False
                for a, b in edges:
                    low = min(label[a], label[b])
                    if label[a] != low or label[b] != low:
                        label[a] = label[b] = low
                        changed = True
            assert merges == n - len(set(label))

    def test_junctions_track_open_ends_and_undo_exactly(self, golden_tuples):
        # lay the diagonal edges of a random matching one by one, check the
        # potential and the roots' sizes and free ends against a recount,
        # then undo to random marks and compare with the snapshots there
        rng = random.Random(11)
        tuples = [*golden_tuples.values(), XY2, ANNULUS, parse_tuple(["[x,y]", "YX", "xy"], 2)]
        for t in tuples * 4:
            occ = occurrences(t.cyclically_reduced())
            uf = _Junctions(occ)
            half_edges = {(x, kind) for x, pair in enumerate(uf.ends) for kind in pair}
            potential = -sum((p ^ q) == 1 for p, q in uf.ends)
            laid, snapshots = [], []
            slots = [(i, k) for i in occ.active for k in range(occ.counts[i])]
            rng.shuffle(slots)
            images = {i: rng.sample(range(c), c) for i, c in enumerate(occ.counts)}
            for i, k in slots:
                v = images[i][k]
                # kinds 4i + 0..3: sigma source and target, tau source and target
                for a, ka, b, kb in (
                    (occ.pos_prev[i][k], 4 * i, occ.neg_ids[i][v], 4 * i + 1),
                    (occ.pos_ids[i][k], 4 * i + 2, occ.neg_prev[i][v], 4 * i + 3),
                ):
                    snapshots.append((len(uf.log), list(uf.parent), list(uf.size), list(uf.ends)))
                    potential += uf.join(a, ka, b, kb)
                    laid.append(((a, ka), (b, kb)))
                    assert potential == self._recount(occ, uf, half_edges, laid)
            marks = rng.sample(range(len(snapshots)), min(3, len(snapshots)))
            for index in sorted({0, *marks}, reverse=True):
                mark, parent, size, ends = snapshots[index]
                uf.undo(mark)
                assert (uf.parent, uf.size, uf.ends) == (parent, size, ends)

    @staticmethod
    def _recount(occ, uf, half_edges, laid):
        """2 * merges - closable open paths, and each root's ends, recounted."""
        label = list(range(occ.num_letters))
        changed = True
        while changed:
            changed = False
            for (a, _), (b, _) in laid:
                low = min(label[a], label[b])
                if label[a] != low or label[b] != low:
                    label[a] = label[b] = low
                    changed = True
        used = {end for edge in laid for end in edge}
        free = {}
        for x, kind in half_edges - used:
            free.setdefault(label[x], []).append(kind)
        for x in range(occ.num_letters):
            root = x
            while uf.parent[root] != root:
                root = uf.parent[root]
            members = sum(1 for y in range(occ.num_letters) if label[y] == label[x])
            assert uf.size[root] == members
            if x == root and label[x] in free:
                assert sorted(uf.ends[root]) == sorted(free[label[x]])
        merges = occ.num_letters - len(set(label))
        closable = sum(1 for kinds in free.values() if (kinds[0] ^ kinds[1]) == 1)
        return 2 * merges - closable

    def test_level_set_is_none_exactly_when_compressible(self, golden_tuples):
        cases = []
        for t in golden_tuples.values():
            occ = occurrences(t)
            scan = pair_statistics(t)
            cases += [(occ, p, scan.ch) for p in scan.argmax]
        occ = occurrences(XY2)
        low = next(p for p in _all_pairs(occ) if euler_char(occ, *p) == -5)
        cases.append((occ, low, -5))
        verdicts = set()
        for occ, p, chi in cases:
            reached = _level_set(occ, [p], chi, occ.pair_count())
            verdict = is_incompressible(occ, *p)
            assert (reached is None) == (not verdict)
            verdicts.add(verdict)
        assert verdicts == {True, False}
