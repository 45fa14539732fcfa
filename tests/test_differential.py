"""Randomized cross-checks between independent computation routes."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordmeasure import surfaces
from wordmeasure.ratfn import RationalFunction
from wordmeasure.solutions import solution_classes
from wordmeasure.surfaces import (
    PairCapExceeded,
    PairScan,
    _diagonal_search,
    class_counts,
    diagonal_max_euler,
    euler_char,
    occurrences,
    pair_statistics,
)
from wordmeasure.trace import trace_exact
from wordmeasure.weingarten import wg
from wordmeasure.words import Letter, Word, WordTuple, parse_tuple, word_tuple

from oracles import (
    _diagonal_scan,
    _scan,
    block_count,
    cycle_types,
    enumerate_matchings,
    monomial,
    pair_leq,
    rf_add,
    rf_mul,
    summed_scan_by_sigma,
)


def _random_balanced_tuples(count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        words = [
            Word(
                Letter(rng.randint(1, 2), rng.choice((1, -1)))
                for _ in range(rng.choice([2, 4, 6]))
            )
            for _ in range(rng.choice([1, 1, 2]))
        ]
        t = word_tuple(words, 2)
        reduced = t.cyclically_reduced()
        if not t.is_balanced() or reduced.total_length == 0:
            continue
        if occurrences(reduced).pair_count() > 2500:
            continue
        found.append(t)
    return found


def test_grouped_trace_matches_naive_accumulation():
    # sum Wg products pair by pair, with no grouping or caching shortcuts
    for t in _random_balanced_tuples(12, seed=1729):
        reduced = t.cyclically_reduced()
        occ = occurrences(reduced)
        matchings = list(enumerate_matchings(occ))
        total = RationalFunction.zero()
        for s, tt in itertools.product(matchings, repeat=2):
            term = monomial(block_count(reduced, s, tt) + occ.num_empty)
            for mu in cycle_types(occ, s, tt):
                term = rf_mul(term, wg(mu))
            total = rf_add(total, term)
        assert trace_exact(t).function == total, str(t)


def test_scan_agrees_with_single_pair_helpers():
    for t in _random_balanced_tuples(8, seed=42):
        reduced = t.cyclically_reduced()
        occ = occurrences(reduced)
        for s_parts, t_parts, blocks, z_total, types in _scan(reduced, 10**6):
            s_full, t_full = occ.expand(s_parts), occ.expand(t_parts)
            assert blocks == block_count(reduced, s_full, t_full)
            assert z_total == sum(map(len, cycle_types(occ, s_full, t_full)))
            assert types == cycle_types(occ, s_full, t_full)
            assert (
                euler_char(occ, s_full, t_full)
                == blocks + z_total - occ.num_letters + occ.num_empty
            )


def _folded_scan(t):
    """Class counts folded pair by pair from the per-pair scan (the oracle)."""
    counts = {}
    for _, _, blocks, _, types in _scan(t):
        counts[types, blocks] = counts.get((types, blocks), 0) + 1
    return counts


def test_class_counts_match_scan_on_golden_set(golden_tuples):
    for text, t in golden_tuples.items():
        t = t.cyclically_reduced()
        assert class_counts(occurrences(t)) == _folded_scan(t), text


@pytest.mark.parametrize(
    "texts, rank",
    [
        (["[y^2,x]"], 2),              # summed generator is y
        (["[x,y^3][x,z]"], 3),         # summed generator is y, then x and z
        (["[x,z^2][y,z]"], 3),         # summed generator is the last one
        (["", ""], 1),                 # no active generator
        (["x X", "y Y"], 2),           # reduces to empty words
        (["[x,y]", ""], 2),
        (["[x,y]^2", "[x,z]"], 3),
    ],
)
def test_class_counts_match_scan_on_chosen_tuples(texts, rank):
    t = parse_tuple(texts, rank).cyclically_reduced()
    occ = occurrences(t)
    assert class_counts(occ) == _folded_scan(t)


@st.composite
def balanced_tuples(draw):
    """Balanced tuples of rank 1-4 with up to three words, some empty.

    Each generator's exponent sum is cancelled by letters appended to a
    drawn word, so the tuples are balanced but rarely reduced.
    """
    rank = draw(st.integers(1, 4))
    letter = st.builds(
        Letter, st.integers(1, rank), st.sampled_from((1, -1))
    )
    words = draw(
        st.lists(st.lists(letter, max_size=5), min_size=1, max_size=3)
    )
    for gen in range(1, rank + 1):
        excess = sum(let.sign for w in words for let in w if let.gen == gen)
        fix = draw(st.integers(0, len(words) - 1))
        words[fix] = words[fix] + [Letter(gen, -1 if excess > 0 else 1)] * abs(excess)
    return word_tuple([Word(w) for w in words], rank)


@settings(max_examples=150, deadline=None)
@given(balanced_tuples(), st.booleans())
@example(parse_tuple(["x X"], 1), False)  # tau endpoints that coincide
@example(parse_tuple([""], 2), True)
def test_class_counts_match_scan_on_random_tuples(t, reduce):
    if reduce:
        t = t.cyclically_reduced()
    occ = occurrences(t)
    if occ.pair_count() > 20_000:
        return
    assert class_counts(occ) == _folded_scan(t)


@st.composite
def tuples_of_counts(draw):
    """Balanced tuples of 1-4 generators with 0-4 occurrences of each sign.

    The letters are shuffled and cut into one to three words, some of
    them empty, and are rarely reduced.  At most 1,728 sigmas, so the
    sigma-by-sigma oracle stays fast.
    """
    rank = draw(st.integers(1, 4))
    counts = draw(
        st.lists(st.integers(0, 4), min_size=rank, max_size=rank).filter(
            lambda cs: math.prod(map(math.factorial, cs)) <= 1728
        )
    )
    letters = [
        Letter(gen, sign)
        for gen, c in enumerate(counts, 1) for sign in (1, -1) for _ in range(c)
    ]
    letters = draw(st.permutations(letters))
    cuts = sorted(draw(st.lists(st.integers(0, len(letters)), max_size=2)))
    bounds = [0, *cuts, len(letters)]
    return word_tuple([Word(letters[a:b]) for a, b in zip(bounds, bounds[1:])], rank)


@settings(max_examples=120, deadline=None)
@given(tuples_of_counts())
def test_summed_scan_matches_the_sigma_by_sigma_scan(t):
    occ = occurrences(t)
    assert surfaces._summed_scan(occ) == summed_scan_by_sigma(occ)


@pytest.mark.parametrize(
    "texts",
    [
        ["[x,y]^5"],
        ["[x^2,y^2]^2"],
        ["[x,y]^2", "[x,y]^2"],
        # perfbench.workloads.commutator_word(random.Random("scan:<counts>"),
        # counts, 2) for counts (5, 5, 1), (2, 2, 5) and (1, 2, 3, 4)
        ["[Y,YX][ZXXyy,yXX]"],
        ["[Z,x][z,YzzYZX]"],
        ["[YYTTT,Xzz][z,t]"],
    ],
    ids=["[x,y]^5", "[x^2,y^2]^2", "([x,y]^2,[x,y]^2)", "(5,5,1)", "(2,2,5)", "(1,2,3,4)"],
)
def test_summed_scan_matches_the_sigma_by_sigma_scan_on_big_words(texts):
    occ = occurrences(parse_tuple(texts, 4))
    assert surfaces._summed_scan(occ) == summed_scan_by_sigma(occ)


def test_pair_cap_raised_before_any_work(monkeypatch):
    def no_scan(*_):
        raise AssertionError("scan started above the cap")

    monkeypatch.setattr(surfaces, "_summed_scan", no_scan)
    t = parse_tuple(["[x,y]^3"], 2)
    occ = occurrences(t)
    cap = occ.pair_count() - 1
    with pytest.raises(PairCapExceeded) as new:
        class_counts(occ, cap=cap)
    with pytest.raises(PairCapExceeded) as oracle:
        next(_scan(t, cap))
    assert (new.value.needed, new.value.cap) == (1296, cap)
    assert (oracle.value.needed, oracle.value.cap) == (1296, cap)


def _folded_statistics(t):
    """``pair_statistics`` folded pair by pair from the per-pair scan (the oracle)."""
    occ = occurrences(t)
    shift = occ.num_empty - occ.num_letters
    chis = [
        (s, tt, blocks + z_total + shift)
        for s, tt, blocks, z_total, _ in _scan(t)
    ]
    hist = {}
    for _, _, chi in chis:
        hist[chi] = hist.get(chi, 0) + 1
    ch = max(hist)
    argmax = sorted((occ.expand(s), occ.expand(tt)) for s, tt, chi in chis if chi == ch)
    diagonal = max(chi for s, tt, chi in chis if s == tt)
    return PairScan(
        True, ch, tuple(argmax), diagonal, hist, occ.match_count(), occ.pair_count()
    )


def test_pair_statistics_match_scan_on_golden_set(golden_tuples):
    for text, t in golden_tuples.items():
        assert pair_statistics(t) == _folded_statistics(t.cyclically_reduced()), text


@settings(max_examples=150, deadline=None)
@given(balanced_tuples(), st.booleans())
@example(parse_tuple(["[y^2,x]"], 3), False)  # most frequent y; z unused
@example(parse_tuple(["[x,z^2][y,z]", ""], 4), False)  # summed z; t unused
@example(parse_tuple(["[x,y]^2", "YXyx", ""], 2), False)
@example(parse_tuple(["x X"], 1), False)
@example(parse_tuple(["", ""], 3), True)
def test_pair_statistics_match_scan_on_random_tuples(t, reduce):
    if reduce:
        t = t.cyclically_reduced()
    if occurrences(t).pair_count() > 20_000:
        return
    assert pair_statistics(t) == _folded_statistics(t.cyclically_reduced())


def _comparability_classes(pairs):
    """Components of comparability among the pairs: O(m^2) pair_leq (the oracle)."""
    parent = list(range(len(pairs)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in itertools.combinations(range(len(pairs)), 2):
        if pair_leq(pairs[i], pairs[j]) or pair_leq(pairs[j], pairs[i]):
            parent[find(i)] = find(j)
    groups = {}
    for i, p in enumerate(pairs):
        groups.setdefault(find(i), []).append(p)
    return sorted(tuple(sorted(g)) for g in groups.values())


def test_solution_classes_match_comparability_components(golden_tuples):
    tuples = dict(golden_tuples)
    tuples["[x^2,y^2]^2"] = parse_tuple(["[x^2,y^2]^2"], 2)
    for text, t in tuples.items():
        expected = _comparability_classes(pair_statistics(t).argmax)
        assert [cls.members for cls in solution_classes(t)] == expected, text


def _assert_search_matches_oracle(t):
    """Maximum, all maximal seeds and the ``above`` cut-off against the
    full diagonal scan (the oracle)."""
    occ = occurrences(t)
    chis = list(_diagonal_scan(t))
    best = max(chi for _, chi in chis)
    seeds = [parts for parts, chi in chis if chi == best]
    assert _diagonal_search(occ) == (best, [])
    assert _diagonal_search(occ, every=True) == (best, seeds)
    for above in range(best - 3, best + 3):
        expected = None if best <= above else best
        assert _diagonal_search(occ, above) == (expected, []), above
        maximal = [] if expected is None else seeds
        assert _diagonal_search(occ, above, every=True) == (expected, maximal), above
    if t.cyclically_reduced() == t:
        assert diagonal_max_euler(t) == best
        assert diagonal_max_euler(t, above=best - 1) == best
        assert diagonal_max_euler(t, above=best) is None


def _golden_powers(golden_tuples, max_matchings):
    """The golden tuples with (w, w) and w^2 of each golden word, if small enough."""
    out = dict(golden_tuples)
    for text, t in golden_tuples.items():
        w = t.words[0]
        for name, words in ((f"({text}, {text})", (w, w)), (f"({text})^2", (w**2,))):
            u = WordTuple(words, t.rank).cyclically_reduced()
            if occurrences(u).match_count() <= max_matchings:
                out[name] = u
    return out


def test_diagonal_search_matches_scan_on_golden_powers(golden_tuples):
    # the largest here has 5,760 matchings; (w, w) and w^2 of [x,y]^3 and
    # [x,y][x^2y^2,z] have 5e5-1e6 and take seconds each in the oracle
    tuples = _golden_powers(golden_tuples, 10_000)
    assert len(tuples) == 17
    for text, t in tuples.items():
        _assert_search_matches_oracle(t.cyclically_reduced())


@settings(max_examples=150, deadline=None)
@given(balanced_tuples(), st.booleans())
@example(parse_tuple(["x X"], 1), False)  # a junction whose edge meets itself
@example(parse_tuple(["", ""], 3), True)  # no letters: one empty matching
@example(parse_tuple(["[x,y]^2", "YXyx", ""], 2), True)
@example(parse_tuple(["[x,y]^2", "[x,y]"], 2), True)
def test_diagonal_search_matches_scan_on_random_tuples(t, reduce):
    if reduce:
        t = t.cyclically_reduced()
    if occurrences(t).match_count() > 5_000:
        return
    _assert_search_matches_oracle(t)
