import itertools
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordmeasure import trace
from wordmeasure.perm import partitions
from wordmeasure.ratfn import RationalFunction
from wordmeasure.surfaces import (
    PairCapExceeded,
    class_counts,
    diagonal_max_euler,
    occurrences,
    pair_statistics,
)
from wordmeasure.trace import (
    DEFAULT_LAURENT_TERMS,
    parity_report,
    scl_upper_bound,
    trace_exact,
    trace_leading,
)
from wordmeasure.words import (
    Letter,
    Word,
    WordTuple,
    commutator,
    parse,
    parse_tuple,
    word_tuple,
)
from wordmeasure.weingarten import wg_table

from oracles import _diagonal_scan, commutator_length, leading_via_classes, rf_mul

GOLDEN_FUNCTIONS = {
    "[x,y]": RationalFunction((1,), (0, 1)),
    "[x^2,y]": RationalFunction((2,), (0, 1)),
    "[x,y]^2": RationalFunction((-4,), (0, -1, 0, 1)),
    "[x,y]^3": RationalFunction((36, 0, 9), (0, 4, 0, -5, 0, 1)),
    "[x,y][x,z]": RationalFunction.zero(),
    "[x,y][x^2y^2,z]": RationalFunction((-8, 0, 1), (0, 4, 0, -5, 0, 1)),
    "[x,y][x,z][x,t]": RationalFunction.zero(),
}


# the largest pair count the invariance tests run on: that of [x,y]^3
INVARIANCE_PAIRS = 1_296


def _unreduced_function(occ):
    """The exact trace assembled from the table of a word as written."""
    return trace._assemble(occ, class_counts(occ), DEFAULT_LAURENT_TERMS).function


def _relabel(t, gens, flip=()):
    """t with generator g renamed gens[g], inverted when g is in flip."""
    return WordTuple(
        tuple(
            Word(Letter(gens.get(g, g), -s if g in flip else s) for g, s in w)
            for w in t.words
        ),
        t.rank,
    )


def _invariants(t):
    return (
        trace_exact(t).function,
        pair_statistics(t, collect_argmax=False).ch,
        diagonal_max_euler(t),
        leading_via_classes(t),
    )


def _assert_invariant(t):
    """Swapping x and y, inverting x and reordering the words change nothing."""
    expected = _invariants(t)
    moved = [
        _relabel(t, {1: 2, 2: 1}),
        _relabel(t, {}, flip={1}),
        WordTuple(t.words[::-1], t.rank),
        WordTuple(t.words[1:] + t.words[:1], t.rank),
    ]
    for m in moved:
        assert _invariants(m) == expected, (str(t), str(m))


def _nielsen(t, i, j, e, left):
    """t under the automorphism x_i -> x_j^e x_i (left) or x_i x_j^e."""
    image = [Letter(j, e), Letter(i, 1)] if left else [Letter(i, 1), Letter(j, e)]
    inverse = [let.inverse() for let in reversed(image)]
    words = []
    for w in t.words:
        letters = []
        for let in w:
            if let.gen != i:
                letters.append(let)
            else:
                letters += image if let.sign > 0 else inverse
        words.append(Word(letters))
    return WordTuple(tuple(words), t.rank).cyclically_reduced()


def _nielsen_invariants(t):
    """``_invariants``, and the commutator length of each word."""
    return (*_invariants(t), tuple(commutator_length(w, rank=t.rank) for w in t.words))


class TestExactValues:
    def test_golden_functions(self, golden_tuples):
        for text, t in golden_tuples.items():
            assert trace_exact(t).function == GOLDEN_FUNCTIONS[text], text

    def test_unbalanced_is_zero(self):
        result = trace_exact(parse_tuple(["x"], 1))
        assert result.function.is_zero
        assert not result.balanced
        assert result.leading is None

    def test_annulus_constants(self):
        assert trace_exact(parse_tuple(["x", "X"], 1)).function == 1
        assert trace_exact(parse_tuple(["x^2", "X^2"], 1)).function == 2
        assert trace_exact(parse_tuple(["x^3", "X^3"], 1)).function == 3
        assert trace_exact(parse_tuple(["xy", "YX"], 2)).function == 1

    def test_annulus_limit_for_word_and_inverse(self):
        # a non-power word against its inverse tends to 1 at n = infinity
        result = trace_exact(parse_tuple(["[x,y]", "yxYX"], 2))
        assert result.function == RationalFunction((0, 0, 1), (-1, 0, 1))  # n^2/(n^2-1)
        assert result.leading == (0, 1)

    def test_empty_word_multiplies_by_n(self):
        with_empty = trace_exact(parse_tuple(["[x,y]", ""], 2))
        assert with_empty.function == RationalFunction((1,))  # (1/n) * n
        only_empty = trace_exact(parse_tuple(["", ""], 1))
        assert only_empty.function == RationalFunction((0, 0, 1))  # n^2

    def test_validity_threshold(self, golden_tuples):
        assert trace_exact(golden_tuples["[x,y]^3"]).validity_threshold == 3
        assert trace_exact(golden_tuples["[x,y]"]).validity_threshold == 1

    def test_evaluate_guards_threshold(self, golden_tuples):
        result = trace_exact(golden_tuples["[x,y]^2"])
        assert result.evaluate(2) == Fraction(-4, 6)
        with pytest.raises(ValueError):
            result.evaluate(1)
        # the bare rational function has a pole at 1 here, but the guard
        # triggers first; the function itself takes any n
        assert result.function.evaluate(5) == Fraction(-4, 120)

    def test_presentation_independence(self):
        # Match() depends on the written form; the trace must not
        occ = occurrences(parse_tuple(["x [x,y] X"], 2))
        assert _unreduced_function(occ) == GOLDEN_FUNCTIONS["[x,y]"]

    def test_conjugation_and_inversion_invariance(self, golden_tuples):
        for text in ("[x,y]", "[x,y]^2", "[x^2,y]"):
            t = golden_tuples[text]
            base = trace_exact(t).function
            word = t.words[0]
            u = parse("y", 2)
            conjugated = word_tuple([u * word * u.inverse()], t.rank)
            assert _unreduced_function(occurrences(conjugated)) == base
            assert trace_exact(word_tuple([word.inverse()], t.rank)).function == base

    def test_golden_invariance_under_automorphisms_and_order(self, golden_tuples):
        for text, t in golden_tuples.items():
            _assert_invariant(t)
            for partner in ("", "[y,x]"):
                pair = word_tuple([t.words[0], parse(partner, t.rank)], t.rank)
                if occurrences(pair.cyclically_reduced()).pair_count() <= INVARIANCE_PAIRS:
                    _assert_invariant(pair)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_invariance_under_automorphisms_and_order(self, data):
        rank = data.draw(st.integers(2, 3))
        letter = st.builds(Letter, st.integers(1, rank), st.sampled_from((1, -1)))
        words = data.draw(st.lists(st.lists(letter, max_size=4), min_size=1, max_size=3))
        # cancel each generator's exponent sum in one of the words
        for gen in range(1, rank + 1):
            excess = sum(let.sign for w in words for let in w if let.gen == gen)
            fix = data.draw(st.integers(0, len(words) - 1))
            words[fix] = words[fix] + [Letter(gen, -1 if excess > 0 else 1)] * abs(excess)
        t = word_tuple([Word(w) for w in words], rank)
        if occurrences(t.cyclically_reduced()).pair_count() <= INVARIANCE_PAIRS:
            _assert_invariant(t)

    def test_golden_invariance_under_single_nielsen_moves(self, golden_tuples):
        moved = 0
        for t in golden_tuples.values():
            if occurrences(t).pair_count() > INVARIANCE_PAIRS:
                continue
            expected = _nielsen_invariants(t)
            for i, j in itertools.permutations(range(1, t.rank + 1), 2):
                for e, left in itertools.product((1, -1), (False, True)):
                    m = _nielsen(t, i, j, e, left)
                    if m != t and occurrences(m).pair_count() <= INVARIANCE_PAIRS:
                        assert _nielsen_invariants(m) == expected, (str(t), str(m))
                        moved += 1
        assert moved > 50

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_invariance_under_nielsen_moves(self, data):
        # x_i -> x_i x_j^+-1 or x_j^+-1 x_i for an x_i that occurs, each
        # move kept only while the tuple stays within INVARIANCE_PAIRS; the
        # words need not be balanced one by one, so a cl may be infinite
        rank = data.draw(st.integers(2, 3))
        letter = st.builds(Letter, st.integers(1, rank), st.sampled_from((1, -1)))
        words = data.draw(
            st.lists(st.lists(letter, min_size=1, max_size=5), min_size=1, max_size=2)
        )
        for gen in range(1, rank + 1):
            excess = sum(let.sign for w in words for let in w if let.gen == gen)
            words[0] = words[0] + [Letter(gen, -1 if excess > 0 else 1)] * abs(excess)
        t = word_tuple([Word(w) for w in words], rank).cyclically_reduced()
        assume(any(t.words) and occurrences(t).pair_count() <= INVARIANCE_PAIRS)
        moved = t
        for _ in range(data.draw(st.integers(1, 4))):
            present = sorted({let.gen for w in moved.words for let in w})
            if not present:
                break
            i = data.draw(st.sampled_from(present))
            j = data.draw(st.sampled_from([g for g in range(1, rank + 1) if g != i]))
            e, left = data.draw(st.sampled_from((1, -1))), data.draw(st.booleans())
            step = _nielsen(moved, i, j, e, left)
            if occurrences(step).pair_count() <= INVARIANCE_PAIRS:
                moved = step
        assert _nielsen_invariants(moved) == _nielsen_invariants(t), (str(t), str(moved))

    def test_multiplicative_on_disjoint_generators(self):
        # trace(w1 w2) = trace(w1) trace(w2) / n for disjoint generator sets
        product = trace_exact(parse_tuple(["[x,y][z,t]"], 4)).function
        f1 = trace_exact(parse_tuple(["[x,y]"], 2)).function
        f2 = trace_exact(parse_tuple(["[z,t]"], 4)).function
        assert product == rf_mul(rf_mul(f1, f2), RationalFunction((1,), (0, 1)))

    def test_pair_cap(self):
        with pytest.raises(PairCapExceeded):
            trace_exact(parse_tuple(["[x,y]^2"], 2), cap=8)


class TestLeading:
    def test_commutator_square(self, golden_tuples):
        lead = trace_leading(golden_tuples["[x,y]^2"])
        assert (lead.exponent, lead.coefficient) == (-3, -4)
        assert not lead.degenerate

    def test_degenerate_two_commutators(self, golden_tuples):
        lead = trace_leading(golden_tuples["[x,y][x,z]"])
        assert (lead.exponent, lead.coefficient) == (-3, 0)
        assert lead.degenerate

    def test_squared_generator_commutator(self, golden_tuples):
        lead = trace_leading(golden_tuples["[x^2,y]"])
        assert (lead.exponent, lead.coefficient) == (-1, 2)

    def test_unbalanced_flagged(self):
        lead = trace_leading(parse_tuple(["x"], 1))
        assert lead.exponent is None
        assert lead.degenerate and not lead.balanced

    def test_consistency_with_laurent(self, golden_tuples):
        # the exact leading term agrees with the shortcut unless degenerate,
        # in which case the true exponent drops by at least 2
        for t in golden_tuples.values():
            result = trace_exact(t)
            lead = trace_leading(t)
            if lead.coefficient != 0:
                assert result.leading == (lead.exponent, Fraction(lead.coefficient))
            elif not result.function.is_zero:
                assert result.leading[0] <= lead.exponent - 2

    def test_exponent_never_beats_ch(self, golden_tuples):
        for t in golden_tuples.values():
            result = trace_exact(t)
            lead = trace_leading(t)
            if result.leading is not None:
                assert result.leading[0] <= lead.exponent


class TestParity:
    def test_single_word_odd_exponents(self, golden_tuples):
        assert parity_report(golden_tuples["[x,y]^2"])

    def test_pair_of_words_even_exponents(self):
        assert parity_report(parse_tuple(["x", "X"], 1))
        assert parity_report(parse_tuple(["x^2", "X^2"], 1))

    def test_unbalanced_vacuous(self):
        assert parity_report(parse_tuple(["x"], 1))

    def test_all_golden(self, golden_tuples):
        for t in golden_tuples.values():
            assert parity_report(t)


class TestSclBound:
    def test_commutator_budget_one(self):
        assert scl_upper_bound(parse("[x,y]", 2), 1) == Fraction(1, 2)

    def test_commutator_budget_three(self):
        assert scl_upper_bound(parse("[x,y]", 2), 3) == Fraction(1, 2)

    def test_monotone_in_budget(self):
        w = parse("[x,y][x,z]", 3)
        bounds = [scl_upper_bound(w, b) for b in (1, 2, 3)]
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            scl_upper_bound(parse("x", 1), 2)
        with pytest.raises(ValueError):
            scl_upper_bound(parse("x X", 1), 2)

    def test_cap_skips_tuples_but_total_failure_raises(self):
        w = parse("[x,y]", 2)
        # cap small enough to kill every tuple
        with pytest.raises(PairCapExceeded):
            scl_upper_bound(w, 2, cap=0)

    def test_cap_admits_a_total_at_exactly_its_count(self):
        # the tuples of total 2 of [x,y]^2 have (4!)^2 = 576 matchings
        w = parse("[x,y]^2", 2)
        assert scl_upper_bound(w, 2, cap=576) == 1
        assert scl_upper_bound(w, 2, cap=575) == Fraction(3, 2)

    def test_huge_budget_stops_at_the_cap(self, monkeypatch):
        # a tuple of total j has (j!)^2 matchings, past the cap 10^8 from j = 8
        totals = []
        search = trace.diagonal_max_euler

        def counted(t, **kwargs):
            total = sum(map(len, t.words)) // 4
            assert total < 8, "a tuple past the cap was searched"
            totals.append(total)
            return search(t, **kwargs)

        monkeypatch.setattr(trace, "diagonal_max_euler", counted)
        start = time.perf_counter()
        assert scl_upper_bound(parse("[x,y]", 2), 10**12) == Fraction(1, 2)
        assert time.perf_counter() - start < 30
        assert totals == [j for j in range(1, 8) for _ in partitions(j)]


# the cap keeps every tuple below 10^6 matchings; each property below
# holds for any cap, since a tuple's count depends on its total alone
PROPERTY_CAP = 10**6


def _commutator_products(draw, rank):
    """A product of one or two commutators of short random words."""
    letter = st.builds(Letter, st.integers(1, rank), st.sampled_from((1, -1)))
    short = st.lists(letter, min_size=1, max_size=2).map(Word)
    w = Word()
    for _ in range(draw(st.integers(1, 2))):
        w = w * commutator(draw(short), draw(short))
    return w


def _assert_scl_properties(w, rank):
    """Necessary properties of the bound, for w nontrivial in [F, F]."""
    bounds = [scl_upper_bound(w, b, rank=rank, cap=PROPERTY_CAP) for b in (1, 2, 3, 4)]
    # nonincreasing in the budget
    assert bounds == sorted(bounds, reverse=True)
    # scl >= 1/2 on [F, F] (Duncan-Howie, Math. Z. 1991)
    assert bounds[-1] >= Fraction(1, 2)
    # each power tuple of w^k is one of w with k times the total
    for k, budget in ((2, 1), (2, 2), (3, 1)):
        try:
            power = scl_upper_bound(w**k, budget, rank=rank, cap=PROPERTY_CAP)
        except PairCapExceeded:  # w^k itself is past the cap
            continue
        assert power >= k * bounds[k * budget - 1]


class TestSclProperties:
    def test_golden_words(self, golden_tuples):
        for text, t in golden_tuples.items():
            _assert_scl_properties(t.words[0], t.rank)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_commutator_products(self, data):
        rank = data.draw(st.integers(2, 3))
        w = _commutator_products(data.draw, rank)
        if w.cyclic_reduce().is_empty:
            return
        _assert_scl_properties(w, rank)


def _oracle_scl(w, budget, rank, cap):
    """min -ch / (2 total) over the power tuples within the cap (the oracle).

    Every tuple is scanned in full by ``_diagonal_scan``, with no bound;
    tuples past the cap are skipped, as ``scl_upper_bound`` skips them.
    """
    best = None
    for total in range(1, budget + 1):
        for parts in partitions(total):
            t = WordTuple(tuple(w**j for j in parts), rank).cyclically_reduced()
            occ = occurrences(t)
            if occ.match_count() > cap:
                continue
            bound = Fraction(-max(chi for _, chi in _diagonal_scan(t)), 2 * total)
            if best is None or bound < best:
                best = bound
    return best


# budgets and caps keep the oracle to 10^4 matchings per tuple
SCL_CASES = [
    ("[x,y]", 2, 4),
    ("[x^2,y]", 2, 3),
    ("[x,y]^2", 2, 2),
    ("[x,y][x,z]", 3, 2),
    ("[x,y][x^2y^2,z]", 3, 1),
    ("[x,y][x,z][x,t]", 4, 2),
    ("[x^2,y^3]", 2, 2),
]


@pytest.mark.parametrize("text, rank, budget", SCL_CASES, ids=[c[0] for c in SCL_CASES])
def test_scl_bound_matches_scan_oracle(text, rank, budget):
    w = parse(text, rank)
    expected = _oracle_scl(w, budget, rank, 10**4)
    assert scl_upper_bound(w, budget, rank=rank, cap=10**4) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scl_bound_matches_scan_oracle_on_random_commutators(data):
    rank = data.draw(st.integers(2, 3))
    w = _commutator_products(data.draw, rank)
    if w.cyclic_reduce().is_empty:
        return
    cap = 2_000
    expected = _oracle_scl(w, 3, rank, cap)
    if expected is None:  # even w itself is past the cap
        with pytest.raises(PairCapExceeded):
            scl_upper_bound(w, 3, rank=rank, cap=cap)
    else:
        assert scl_upper_bound(w, 3, rank=rank, cap=cap) == expected


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse("[x,y]", 2),
        lambda: parse_tuple(["[x,y]", "x X", ""], 2),
        lambda: RationalFunction((1,), (0, -1, 0, 1)),
        lambda: wg_table(3),
        lambda: trace_exact(parse_tuple(["[x,y]^2"], 2)),
    ],
    ids=["Word", "WordTuple", "RationalFunction", "WeingartenTable",
         "TraceResult"],
)
def test_values_survive_pickling(make):
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
