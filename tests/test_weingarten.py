import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmeasure.perm import (
    character,
    dimension,
    partitions,
)
from wordmeasure.ratfn import RationalFunction
from wordmeasure.weingarten import (
    _wg_values,
    wg,
    wg_sum,
    wg_table,
)

from oracles import (
    all_permutations,
    content_polynomial,
    moment,
    monomial,
    qdivmod,
    reduce_over_q,
    rf_add,
    rf_mul,
    wg_inversion,
    wg_leading,
)

PRINTED_VALUES = {
    (1, 1): RationalFunction((1,), (-1, 0, 1)),                    # 1/(n^2-1)
    (2,): RationalFunction((-1,), (0, -1, 0, 1)),                  # -1/(n(n^2-1))
    (1, 1, 1): RationalFunction((-2, 0, 1), (0, 4, 0, -5, 0, 1)),  # (n^2-2)/(n(n^2-1)(n^2-4))
    (2, 1): RationalFunction((-1,), (4, 0, -5, 0, 1)),             # -1/((n^2-1)(n^2-4))
    (3,): RationalFunction((2,), (0, 4, 0, -5, 0, 1)),             # 2/(n(n^2-1)(n^2-4))
}


def wg_per_lambda(mu):
    """Oracle: the character formula summed term by term.

    Each lambda term dim(lambda) * chi_lambda(mu) / (L! * content_lambda)
    is added as its own RationalFunction, so every addition reduces by a
    polynomial gcd.  Slow, but it shares no common-denominator code with
    ``wg``.
    """
    L = sum(mu)
    lfact = math.factorial(L)
    total = RationalFunction.zero()
    for lam in partitions(L):
        coef = dimension(lam) * character(lam, mu)
        if coef == 0:
            continue
        total = rf_add(total, RationalFunction((Fraction(coef, lfact),), content_polynomial(lam)))
    return total


class TestCharacterFormula:
    def test_printed_values(self):
        for mu, expected in PRINTED_VALUES.items():
            assert wg(mu) == expected

    def test_l1(self):
        assert wg((1,)) == RationalFunction((1,), (0, 1))

    def test_cache_returns_same_object(self):
        # values are reduced afresh on every call, from one cached table
        assert wg((2, 1)) == wg((2, 1)) == wg_table(3)[(2, 1)]

    @pytest.mark.parametrize("L", range(10))
    def test_matches_per_lambda_sum(self, L):
        table = wg_table(L)
        assert list(table.entries) == list(partitions(L))
        for mu in partitions(L):
            expected = wg_per_lambda(mu)
            assert table[mu] == expected
            assert str(table[mu]) == str(expected)
            assert table[mu].to_json_obj() == expected.to_json_obj()

    def test_table_mutation_leaves_cache_intact(self):
        before = wg((3, 1))
        table = wg_table(4)
        table.entries[(3, 1)] = RationalFunction.zero()
        del table.entries[(4,)]
        assert wg((3, 1)) == before
        assert wg_table(4)[(3, 1)] == before
        assert (4,) in wg_table(4).entries

    def test_unsorted_and_invalid_cycle_types(self):
        assert wg((1, 2)) == wg((2, 1))
        assert wg(()) == RationalFunction.from_fraction(1)
        with pytest.raises(ValueError):
            wg((2, 0))


class TestInversionOracle:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_matches_character_formula(self, L):
        table = wg_inversion(L)
        for mu in partitions(L):
            assert table[mu] == wg(mu)

    def test_l1_table(self):
        assert wg_inversion(1)[(1,)] == RationalFunction((1,), (0, 1))

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            wg_inversion(9)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_group_ring_inverse_identity(self, L):
        # for every sigma: sum over pi of Wg(pi) n^#cycles(pi^-1 sigma) = [sigma = id]
        perms = list(all_permutations(L))
        for sigma in perms:
            total = RationalFunction.zero()
            for pi in perms:
                power = (pi.inverse() * sigma).num_cycles()
                total = rf_add(total, rf_mul(wg(pi.cycle_type()), monomial(power)))
            expected = 1 if sigma == perms[0].identity(L) else 0
            assert total == RationalFunction.from_fraction(expected)

    def test_group_ring_inverse_identity_l5(self):
        # both sides are class functions of sigma, so one representative
        # per conjugacy class covers every sigma in S_5
        from oracles import _class_rep

        perms = list(all_permutations(5))
        for mu in partitions(5):
            sigma = _class_rep(mu, 5)
            total = RationalFunction.zero()
            for pi in perms:
                power = (pi.inverse() * sigma).num_cycles()
                total = rf_add(total, rf_mul(wg(pi.cycle_type()), monomial(power)))
            expected = 1 if mu == (1, 1, 1, 1, 1) else 0
            assert total == RationalFunction.from_fraction(expected)


class TestLeading:
    def test_examples(self):
        assert wg_leading((2,)) == (-3, -1)
        assert wg_leading((3,)) == (-5, 2)
        for L in range(1, 6):
            assert wg_leading((1,) * L) == (-L, 1)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_matches_laurent_first_term(self, L):
        for mu in partitions(L):
            exponent, coefficient = wg_leading(mu)
            series = wg(mu).laurent_at_infinity(2)
            assert series.leading_exponent == exponent
            assert series.coefficients[0] == coefficient

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_every_other_coefficient_vanishes(self, L):
        for mu in partitions(L):
            series = wg(mu).laurent_at_infinity(6)
            assert all(c == 0 for c in series.coefficients[1::2])

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_poles_inside_open_interval(self, L):
        # denominator factors completely over integers k with -L < k < L
        for mu in partitions(L):
            den = wg(mu).den
            for k in range(-L + 1, L):
                while True:
                    q, r = qdivmod(den, (-k, 1))
                    if r:
                        break
                    den = q
            assert len(den) == 1


class TestMoment:
    def test_abs_u11_squared(self):
        assert moment([(1, 1)], [(1, 1)]) == RationalFunction((1,), (0, 1))

    def test_cross_matched_integral(self):
        # integral of u12 u34 conj(u14) conj(u32) = -1/(n^3 - n)
        value = moment([(1, 1), (3, 3)], [(2, 4), (4, 2)])
        assert value == RationalFunction((-1,), (0, -1, 0, 1))

    def test_label_mismatch_gives_zero(self):
        assert moment([(1, 2)], [(1, 2)]).is_zero

    def test_labels_are_abstract(self):
        a = moment([("a", "a")], [("b", "b")])
        assert a == RationalFunction((1,), (0, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            moment([(1, 1)], [])


def test_table_contains_all_classes():
    table = wg_table(4)
    assert set(table.entries) == set(partitions(4))
    assert table[(2, 1, 1)] == wg((2, 1, 1))


@st.composite
def wg_sum_cases(draw):
    """1-3 sizes in 0..6, up to four keys of cycle types, small weights."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    key = st.tuples(*(st.sampled_from(list(partitions(L))) for L in sizes))
    keys = draw(st.lists(key, max_size=4, unique=True))
    weights = {k: draw(st.lists(st.integers(-3, 3), max_size=4)) for k in keys}
    return sizes, weights


class TestWgSum:
    @settings(max_examples=80, deadline=None)
    @given(wg_sum_cases())
    def test_matches_term_by_term_sum(self, case):
        # each product and each addition reduced on its own, from wg alone
        sizes, weights = case
        expected = RationalFunction.zero()
        for key, weight in weights.items():
            term = RationalFunction(weight)
            for mu in key:
                term = rf_mul(term, wg(mu))
            expected = rf_add(expected, term)
        assert wg_sum(sizes, weights) == expected

    @pytest.mark.parametrize("L", range(10))
    def test_shared_numerators_reduce_to_wg(self, L):
        # the table keeps numerators over one denominator, unreduced;
        # wg and wg_table reduce them
        den, nums = _wg_values(L)
        table = wg_table(L)
        assert list(nums) == list(table.entries) == list(partitions(L))
        for mu, num in nums.items():
            assert RationalFunction(num, den) == wg(mu)
            assert table[mu] == wg(mu)
            assert wg_sum([L], {(mu,): [1]}) == wg(mu)

    @pytest.mark.parametrize("L", range(11))
    def test_table_matches_reduction_over_q(self, L):
        # field by field against Euclid over Q on the unreduced values
        den, nums = _wg_values(L)
        table = wg_table(L)
        for mu, num in nums.items():
            assert (table[mu].num, table[mu].den) == reduce_over_q(num, den)

    def test_key_length_must_match_sizes(self):
        assert wg_sum([2, 1], {}).is_zero
        with pytest.raises(ValueError):
            wg_sum([2, 1], {((1, 1),): [1]})
