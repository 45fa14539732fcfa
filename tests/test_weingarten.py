import math
from fractions import Fraction

import pytest

from wordmeasure.perm import (
    all_permutations,
    character,
    content_polynomial,
    dimension,
    partitions,
)
from wordmeasure.ratfn import Polynomial, RationalFunction, rf
from wordmeasure.weingarten import (
    moment,
    wg,
    wg_inversion,
    wg_leading,
    wg_table,
)

N = Polynomial((0, 1))

PRINTED_VALUES = {
    (1, 1): rf((1,), (-1, 0, 1)),                 # 1/(n^2-1)
    (2,): rf((-1,), (0, -1, 0, 1)),               # -1/(n(n^2-1))
    (1, 1, 1): rf((-2, 0, 1), (0, 4, 0, -5, 0, 1)),  # (n^2-2)/(n(n^2-1)(n^2-4))
    (2, 1): rf((-1,), (4, 0, -5, 0, 1)),          # -1/((n^2-1)(n^2-4))
    (3,): rf((2,), (0, 4, 0, -5, 0, 1)),          # 2/(n(n^2-1)(n^2-4))
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
        total = total + RationalFunction(
            Polynomial.constant(Fraction(coef, lfact)), content_polynomial(lam)
        )
    return total


class TestCharacterFormula:
    def test_printed_values(self):
        for mu, expected in PRINTED_VALUES.items():
            assert wg(mu) == expected

    def test_l1(self):
        assert wg((1,)) == rf((1,), (0, 1))

    def test_cache_returns_same_object(self):
        assert wg((2, 1)) is wg((2, 1))

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
        assert wg((3, 1)) is before
        assert wg_table(4)[(3, 1)] == before
        assert (4,) in wg_table(4).entries

    def test_unsorted_and_invalid_cycle_types(self):
        assert wg((1, 2)) is wg((2, 1))
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
        assert wg_inversion(1)[(1,)] == rf((1,), (0, 1))

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
                total = total + wg(pi.cycle_type()) * RationalFunction(
                    Polynomial.monomial(power)
                )
            expected = 1 if sigma == perms[0].identity(L) else 0
            assert total == RationalFunction.from_fraction(expected)

    def test_group_ring_inverse_identity_l5(self):
        # both sides are class functions of sigma, so one representative
        # per conjugacy class covers every sigma in S_5
        from wordmeasure.weingarten import _class_rep

        perms = list(all_permutations(5))
        for mu in partitions(5):
            sigma = _class_rep(mu, 5)
            total = RationalFunction.zero()
            for pi in perms:
                power = (pi.inverse() * sigma).num_cycles()
                total = total + wg(pi.cycle_type()) * RationalFunction(
                    Polynomial.monomial(power)
                )
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
                factor = Polynomial((-k, 1))
                while True:
                    q, r = divmod(den, factor)
                    if not r.is_zero:
                        break
                    den = q
            assert den.degree == 0


class TestMoment:
    def test_abs_u11_squared(self):
        assert moment([(1, 1)], [(1, 1)]) == rf((1,), (0, 1))

    def test_cross_matched_integral(self):
        # integral of u12 u34 conj(u14) conj(u32) = -1/(n^3 - n)
        value = moment([(1, 1), (3, 3)], [(2, 4), (4, 2)])
        assert value == rf((-1,), (0, -1, 0, 1))

    def test_label_mismatch_gives_zero(self):
        assert moment([(1, 2)], [(1, 2)]).is_zero

    def test_labels_are_abstract(self):
        a = moment([("a", "a")], [("b", "b")])
        assert a == rf((1,), (0, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            moment([(1, 1)], [])


def test_table_contains_all_classes():
    table = wg_table(4)
    assert set(table.entries) == set(partitions(4))
    assert table[(2, 1, 1)] == wg((2, 1, 1))
