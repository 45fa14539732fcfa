import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmeasure.ratfn import PoleError, RationalFunction, poly_gcd

from oracles import (
    _pmul,
    degree_at_infinity,
    from_json_obj,
    integer_primitive,
    monomial,
    qdivmod,
    reduce_over_q,
    rf_add,
    rf_mul,
)


class TestPolynomial:
    """Polynomials as coefficient sequences, index = degree."""

    def test_gcd_common_factor(self):
        assert poly_gcd((0, -1, 0, 1), (-1, 0, 1)) == (-1, 0, 1)
        # (2n + 1)(n + 3) and (2n + 1)(3n - 1): a factor that is not monic
        assert poly_gcd((3, 7, 2), (-1, 1, 6)) == (1, 2)
        assert poly_gcd((-6, -14, -4), (2, -2, -12)) == (1, 2)
        assert poly_gcd((4, 6), (6,)) == (1,)

    def test_divmod(self):
        # the oracle's long division over Q
        assert qdivmod((0, 0, 0, 1), (-1, 1)) == ([1, 1, 1], [1])
        assert qdivmod((1, 2), (0, 0, 3)) == ([], [1, 2])
        assert qdivmod((1, 0, 1), (0, 2)) == ([0, Fraction(1, 2)], [1])

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qdivmod((0, 1), ())
        with pytest.raises(ZeroDivisionError):
            RationalFunction((0, 1), (0, 0))

    def test_trailing_zeros_stripped(self):
        f = RationalFunction((1, 2, 0, 0), (3, 0))
        assert f.num == (Fraction(1, 3), Fraction(2, 3)) and f.den == (1,)
        assert RationalFunction((0, 0)).is_zero

    def test_integer_primitive(self):
        scale, prim = integer_primitive((Fraction(1, 2), Fraction(3, 4)))
        assert scale == Fraction(1, 4)
        assert prim == [2, 3]
        assert integer_primitive((0, -2, 4)) == (2, [0, -1, 2])
        assert integer_primitive(()) == (1, [])

    def test_str(self):
        assert str(RationalFunction((0, -1, 0, 1))) == "n^3 - n"
        assert str(RationalFunction((-4,))) == "-4"
        assert str(RationalFunction((4, 0, 1))) == "n^2 + 4"
        assert str(RationalFunction(())) == "0"
        assert str(RationalFunction((Fraction(1, 2), 0, Fraction(-3, 4)))) == "-(3/4)n^2 + 1/2"


class TestRationalFunction:
    def test_canonicalization(self):
        # 2n/2n^2 = 1/n
        assert RationalFunction((0, 2), (0, 0, 2)) == RationalFunction((1,), (0, 1))

    def test_canonical_form_fields(self):
        f = RationalFunction((0, 2), (0, 0, 4))  # 2n / 4n^2 = (1/2)/n
        assert f.den == (0, 1)
        assert f.num == (Fraction(1, 2),)
        assert [type(c) for c in f.num + f.den] == [Fraction, int, int]

    def test_negative_leading_denominator_flipped(self):
        f = RationalFunction((1,), (0, -1))
        assert f.den == (0, 1)
        assert f.num == (-1,)
        g = RationalFunction((2, 4), (-3, -9, -6))  # 2(2n + 1) / -3(2n + 1)(n + 1)
        assert g.den == (1, 1)
        assert g.num == (Fraction(-2, 3),)

    def test_zero_is_zero_over_one(self):
        f = RationalFunction((), (3, 7))
        assert f.num == ()
        assert f.den == (1,)

    def test_constant_hashes_as_its_number(self):
        # equal values hash alike, so a set holds each constant once
        for c in (2, Fraction(1, 2), 0, -3):
            f = RationalFunction.from_fraction(c)
            assert f == c and hash(f) == hash(c)
            assert len({f, c}) == 1
        assert RationalFunction((4,), (2,)) == 2 and len({RationalFunction((4,), (2,)), 2}) == 1
        assert hash(RationalFunction.zero()) == hash(0)

    def test_evaluate_at_integer(self):
        f = RationalFunction((-4,), (0, -1, 0, 1))
        assert f.evaluate(2) == Fraction(-2, 3)

    def test_evaluate_pole(self):
        with pytest.raises(PoleError):
            RationalFunction((1,), (-1, 0, 1)).evaluate(1)

    def test_evaluate_zero(self):
        assert RationalFunction.zero().evaluate(17) == 0

    def test_str_form(self):
        assert str(RationalFunction((-4,), (0, -1, 0, 1))) == "(-4)/(n^3 - n)"
        assert str(RationalFunction((2,), (0, 1))) == "(2)/(n)"
        assert str(RationalFunction.from_fraction(2)) == "2"


class TestLaurent:
    def test_alternating_expansion(self):
        f = RationalFunction((-4,), (0, -1, 0, 1))
        series = f.laurent_at_infinity(6)
        assert series.leading_exponent == -3
        assert series.coefficients == (-4, 0, -4, 0, -4, 0)

    def test_nine_over_quintic(self):
        f = RationalFunction((36, 0, 9), (0, 4, 0, -5, 0, 1))  # 9(n^2+4)/(n^5-5n^3+4n)
        series = f.laurent_at_infinity(4)
        assert series.leading_exponent == -3
        assert series.coefficients[0] == 9

    def test_one_over_n(self):
        series = RationalFunction((1,), (0, 1)).laurent_at_infinity(3)
        assert series.leading_exponent == -1
        assert series.coefficients == (1, 0, 0)

    def test_zero_series_flag(self):
        series = RationalFunction.zero().laurent_at_infinity(4)
        assert series.zero
        assert series.leading_term() is None

    def test_multiply_back(self):
        # subtracting the truncation drops the order by at least `terms`
        for f in [
            RationalFunction((-4,), (0, -1, 0, 1)),
            RationalFunction((1, 2, 3), (5, 0, 1)),
            RationalFunction((7,), (0, 0, 1)),
        ]:
            terms = 6
            series = f.laurent_at_infinity(terms)
            residual = f
            for k, c in enumerate(series.coefficients):
                residual = rf_add(residual, monomial(series.leading_exponent - k, -c))
            assert (
                residual.is_zero
                or degree_at_infinity(residual)
                <= series.leading_exponent - terms
            )


class TestSerialization:
    def test_json_round_trip(self):
        f = RationalFunction((36, 0, 9), (0, 4, 0, -5, 0, 1))
        assert from_json_obj(f.to_json_obj()) == f

    def test_json_integer_pairs(self):
        f = RationalFunction((1,), (0, 2))  # 1/(2n) -> num (1/2), den n
        obj = f.to_json_obj()
        assert obj["num"] == [[1, 2]]
        assert obj["den"] == [[0, 1], [1, 1]]


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
nonzero_polys = small_polys.filter(any)


def _at(p, n0):
    return RationalFunction(p).evaluate(n0)


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_canonical_form_unique(a, b, c, d):
    # two routes to the same function compare equal field by field
    f = RationalFunction(a, b)
    g = RationalFunction(c, d)
    added = rf_add(f, g)
    swapped = rf_add(g, f)
    assert added.num == swapped.num and added.den == swapped.den
    ad, cb = _pmul(a, d), _pmul(c, b)
    num = [x + y for x, y in itertools.zip_longest(ad, cb, fillvalue=0)]
    via_product = RationalFunction(num, _pmul(b, d))
    assert added == via_product


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_equality_matches_evaluation_oracle(a, b, c, d):
    f = RationalFunction(a, b)
    g = RationalFunction(c, d)
    points = []
    n0 = 5
    while len(points) < 9:  # more points than any degree in play
        if _at(b, n0) != 0 and _at(d, n0) != 0:
            points.append(n0)
        n0 += 1
    same_values = all(f.evaluate(p) == g.evaluate(p) for p in points)
    assert (f == g) == same_values


@given(small_polys, nonzero_polys, st.integers(5, 30))
def test_evaluate_commutes_with_arithmetic(a, b, n0):
    f = RationalFunction(a, b)
    g = RationalFunction(b, a) if any(a) else RationalFunction(b)
    if _at(b, n0) == 0 or (any(a) and _at(a, n0) == 0):
        return
    assert rf_add(f, g).evaluate(n0) == f.evaluate(n0) + g.evaluate(n0)
    assert rf_mul(f, g).evaluate(n0) == f.evaluate(n0) * g.evaluate(n0)


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
coefficient_lists = st.lists(coefficients, max_size=4)


@given(
    coefficient_lists,
    coefficient_lists.filter(any),
    coefficient_lists.filter(any),
    st.booleans(),
)
def test_constructor_matches_reduction_over_q(a, b, factor, flip):
    # a planted common factor; flip gives the denominator a negative lead
    num, den = _pmul(a, factor), _pmul(b, factor)
    if flip == (den[-1] > 0):
        den = [-c for c in den]
    f = RationalFunction(num, den)
    assert (f.num, f.den) == reduce_over_q(num, den)
    assert all(type(c) is Fraction for c in f.num)
    assert all(type(c) is int for c in f.den) and f.den[-1] > 0
