import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmeasure.ratfn import (
    ONE,
    PoleError,
    Polynomial,
    RationalFunction,
    poly_gcd,
)

from oracles import _pmul, degree_at_infinity, from_json_obj, monomial, rf, rf_add, rf_mul


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomial:
    def test_gcd_common_factor(self):
        assert poly_gcd(poly(0, -1, 0, 1), poly(-1, 0, 1)) == poly(-1, 0, 1)

    def test_divmod(self):
        q, r = divmod(poly(0, 0, 0, 1), poly(-1, 1))
        assert q == poly(1, 1, 1)
        assert r == poly(1)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(poly(0, 1), Polynomial())

    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero

    def test_integer_primitive(self):
        scale, prim = poly(Fraction(1, 2), Fraction(3, 4)).integer_primitive()
        assert scale == Fraction(1, 4)
        assert prim == poly(2, 3)

    def test_str(self):
        assert str(poly(0, -1, 0, 1)) == "n^3 - n"
        assert str(poly(-4)) == "-4"
        assert str(poly(4, 0, 1)) == "n^2 + 4"
        assert str(Polynomial()) == "0"
        assert str(poly(Fraction(1, 2), 0, Fraction(-3, 4))) == "-(3/4)n^2 + 1/2"


class TestRationalFunction:
    def test_canonicalization(self):
        assert rf((0, 2), (0, 0, 2)) == rf((1,), (0, 1))  # 2n/2n^2 = 1/n

    def test_canonical_form_fields(self):
        f = rf((0, 2), (0, 0, 4))  # 2n / 4n^2 = (1/2)/n
        assert f.den == poly(0, 1)
        assert f.num == poly(Fraction(1, 2))

    def test_negative_leading_denominator_flipped(self):
        f = RationalFunction(poly(1), poly(0, -1))
        assert f.den == poly(0, 1)
        assert f.num == poly(-1)

    def test_zero_is_zero_over_one(self):
        f = RationalFunction(Polynomial(), poly(3, 7))
        assert f.num == Polynomial()
        assert f.den == ONE

    def test_evaluate_at_integer(self):
        f = rf((-4,), (0, -1, 0, 1))
        assert f.evaluate(2) == Fraction(-2, 3)

    def test_evaluate_pole(self):
        with pytest.raises(PoleError):
            rf((1,), (-1, 0, 1)).evaluate(1)

    def test_evaluate_zero(self):
        assert RationalFunction.zero().evaluate(17) == 0

    def test_str_form(self):
        assert str(rf((-4,), (0, -1, 0, 1))) == "(-4)/(n^3 - n)"
        assert str(rf((2,), (0, 1))) == "(2)/(n)"
        assert str(RationalFunction.from_fraction(2)) == "2"


class TestLaurent:
    def test_alternating_expansion(self):
        f = rf((-4,), (0, -1, 0, 1))
        series = f.laurent_at_infinity(6)
        assert series.leading_exponent == -3
        assert series.coefficients == (-4, 0, -4, 0, -4, 0)

    def test_nine_over_quintic(self):
        f = rf((36, 0, 9), (0, 4, 0, -5, 0, 1))  # 9(n^2+4)/(n^5-5n^3+4n)
        series = f.laurent_at_infinity(4)
        assert series.leading_exponent == -3
        assert series.coefficients[0] == 9

    def test_one_over_n(self):
        series = rf((1,), (0, 1)).laurent_at_infinity(3)
        assert series.leading_exponent == -1
        assert series.coefficients == (1, 0, 0)

    def test_zero_series_flag(self):
        series = RationalFunction.zero().laurent_at_infinity(4)
        assert series.zero
        assert series.leading_term() is None

    def test_multiply_back(self):
        # subtracting the truncation drops the order by at least `terms`
        for f in [
            rf((-4,), (0, -1, 0, 1)),
            rf((1, 2, 3), (5, 0, 1)),
            rf((7,), (0, 0, 1)),
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
        f = rf((36, 0, 9), (0, 4, 0, -5, 0, 1))
        assert from_json_obj(f.to_json_obj()) == f

    def test_json_integer_pairs(self):
        f = rf((1,), (0, 2))  # 1/(2n) -> num (1/2), den n
        obj = f.to_json_obj()
        assert obj["num"] == [[1, 2]]
        assert obj["den"] == [[0, 1], [1, 1]]


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_canonical_form_unique(a, b, c, d):
    # two routes to the same function compare equal field by field
    f = RationalFunction(a, b)
    g = RationalFunction(c, d)
    added = rf_add(f, g)
    swapped = rf_add(g, f)
    assert added.num == swapped.num and added.den == swapped.den
    ad, cb = _pmul(a.coeffs, d.coeffs), _pmul(c.coeffs, b.coeffs)
    num = [x + y for x, y in itertools.zip_longest(ad, cb, fillvalue=0)]
    via_product = RationalFunction(Polynomial(num), Polynomial(_pmul(b.coeffs, d.coeffs)))
    assert added == via_product


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_equality_matches_evaluation_oracle(a, b, c, d):
    f = RationalFunction(a, b)
    g = RationalFunction(c, d)
    points = []
    n0 = 5
    while len(points) < 9:  # more points than any degree in play
        if b.evaluate(n0) != 0 and d.evaluate(n0) != 0:
            points.append(n0)
        n0 += 1
    same_values = all(f.evaluate(p) == g.evaluate(p) for p in points)
    assert (f == g) == same_values


@given(small_polys, nonzero_polys, st.integers(5, 30))
def test_evaluate_commutes_with_arithmetic(a, b, n0):
    f = RationalFunction(a, b)
    g = RationalFunction(b, a) if not a.is_zero else RationalFunction(b)
    if b.evaluate(n0) == 0 or (not a.is_zero and a.evaluate(n0) == 0):
        return
    assert rf_add(f, g).evaluate(n0) == f.evaluate(n0) + g.evaluate(n0)
    assert rf_mul(f, g).evaluate(n0) == f.evaluate(n0) * g.evaluate(n0)
