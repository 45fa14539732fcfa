"""Exact polynomials and rational functions in the dimension variable n.

Rational functions are kept in a canonical form: numerator and
denominator coprime, denominator a primitive integer polynomial with
positive leading coefficient.  That makes equality of two computation
routes a field-by-field comparison, which the golden-value tests rely
on.  They are values, with no arithmetic between them: the package sums
on integer numerators (``weingarten.wg_sum``) and reduces once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.coeffs,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(a * c for a in self.coeffs)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem[: other.degree])

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integer_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Write self == scale * prim with scale > 0 and prim primitive integer.

        The primitive part keeps the sign of self; the zero polynomial
        returns (1, 0).
        """
        if self.is_zero:
            return Fraction(1), self
        denom_lcm = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * denom_lcm) for c in self.coeffs]
        content = math.gcd(*ints)
        scale = Fraction(content, denom_lcm)
        return scale, Polynomial(v // content for v in ints)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "n" if k == 1 else f"n^{k}"
                body = var if mag == 1 else f"{_coeff_str(mag)}{var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


ZERO = Polynomial()
ONE = Polynomial((1,))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive integer gcd with positive leading coefficient.

    Computed by a content-stripped remainder sequence, which keeps the
    coefficients small at the degrees that occur here.
    """
    _, a = a.integer_primitive()
    _, b = b.integer_primitive()
    while not b.is_zero:
        _, r = (a % b).integer_primitive()
        a, b = b, r
    if a.is_zero:
        return a
    return a if a.leading > 0 else -a


class LaurentSeries(NamedTuple):
    """Truncated expansion c0*n^e + c1*n^(e-1) + ... at n = infinity."""

    leading_exponent: int
    coefficients: tuple[Fraction, ...]
    truncation_order: int
    zero: bool = False

    def nonzero_terms(self) -> list[tuple[int, Fraction]]:
        return [
            (self.leading_exponent - k, c)
            for k, c in enumerate(self.coefficients)
            if c != 0
        ]

    def leading_term(self) -> tuple[int, Fraction] | None:
        if self.zero:
            return None
        return self.leading_exponent, self.coefficients[0]

    def __str__(self) -> str:
        if self.zero:
            return "0"
        terms = []
        for e, c in self.nonzero_terms():
            mag = _coeff_str(abs(c))
            body = mag if e == 0 else (f"{mag}*n^{e}" if e != 1 else f"{mag}*n")
            terms.append(("-" if c < 0 else "+", body))
        first_sign, first = terms[0]
        out = (first if first_sign == "+" else f"-{first}")
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out + f" + O(n^{self.leading_exponent - self.truncation_order})"


class RationalFunction:
    """Quotient of polynomials in canonical coprime form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE) -> None:
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        s_num, p_num = num.integer_primitive()
        s_den, p_den = den.integer_primitive()
        g = poly_gcd(p_num, p_den)
        p_num = p_num.exact_div(g)
        p_den = p_den.exact_div(g)
        scale = s_num / s_den
        if p_den.leading < 0:
            p_den = -p_den
            scale = -scale
        object.__setattr__(self, "num", p_num.scale(scale))
        object.__setattr__(self, "den", p_den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    @classmethod
    def from_fraction(cls, c: Fraction | int) -> "RationalFunction":
        return cls(Polynomial((c,)))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(ZERO)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def evaluate(self, n0: Fraction | int) -> Fraction:
        d = self.den.evaluate(n0)
        if d == 0:
            raise PoleError(f"pole at n = {n0}")
        return self.num.evaluate(n0) / d

    def laurent_at_infinity(self, terms: int) -> LaurentSeries:
        """Expansion in descending powers of n, exact to ``terms`` terms."""
        if terms < 1:
            raise ValueError("need at least one term")
        if self.is_zero:
            return LaurentSeries(0, (), terms, zero=True)
        a = list(reversed(self.num.coeffs))
        b = list(reversed(self.den.coeffs))
        coeffs: list[Fraction] = []
        for k in range(terms):
            acc = a[k] if k < len(a) else Fraction(0)
            for j in range(1, min(k, len(b) - 1) + 1):
                acc -= b[j] * coeffs[k - j]
            coeffs.append(acc / b[0])
        return LaurentSeries(
            self.num.degree - self.den.degree, tuple(coeffs), terms
        )

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"

    def to_json_obj(self) -> dict:
        """JSON form with exact integer-pair coefficients."""
        return {
            "num": [[c.numerator, c.denominator] for c in self.num.coeffs],
            "den": [[c.numerator, c.denominator] for c in self.den.coeffs],
        }
