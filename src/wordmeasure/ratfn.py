"""Exact rational functions in the dimension variable n.

A polynomial is a sequence of coefficients, index = degree, the form in
which ``weingarten`` builds its integer numerators and denominators.
Rational functions are kept in a canonical form: numerator and
denominator coprime, denominator a primitive integer polynomial with
positive leading coefficient.  The constructor clears denominators once
and reduces by an integer gcd (a primitive remainder sequence, then
exact division), so no arithmetic over Q is needed.  The canonical form
makes equality of two computation routes a field-by-field comparison,
which the golden-value tests rely on.  Rational functions are values,
with no arithmetic between them: the package sums on integer numerators
(``weingarten.wg_sum``) and reduces once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


# ---------------------------------------------------------------------------
# polynomials as coefficient lists (index = degree)

def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients; the sign stays."""
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: each step scales the running remainder
    by lead(b) before cancelling its top term, so it stays integral."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    for k in range(len(a) - 1 - db, -1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        for j in range(db):
            r[k + j] -= c * b[j]
    return _strip(r)


def _div_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient of a by b, where b divides a in Z[x]."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r.pop() // lead
        for j in range(db):
            r[k + j] -= c * b[j]
    return q


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer gcd with positive leading coefficient.

    Computed by a primitive remainder sequence: every pseudo-remainder is
    divided by its content, which keeps the coefficients small (Knuth,
    TAOCP vol. 2, 4.6.1).  The gcd of two zero polynomials is ().
    """
    a, b = _primitive(_strip(list(a))), _primitive(_strip(list(b)))
    while b:
        a, b = b, _primitive(_prem(a, b))
    return tuple(a) if not a or a[-1] > 0 else tuple(-x for x in a)


def _evaluate(coeffs: Sequence, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_str(coeffs: Sequence) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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


def _coeff_str(c: Fraction | int) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


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
    """Quotient of polynomials in canonical coprime form.

    ``num`` is a tuple of ``Fraction`` coefficients and ``den`` a tuple
    of integers, index = degree, neither with a trailing zero; zero is
    () over (1,).
    """

    __slots__ = ("num", "den")

    def __init__(
        self, num: Sequence[Fraction | int] = (), den: Sequence[Fraction | int] = (1,)
    ) -> None:
        num, den = _strip(list(num)), _strip(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (1,))
            return
        # one integer scale clears every denominator of both sides
        m = math.lcm(*(c.denominator for c in num), *(c.denominator for c in den))
        num = [int(c * m) for c in num]
        den = [int(c * m) for c in den]
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, den = _div_exact(num, g), _div_exact(den, g)
        c = math.gcd(*den) if den[-1] > 0 else -math.gcd(*den)
        object.__setattr__(self, "num", tuple(Fraction(x, c) for x in num))
        object.__setattr__(self, "den", tuple(x // c for x in den))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    @classmethod
    def from_fraction(cls, c: Fraction | int) -> "RationalFunction":
        return cls((c,))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.num

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
        # a constant hashes as the number it equals
        if self.den == (1,) and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    def evaluate(self, n0: Fraction | int) -> Fraction:
        n0 = Fraction(n0)
        d = _evaluate(self.den, n0)
        if d == 0:
            raise PoleError(f"pole at n = {n0}")
        return _evaluate(self.num, n0) / d

    def laurent_at_infinity(self, terms: int) -> LaurentSeries:
        """Expansion in descending powers of n, exact to ``terms`` terms."""
        if terms < 1:
            raise ValueError("need at least one term")
        if self.is_zero:
            return LaurentSeries(0, (), terms, zero=True)
        a = self.num[::-1]
        b = self.den[::-1]
        coeffs: list[Fraction] = []
        for k in range(terms):
            acc = a[k] if k < len(a) else Fraction(0)
            for j in range(1, min(k, len(b) - 1) + 1):
                acc -= b[j] * coeffs[k - j]
            coeffs.append(acc / b[0])
        return LaurentSeries(len(self.num) - len(self.den), tuple(coeffs), terms)

    def __str__(self) -> str:
        if self.den == (1,):
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"

    def to_json_obj(self) -> dict:
        """JSON form with exact integer-pair coefficients."""
        return {
            "num": [[c.numerator, c.denominator] for c in self.num],
            "den": [[c.numerator, c.denominator] for c in self.den],
        }
