"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Rationals are stdlib ``fractions.Fraction`` (always stored reduced with a
positive denominator, which is exactly the invariant we need).  A
QuadraticElement is an exact value a + b*sqrt(D) with rational a, b and a
shared nonnegative rational radicand D.  Perfect-square radicands are
permitted; such elements are secretly rational and equality handles them.

Sign determination never touches floating point: it uses the signs of the
two components and the exact comparison a^2 vs b^2*D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .enclosure import (
    DomainError,
    ErrorBoundedValue,
    interval_precision,
    iv_from_fraction,
)
from mpmath import iv


class RadicandMismatchError(DomainError):
    """Arithmetic attempted between elements of different quadratic fields."""


def exact_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact rational square root, or None if irrational (or negative)."""
    value = Fraction(value)
    if value < 0:
        return None
    pn = math.isqrt(value.numerator)
    qn = math.isqrt(value.denominator)
    if pn * pn == value.numerator and qn * qn == value.denominator:
        return Fraction(pn, qn)
    return None


@dataclass(frozen=True, eq=False)
class QuadraticElement:
    """Exact a + b*sqrt(D) with rational a, b and radicand D >= 0."""

    rat_part: Fraction
    rad_part: Fraction
    radicand: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rat_part", Fraction(self.rat_part))
        object.__setattr__(self, "rad_part", Fraction(self.rad_part))
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise DomainError("radicand must be nonnegative")
        if self.radicand == 0 and self.rad_part != 0:
            object.__setattr__(self, "rad_part", Fraction(0))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rational(cls, value, radicand) -> "QuadraticElement":
        return cls(Fraction(value), Fraction(0), Fraction(radicand))

    @classmethod
    def sqrt_of(cls, radicand) -> "QuadraticElement":
        return cls(Fraction(0), Fraction(1), Fraction(radicand))

    def _coerce(self, other) -> "QuadraticElement":
        if isinstance(other, QuadraticElement):
            if other.radicand != self.radicand:
                raise RadicandMismatchError(
                    f"radicand mismatch: {self.radicand} vs {other.radicand}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticElement.from_rational(other, self.radicand)
        raise TypeError(f"cannot combine QuadraticElement with {type(other).__name__}")

    # -- ring arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticElement(self.rat_part + o.rat_part, self.rad_part + o.rad_part, self.radicand)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadraticElement(self.rat_part - o.rat_part, self.rad_part - o.rad_part, self.radicand)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return QuadraticElement(-self.rat_part, -self.rad_part, self.radicand)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b, d = self.rat_part, self.rad_part, self.radicand
        c, e = o.rat_part, o.rad_part
        return QuadraticElement(a * c + b * e * d, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            # norm vanishes only for zero or perfect-square cancellation
            rv = o.rational_value()
            if rv is None or rv == 0:
                raise ZeroDivisionError("division by zero quadratic element")
            return QuadraticElement(self.rat_part / rv, self.rad_part / rv, self.radicand)
        num = self * o.conjugate()
        return QuadraticElement(num.rat_part / n, num.rad_part / n, self.radicand)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        return quad_pow(self, exponent)

    def conjugate(self) -> "QuadraticElement":
        return QuadraticElement(self.rat_part, -self.rad_part, self.radicand)

    def norm(self) -> Fraction:
        return self.rat_part * self.rat_part - self.radicand * self.rad_part * self.rad_part

    # -- exact predicates -----------------------------------------------------

    def rational_value(self) -> Optional[Fraction]:
        """The exact rational value, when the element happens to be rational."""
        if self.rad_part == 0:
            return self.rat_part
        s = exact_sqrt(self.radicand)
        if s is not None:
            return self.rat_part + self.rad_part * s
        return None

    def sign(self) -> int:
        rv = self.rational_value()
        if rv is not None:
            return (rv > 0) - (rv < 0)
        a, b, d = self.rat_part, self.rad_part, self.radicand
        # sqrt(d) irrational and b != 0 here
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(d); equality would force d square
        if a * a > b * b * d:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            rv = self.rational_value()
            return rv is not None and rv == other
        if not isinstance(other, QuadraticElement):
            return NotImplemented
        rv_self = self.rational_value()
        rv_other = other.rational_value()
        if rv_self is not None or rv_other is not None:
            return rv_self is not None and rv_other is not None and rv_self == rv_other
        if self.radicand == other.radicand:
            return self.rat_part == other.rat_part and self.rad_part == other.rad_part
        # both irrational over different radicands: equal iff the radicands
        # generate the same field, i.e. D1*D2 is a perfect square
        s = exact_sqrt(self.radicand * other.radicand)
        if s is None:
            return False
        # sqrt(D2) = s/D1 * sqrt(D1)
        return (
            self.rat_part == other.rat_part
            and self.rad_part == other.rad_part * s / self.radicand
        )

    __hash__ = None

    def _cmp_sign(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __str__(self):
        return f"{self.rat_part} + {self.rad_part}*sqrt({self.radicand})"

    def __repr__(self):
        return f"QuadraticElement({self.rat_part!r}, {self.rad_part!r}, {self.radicand!r})"


def quad_pow(x: QuadraticElement, n: int) -> QuadraticElement:
    """Exact n-th power by binary exponentiation, n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("exponent must be a nonnegative integer")
    result = QuadraticElement.from_rational(1, x.radicand)
    base = x
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def quad_interval(x):
    """Interval of a rational or of a + b*sqrt(D) at the current precision,
    a few ulps wide relative to the value: when a and b have opposite signs
    it is the exact norm over the conjugate, N(x) / (a - b*sqrt(D)), whose
    parts share a sign, so nothing cancels (Cohen, GTM 138)."""
    rv = x.rational_value() if isinstance(x, QuadraticElement) else x
    if rv is not None:
        return iv_from_fraction(rv)
    a, b = x.rat_part, x.rad_part
    root = iv.sqrt(iv_from_fraction(x.radicand))
    if a and (a > 0) != (b > 0):
        return iv_from_fraction(x.norm()) / (iv_from_fraction(a) - iv_from_fraction(b) * root)
    return iv_from_fraction(a) + iv_from_fraction(b) * root


def quad_to_real(x: QuadraticElement, precision: int) -> ErrorBoundedValue:
    """Enclosure of the real value with radius <= 2^(4-precision) * |x|, in
    one pass: ``quad_interval`` is a few ulps wide relative to |x|."""
    if precision < 8:
        raise ValueError("precision must be at least 8 bits")
    with interval_precision(precision + 16):
        return ErrorBoundedValue.from_interval(quad_interval(x))
