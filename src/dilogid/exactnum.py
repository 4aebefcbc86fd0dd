"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Rationals are stdlib ``fractions.Fraction``.  A QuadraticElement is an exact
value (A + B*sqrt(D)) / C held as three integers with C > 0 and
gcd(A, B, C) = 1, over a nonnegative rational radicand D = Dn / Dd
(Cohen, GTM 138).  A ring operation forms the integer triple of its result
directly (a product or quotient is multiplied through by Dd, so that D
enters as the integers Dn and Dd) and reduces it with one ``math.gcd``; it
builds no Fraction.  The reduced triple is unique, so equal elements over
one radicand have equal triples.  ``rat_part`` = A/C and ``rad_part`` = B/C
are read as Fractions.  Perfect-square radicands are permitted; such
elements are secretly rational and equality handles them.

Sign determination never touches floating point: it uses the signs of A
and B and the exact comparison A^2 Dd vs B^2 Dn.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
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


_set = object.__setattr__


def _element(a: int, b: int, c: int, field: tuple) -> "QuadraticElement":
    """(a + b sqrt(D)) / c, c != 0, over field = (Dn, Dd, D), reduced by one gcd."""
    g = math.gcd(a, b, c)
    if c < 0:
        g = -g
    x = object.__new__(QuadraticElement)
    _set(x, "_a", a // g)
    _set(x, "_b", b // g)
    _set(x, "_c", c // g)
    _set(x, "_field", field)
    return x


def _rational(a: int, b: int, c: int, field: tuple) -> Optional[Fraction]:
    """The value (a + b sqrt(D)) / c as a Fraction, or None when it is irrational."""
    if not b:
        return Fraction(a, c)
    rn, rd = math.isqrt(field[0]), math.isqrt(field[1])
    if rn * rn != field[0] or rd * rd != field[1]:
        return None
    return Fraction(a * rd + b * rn, c * rd)


class QuadraticElement:
    """Exact a + b*sqrt(D) with rational a, b and radicand D >= 0, held as
    integers (A + B*sqrt(D)) / C in lowest terms."""

    __slots__ = ("_a", "_b", "_c", "_field")

    def __init__(self, rat_part, rad_part, radicand):
        a, b, d = Fraction(rat_part), Fraction(rad_part), Fraction(radicand)
        if d < 0:
            raise DomainError("radicand must be nonnegative")
        if d == 0:
            b = Fraction(0)
        # over the lcm of the denominators the triple is already in lowest terms
        c = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        _set(self, "_a", a.numerator * (c // a.denominator))
        _set(self, "_b", b.numerator * (c // b.denominator))
        _set(self, "_c", c)
        _set(self, "_field", (d.numerator, d.denominator, d))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuadraticElement, (self.rat_part, self.rad_part, self.radicand)

    @property
    def rat_part(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def rad_part(self) -> Fraction:
        return Fraction(self._b, self._c)

    @property
    def radicand(self) -> Fraction:
        return self._field[2]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rational(cls, value, radicand) -> "QuadraticElement":
        return cls(Fraction(value), Fraction(0), Fraction(radicand))

    @classmethod
    def sqrt_of(cls, radicand) -> "QuadraticElement":
        return cls(Fraction(0), Fraction(1), Fraction(radicand))

    def _parts(self, other) -> tuple:
        """The triple (A, B, C) of other over this element's radicand."""
        if isinstance(other, QuadraticElement):
            f, g = self._field, other._field
            if f is not g and (f[0] != g[0] or f[1] != g[1]):
                raise RadicandMismatchError(f"radicand mismatch: {f[2]} vs {g[2]}")
            return other._a, other._b, other._c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        raise TypeError(f"cannot combine QuadraticElement with {type(other).__name__}")

    # -- ring arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b, c = self._parts(other)
        sc = self._c
        return _element(self._a * c + a * sc, self._b * c + b * sc, sc * c, self._field)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, c = self._parts(other)
        sc = self._c
        return _element(self._a * c - a * sc, self._b * c - b * sc, sc * c, self._field)

    def __rsub__(self, other):
        return _element(*self._parts(other), self._field) - self

    def __neg__(self):
        return _element(-self._a, -self._b, self._c, self._field)

    def __mul__(self, other):
        a, b, c = self._parts(other)
        sa, sb = self._a, self._b
        dn, dd, _ = self._field
        return _element(sa * a * dd + sb * b * dn, (sa * b + sb * a) * dd, self._c * c * dd, self._field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, c = self._parts(other)
        sa, sb = self._a, self._b
        dn, dd, _ = self._field
        n = a * a * dd - b * b * dn  # c^2 Dd N(other)
        if n == 0:
            # norm vanishes only for zero or perfect-square cancellation
            rv = _rational(a, b, c, self._field)
            if rv is None or rv == 0:
                raise ZeroDivisionError("division by zero quadratic element")
            return _element(sa * rv.denominator, sb * rv.denominator, self._c * rv.numerator, self._field)
        # times the conjugate (a - b sqrt(D)) / c over the norm
        return _element(c * (sa * a * dd - sb * b * dn), c * (sb * a - sa * b) * dd, self._c * n, self._field)

    def __rtruediv__(self, other):
        return _element(*self._parts(other), self._field) / self

    def __pow__(self, exponent: int):
        return quad_pow(self, exponent)

    def conjugate(self) -> "QuadraticElement":
        return _element(self._a, -self._b, self._c, self._field)

    def norm(self) -> Fraction:
        dn, dd, _ = self._field
        return Fraction(self._a * self._a * dd - self._b * self._b * dn, self._c * self._c * dd)

    # -- exact predicates -----------------------------------------------------

    def rational_value(self) -> Optional[Fraction]:
        """The exact rational value, when the element happens to be rational."""
        return _rational(self._a, self._b, self._c, self._field)

    def sign(self) -> int:
        rv = self.rational_value()
        if rv is not None:
            return (rv > 0) - (rv < 0)
        a, b = self._a, self._b
        dn, dd, _ = self._field
        # sqrt(D) irrational and b != 0 here: the sign of b, unless a has the
        # other sign and a^2 > b^2 D; equality would force D square
        if a and (a > 0) != (b > 0) and a * a * dd > b * b * dn:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            rv = self.rational_value()
            return rv is not None and rv == other
        if not isinstance(other, QuadraticElement):
            return NotImplemented
        f, g = self._field, other._field
        same_radicand = f[0] == g[0] and f[1] == g[1]
        if same_radicand and self._a == other._a and self._b == other._b and self._c == other._c:
            return True
        rv_self = self.rational_value()
        rv_other = other.rational_value()
        if rv_self is not None or rv_other is not None:
            return rv_self is not None and rv_other is not None and rv_self == rv_other
        if same_radicand:
            return False
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


# -- unreduced triples, for exact comparisons of products ------------------------


def common_radicand(values) -> tuple:
    """(Dn, Dd) of the one radicand D = Dn / Dd of the QuadraticElements
    among ``values``, the field of ``triple_product``; (0, 1) when there are
    none, or when D is a perfect square, whose elements ``exact_triple``
    folds into rationals."""
    fields = {value._field[:2] for value in values if isinstance(value, QuadraticElement)}
    if len(fields) > 1:
        raise RadicandMismatchError(f"radicand mismatch: {sorted(fields)}")
    dn, dd = fields.pop() if fields else (0, 1)
    square = math.isqrt(dn) ** 2 == dn and math.isqrt(dd) ** 2 == dd
    return (0, 1) if square else (dn, dd)


def exact_triple(value) -> tuple:
    """Integers (A, B, C), C > 0, with value = (A + B sqrt(D)) / C: a
    QuadraticElement's own, with sqrt(D) = rn / rd folded into A when D is
    a perfect square, a Fraction's or an int's with B = 0."""
    if isinstance(value, QuadraticElement):
        dn, dd, _ = value._field
        rn, rd = math.isqrt(dn), math.isqrt(dd)
        if rn * rn == dn and rd * rd == dd:
            return value._a * rd + value._b * rn, 0, value._c * rd
        return value._a, value._b, value._c
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return value, 0, 1


def triple_product(x: tuple, y: tuple, field: tuple) -> tuple:
    """The triple of the product of two triples over D = Dn / Dd, field =
    (Dn, Dd), multiplied through by Dd and not reduced: no gcd."""
    (a, b, c), (e, f, g), (dn, dd) = x, y, field
    ae, bf = a * e, b * f
    # a f + b e by one product, (a + b)(e + f) - ae - bf, when neither is rational
    cross = (a + b) * (e + f) - ae - bf if b and f else a * f + b * e
    return ae * dd + bf * dn, cross * dd, c * g * dd


def triples_equal(x: tuple, y: tuple) -> bool:
    """Whether two triples of one field hold one value: with C, C' > 0,
    (A + B sqrt(D)) / C = (A' + B' sqrt(D)) / C' iff A C' = A' C and
    B C' = B' C, as sqrt(D) is irrational or both B are 0."""
    (a, b, c), (e, f, g) = x, y
    return a * g == e * c and b * g == f * c


def quad_pow(x: QuadraticElement, n: int) -> QuadraticElement:
    """Exact n-th power by binary exponentiation, n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("exponent must be a nonnegative integer")
    result = _element(1, 0, 1, x._field)
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
