"""Shared oracles for the test suite.

The oracles deliberately avoid the library's own evaluation paths:
square roots come from integer isqrt brackets, dilogarithm references
from mpmath's mp-context polylog (a different algorithm and code path
than the interval layer), and brute-force series sums from pure Fraction
arithmetic.
"""

from __future__ import annotations

import math
import random
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction

from mpmath import mp

from dilogid.enclosure import mpf_to_fraction

REFERENCE_DPS = 80
REFERENCE_SLACK = Fraction(1, 10 ** 70)


def exact_decimal(value) -> str:
    """Exact decimal string of a dyadic rational (or mpf); never lossy: the
    form of the enclosure goldens' endpoints."""
    if not isinstance(value, Fraction):
        value = mpf_to_fraction(value)
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    v = abs(value)
    den = v.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError("value is not a dyadic rational")
    # v = numerator 5^k / 10^k.  Decimal, unlike str, converts ints of any
    # length (CPython caps str at sys.get_int_max_str_digits() digits), and
    # its products and powers are subquadratic, where converting the int
    # numerator 5^k is quadratic in its length.  The context holds every
    # digit, and a rounding would raise Inexact
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        digits = str(Decimal(v.numerator) * Decimal(5) ** k)
    if k == 0:
        return sign + digits
    if len(digits) <= k:
        digits = "0" * (k - len(digits) + 1) + digits
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def sqrt_bracket(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] enclosing sqrt(n) from integer isqrt; fully independent."""
    scale = 10 ** digits
    root = math.isqrt(n * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def pi_squared_over(divisor: int, dps: int = REFERENCE_DPS) -> Fraction:
    with mp.workdps(dps):
        return mpf_to_fraction(mp.pi ** 2 / divisor)


def li2_reference(x: Fraction, dps: int = REFERENCE_DPS) -> Fraction:
    with mp.workdps(dps):
        xs = mp.mpf(x.numerator) / x.denominator
        return mpf_to_fraction(mp.polylog(2, xs))


def rogers_reference(x, dps: int = REFERENCE_DPS) -> Fraction:
    """High-precision Rogers L via mpmath's polylog (independent route)."""
    with mp.workdps(dps):
        if isinstance(x, Fraction):
            if x == 0:
                return Fraction(0)
            if x == 1:
                return mpf_to_fraction(mp.pi ** 2 / 6)
            xs = mp.mpf(x.numerator) / x.denominator
        else:
            xs = x  # caller-prepared mp value
        val = mp.polylog(2, xs) + mp.log(xs) * mp.log(1 - xs) / 2
        return mpf_to_fraction(val)


def li2_brute_bracket(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Pure-Fraction partial sum of x^n/n^2 plus the geometric remainder."""
    acc = Fraction(0)
    xp = Fraction(1)
    for n in range(1, terms + 1):
        xp *= x
        acc += xp / (n * n)
    remainder = xp * x / ((terms + 1) ** 2 * (1 - x))
    return acc, acc + remainder


def assert_encloses(value, reference: Fraction, slack: Fraction = REFERENCE_SLACK):
    """The enclosure must be consistent with the reference within slack."""
    gap = abs(value.midpoint - reference)
    assert gap <= value.radius + slack, (
        f"enclosure midpoint off reference by {float(gap):.3e}, "
        f"radius {float(value.radius):.3e}"
    )


def random_unit_fraction(rng: random.Random, max_den: int = 200) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def rogers_reference_of_quad(element, dps: int = 70) -> Fraction:
    """Reference L(x) for an exact quadratic x, via isqrt + mp.polylog."""
    rat, rad, d = element.rat_part, element.rad_part, element.radicand
    scale = 10 ** dps
    # sqrt(p/q) = sqrt(p*q)/q, bracketed by integer isqrt to ~10^-dps
    root = math.isqrt(d.numerator * d.denominator * scale * scale)
    approx = rat + rad * Fraction(root, d.denominator * scale)
    with mp.workdps(dps + 10):
        xs = mp.mpf(approx.numerator) / mp.mpf(approx.denominator)
        val = mp.polylog(2, xs) + mp.log(xs) * mp.log(1 - xs) / 2
        return mpf_to_fraction(val)
