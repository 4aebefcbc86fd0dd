"""Midpoint-radius enclosures backed by mpmath's interval arithmetic.

Every transcendental quantity in this package is returned as an
ErrorBoundedValue: a pair of exact binary-float endpoints guaranteed to
bracket the true real number.  mpmath's interval context (``mpmath.iv``)
supplies the directed-rounding primitives; this module adds exact endpoint
bookkeeping, precision budgeting, and conversions from exact rationals.
ErrorBoundedValue has no arithmetic of its own: sums run in the L kernel's
integer bounds or in ``mpmath.iv``, and each result becomes an enclosure
once.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import iv, mp
from mpmath.libmp import MPZ, fzero, normalize, round_ceiling, round_floor

LOG2_10 = math.log2(10)
# binary exponents beyond +-2^20 have no exact rational here (mpf_to_fraction)
_MAX_EXPONENT = 1 << 20
_TOO_FAR = "value too far from 1 for an exact rational (binary exponent beyond +-2^20)"
_WORKING_GUARD_BITS = 33  # G of the working precision (see PrecisionBudget)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PrecisionError(RuntimeError):
    """A radius, a certificate or an exact value out of reach at the working
    precision."""


@contextmanager
def interval_precision(bits: int):
    """Temporarily run the shared interval context at ``bits`` of precision."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


class ScaledInterval(NamedTuple):
    """The interval [lo 2^-scale, hi 2^-scale] with integer endpoints: a
    geometric series term, which the L kernel reads without conversion."""

    lo: int
    hi: int
    scale: int


def rational_bounds(p: int, q: int, prec: int) -> tuple:
    """Raw mpf values of p/q, q > 0, rounded down and up to ``prec`` bits.

    p/q need not be in lowest terms.  One division to prec+3 or more
    quotient bits plus a sticky bit for a nonzero remainder decides both
    directed roundings (Brent & Zimmermann, Modern Computer Arithmetic,
    sections 1.4 and 3.1).  A directed rounding of a value is unique, so
    the result equals mpmath's from_rational bit for bit.
    """
    if not p:
        return fzero, fzero
    sign = int(p < 0)
    p = abs(p)
    # p/q lies in [2^(s-1), 2^(s+1)) with s = bits(p) - bits(q), so the
    # quotient of p*2^shift by q has prec+3 or prec+4 bits
    shift = prec + 3 - p.bit_length() + q.bit_length()
    if shift >= 0:
        quot, rem = divmod(p << shift, q)
    else:
        quot, rem = divmod(p, q << -shift)
    man = MPZ((quot << 1) | (rem != 0))
    bc = man.bit_length()
    exp = -shift - 1
    return (
        normalize(sign, man, exp, bc, prec, round_floor),
        normalize(sign, man, exp, bc, prec, round_ceiling),
    )


def iv_from_fraction(value):
    """Tightest interval containing an exact rational at the current precision."""
    return iv.make_mpf(rational_bounds(value.numerator, value.denominator, iv.prec))


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf.  A binary exponent beyond
    +-2^20, far past any working precision, raises PrecisionError: the exact
    value of, say, e^(-2*10^400) would not fit in memory."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError("non-finite mpf has no rational value")
    if abs(exp) > _MAX_EXPONENT:
        raise PrecisionError(_TOO_FAR)
    # int() strips the gmpy2.mpz type mpmath uses under its gmpy backend
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


@dataclass(frozen=True)
class ErrorBoundedValue:
    """Enclosure [lower, upper] of a real number, endpoints exact mpf values."""

    lower: object
    upper: object

    def __post_init__(self):
        if not (mp.isfinite(self.lower) and mp.isfinite(self.upper)):
            raise PrecisionError("enclosure has a non-finite endpoint")
        if self.lower > self.upper:
            raise ValueError("lower endpoint exceeds upper endpoint")

    @classmethod
    def from_interval(cls, x) -> "ErrorBoundedValue":
        lo, hi = x._mpi_
        return cls(mp.make_mpf(lo), mp.make_mpf(hi))

    @classmethod
    def from_fraction(cls, value) -> "ErrorBoundedValue":
        """Enclosure of a rational, endpoints rounded outward to 256 bits."""
        value = Fraction(value)
        lo, hi = rational_bounds(value.numerator, value.denominator, 256)
        return cls(mp.make_mpf(lo), mp.make_mpf(hi))

    @classmethod
    def zero(cls) -> "ErrorBoundedValue":
        return cls(mp.zero, mp.zero)

    def scaled(self) -> ScaledInterval:
        """The endpoints exactly, as integers at one scale 2^-scale, scale
        >= 0; a binary exponent beyond +-2^20 raises PrecisionError, as in
        ``mpf_to_fraction``."""
        (s_lo, m_lo, e_lo, _), (s_hi, m_hi, e_hi, _) = self.lower._mpf_, self.upper._mpf_
        if max(abs(e_lo), abs(e_hi)) > _MAX_EXPONENT:
            raise PrecisionError(_TOO_FAR)
        scale = max(0, -e_lo, -e_hi)
        lo, hi = int(m_lo) << (scale + e_lo), int(m_hi) << (scale + e_hi)
        return ScaledInterval(-lo if s_lo else lo, -hi if s_hi else hi, scale)

    def interval(self):
        """View as an mpmath interval under the current iv context."""
        return iv.make_mpf((self.lower._mpf_, self.upper._mpf_))

    @property
    def midpoint(self) -> Fraction:
        return (mpf_to_fraction(self.lower) + mpf_to_fraction(self.upper)) / 2

    @property
    def radius(self) -> Fraction:
        return (mpf_to_fraction(self.upper) - mpf_to_fraction(self.lower)) / 2

    def endpoints(self) -> tuple[Fraction, Fraction]:
        return mpf_to_fraction(self.lower), mpf_to_fraction(self.upper)

    def contains(self, value) -> bool:
        lo, hi = self.endpoints()
        if isinstance(value, ErrorBoundedValue):
            vlo, vhi = value.endpoints()
            return lo <= vlo and vhi <= hi
        v = Fraction(value)
        return lo <= v <= hi

    def contains_zero(self) -> bool:
        return self.contains(0)

    def overlaps(self, other: "ErrorBoundedValue") -> bool:
        alo, ahi = self.endpoints()
        blo, bhi = other.endpoints()
        return alo <= bhi and blo <= ahi

    def widened(self, slack) -> "ErrorBoundedValue":
        """Enclosure with both endpoints pushed outward by ``slack`` >= 0."""
        s = Fraction(slack) if not isinstance(slack, Fraction) else slack
        if s < 0:
            raise ValueError("slack must be nonnegative")
        lo, hi = self.endpoints()
        return ErrorBoundedValue.from_fraction_pair(lo - s, hi + s)

    @classmethod
    def from_fraction_pair(cls, lo: Fraction, hi: Fraction) -> "ErrorBoundedValue":
        """Enclosure of [lo, hi]; endpoints rounded outward if not dyadic."""
        bits = max(lo.numerator.bit_length(), hi.numerator.bit_length(), 64) + 8
        lo_m = rational_bounds(lo.numerator, lo.denominator, bits)[0]
        hi_m = rational_bounds(hi.numerator, hi.denominator, bits)[1]
        return cls(mp.make_mpf(lo_m), mp.make_mpf(hi_m))

    def __repr__(self):
        return f"ErrorBoundedValue({mp.nstr(self.lower, 20)}, {mp.nstr(self.upper, 20)})"


@dataclass(frozen=True)
class PrecisionBudget:
    """Target accuracy; the working precision follows from it.

    The working precision is p = ceil(d log2 10) + G bits for d target
    digits, with G = 33 guard bits, so a unit u = 2^-p is at most
    2^-G 10^-d.  A verification passes only if its residual radius is at
    most 10^-d; that radius is the sum of four parts, bounded in u:

      * the series terms' enclosures: under 1 u, since ``_lambert_scale``
        gives them bits(N) + 2 bits(c) and more beyond p, for N terms and a
        ratio cap with 1/(1-cap) <= c;
      * the L kernel's error counts: its sums run 20 bits finer than p,
        relative to the size of t, and L(t) comes out within
        (p + 40) 2^-15.9 t u (measured for t from 10^-100 to 999/1000 at
        15 to 3000 digits); as t <= L(t) and sum L(t_j) <= pi^2/6 when
        the identity holds, a series adds under (p + 40) 2^-15.1 u, under
        1 u for d <= 10^4;
      * closed-form arguments enclosed at the working precision (a Lucas
        rho, radius <= 2^(4-p) rho by ``quad_to_real``): x L'(x) <=
        (1 + ln(1/(1-x)))/2 < 2^5.1 below the certified cap 1 - 2^-96, so
        under 2^9.1 u;
      * the outward roundings to p bits: at most 2 u for the lhs, whose
        value lies below 2, 14 u for a right-hand side of three values of
        L and its two sums, and 1 u for the residual.

    The worst case is thus below 2^9.2 u, and G >= 10 would pass every
    identity that holds; every registry instance at 15, 40, 100 and 300
    digits measures at most 2^2.2 u.  G = 33 keeps even the worst case
    2^23 below the tolerance, so no verdict turns on the last bits of a
    part, and the reported enclosures show about nine digits beyond the
    requested ones.  It is 33, not 32, because ceil(d log2 10) skips 63
    and takes 64 at d = 19: no working precision is then the 96 bits at
    which tail bounds and ratio caps are computed (``series._TAIL_BITS``).

    The target is at most MAX_DIGITS, the most digits whose working
    precision p is at most 2^20 bits.  A report reads its residual,
    enclosed at p bits, as exact rationals (``mpf_to_fraction``), and the
    endpoints of a p-bit enclosure of a value near 0 or 1 have binary
    exponents near -p or below.  Past p = 2^20 they lie beyond the +-2^20
    that ``mpf_to_fraction`` and ``ErrorBoundedValue.scaled`` accept, so no
    run could produce a report: a larger target raises ValueError at once,
    not after a run that cannot end in one.
    """

    target_digits: int

    def __post_init__(self):
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        if self.target_digits > MAX_DIGITS:
            raise ValueError(f"target_digits must be at most {MAX_DIGITS}, or the working precision exceeds 2^20 bits")

    @classmethod
    def for_digits(cls, digits: int) -> "PrecisionBudget":
        return cls(digits)

    @property
    def working_bits(self) -> int:
        """The target's bits plus G guard bits (see the class docstring)."""
        return math.ceil(self.target_digits * LOG2_10) + _WORKING_GUARD_BITS

    @property
    def tolerance(self) -> Fraction:
        return Fraction(1, 10 ** self.target_digits)


# the most d with ceil(d log2 10) + G <= 2^20 (see PrecisionBudget)
MAX_DIGITS = int((_MAX_EXPONENT - _WORKING_GUARD_BITS) / LOG2_10)
DEFAULT_BUDGET = PrecisionBudget.for_digits(40)
