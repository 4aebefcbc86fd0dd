"""Integer-ball enclosures, precision budgeting and exact conversions.

Every transcendental quantity in this package is enclosed by one type,
ErrorBoundedValue: integer endpoints lo and hi at one scale 2^-scale,
guaranteed to bracket the true real number.  The L kernel returns it, the
series terms are it, the series driver adds its integers exactly, and a
report prints it; one method rounds it outward to a working precision.
mpmath's interval context (``mpmath.iv``) supplies the directed-rounding
primitives for the closed forms and residuals, whose intervals become
enclosures once (``ErrorBoundedValue.from_interval``); ErrorBoundedValue
has no arithmetic of its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from mpmath import iv
from mpmath.libmp import MPZ, from_man_exp, fzero, normalize, round_ceiling, round_floor

LOG2_10 = math.log2(10)
LOG10_2 = math.log10(2)
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


def outward_decimal(mid: int, rad: int, scale: int) -> tuple:
    """The ball mid +- rad, both in units of 2^-scale, rad >= 0, written in
    decimal as Arb prints a ball (Johansson, IEEE Trans. Computers 66(8),
    2017): the radius rounded up to three significant digits, its last at
    10^e; the midpoint rounded to the nearest multiple of 10^e, ties up; and
    that rounding's error added to the radius before it is rounded up, so
    the printed ball contains the given one.  A zero radius keeps the
    midpoint exact.  Returns (midpoint, radius) as Decimals of exponent e,
    which ``str`` writes with an exponent when they are tiny.

    Integers only: in units of 10^e, a value n 2^-scale is n 5^-e over
    2^(scale+e) for e <= 0, and n over 5^e 2^(scale+e) for e > 0, so every
    division is a shift and, for e > 0, a floor division by 5^e.  e starts
    one below floor(log10 rad) - 2, the float estimate's floor at most one
    off, and rises until the rounded radius has at most three digits.
    """
    if rad == 0:
        return _exact_decimal(mid, scale), Decimal(0)
    e = math.floor((rad.bit_length() - 1 - scale) * LOG10_2) - 3
    while True:
        fives = 5 ** abs(e)
        m_num, r_num = (mid * fives, rad * fives) if e < 0 else (mid, rad)
        shift = scale + e
        if shift < 0:
            m_num, r_num, shift = m_num << -shift, r_num << -shift, 0
        div = 1 if e < 0 else fives
        # m_num / (div 2^shift) is the midpoint in units of 10^e
        m = ((m_num << 1) + (div << shift) >> shift + 1) // div
        error = abs((m * div << shift) - m_num)
        c = -((-(r_num + error) >> shift) // div)
        if c < 1000:
            return _scaled_decimal(m, e), _scaled_decimal(c, e)
        e += 1


def _scaled_decimal(n: int, e: int) -> Decimal:
    """n 10^e exactly."""
    _, digits, _ = Decimal(abs(n)).as_tuple()
    return Decimal((int(n < 0), digits, e))


def _exact_decimal(n: int, scale: int) -> Decimal:
    """n 2^-scale exactly, as n 5^scale 10^-scale once n is odd."""
    if n == 0:
        return Decimal(0)
    zeros = (n & -n).bit_length() - 1
    n, scale = n >> zeros, scale - zeros
    return Decimal(n << -scale) if scale <= 0 else _scaled_decimal(n * 5 ** scale, -scale)


def decimal_upper(x) -> Decimal:
    """A nonnegative finite mpf rounded up to three significant digits
    (``outward_decimal`` of the ball 0 +- x); a binary exponent beyond
    +-2^20 raises PrecisionError, as in ``mpf_to_fraction``."""
    sign, man, exp, _ = x._mpf_
    if sign or (man == 0 and exp != 0):
        raise ValueError("not a nonnegative finite mpf")
    if abs(exp) > _MAX_EXPONENT:
        raise PrecisionError(_TOO_FAR)
    return outward_decimal(0, int(man), -exp)[1]


class ErrorBoundedValue(NamedTuple):
    """The enclosure [lo 2^-scale, hi 2^-scale] of a real number, integer
    endpoints at one scale: what the L kernel returns and reads, the series
    driver adds and a report prints.

    Direct construction checks nothing, as the kernel builds one per term;
    the constructors from an interval or from rationals check their input.
    A NamedTuple compares its integers, so one value held at two scales
    compares unequal: compare ``endpoints()``."""

    lo: int
    hi: int
    scale: int

    # a tuple's concatenation and repetition are no arithmetic of enclosures
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    @classmethod
    def from_interval(cls, x) -> "ErrorBoundedValue":
        """An mpmath interval's endpoints, exactly."""
        return _checked_ball(*x._mpi_)

    @classmethod
    def from_fraction(cls, value) -> "ErrorBoundedValue":
        """Enclosure of a rational, endpoints rounded outward to 256 bits."""
        value = Fraction(value)
        return _checked_ball(*rational_bounds(value.numerator, value.denominator, 256))

    @classmethod
    def from_fraction_pair(cls, lo: Fraction, hi: Fraction) -> "ErrorBoundedValue":
        """Enclosure of [lo, hi]; endpoints rounded outward if not dyadic."""
        if lo > hi:
            raise ValueError("lower endpoint exceeds upper endpoint")
        bits = max(lo.numerator.bit_length(), hi.numerator.bit_length(), 64) + 8
        lo_m = rational_bounds(lo.numerator, lo.denominator, bits)[0]
        hi_m = rational_bounds(hi.numerator, hi.denominator, bits)[1]
        return _checked_ball(lo_m, hi_m)

    @classmethod
    def zero(cls) -> "ErrorBoundedValue":
        return cls(0, 0, 0)

    def mpf_bounds(self, prec: int) -> tuple:
        """The endpoints rounded outward to ``prec`` bits, as raw mpf values:
        the one rounding of an enclosure, which the kernel reads and
        ``rounded`` returns.  from_man_exp(lo, -scale, prec, round_floor)
        and its hi twin, normalized without its generic argument handling."""
        lo, hi, scale = self
        return (normalize(int(lo < 0), MPZ(abs(lo)), -scale, lo.bit_length(), prec, round_floor),
                normalize(int(hi < 0), MPZ(abs(hi)), -scale, hi.bit_length(), prec, round_ceiling))

    def rounded(self, prec: int) -> "ErrorBoundedValue":
        """The enclosure rounded outward to ``prec`` bits; rounding cannot
        take an endpoint out of range, so nothing is checked."""
        return _ball(*self.mpf_bounds(prec))

    def decimal_ball(self) -> tuple:
        """(midpoint, radius) as Decimals, rounded outward at the radius's
        third digit (``outward_decimal``): the ball a report prints."""
        lo, hi, scale = self
        return outward_decimal(lo + hi, hi - lo, scale + 1)

    def interval(self):
        """The endpoints exactly, as an mpmath interval."""
        lo, hi, scale = self
        return iv.make_mpf((from_man_exp(lo, -scale), from_man_exp(hi, -scale)))

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.lo + self.hi, 1 << (self.scale + 1))

    @property
    def radius(self) -> Fraction:
        return Fraction(self.hi - self.lo, 1 << (self.scale + 1))

    def endpoints(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, 1 << self.scale), Fraction(self.hi, 1 << self.scale)

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

    def __repr__(self):
        mid, rad = self.decimal_ball()
        return f"ErrorBoundedValue({mid} +- {rad})"


def _ball(lo: tuple, hi: tuple) -> ErrorBoundedValue:
    """Two finite raw mpf endpoints exactly, as integers at the least scale
    2^-scale, scale >= 0, that holds both."""
    (s_lo, m_lo, e_lo, _), (s_hi, m_hi, e_hi, _) = lo, hi
    scale = max(0, -e_lo, -e_hi)
    lo, hi = int(m_lo) << (scale + e_lo), int(m_hi) << (scale + e_hi)
    return ErrorBoundedValue(-lo if s_lo else lo, -hi if s_hi else hi, scale)


def _checked_ball(lo: tuple, hi: tuple) -> ErrorBoundedValue:
    """``_ball`` of raw mpf endpoints from outside the kernel: a non-finite
    endpoint, or a binary exponent beyond +-2^20, raises PrecisionError, as
    in ``mpf_to_fraction``."""
    for _, man, exp, _ in (lo, hi):
        if not man and exp:
            raise PrecisionError("enclosure has a non-finite endpoint")
        if abs(exp) > _MAX_EXPONENT:
            raise PrecisionError(_TOO_FAR)
    return _ball(lo, hi)


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
    that ``mpf_to_fraction`` and ``ErrorBoundedValue.from_interval`` accept, so no
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
