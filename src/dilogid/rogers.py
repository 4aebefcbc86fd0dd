"""Rigorous evaluation of Li2 and the Rogers dilogarithm on [0, 1].

Li2(x) = sum_{n>=1} x^n/n^2 is summed directly for x <= 1/2; for x > 1/2
the standard Euler reflection to 1-x is used.  The Rogers function

    L(x) = Li2(x) + log(x) log(1-x) / 2,   L(0) = 0,  L(1) = pi^2/6

is assembled from those pieces by the same kernel that yields Li2, and
the points 0 and 1 are handled once, for the public entry points.  Every
result is an ErrorBoundedValue evaluated once at the budget's working
precision; a radius above 10^(-target_digits), which only a wide input
enclosure causes, raises PrecisionError.

The kernel sums Python integers at a fixed scale 2^-s and returns integer
bounds at that scale, an ErrorBoundedValue, which the series driver adds as
it is and the entry points round outward to the working precision
(``ErrorBoundedValue.mpf_bounds``).
The series argument y = x or 1-x is at most about 1/2; the powers
X_n = floor(X_(n-1) y), X_0 = 2^s, give the sums S2 = sum floor(X_n/n^2)
and S1 = sum floor(X_n/n) of 2^s Li2(y) and -2^s log(1-y), for as many
terms as it takes every further power to vanish.  Those sums are lower
bounds; each floor loses less than one unit, and that count plus the
geometric tail bounds them from above (see ``_li2_series_raw``).  Then
log(x) log(1-x) = |log y| S1.

  * An exact argument is its coprime integer pair (p, q), read once where it
    enters (``_validate_unit_arg``, the series' closed forms and terms), and
    it travels through the kernel as that pair: no Fraction is built or read
    again.  Its y is exact: (p, q) below 1/2, and (q - p, q) above, coprime
    too, as gcd(q - p, q) = gcd(p, q) = 1.  One power stream steps
    X_n = floor(X_(n-1) p / q), or floor(X_(n-1) / q) for p = 1, and one
    point log of q/p, rounded down and widened by one ulp, encloses |log y|.
    A pair at most 1/2 may carry integer bounds on its log(q/p) at 2^-b,
    (p, q, (lo, hi, b)), for the log (``_atanh_raw`` steps Richmond-Szekeres'
    at b = ``_carried_log_bits``); above, it is refused.
  * An interval argument is an ErrorBoundedValue, whose integers the
    kernel reads as they are.  Its y is rounded outward to dyadic endpoints
    m 2^-k of w bits (below): one stream steps X_n = floor(X_(n-1) m / 2^k)
    at the lower endpoint, whose sums are the lower bounds; the upper
    bounds add the error count and the rise across the interval,
    y_hi - y_lo times each series' slope at y_hi, which bounds it on the
    interval, rounded up; one point log of y_lo, rounded down and widened
    by one ulp, bounds log(x) log(1-x) over the whole interval, as that
    product is symmetric about 1/2 and increases below it
    (``_log_product_raw``).  So every L takes at most one log.

The kernel tells the kinds apart by isinstance(x, ErrorBoundedValue), and
its helpers tell an exact y = (p, q) from a raw interval pair of mpf tuples by
isinstance(y[0], int): both checks run in C, where a miss of
isinstance(x, Fraction), whose class is an ABC, would run
ABCMeta.__instancecheck__ on every interval term.

Every kernel function takes the working precision as an argument, prec;
only the entry points' interval sums and pi^2/6 at x = 1 read mpmath's
interval context.  With w = prec + 20 guard bits, s = w above 1/2, where
the result lies near pi^2/6, and s = w + z below, where y < 2^-z: a small
argument keeps w bits relative to its size, so li2(10^-200) is still
enclosed to the working precision relative to its value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from mpmath import iv
from mpmath.libmp import from_man_exp, mpf_log, mpf_pi, round_ceiling, round_floor

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    interval_precision,
    rational_bounds,
)

Argument = Union[int, Fraction, ErrorBoundedValue]

# bits of the fixed-point scale beyond the working precision: they keep the
# error count of a few thousand units far below one unit of the result
_GUARD_BITS = 20


def _validate_unit_arg(x: Argument, open_interval: bool = False):
    """Return the coprime pair (p, q), q > 0, of an exact x = p/q, or an
    enclosure, confined to [0, 1]."""
    if isinstance(x, ErrorBoundedValue):
        if x.lo != x.hi:
            # genuine intervals must be separated from both boundary points
            if not (0 < x.lo and x.hi < 1 << x.scale):
                raise DomainError("argument enclosure must lie strictly inside (0, 1)")
            return x
        # collapse exact dyadic points to the rational path
        x = Fraction(x.lo, 1 << x.scale)
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if open_interval and not (0 < x < 1):
            raise DomainError(f"argument {x} outside the open interval (0, 1)")
        if not (0 <= x <= 1):
            raise DomainError(f"argument {x} outside [0, 1]")
        return x.numerator, x.denominator
    raise TypeError(f"unsupported argument type {type(x).__name__}")


def _raw_from_fraction(value: tuple, prec: int):
    """Raw interval of an exact pair (p, q), the value p/q, rounded outward
    (named for the Fraction it once took, the name the benchmark tracer
    times as a conversion)."""
    p, q = value
    return rational_bounds(p, q, prec)


def _coprime(p: int, q: int) -> tuple:
    """The exact pair of p/q, q > 0, in lowest terms."""
    g = math.gcd(p, q)
    return p // g, q // g


def _raw(x, prec: int):
    if isinstance(x, ErrorBoundedValue):
        return x.mpf_bounds(prec)
    return _raw_from_fraction(x, prec)


def _shift(n: int, e: int, up: bool = False) -> int:
    """floor(n 2^e), or its ceiling when ``up``, for an integer n."""
    if e >= 0:
        return n << e
    return -(-n >> -e) if up else n >> -e


def _series_terms_needed(decay: float, bits: int) -> int:
    """Terms N of the fixed-point sums at scale 2^-bits for arguments up to
    2^-decay < 1: the first N with 2^bits 2^(-decay N) < 1, where every
    power is zero, estimated in floating point.  Only the size of the tail
    depends on it; the error count holds for any N."""
    # cap keeps pathological near-1 enclosures from stalling; the tail
    # bound still covers whatever the truncation omits.  min and max as
    # comparisons: the same values without two builtin calls per L
    n_terms = int(bits / (decay if decay > 1e-9 else 1e-9)) + 1
    cap = 200 * bits + 1000
    return n_terms if n_terms < cap else cap


def _error_count(n_terms: int, c: int, x_last: int) -> int:
    """Units of 2^-w by which the sums of N = ``n_terms`` powers X_n, each
    less than c units below 2^w y^n, with c >= 1/(1-y) an integer, and
    X_N = ``x_last``, may fall short of 2^w Li2(y) and -2^w log(1-y).

    With e_n = 2^w y^n - X_n, e_0 = 0, a floor of X y loses less than one
    unit, so 0 <= e_n < y e_(n-1) + 1, and 0 <= e_n < 1 + y + ... +
    y^(n-1) < 1/(1-y) <= c.  Then
      2^w y^n/n < X_n/n + c/n < floor(X_n/n) + 1 + c/n,
    and the same with n^2, which is smaller, so both truncated sums fall
    short of 2^w times the first N terms by less than N + c H_N, with
    H_N = 1 + 1/2 + ... + 1/N <= 1 + ln N < 1 + bits(N).  The rest, both
    series together, is at most
      2^w y^(N+1) / ((N+1)(1-y)) < (X_N + c) c / (N+1),
    since 2^w y^N = X_N + e_N."""
    return n_terms + c * (1 + n_terms.bit_length()) + -(-(x_last + c) * c // (n_terms + 1))


def _atanh_raw(u: int, k: int, b: int) -> tuple:
    """Integers lo <= 2^b atanh(u/k) <= hi for integers 1 <= u, 2u <= k.

    The powers X_0 = floor(2^b u / k), X_j = floor(X_(j-1) u^2 / k^2) give
    lo = sum floor(X_j/(2j+1)) over the J nonzero ones, X_J = 0.  With
    e_j = 2^b z^(2j+1) - X_j, z = u/k, e_0 < 1 and 0 <= e_j < z^2 e_(j-1) + 1
    as for ``_error_count``, so e_j < 1/(1-z^2) <= 4/3.  Term j falls short
    of 2^b z^(2j+1)/(2j+1) by less than 1 + e_j/(2j+1) < 2.  The rest, over
    j >= J, is at most e_J / ((2J+1)(1-z^2)) < (4/3)^2 / (2J+1), as X_J = 0:
    so hi = lo + 2J + ceil(2 / (2J+1))."""
    uu, kk = u * u, k * k
    x = (u << b) // k
    # n = 2j + 1 runs over the odd denominators
    lo, n = 0, 1
    while x:
        lo += x // n
        x = x * uu // kk
        n += 2
    return lo, lo + n - 1 + -(-2 // n)


def _carried_log_bits(n_logs: int, prec: int) -> int:
    """Scale 2^-b for carried logs, each a sum of at most N = ``n_logs`` terms
    at most b units wide: b = w + bits(2 N w), w = ``prec`` + _GUARD_BITS as
    in ``_rogers_eval``, keeps N b < 2^(b-w) while b <= 2w, two units of L's
    scale once times S1 < 2^(w+1) (``_log_product_raw``)."""
    w = prec + _GUARD_BITS
    return w + (2 * n_logs * w).bit_length()


def _li2_series_raw(y, w: int) -> tuple:
    """Integer bounds (S2_lo, S2_hi, S1_lo, S1_hi) at scale 2^-w with
    S2_lo <= 2^w Li2(y) <= S2_hi and S1_lo <= -2^w log(1-y) <= S1_hi for
    an exact y = p/q <= 1/2, the pair (p, q), or for every y in the dyadic
    interval y_raw inside (0, 1), a pair of raw mpf values.

    One power stream X_0 = 2^w, X_n = floor(X_(n-1) y) of y, or of y's lower
    end, gives the sums S2 = sum floor(X_n/n^2) and S1 = sum floor(X_n/n)
    over n <= N.  They are lower bounds: X_n <= 2^w y^n, floors only lower
    the sums, and Li2 and -log(1-y) increase with y.  The upper bounds add
    ``_error_count`` to the same sums.  The floor of X p/q loses less than
    one unit, just as that of X m / 2^k does, so the count holds for both;
    y <= 1/2 gives c = 2, and an interval c = ceil(1/(1-y_hi)) >=
    1/(1-y_lo), which is 2 too unless y_hi lies a rounding above 1/2.  An
    interval's upper bounds also add the rise from y_lo to y_hi, rounded
    up: the slope (-log(1-y))' = 1/(1-y) is at most 1/(1-y_hi), so S1_hi adds
    2^w (y_hi - y_lo) / (1 - y_hi); the slope Li2'(y) = -log(1-y)/y =
    1 + y/2 + y^2/3 + ... increases with y, to -log(1-y_hi)/y_hi <=
    2^-w S1_hi / y_hi, so S2_hi adds (y_hi - y_lo) S1_hi / y_hi."""
    x = 1 << w
    s2 = s1 = 0
    if isinstance(y[0], int):
        # X_n = floor(X_(n-1) p / q)
        p, q = y[0], y[1]
        n_terms = _series_terms_needed(math.log2(q) - math.log2(p), w)
        if p == 1:
            for n in range(1, n_terms + 1):
                x //= q
                t = x // n
                s1 += t
                s2 += t // n  # floor(floor(X/n)/n) = floor(X/n^2)
        else:
            for n in range(1, n_terms + 1):
                x = x * p // q
                t = x // n
                s1 += t
                s2 += t // n
        err = _error_count(n_terms, 2, x)
        return s2, s2 + err, s1, s1 + err
    (_, man_lo, exp_lo, _), (_, man_hi, exp_hi, _) = y
    n_terms = _series_terms_needed(-(math.log2(man_hi) + exp_hi), w)
    # X_n = floor(X_(n-1) m / 2^k) at the lower end y_lo = m 2^-k
    k = -exp_lo
    for n in range(1, n_terms + 1):
        x = (x * man_lo) >> k
        t = x // n
        s1 += t
        s2 += t // n
    # y_lo = bottom 2^-k and y_hi = top 2^-k, integers at one scale
    k = -min(exp_lo, exp_hi)
    one, top, bottom = 1 << k, man_hi << (k + exp_hi), man_lo << (k + exp_lo)
    c = -(-one // (one - top))
    err = _error_count(n_terms, c, x)
    s1_hi = s1 + err + -(-((top - bottom) << w) // (one - top))
    return s2, s2 + err + -(-(top - bottom) * s1_hi // top), s1, s1_hi


def _log_product_raw(y, s1_lo: int, s1_hi: int, prec: int) -> tuple:
    """Integer bounds on log(x) log(1-x) = |log y| S1 >= 0, y = x or 1-x,
    at the scale of the bounds s1_lo <= S1 <= s1_hi on S1 = -log(1-y),
    from one log at ``prec`` bits; y is an exact p/q <= 1/2, the pair
    (p, q), or a dyadic interval inside (0, 1) (below); an exact y that
    carries its log, (p, q, (lo, hi, b)), takes S1 times those bounds, over
    2^b.

    An interval y_raw = [y_lo, y_hi] is the outward rounding of the true
    enclosure [a, b] of y, whose branch ``_rogers_eval`` chose by its
    unrounded midpoint: a + b <= 1.  Its bounds s1_lo <= -log(1-y_lo) and
    -log(1-y_hi) <= s1_hi are those of ``_li2_series_raw``.  The product
    P(y) = |log y| (-log(1-y)) is symmetric, P(y) = P(1-y), and increases
    on (0, 1/2] (Zagier, "The dilogarithm function", 2007): P'(y) has the
    sign of
      g(y) = y ln(1/y) - (1-y) ln(1/(1-y)),
    as P'(y) = g(y) / (y (1-y)), and g is concave on (0, 1/2), where
    g''(y) = (2y - 1) / (y (1-y)) < 0, and vanishes at both ends, so it is
    positive between them.  Hence on [a, b] P(y) >= P(a): at or below 1/2
    P increases from a, and above it P(y) = P(1-y) with a <= 1-b <= 1-y <
    1/2.  As y_lo <= a <= 1/2, P(a) >= P(y_lo) >= |log y_lo| s1_lo.  From
    above, |log y| <= |log y_lo| and -log(1-y) <= -log(1-y_hi) <= s1_hi on
    the whole interval, whether or not it straddles 1/2: no width term
    and no straddle case are needed.  One log of y_lo rounded down is
    l = -m 2^e, m < 2^prec, with l <= log y_lo < l + 2^e, so
    (m - 1) 2^e < |log y_lo| <= m 2^e."""
    if isinstance(y[0], int):
        if len(y) > 2:
            lo, hi, b = y[2]
            return s1_lo * lo >> b, -(-s1_hi * hi >> b)
        # |log y| = log Y with Y = q/p >= 2.  For y = 1/q, Y_lo = Y = q; else
        # Y_lo = floor(2^prec Y) 2^-prec lies within 2^-prec below Y, so
        # log Y - log Y_lo <= (Y - Y_lo)/Y_lo < 2^-prec / 2.  One log rounded
        # down gives l = m 2^e with l <= log Y_lo <= l + 2^e, m having at
        # most prec bits.  As l > 1/2, 2^(prec+e) > m 2^e > 1/2, so
        # e >= -prec and the slack 2^-prec / 2 is below 2^e: so
        # m 2^e <= |log y| <= (m + 2) 2^e, or (m + 1) 2^e for y = 1/q.
        p, q = y
        k = 0 if p == 1 else prec
        _, man, exp, _ = mpf_log(from_man_exp((q << k) // p, -k), prec, round_floor)
        lo, hi = man * s1_lo, (man + 1 + (p > 1)) * s1_hi
    else:
        _, man, exp, _ = mpf_log(y[0], prec, round_floor)
        lo, hi = (man - 1) * s1_lo, man * s1_hi
    # times 2^exp, the lower bound floored and the upper one ceiled
    return (lo << exp, hi << exp) if exp >= 0 else (lo >> -exp, -(-hi >> -exp))


@lru_cache(maxsize=None)
def _zeta2_fixed(w: int) -> tuple:
    """Integers lo <= 2^w pi^2/6 <= hi."""
    (_, m_lo, e_lo, _), (_, m_hi, e_hi, _) = (mpf_pi(w + 8, rnd) for rnd in (round_floor, round_ceiling))
    return _shift(m_lo * m_lo, 2 * e_lo + w) // 6, -(-_shift(m_hi * m_hi, 2 * e_hi + w, up=True) // 6)


def _pi_squared_over(divisor: int):
    return iv.pi ** 2 / divisor


def _one_minus(x):
    if isinstance(x, ErrorBoundedValue):
        one = 1 << x.scale
        return ErrorBoundedValue(one - x.hi, one - x.lo, x.scale)
    p, q = x
    return q - p, q


def _rogers_eval(x, prec: int, rogers: bool = True) -> ErrorBoundedValue:
    """Integer bounds on L(x), or on Li2(x) when not ``rogers``, at the
    kernel's scale for the working precision ``prec``; x inside (0, 1): an
    exact coprime pair (p, q), at most 1/2 also with bounds on its log
    (``_log_product_raw``), or an enclosure, whose branch test and
    1 - x are integer operations and whose (0, 1) check reads the integers'
    signs.

    With y = x at or below 1/2, and P = log(x) log(1-x) = |log y| S1:
    L = Li2(y) + P/2 and Li2(x) = Li2(y).  Above 1/2, with y = 1-x, the
    Euler reflection gives L = pi^2/6 - L(y) and
    Li2(x) = pi^2/6 - Li2(y) - P.
    """
    w = prec + _GUARD_BITS
    if isinstance(x, ErrorBoundedValue):
        # the branch follows the midpoint
        low = x.lo + x.hi <= 1 << x.scale
        y = _raw(x if low else _one_minus(x), w)
        (sign_lo, man_lo, _, _), (_, _, exp_hi, bc_hi) = y
        size = exp_hi + bc_hi
        # y < 2^size, so the enclosure of y lies inside (0, 1) unless its
        # lower end is at most 0 or that power exceeds 1
        if sign_lo or not man_lo or size > 0:
            raise DomainError("argument enclosure not separated inside (0, 1)")
    else:
        p, q = x[0], x[1]
        if not 0 < p < q:
            raise DomainError(f"argument {Fraction(p, q)} outside the open interval (0, 1)")
        low = 2 * p <= q
        if not low and len(x) > 2:
            raise DomainError("a supplied log needs an argument at most 1/2")
        # y = p/q or (q-p)/q < 2^size, as p < 2^bits(p) and q >= 2^(bits(q)-1)
        y = x if low else (q - p, q)
        size = y[0].bit_length() - q.bit_length() + 1
    # below 1/2 the scale follows the size of y, so that small arguments
    # keep w bits relative to their value; above, pi^2/6 sets the size
    scale = w - size if low else w
    lo, hi, s1_lo, s1_hi = _li2_series_raw(y, scale)
    if rogers or not low:
        p_lo, p_hi = _log_product_raw(y, s1_lo, s1_hi, w)
        if rogers:
            p_lo, p_hi = p_lo >> 1, -(-p_hi >> 1)
        lo, hi = lo + p_lo, hi + p_hi
    if not low:
        z_lo, z_hi = _zeta2_fixed(w)
        lo, hi = z_lo - hi, z_hi - lo
    # the tuple itself, without the named tuple's Python-level __new__
    return tuple.__new__(ErrorBoundedValue, (lo, hi, scale))


def _rogers_interval(x, prec: int, rogers: bool = True):
    """Interval L, or Li2 when not ``rogers``, at ``prec`` bits at a
    validated argument in [0, 1]: the boundary points 0 and 1 take their
    closed values, pi^2/6 in the current interval context."""
    if not isinstance(x, ErrorBoundedValue):
        p, q = x
        if p == 0:
            return iv.mpf(0)
        if p == q:
            return _pi_squared_over(6)
    return iv.make_mpf(_raw(_rogers_eval(x, prec, rogers), prec))


def _at_budget(budget: PrecisionBudget, evaluator) -> ErrorBoundedValue:
    """One evaluation ``evaluator(prec)`` at the working precision, its radius within tolerance."""
    with interval_precision(budget.working_bits):
        result = ErrorBoundedValue.from_interval(evaluator(budget.working_bits))
    if result.radius > budget.tolerance:
        raise PrecisionError(f"radius {float(result.radius):.3e} above 10^-{budget.target_digits}")
    return result


def li2(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the dilogarithm series sum x^n/n^2 on [0, 1].

    For an exact x the radius is a few units in the last place of the
    working precision: the integer sums behind it carry 20 guard bits, at a
    scale that follows the size of x up to 1/2 and is absolute above."""
    x = _validate_unit_arg(x)
    return _at_budget(budget, lambda prec: _rogers_interval(x, prec, False))


def rogers_l(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the Rogers dilogarithm with its boundary values; its
    radius is that of ``li2``: a few units in the last place for exact x."""
    x = _validate_unit_arg(x)
    return _at_budget(budget, lambda prec: _rogers_interval(x, prec))


def reflection_residual(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of L(x) + L(1-x) - pi^2/6; must contain zero."""
    x = _validate_unit_arg(x)

    def evaluate(prec):
        return _rogers_interval(x, prec) + _rogers_interval(_one_minus(x), prec) - _pi_squared_over(6)

    return _at_budget(budget, evaluate)


def abel_residual(x: Argument, y: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the five-term combination

    L(x) + L(y) - L(xy) - L(x(1-y)/(1-xy)) - L(y(1-x)/(1-xy)),

    which vanishes identically for x, y in (0, 1).
    """
    x = _validate_unit_arg(x, open_interval=True)
    y = _validate_unit_arg(y, open_interval=True)

    def evaluate(prec):
        # the three five-term arguments: exact pairs for rational x and y,
        # else enclosures checked on their integers to lie inside (0, 1)
        if not isinstance(x, ErrorBoundedValue) and not isinstance(y, ErrorBoundedValue):
            # xy, x(1-y)/(1-xy) and y(1-x)/(1-xy) over the common denominators
            (px, qx), (py, qy) = x, y
            den = qx * qy - px * py
            args = [_coprime(px * py, qx * qy), _coprime(px * (qy - py), den), _coprime(py * (qx - px), den)]
        else:
            xi, yi = (iv.make_mpf(_raw(v, prec)) for v in (x, y))
            xy = xi * yi
            denom = 1 - xy
            args = [xy, xi * (1 - yi) / denom, yi * (1 - xi) / denom]
            args = [ErrorBoundedValue.from_interval(a) for a in args]
            if not all(0 < a.lo and a.hi < 1 << a.scale for a in args):
                raise DomainError("five-term argument not separated inside (0, 1)")
        total = _rogers_interval(x, prec) + _rogers_interval(y, prec)
        for a in args:
            total = total - _rogers_interval(a, prec)
        return total

    return _at_budget(budget, evaluate)
