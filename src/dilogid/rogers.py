"""Rigorous evaluation of Li2 and the Rogers dilogarithm on [0, 1].

Li2(x) = sum_{n>=1} x^n/n^2 is summed directly for x <= 1/2 with the
geometric tail bound x^(N+1)/((N+1)^2 (1-x)); for x > 1/2 the standard
Euler reflection to 1-x is used.  The Rogers function

    L(x) = Li2(x) + log(x) log(1-x) / 2,   L(0) = 0,  L(1) = pi^2/6

is assembled from those pieces by the same kernel that yields Li2, and
the points 0 and 1 are handled once, for the public entry points.  Every
result is an ErrorBoundedValue evaluated once at the budget's working
precision; a radius above 10^(-target_digits), which only a wide input
enclosure causes, raises PrecisionError.

The product log(x) log(1-x) is nonnegative on (0, 1).  When 1-x (or x)
cannot be separated from 1 at working precision, the product is enclosed
via |log(1-x)| <= x/(1-x) instead of evaluating a log at an endpoint glued
to 1.

The inner series and log-product loops run on raw mpmath.libmp interval
primitives: identity verification sums tens of thousands of these
evaluations, and the high-level interval wrapper costs more than the
arithmetic itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from mpmath import iv
from mpmath.libmp import from_int, fone, fzero, mpf_ge, mpf_le, mpf_lt, mpf_shift
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    RationalPair,
    interval_precision,
    rational_bounds,
)

Argument = Union[int, Fraction, ErrorBoundedValue]

_HALF = Fraction(1, 2)
# exact rationals: reduced, or unreduced series terms
_EXACT = (Fraction, RationalPair)
# series terms summed beyond the heuristic count; the tail bound covers the rest
_GUARD_TERMS = 8
_MPI_ZERO = (fzero, fzero)
_MPI_ONE = (fone, fone)


def _validate_unit_arg(x: Argument, open_interval: bool = False):
    """Return a Fraction or interval-backed argument confined to [0, 1]."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if open_interval and not (0 < x < 1):
            raise DomainError(f"argument {x} outside the open interval (0, 1)")
        if not (0 <= x <= 1):
            raise DomainError(f"argument {x} outside [0, 1]")
        return x
    if isinstance(x, ErrorBoundedValue):
        lo, hi = x.endpoints()
        if lo == hi:
            # collapse exact dyadic points to the rational path
            return _validate_unit_arg(lo, open_interval)
        # genuine intervals must be separated from both boundary points
        if not (0 < lo and hi < 1):
            raise DomainError("argument enclosure must lie strictly inside (0, 1)")
        return x
    raise TypeError(f"unsupported argument type {type(x).__name__}")


def _raw_from_fraction(value, prec: int):
    """Raw interval of a Fraction or RationalPair, rounded outward."""
    return rational_bounds(value.numerator, value.denominator, prec)


def _raw(x, prec: int):
    if isinstance(x, _EXACT):
        return _raw_from_fraction(x, prec)
    return (x.lower._mpf_, x.upper._mpf_)


def _exact_int(n: int):
    f = from_int(n)
    return (f, f)


def _raw_log2_upper(raw_mpf) -> Optional[float]:
    """Upper estimate of log2 of a positive raw mpf; None for zero."""
    sign, man, exp, bc = raw_mpf
    if man == 0:
        return None
    drop = max(bc - 24, 0)
    return math.log2(man >> drop) + exp + drop


def _series_terms_needed(sup_raw, bits: int, guard: int) -> int:
    # heuristic only: the rigorous tail is added afterwards regardless
    lg = _raw_log2_upper(sup_raw)
    if lg is None:
        return 1 + guard
    decay = max(-lg, 1e-9)
    # cap keeps pathological near-1 enclosures from stalling; the rigorous
    # tail still covers whatever the truncation omits
    return min(max(1, int((bits + 8) / decay) + 1) + guard, 200 * bits + 1000)


def _pi_squared_over(divisor: int):
    return iv.pi ** 2 / divisor


def _li2_series_raw(x_raw, omx_raw, prec: int, guard: int):
    """Raw enclosure of Li2 on the direct branch; omx_raw encloses 1-x."""
    if x_raw[1][1] == 0:  # sup(x) = 0, the exact-zero point
        return _MPI_ZERO
    n_terms = _series_terms_needed(x_raw[1], prec, guard)
    acc = _MPI_ZERO
    xp = _MPI_ONE
    for n in range(1, n_terms + 1):
        xp = mpi_mul(xp, x_raw, prec)
        acc = mpi_add(acc, mpi_div(xp, _exact_int(n * n), prec), prec)
    # tail: sum_{n>N} x^n/n^2 <= x^(N+1) / ((N+1)^2 (1-x))
    tail = mpi_div(
        mpi_mul(xp, x_raw, prec),
        mpi_mul(_exact_int((n_terms + 1) ** 2), omx_raw, prec),
        prec,
    )
    return mpi_add(acc, (fzero, tail[1]), prec)


def _log_product_raw(x_raw, omx_raw, prec: int):
    """Raw enclosure of log(x)*log(1-x) >= 0 for x inside (0, 1)."""
    if mpf_le(x_raw[0], fzero) or mpf_le(omx_raw[0], fzero):
        raise DomainError("log product requires an argument separated inside (0, 1)")
    # with u = x, v = 1-x, or the other way round, when v is glued to 1:
    # -log(v) <= u/v, so the product lies within [0, log(1/u) * u/v]
    for u, v in ((x_raw, omx_raw), (omx_raw, x_raw)):
        if mpf_ge(v[1], fone):
            hi = mpi_mul(mpi_log(mpi_div(_MPI_ONE, u, prec), prec), mpi_div(u, v, prec), prec)[1]
            return (fzero, hi)
    lo, hi = mpi_mul(mpi_log(x_raw, prec), mpi_log(omx_raw, prec), prec)
    if mpf_lt(lo, fzero):  # the true product is nonnegative
        lo = fzero
    return (lo, hi)


def _branch_is_low(x) -> bool:
    if isinstance(x, _EXACT):
        return 2 * x.numerator <= x.denominator
    lo, hi = x.endpoints()
    return (lo + hi) / 2 <= _HALF


def _one_minus(x):
    if isinstance(x, Fraction):
        return 1 - x
    if isinstance(x, RationalPair):
        return RationalPair(x.denominator - x.numerator, x.denominator)
    lo, hi = x.endpoints()
    return ErrorBoundedValue.from_fraction_pair(1 - hi, 1 - lo)


def _dilog_raw(x, guard: int, rogers: bool):
    """Raw enclosure of L(x), or of Li2(x) when not ``rogers``, under the
    current precision context; x inside (0, 1).

    Both share the raw pair, the branch test, the log product
    P = log(x) log(1-x) and, above 1/2, the Euler reflection
    Li2(x) = pi^2/6 - (Li2(1-x) + P); L = Li2 + P/2.
    """
    prec = iv.prec
    # x and 1-x each as tight as the representation allows
    x_raw, omx_raw = _raw(x, prec), _raw(_one_minus(x), prec)
    low = _branch_is_low(x)
    if low and not rogers:
        return _li2_series_raw(x_raw, omx_raw, prec, guard)
    prod = _log_product_raw(x_raw, omx_raw, prec)
    if rogers:  # halving is exact in binary
        prod = (mpf_shift(prod[0], -1), mpf_shift(prod[1], -1))
    if low:
        return mpi_add(_li2_series_raw(x_raw, omx_raw, prec, guard), prod, prec)
    reflected = _li2_series_raw(omx_raw, x_raw, prec, guard)
    return mpi_sub(_pi_squared_over(6)._mpi_, mpi_add(reflected, prod, prec), prec)


def _rogers_eval(x, guard: int):
    """Interval Rogers L under the current precision context; x in (0, 1)."""
    return iv.make_mpf(_dilog_raw(x, guard, True))


def _unit_eval(x, rogers: bool):
    """Interval L, or Li2 when not ``rogers``, at a validated argument in
    [0, 1]: the boundary points 0 and 1 take their closed values."""
    if isinstance(x, Fraction):
        if x == 0:
            return iv.mpf(0)
        if x == 1:
            return _pi_squared_over(6)
    return iv.make_mpf(_dilog_raw(x, _GUARD_TERMS, rogers))


def _at_budget(budget: PrecisionBudget, evaluator) -> ErrorBoundedValue:
    """One evaluation at the working precision, its radius within tolerance."""
    with interval_precision(budget.working_bits):
        result = ErrorBoundedValue.from_interval(evaluator())
    if result.radius > budget.tolerance:
        raise PrecisionError(f"radius {float(result.radius):.3e} above 10^-{budget.target_digits}")
    return result


def li2(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the dilogarithm series sum x^n/n^2 on [0, 1]."""
    x = _validate_unit_arg(x)
    return _at_budget(budget, lambda: _unit_eval(x, False))


def rogers_l(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the Rogers dilogarithm with its boundary values."""
    x = _validate_unit_arg(x)
    return _at_budget(budget, lambda: _unit_eval(x, True))


def reflection_residual(x: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of L(x) + L(1-x) - pi^2/6; must contain zero."""
    x = _validate_unit_arg(x)

    def evaluate():
        return _unit_eval(x, True) + _unit_eval(_one_minus(x), True) - _pi_squared_over(6)

    return _at_budget(budget, evaluate)


def abel_residual(x: Argument, y: Argument, budget: PrecisionBudget = DEFAULT_BUDGET) -> ErrorBoundedValue:
    """Enclosure of the five-term combination

    L(x) + L(y) - L(xy) - L(x(1-y)/(1-xy)) - L(y(1-x)/(1-xy)),

    which vanishes identically for x, y in (0, 1).
    """
    x = _validate_unit_arg(x, open_interval=True)
    y = _validate_unit_arg(y, open_interval=True)

    if isinstance(x, Fraction) and isinstance(y, Fraction):
        xy = x * y
        mid_x = x * (1 - y) / (1 - xy)
        mid_y = y * (1 - x) / (1 - xy)

        def evaluate():
            return (
                _rogers_eval(x, _GUARD_TERMS)
                + _rogers_eval(y, _GUARD_TERMS)
                - _rogers_eval(xy, _GUARD_TERMS)
                - _rogers_eval(mid_x, _GUARD_TERMS)
                - _rogers_eval(mid_y, _GUARD_TERMS)
            )

        return _at_budget(budget, evaluate)

    def evaluate_numeric():
        xi = x.interval() if isinstance(x, ErrorBoundedValue) else iv.make_mpf(_raw(x, iv.prec))
        yi = y.interval() if isinstance(y, ErrorBoundedValue) else iv.make_mpf(_raw(y, iv.prec))
        xy = xi * yi
        denom = 1 - xy
        args = [xy, xi * (1 - yi) / denom, yi * (1 - xi) / denom]
        ebv_args = []
        for a in args:
            ebv = ErrorBoundedValue.from_interval(a)
            lo, hi = ebv.endpoints()
            if not (0 < lo and hi < 1):
                raise DomainError("five-term argument not separated inside (0, 1)")
            ebv_args.append(ebv)
        total = _rogers_eval(x, _GUARD_TERMS) + _rogers_eval(y, _GUARD_TERMS)
        for a in ebv_args:
            total = total - _rogers_eval(a, _GUARD_TERMS)
        return total

    return _at_budget(budget, evaluate_numeric)
