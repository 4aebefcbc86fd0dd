"""Evaluators and verifiers for the dilogarithm series identities.

Each verifier truncates its series where the certified bound on the
omitted tail drops below half the tolerance (or at the term cap), sums L
over the kept terms and evaluates the closed form as enclosures in one
pass at the working precision (``_evaluate_series_report``), and returns
an IdentityReport: pass iff |residual.midpoint| <= residual.radius +
tail_bound + 10^-digits, and fail when the residual radius misses
10^-digits, read on the numbers the report prints (``report_verdict``).
``IDENTITIES`` at the end is the one table of identities.

Every series but Richmond-Szekeres has summands of one Lambert form,
t_n = K rho^n / (1 - s rho^(n+1))^2 for n >= 0 (``LambertForm``), and one
verifier, ``_lambert_report``, checks a family's form against its exact
generator (``_check_form``, once per instance), sums it and evaluates its
closed form, a signed sum of L.  The two-parameter series, with b < a (the
summand is symmetric), has rho = (1-a)/(1-b), K = b (a-b)^2 / (a (1-b)^2),
s = b/a and the closed form L(a) + L(b) - L((a-b)/(1-b)).  Every other
family is its corollary at one t, the series at ((1+t)/2, (1-t)/2), whose
form is rho = s = (1-t)/(1+t), K = rho (1-rho)^2 (``_lucas_form``) and
whose closed form is L(rho); each family maps its parameters to rho:

  * the corollary itself: rho = (1-t)/(1+t);
  * Lucas series with Q > 0, from their index 1, by Binet's formula:
    rho = (beta/alpha)^k = (Q/alpha^2)^k, at t = U_k sqrt(D) / V_k; with
    Q < 0, odd k: the parity sub-series interleaved as A_1, B_1, A_2, ...
    are the Q > 0 series at (P', Q') = (sqrt(D), -Q), with roots alpha and
    -beta (``lucas.transform_params``), so rho = (|Q|/alpha^2)^k, and the
    form is checked against that series' exact terms;
  * Bridgeman's series of a Pell unit u, the k = 1 Lucas series at
    (2a, +-1): rho = 1/u^2;
  * sinh-theta, the Q > 0 form at (2 cosh(theta), 1, 1): rho = e^(-2 theta),
    at t = tanh(theta), whose terms are transcendental and not checked.

The one exact Lucas generator, ``_lucas_pos_terms``, steps U over the
multiples of k once per term, not k times, by the stride-k recurrence
U_(m+k) = V_k U_m - Q^k U_(m-k) (Ribenboim, "My Numbers, My Friends",
ch. 1), divided by U_k, as U_km / U_k = U_m(V_k, Q^k).  It starts from V_k,
one ``lucas_uv`` at k, and runs over Z at (lam P, lam^2 Q) for rational
parameters, where every summand, of degree 0, is unchanged
(``_lucas_ring``), else over Q(sqrt(D)), as at the reduced parameters of
every Q < 0 series.  ``_check_form`` compares its terms with the form as
integer triples (A + B sqrt(D)) / C, multiplied through with no gcd between
the products, so that at index k it costs a few products of integers of
O(k) bits.

The tails use L(x) <= x (pi^2/6 + log(1/x)) on (0, 1/2] over the
geometric sequence t_N rho^j, as for s >= 0

    t_(n+1) / t_n = rho ((1 - s rho^(n+1)) / (1 - s rho^(n+2)))^2 <= rho;

the ratio cap is rho or a certified upper bound on it (``_certified_cap``).
Each Lambert series has one tail function, ``tail_after(n)``, the
certified bound on the tail after its first n terms, built once per report
and cached: tail_bound(t, cap) for t the upper bound on t_n from its
formula in interval arithmetic (``_term_upper``), which depends only on
the form and the cap.  It serves the truncation and, once, the report's
tail after N; a ``--trace`` row's tail is read from the sum, the kept
terms' upper bounds after the row plus that final tail (``_trace_rows``).
The truncation point N is the first n in [1, max_terms]
with tail_after(n) at most half the tolerance, else max_terms
(``_choose_truncation``): a float estimate of N from log K + n log rho and
two certified evaluations around it, or a bisection when they miss.  Only
then are the form checked and the first N terms generated.

A form's exact K, rho and s, rationals or Q(sqrt(D)) values, become
intervals in one place, ``_enclosed_form``: at _CUT_OFF_BITS bits for the
tail, and once at w + 24 bits for the terms.  The terms are integer
enclosures at a scale 2^-w, generated once (``_lambert_terms``): rho^n
steps as a scaled integer with floors at the lower end of rho's enclosure
and ceilings at the upper end, and a term's bounds are integer floor and
ceiling divisions, so they hold by induction with no error term.  Their
width, under 2^5 (1/(1-rho))^2 units whatever n, sets w
(``_lambert_scale``), for the N terms summed.  The report's tail is not
read from them, so it does not follow the terms' scale, and neither the
scale nor the tail moves with the term cap unless N reaches it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, InvalidOperation, localcontext
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count, islice
from math import isqrt, log, log1p, pi
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from mpmath import iv, mp
from mpmath.libmp import from_man_exp, mpf_add, round_ceiling

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    _MAX_EXPONENT,
    _TOO_FAR,
    decimal_upper,
    interval_precision,
    iv_from_fraction,
    mpf_to_fraction,
)
from .exactnum import (
    QuadraticElement,
    common_radicand,
    exact_sqrt,
    exact_triple,
    quad_interval,
    quad_pow,
    quad_to_real,
    triple_product,
    triples_equal,
)
from .lucas import (
    Coefficient,
    LucasParams,
    PreconditionError,
    _coeff_sign,
    _integer_parameters,
    lucas_uv,
    transform_params,
)
from .rogers import _atanh_raw, _carried_log_bits, _pi_squared_over, _rogers_eval, _rogers_interval, _shift, rogers_l

DEFAULT_MAX_TERMS = 10000
# precision of tail bounds and ratio caps.  Invariant: no working precision
# equals it, PrecisionBudget(d).working_bits != _TAIL_BITS for every d,
# because the benchmark tracer tells summation passes from tail bounds by it
_TAIL_BITS = 96
# precision of the upper bound on a term that tail_bound reads (``_term_upper``)
_CUT_OFF_BITS = _TAIL_BITS + 64


class UsageError(ValueError):
    """Malformed request: unknown identity or invalid parameter set."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoParamInstance:
    """Parameters (a, b) of the two-parameter series, exact rationals."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not (0 < self.a < 1 and 0 < self.b < 1):
            raise DomainError("parameters must lie in the open interval (0, 1)")
        if self.a == self.b:
            raise DomainError("parameters must be distinct")


@dataclass(frozen=True)
class PellSolution:
    """Solution (a, b) of x^2 - n*y^2 = +-1, identified with u = a + b*sqrt(n)."""

    a: Fraction
    b: Fraction
    n: int
    sign: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a <= 0 or self.b <= 0:
            raise DomainError("Pell solution components must be positive")
        if not isinstance(self.n, int) or self.n <= 0:
            raise DomainError("radicand must be a positive integer")
        if exact_sqrt(Fraction(self.n)) is not None:
            raise DomainError(f"radicand {self.n} is a perfect square")
        val = self.a * self.a - self.n * self.b * self.b
        if val == 1:
            object.__setattr__(self, "sign", 1)
        elif val == -1:
            object.__setattr__(self, "sign", -1)
        else:
            raise DomainError(f"a^2 - n*b^2 = {val}, not a Pell solution")

    def unit(self) -> QuadraticElement:
        return QuadraticElement(self.a, self.b, Fraction(self.n))

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1


@dataclass(frozen=True)
class IdentityReport:
    """Record of one identity verification."""

    identity_id: str
    parameters: dict
    digits: int
    terms_used: int
    lhs: ErrorBoundedValue
    rhs: ErrorBoundedValue
    tail_bound: object  # mp.mpf upper bound on the omitted tail
    residual: ErrorBoundedValue
    verdict: str

    @classmethod
    def build(
        cls,
        identity_id: str,
        parameters: dict,
        digits: int,
        terms_used: int,
        lhs: ErrorBoundedValue,
        rhs: ErrorBoundedValue,
        tail_bound,
        residual: ErrorBoundedValue,
    ) -> "IdentityReport":
        verdict = report_verdict(*residual.decimal_ball(), decimal_upper(tail_bound), digits)
        return cls(
            identity_id,
            dict(parameters),
            digits,
            terms_used,
            lhs,
            rhs,
            tail_bound,
            residual,
            verdict,
        )


def report_verdict(mid: Decimal, rad: Decimal, tail: Decimal, digits: int) -> str:
    """The pass rule on a report's printed residual ball mid +- rad and
    tail bound: pass iff |mid| <= rad + tail + 10^-digits and rad <=
    10^-digits.  Printed outward, the ball and the tail contain the exact
    ones, so the first inequality holds on them wherever it holds on the
    exact values; the printed radius exceeds the exact one by under 2%,
    which the working precision's guard bits keep far below 10^-digits.
    A reader who applies the rule to the report's fields gets its verdict.
    Decimal adds them exactly (a rounding would raise Inexact), in time
    linear in their digits, where Fractions would take gcds of powers of
    ten."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        tolerance = Decimal(1).scaleb(-digits)
        return "pass" if abs(mid) <= rad + tail + tolerance and rad <= tolerance else "fail"


# ---------------------------------------------------------------------------
# Lemma sequences: D_n, (x_n, y_n), and the summand
# ---------------------------------------------------------------------------


def d_seq(inst: TwoParamInstance, n: int) -> Fraction:
    """D_n(a,b) = (a(1-b)^(n+1) - b(1-a)^(n+1)) / (a-b), exactly."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    a, b = inst.a, inst.b
    return (a * (1 - b) ** (n + 1) - b * (1 - a) ** (n + 1)) / (a - b)


def xy_seq(inst: TwoParamInstance, n: int) -> tuple[Fraction, Fraction]:
    """The pair (x_n, y_n) = (a(1-b)^n, b(1-a)^n) / D_n, exactly."""
    dn = d_seq(inst, n)
    a, b = inst.a, inst.b
    x = a * (1 - b) ** n / dn
    y = b * (1 - a) ** n / dn
    if not (0 < x < 1 and 0 < y < 1):
        raise AssertionError("sequence escaped the open unit interval")
    return x, y


def theorem_main_term(inst: TwoParamInstance, n: int) -> Fraction:
    """Summand of the two-parameter series; equals x_n * y_n exactly."""
    dn = d_seq(inst, n)
    a, b = inst.a, inst.b
    return a * b * (1 - a) ** n * (1 - b) ** n / (dn * dn)


def _theorem_terms(inst: TwoParamInstance) -> Iterator[Fraction]:
    """theorem_main_term(inst, n) for n = 0, 1, ...: the exact generator
    that ``_check_form`` reads."""
    return (theorem_main_term(inst, n) for n in count())


# ---------------------------------------------------------------------------
# tail machinery
# ---------------------------------------------------------------------------


def tail_bound(first_omitted: Fraction, ratio_cap: Fraction):
    """Certified bound on sum L(t_j) over omitted terms t_j.

    Requires t_0 <= first_omitted <= 1/2 and t_{j+1} <= ratio_cap * t_j.
    Uses L(x) <= x*(pi^2/6 + log(1/x)) on (0, 1/2], summed over the
    dominating geometric sequence t_0 * r^j.
    """
    t = first_omitted
    if t.numerator < 0:
        raise DomainError("first omitted term must be nonnegative")
    if t.numerator == 0:
        return mp.mpf(0)
    if 2 * t.numerator > t.denominator:
        raise DomainError("first omitted term above 1/2: lower the truncation point")
    if not (0 < ratio_cap < 1):
        raise DomainError("ratio cap must lie in (0, 1)")
    with interval_precision(_TAIL_BITS):
        ti = iv_from_fraction(t)
        ri = iv_from_fraction(ratio_cap)
        one_minus_r = 1 - ri
        bound = ti * (
            (_pi_squared_over(6) + iv.log(1 / ti)) / one_minus_r
            + ri * iv.log(1 / ri) / (one_minus_r * one_minus_r)
        )
        return mp.make_mpf(bound._mpi_[1])


def _certified_cap(cap) -> Fraction:
    """An exact ratio cap, or the upper endpoint of an interval one, certified
    below 1 at _TAIL_BITS bits, where tail_bound rounds it up: a cap that
    rounds to 1 there gives no finite tail at any working precision."""
    sup = cap if isinstance(cap, Fraction) else mpf_to_fraction(mp.make_mpf(cap._mpi_[1]))
    if not 0 < sup <= 1 - Fraction(1, 1 << _TAIL_BITS):
        raise PrecisionError("could not certify the geometric ratio below 1")
    return sup


def _tail_small_enough(n: int, tail_after: Callable[[int], object], tolerance_half: Fraction) -> bool:
    """Whether the certified bound ``tail_after(n)`` on the tail after the
    first n terms is at most tolerance_half; not when the n-th term exceeds
    1/2."""
    try:
        bound = tail_after(n)
    except DomainError:
        return False
    return mpf_to_fraction(bound) <= tolerance_half


def _float_log(x: Fraction) -> float:
    """ln x for a positive rational, from its integers far below 1, where a
    double underflows, and by log1p near 1, where it cancels."""
    return log1p(float(x - 1)) if 2 * x > 1 else log(x.numerator) - log(x.denominator)


def _truncation_estimate(enclosed: LambertForm, cap: Fraction, tolerance_half: Fraction) -> float:
    """1 + the real n where K rho^n, from the upper ends of the enclosed K
    and rho, meets the t at which the whole bound tail_bound(t, cap) =
    t ((pi^2/6 - ln t) / (1 - cap) + cap ln(1/cap) / (1 - cap)^2) crosses
    tolerance_half, in log space: t may lie below the smallest double."""
    gap = float(1 - cap)
    second = float(cap) * -_float_log(cap) / (gap * gap)
    # x = ln t solves x = target - ln A(x), A the bracket above, target =
    # ln tolerance_half <= ln(1/20), so x <= target and each step shrinks the
    # error by 1/(gap A(x)) <= 1/(pi^2/6 - x) < 1/4: 40 steps reach the root
    target = _float_log(tolerance_half)
    x = target
    for _ in range(40):
        x = target - log((pi * pi / 6 - x) / gap + second)
    ln_k, ln_rho = (_float_log(mpf_to_fraction(mp.make_mpf(v._mpi_[1]))) for v in enclosed[:2])
    return (x - ln_k) / ln_rho + 1


# ---------------------------------------------------------------------------
# Lambert-form descriptions and their fixed-point terms
# ---------------------------------------------------------------------------


class LambertForm(NamedTuple):
    """Summands t_n = K rho^n / (1 - s rho^(n+1))^2, n >= 0, with K, rho and
    s exact rationals or Q(sqrt(D)) values, or mpmath intervals."""

    k: object
    rho: object
    s: object

    def term(self, n: int):
        """The exact summand t_n."""
        return self.k * self.rho ** n / (1 - self.s * self.rho ** (n + 1)) ** 2


def _two_param_form(inst: TwoParamInstance) -> LambertForm:
    a, b = max(inst.a, inst.b), min(inst.a, inst.b)
    return LambertForm(b * (a - b) ** 2 / (a * (1 - b) ** 2), (1 - a) / (1 - b), b / a)


def _lucas_form(rho) -> LambertForm:
    """The Lucas and sinh-theta form: K = rho (1 - rho)^2 and s = rho."""
    rv = rho.rational_value() if isinstance(rho, QuadraticElement) else None
    rho = rho if rv is None else rv
    return LambertForm(rho * (1 - rho) ** 2, rho, rho)


def _check_form(form: LambertForm, exact_terms: Iterable, count: int = 5) -> None:
    """Raise AssertionError unless the first ``count`` summands of an exact
    generator of the series equal the description's.

    Five indices prove every index.  With X = rho^n the description is
    K X / (1 - s rho X)^2, and each generator is C X / (1 - S X)^2 with
    constants of its own: a b (a-b)^2 X / (a (1-b) - b (1-a) X)^2 for the
    two-parameter summand once (1-b)^(2n) cancels, 4 t^2 rho X / ((1+t)^2
    (1 - rho^2 X)^2) for the remark form and, by Binet's formula,
    (1-rho)^2 rho X / (1 - rho^2 X)^2 for the Lucas terms and Bridgeman's,
    with X = u^(-2n).  Their difference has a numerator of degree at most 4
    in X, which vanishes identically if it vanishes at the five distinct
    X = 1, rho, ..., rho^4.  The Q < 0 Lucas terms are read from the
    Q > 0 generator at the reduced parameters (sqrt(D), -Q), one such
    function; only Bridgeman's generator for a negative Pell unit
    interleaves two, one per parity of n, so it alone is checked at five
    pairs (count = 10).  Each index steps
    K X and sigma X = s rho X by one multiplication by rho each and
    compares K X with t_n (1 - sigma X)^2, which is the same test, as s and
    rho lie in (0, 1).  The values are integer triples (A + B sqrt(D)) / C,
    multiplied through with no gcd between the products
    (``exactnum.triple_product``) and compared by cross-multiplication, so
    the test stays exact without reducing integers that at Lucas index k
    have O(k) bits each.
    """
    terms = list(islice(exact_terms, count))
    field = common_radicand((*form, *terms))

    def mul(x, y):
        return triple_product(x, y, field)

    k, rho, s = (exact_triple(value) for value in form)
    kx, sx = k, mul(s, rho)
    for n, expected in enumerate(terms):
        if n:
            kx, sx = mul(kx, rho), mul(sx, rho)
        a, b, c = sx
        gap = (c - a, -b, c)  # 1 - sigma X
        if not triples_equal(kx, mul(exact_triple(expected), mul(gap, gap))):
            raise AssertionError(f"summand {n} does not match the Lambert form")


def _log2_floor(value) -> int:
    """An integer at or below log2 of a positive rational, Q(sqrt(D)) value or interval."""
    if isinstance(value, QuadraticElement):
        # x = N(x) / (a - b sqrt(D)), of size at most |a| + |b| (isqrt(ceil(D)) + 1)
        root = isqrt(-(-value.radicand.numerator // value.radicand.denominator)) + 1
        value = abs(value.norm()) / (abs(value.rat_part) + abs(value.rad_part) * root)
    if isinstance(value, Fraction):
        return value.numerator.bit_length() - value.denominator.bit_length() - 1
    _, _, exp, bc = value._mpi_[0]
    return exp + bc - 1


def _scaled_bounds(value, w: int) -> tuple[int, int]:
    """Integers lo <= 2^w value <= hi for an interval: its endpoints floored and ceiled."""
    (s_lo, m_lo, e_lo, _), (s_hi, m_hi, e_hi, _) = value._mpi_
    return _shift(-m_lo if s_lo else m_lo, e_lo + w), _shift(-m_hi if s_hi else m_hi, e_hi + w, up=True)


def _lambert_terms(form: LambertForm, w: int) -> Iterator[ErrorBoundedValue]:
    """Enclosures at scale 2^-w of t = K x / (1 - sigma x)^2, x = rho^n, for
    n >= 0, from a form of intervals (``_enclosed_form``), whose endpoints
    are floored and ceiled at 2^-w: x starts at 2^w and steps with floors by
    the lower bound on rho and ceilings by the upper one, and t grows with
    K, x and sigma x < 1, so its lower bound takes every lower bound and
    floors, its upper bound the rest."""
    one = 1 << w
    (k_lo, k_hi), (r_lo, r_hi) = _scaled_bounds(form.k, w), _scaled_bounds(form.rho, w)
    # s is rho in the corollary's form, which every family but theorem-main takes
    s_lo, s_hi = (r_lo, r_hi) if form.s is form.rho else _scaled_bounds(form.s, w)
    # sigma = s rho
    g_lo, g_hi = s_lo * r_lo >> w, -(-s_hi * r_hi >> w)
    x_lo = x_hi = one
    while True:
        # 2^w (1 - sigma x), from below and from above
        d_lo = one + (-g_hi * x_hi >> w)
        d_hi = one - (g_lo * x_lo >> w)
        if d_lo <= 0:
            raise PrecisionError("could not separate 1 - s rho^(n+1) from 0")
        yield ErrorBoundedValue((k_lo * x_lo << w) // (d_hi * d_hi), -(-(k_hi * x_hi << w) // (d_lo * d_lo)), w)
        x_lo = x_lo * r_lo >> w
        x_hi = -(-x_hi * r_hi >> w)


def _lambert_scale(form: LambertForm, cap: Fraction, budget: PrecisionBudget, n_terms: int) -> int:
    """Bits w of the scale 2^-w of ``_lambert_terms``.

    Widths in units of 2^-w, to first order.  Let c = ceil(1/(1-cap)) >=
    1/(1-rho).  The bounds on K, s and rho are at most 3 wide (enclosed
    within 1/8 unit, floored and ceiled), so those on sigma = s rho
    at most 7.  Each power stream stays within c units of 2^w rho^n at its
    end of rho's bounds and n rho^(n-1) <= c, so the bounds on x = rho^n lie
    at most 2c + 3c apart.  As sigma <= rho and K / (1-sigma)^2 = t_0 < 1,
    the partial derivatives of t = K x / (1 - sigma x)^2 on x <= 1 are at
    most 2c in x and in sigma x and c^2 in K; with a unit for rounding
    sigma x and one per division, a term's bounds lie at most
    2c 5c + 2c (7 + 1) + 3c^2 + 2 <= 31 c^2 < 2^5 c^2 apart, whatever n.
    L'(t) < w on [2^-w, 1 - 2^-w], which holds every enclosure the kernel
    accepts, so the N = ``n_terms`` terms summed widen the lhs by less than
    N w 2^5 c^2 2^-w, below 2^-working_bits at this w.  The first term
    t_0 >= K gets -log2(K) more bits, to stay separated from 0.
    sinh-theta's interval K and rho are enclosed within 1/8 unit as well
    (``_sinh_theta``).
    """
    c = -(-cap.denominator // (cap.denominator - cap.numerator))
    w = budget.working_bits + max(0, -_log2_floor(form.k)) + n_terms.bit_length() + 2 * c.bit_length() + 5
    # 2^bits(2w) > 2w >= the final scale, which bounds L'
    return w + (2 * w).bit_length()


def _enclosed_form(form: LambertForm, bits: int = _CUT_OFF_BITS) -> LambertForm:
    """The form with its exact K, rho and s, rationals or Q(sqrt(D)) values,
    enclosed at ``bits`` bits by ``quad_interval``, a few ulps wide relative
    to each: the one place where they become intervals.  A form of
    intervals, sinh-theta's, is returned as it is."""
    if not isinstance(form.rho, (Fraction, QuadraticElement)):
        return form
    with interval_precision(bits):
        rho = quad_interval(form.rho)
        # s is rho in the corollary's form, which every family but theorem-main takes
        return LambertForm(quad_interval(form.k), rho, rho if form.s is form.rho else quad_interval(form.s))


def _term_upper(enclosed: LambertForm, n: int) -> Fraction:
    """An upper bound on t_n, K x / (1 - s rho x)^2 with x = rho^n, the
    upper end of its interval at _CUT_OFF_BITS bits, for the tail after the
    first n terms.

    K, rho and s enter as the ``enclosed`` form gives them, ``_enclosed_form``
    at _CUT_OFF_BITS bits: a few ulps wide relative to each, or sinh-theta's
    intervals, finer still.  To first order the result lies within
    2^4 c (n + 4) 2^-_CUT_OFF_BITS of t_n relative to it, with
    c = 1/(1 - s rho): in ulps, x is at most 2n + 2 wide relative to it and
    1 - s rho x at most c (2n + 8) + 1.  That is under 2^-118 for
    c (n + 4) < 2^38, so ``tail_bound``, which reads the bound to _TAIL_BITS
    bits, reads t_n, whatever the terms' scale and so whatever the term cap."""
    with interval_precision(_CUT_OFF_BITS):
        k, rho, s = enclosed
        x = rho ** n
        return mpf_to_fraction(mp.make_mpf((k * x / (1 - s * rho * x) ** 2)._mpi_[1]))


# ---------------------------------------------------------------------------
# shared evaluation driver
# ---------------------------------------------------------------------------


def _evaluate_series_report(
    identity_id: str,
    parameters: dict,
    budget: PrecisionBudget,
    terms: Iterable,
    tail,
    rhs_fn: Callable[[], object],
    trace: Optional[list] = None,
) -> IdentityReport:
    """Sum enclosures of L over the kept ``terms`` (enclosures or exact
    coprime pairs (p, q), bare or with their logs, which the kernel checks
    to lie in (0, 1)) at the working precision, evaluate the closed form
    ``rhs_fn()`` and the residual in an interval context at it, and report
    with ``tail``, the series' certified bound on the terms after the kept
    ones.  ``IdentityReport.build`` fails a residual whose radius misses
    the tolerance.

    The kernel's integer bounds on each L are added exactly, at the finest
    scale 2^-scale met so far, so a term far below the working precision
    keeps its size; the lhs is rounded outward to the working precision
    once, at the end.  A ``trace`` keeps the running sums of every row,
    from which ``_trace_rows`` reads each row's tail."""
    prec = budget.working_bits
    rows: list = []
    n_terms = lo = hi = scale = 0
    for term in terms:
        t_lo, t_hi, t_scale = _rogers_eval(term, prec)
        if t_scale > scale:
            lo, hi, scale = lo << (t_scale - scale), hi << (t_scale - scale), t_scale
        lo += t_lo << (scale - t_scale)
        hi += t_hi << (scale - t_scale)
        n_terms += 1
        if trace is not None:
            rows.append((term, lo, hi, scale))
    lhs = ErrorBoundedValue(lo, hi, scale).rounded(prec)
    with interval_precision(prec):
        rhs_iv = rhs_fn()
        res_iv = lhs.interval() - rhs_iv
        rhs = ErrorBoundedValue.from_interval(rhs_iv)
        residual = ErrorBoundedValue.from_interval(res_iv)
    if trace is not None:
        trace.extend(_trace_rows(rows, hi, scale, tail, prec))
    return IdentityReport.build(identity_id, parameters, budget.target_digits, n_terms, lhs, rhs, tail, residual)


def _trace_rows(rows, sum_hi: int, scale: int, tail, prec: int) -> list:
    """One row per kept term n: the term, the partial sum of the first n + 1
    (its integer bounds, which the CSV rounds to ``prec`` bits when it
    writes the row) and the tail after them, the
    kept terms' upper bounds after row n,
    (sum_hi - hi_n) 2^-scale at the sum's final scale, plus the series'
    ``tail``, added exactly and rounded up once to _TAIL_BITS bits, so the
    last row's tail is ``tail``, a _TAIL_BITS-bit bound, itself."""
    out = []
    for n, (term, lo, hi, row_scale) in enumerate(rows):
        suffix = from_man_exp(sum_hi - (hi << (scale - row_scale)), -scale)
        running = mp.make_mpf(mpf_add(suffix, tail._mpf_, _TAIL_BITS, round_ceiling))
        term = term.midpoint if isinstance(term, ErrorBoundedValue) else Fraction(term[0], term[1])
        partial = ErrorBoundedValue(lo, hi, row_scale)
        out.append({"n": n, "term": term, "lhs_partial": partial, "prec": prec, "tail_bound": running})
    return out


def _choose_truncation(
    enclosed: LambertForm, cap: Fraction, budget: PrecisionBudget, max_terms: int, tail_after: Callable[[int], object]
) -> int:
    """N, the first n in [1, max_terms] that ``_tail_small_enough`` accepts,
    else max_terms, for f = ``tail_after``, the certified tail after the
    first n terms of the ``enclosed`` form's series.

    f(N) certifies the tail whatever N; that N is the first rests on f
    decreasing.  ``_term_upper``'s bound grows with its upper bound on
    rho^n, which falls by a factor cap <= 1 - 2^-96 or less per index, far
    beyond its rounding at _CUT_OFF_BITS, so the bounds decrease with n,
    and tail_bound, which grows with its argument up to its own rounding,
    with them.  The search tries the estimate N'
    (``_truncation_estimate``), clamped to [1, max_terms], and N' - 1, and
    bisects over [0, max_terms + 1] when they miss the crossing, never
    trying an index twice.  A term too small for an exact rational
    (PrecisionError) counts as accepted: the search stops at or before it,
    and reading its tail raises, as reading the terms in order would."""
    if max_terms < 1:
        raise UsageError("max_terms must be positive")
    tol_half = budget.tolerance / 2
    lo, hi = 0, max_terms + 1

    def probe(n):
        nonlocal lo, hi
        try:
            fits = _tail_small_enough(n, tail_after, tol_half)
        except PrecisionError:
            fits = True
        lo, hi = (lo, n) if fits else (n, hi)

    estimate = _truncation_estimate(enclosed, cap, tol_half)
    guess = int(min(estimate, max_terms)) if estimate >= 1 else 1
    for n in (guess, guess - 1):
        if lo < n < hi:
            probe(n)
    while hi - lo > 1:
        probe((lo + hi) // 2)
    return min(hi, max_terms)


def _lambert_report(identity_id, parameters, form, cap, budget, max_terms, trace, exact, closed_form) -> IdentityReport:
    """The one verifier of a geometric series: a Lambert form whose term
    ratio is at most ``cap``, checked against ``exact``, an exact generator
    of the summands and the count of them that proves the form, or None
    for transcendental terms; summed against the closed form, the sum of
    sign L(x) over the pairs (sign, x) of ``closed_form``, each x a Fraction,
    a Q(sqrt(D)) value or an mpmath interval.  The series' one tail function,
    cached, reads the n-th term's own formula (``_term_upper``) from the form
    enclosed once at _CUT_OFF_BITS bits.  The truncation and the final tail
    come first, so a tail out of reach stops before the form check; then
    the first N terms are generated once, at ``_lambert_scale``'s scale
    2^-w for N terms, from the form enclosed at w + 24 bits."""
    enclosed = _enclosed_form(form)

    @cache
    def tail_after(n):
        return tail_bound(_term_upper(enclosed, n), cap)

    n_terms = _choose_truncation(enclosed, cap, budget, max_terms, tail_after)
    # an uncertifiable final tail raises here, before the form check
    tail = tail_after(n_terms)
    if exact is not None:
        _check_form(form, *exact)

    def argument(x):
        # the kernel's argument: x's exact pair, or its enclosure at the working precision
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if isinstance(x, QuadraticElement):
            return quad_to_real(x, budget.working_bits)
        return ErrorBoundedValue.from_interval(x)

    def rhs_fn():
        return sum(sign * _rogers_interval(argument(x), budget.working_bits) for sign, x in closed_form)

    w = _lambert_scale(form, cap, budget, n_terms)
    # the precision of quad_to_real(v, w + 8): within 2^(-w-4) of each of
    # K, rho and s, as they lie below 1
    terms = islice(_lambert_terms(_enclosed_form(form, w + 24), w), n_terms)
    return _evaluate_series_report(identity_id, parameters, budget, terms, tail, rhs_fn, trace)


# ---------------------------------------------------------------------------
# Theorem (two-parameter series) and its corollary
# ---------------------------------------------------------------------------


def theorem_main_verify(
    inst: TwoParamInstance,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify sum L(x_n y_n) = L(a) + L(b) - L(|a-b|/(1-min(a,b)))."""
    a, b = inst.a, inst.b
    form = _two_param_form(inst)
    closed_form = ((1, a), (1, b), (-1, abs(a - b) / (1 - min(a, b))))
    parameters = {"a": _rational_str(a), "b": _rational_str(b)}
    return _lambert_report("theorem-main", parameters, form, _certified_cap(form.rho), budget, max_terms, trace,
                           (_theorem_terms(inst), 5), closed_form)


def corollary_remark_term(t: Fraction, m: int) -> Fraction:
    """Simplified summand 4 t^2 (1-t^2)^m / ((1+t)^(m+1) - (1-t)^(m+1))^2."""
    return 4 * t * t * (1 - t * t) ** m / ((1 + t) ** (m + 1) - (1 - t) ** (m + 1)) ** 2


def corollary_verify(
    t: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify the one-parameter specialization summing to L((1-t)/(1+t)).

    The instance is the two-parameter series at (a, b) = ((1+t)/2, (1-t)/2),
    re-indexed from 1, whose Lambert form is ``_lucas_form`` at
    rho = (1-t)/(1+t); it is checked exactly against the simplified closed
    form ``corollary_remark_term``.
    """
    t = Fraction(t)
    if not (0 < t < 1):
        raise DomainError("parameter must lie in (0, 1)")
    form = _lucas_form((1 - t) / (1 + t))
    exact = (corollary_remark_term(t, n + 1) for n in count()), 5
    return _lambert_report("corollary", {"t": _rational_str(t)}, form, _certified_cap(form.rho), budget, max_terms,
                           trace, exact, ((1, form.rho),))


# ---------------------------------------------------------------------------
# Lucas-sequence series
# ---------------------------------------------------------------------------


def _ratio_cap_sup(params: LucasParams, k: int) -> Fraction:
    """Certified upper bound on (|Q| / alpha^2)^k."""
    with interval_precision(_TAIL_BITS):
        alpha = (quad_interval(params.p) + iv.sqrt(quad_interval(params.d))) / 2
        q = abs(quad_interval(params.q))
        return _certified_cap((q / alpha ** 2) ** k)


def _coeff_str(value: Coefficient) -> str:
    rv = value.rational_value() if isinstance(value, QuadraticElement) else value
    return str(value) if rv is None else _rational_str(rv)


def _lucas_ring(params: LucasParams, k: int) -> tuple:
    """(V_k, Q, quotient) for the stream of the Lucas summands, from one
    ``lucas_uv``.

    Each summand Q^(kn) / W_(n+1)^2 has degree 0, where Q has degree 2 and
    W_m = U_km / U_k, a polynomial in V_k and Q^k, degree (m - 1) k, as U_m
    has degree m - 1 and V_m degree m.  So for rational parameters it is
    the same at (lam P, lam^2 Q), whose V_k = lam^k V_k(P, Q) is an
    integer, as in ``lucas_uv``: the stream runs over Z, and each summand
    is one Fraction.  Otherwise, as at the Q < 0
    series' reduced parameters (sqrt(D), -Q), it runs over Q(sqrt(D)), and
    each summand is one quotient there."""
    v_k = lucas_uv(params, k).v
    if not params.is_rational:
        return v_k, params.q, operator.truediv
    lam, _, q = _integer_parameters(params)
    # the reduced denominator of V_k divides lam^k
    return v_k.numerator * (lam ** k // v_k.denominator), q, Fraction


def _lucas_pos_terms(params: LucasParams, k: int) -> Iterator:
    """U_k^2 Q^(kn) / U_{k(n+1)}^2 for n >= 1, exactly, as Q^(kn) / W_(n+1)^2
    with W_m = U_km / U_k = U_m(V_k, Q^k), the Lucas sequence at (V_k, Q^k).
    W runs from W_0 = 0 and W_1 = 1, one step per term, by its recurrence
    W_(m+1) = V_k W_m - Q^k W_(m-1), the stride-k recurrence
    U_(m+k) = V_k U_m - Q^k U_(m-k) of U over U_k (Ribenboim, "My Numbers,
    My Friends", ch. 1), so U_k, whose scale cancels, is never formed."""
    v_k, q, quotient = _lucas_ring(params, k)
    qk = q ** k
    qpow = qk
    w_lo, w_hi = 0, 1
    while True:
        w_lo, w_hi = w_hi, v_k * w_hi - qk * w_lo
        # Q^(kn) / W_(n+1)^2: one reduction of the unsquared quotient
        yield quotient(1, w_hi) ** 2 * qpow
        qpow = qpow * qk


def _lucas_rhs_arg(params: LucasParams, k: int):
    """Exact |Q|^k / alpha^(2k), the closed form's argument and the series' rho."""
    alpha = params.alpha_exact()
    if alpha is None:
        raise PreconditionError("exact closed form requires sqrt(D) in the ring")
    arg = abs(params.q) ** k / quad_pow(alpha, 2 * k)
    if not (arg.sign() > 0 and (arg - 1).sign() < 0):
        raise AssertionError("closed-form argument outside (0, 1)")
    return arg


def _lucas_verify(params, k, budget, max_terms, trace) -> IdentityReport:
    """By the sign of Q, the Q > 0 series, or the odd-k parity sub-series
    interleaved (A_1, B_1, A_2, ...): that is the Q > 0 series at
    (P', Q') = (sqrt(D), -Q) (``transform_params``), whose roots are alpha
    and -beta, so it has the same Lambert form and ratio cap
    (|Q|/alpha^2)^k, and its U-ratio stream is the exact generator that the
    form is checked against at five indices."""
    positive = _coeff_sign(params.q) > 0
    # the interval cap first: it refuses a k too large for the exact power
    cap = _ratio_cap_sup(params, k)
    # the tail after the first term, t_1 = rho^2 (1-rho)^2 / (1-rho^3)^2 <= cap^2, has no exact
    # rational below 2^-(2^20 + 1): refused before K is built, but after the precondition's error
    if cap.numerator ** 2 << (_MAX_EXPONENT + 1) < cap.denominator ** 2 and params.alpha_exact() is not None:
        raise PrecisionError(_TOO_FAR)
    form = _lucas_form(_lucas_rhs_arg(params, k))
    # after the closed form's argument, whose precondition is the reduction's: sqrt(D) in the ring
    exact = _lucas_pos_terms(params if positive else transform_params(params), k), 5
    parameters = {"P": _coeff_str(params.p), "Q": _coeff_str(params.q), "k": str(k)}
    return _lambert_report("lucas-pos" if positive else "lucas-neg", parameters, form, cap, budget, max_terms, trace,
                           exact, ((1, form.rho),))


def lucas_pos_verify(
    params: LucasParams,
    k: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify sum_{n>=1} L(U_k^2 Q^(kn) / U_{k(n+1)}^2) = L(Q^k / alpha^(2k))."""
    if not isinstance(k, int) or k < 1:
        raise PreconditionError("k must be a positive integer")
    if _coeff_sign(params.q) <= 0:
        raise PreconditionError("this branch requires Q > 0")
    return _lucas_verify(params, k, budget, max_terms, trace)


def lucas_neg_verify(
    params: LucasParams,
    k: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify the two-series identity for Q < 0 and odd k:

    sum L(-V_k^2 Q^(k(2n-1)) / (D U_{2kn}^2)) + sum L(V_k^2 Q^(2kn) / V_{k(2n+1)}^2)
        = L(-Q^k / alpha^(2k)).
    """
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise PreconditionError("k must be a positive odd integer")
    if _coeff_sign(params.q) >= 0:
        raise PreconditionError("this branch requires Q < 0")
    return _lucas_verify(params, k, budget, max_terms, trace)


# ---------------------------------------------------------------------------
# the (P', Q') reduction
# ---------------------------------------------------------------------------


def neg_from_pos_split_check(params: LucasParams, k: int, n_terms: int) -> bool:
    """Exact check that the Q > 0 series at (P', Q') = (sqrt(D), -Q) reproduces,
    term by term, the Q < 0 series (odd k, split by parity) or the plain
    U-ratio series (even k)."""
    if not params.is_rational:
        raise PreconditionError("split check requires rational parameters")
    if _coeff_sign(params.q) >= 0:
        raise PreconditionError("split check requires Q < 0")
    if not isinstance(k, int) or k < 1:
        raise PreconditionError("k must be a positive integer")
    pos_terms = _lucas_pos_terms(transform_params(params), k)
    first, d, q = lucas_uv(params, k), params.d, params.q
    for n in range(1, n_terms + 1):
        following = lucas_uv(params, k * (n + 1))
        if k % 2 == 0:
            expected = first.u ** 2 * q ** (k * n) / following.u ** 2
        elif n % 2 == 1:
            expected = -first.v ** 2 * q ** (k * n) / (d * following.u ** 2)
        else:
            expected = first.v ** 2 * q ** (k * n) / following.v ** 2
        if next(pos_terms) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Pell solutions and the Bridgeman correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PellLucasCorrespondence:
    """Dictionary between powers u^k = a_k + b_k sqrt(n) and Lucas values."""

    solution: PellSolution
    params: LucasParams

    def a_k(self, k: int) -> Fraction:
        return lucas_uv(self.params, k).v / 2

    def b_k(self, k: int) -> Fraction:
        return self.solution.b * lucas_uv(self.params, k).u

    def roundtrip_ok(self, k: int) -> bool:
        power = quad_pow(self.solution.unit(), k)
        return power.rat_part == self.a_k(k) and power.rad_part == self.b_k(k)


def pell_to_lucas(sol: PellSolution) -> PellLucasCorrespondence:
    """Map u = a + b*sqrt(n) to parameters (2a, a^2 - n b^2) with scale data."""
    params = LucasParams(2 * sol.a, Fraction(sol.sign))
    return PellLucasCorrespondence(sol, params)


def bridgeman_divisibility_check(sol: PellSolution, k_max: int = 50) -> bool:
    """Integrality of b_k/b (positive case) and b_2k/a, a_{2k+1}/a (negative)."""
    if not sol.is_integral():
        raise PreconditionError("divisibility claims require an integral solution")
    corr = pell_to_lucas(sol)
    if sol.sign > 0:
        return all((corr.b_k(k) / sol.b).denominator == 1 for k in range(1, k_max + 1))
    for k in range(1, k_max + 1):
        if (corr.b_k(2 * k) / sol.a).denominator != 1:
            return False
        if (corr.a_k(2 * k + 1) / sol.a).denominator != 1:
            return False
    return True


def bridgeman_verify(
    sol: PellSolution,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify the rewritten orthospectrum-style series for L(1/u^2).

    Positive solutions: L(1/u^2) = sum_{k>=2} L(1/U_k(2a,1)^2);
    negative solutions: the two-series form with V_1(2a,-1) = 2a and
    D = 4 b^2 n.  In both cases the series is the k = 1 Lucas series under
    pell_to_lucas, whose rho is checked to be 1/u^2 exactly; its Lambert
    form is checked exactly against the original b^2/b_k^2 (resp.
    a^2/(n b_{2k}^2), a^2/a_{2k+1}^2) forms, computed independently from
    powers of u, and the Lucas terms are not generated.
    """
    params = pell_to_lucas(sol).params
    a, b, n = sol.a, sol.b, sol.n
    u = sol.unit()
    cap = _ratio_cap_sup(params, 1)
    rho = _lucas_rhs_arg(params, 1)
    if rho != QuadraticElement.from_rational(1, Fraction(n)) / quad_pow(u, 2):
        raise AssertionError("1/u^2 does not match the Lucas closed-form argument")
    # Bridgeman's own terms, from exact powers of u, are functions of
    # rho^n = u^(-2n) of the kind that _check_form compares, one per parity
    # of n for a negative solution: five indices (pairs) prove every term
    if sol.sign > 0:
        exact = (b * b / quad_pow(u, m + 1).rad_part ** 2 for m in count(1)), 5
    else:
        pairs = ((a * a / (n * quad_pow(u, 2 * m).rad_part ** 2), a * a / quad_pow(u, 2 * m + 1).rat_part ** 2)
                 for m in count(1))
        exact = chain.from_iterable(pairs), 10
    form = _lucas_form(rho)
    parameters = {
        "a": _rational_str(a),
        "b": _rational_str(b),
        "n": str(n),
        "sign": "+1" if sol.sign > 0 else "-1",
    }
    return _lambert_report("bridgeman", parameters, form, cap, budget, max_terms, trace, exact, ((1, form.rho),))


# ---------------------------------------------------------------------------
# worked examples with their own series
# ---------------------------------------------------------------------------


def _richmond_tail(last: int):
    """Integral-style bound (pi^2/6 + 2 log m + 2)/m on the sum of L(1/n^2)
    over n > m = ``last``."""
    with interval_precision(_TAIL_BITS):
        m = iv.mpf(last)
        return mp.make_mpf(((_pi_squared_over(6) + 2 * iv.log(m) + 2) / m)._mpi_[1])


def _richmond_terms(max_terms: int, prec: int) -> Iterator[tuple]:
    """The exact pairs (1, m^2), 2 <= m <= max_terms + 1, with bounds (lo, hi, b)
    on log m^2 from one stream: log 4 = 4 atanh(1/3), then 4 atanh(1/(2m+1))
    per step, each ``_atanh_raw`` at 2^-(b+2), at most 2J + 1 <= b units as its
    J nonzero powers need 3^(2J-1) <= 2^(b+2); b = ``_carried_log_bits`` for
    the kernel's working precision ``prec``."""
    b = _carried_log_bits(max_terms, prec)
    lo, hi = _atanh_raw(1, 3, b + 2)
    for m in range(2, max_terms + 2):
        yield 1, m * m, (lo, hi, b)
        step_lo, step_hi = _atanh_raw(1, 2 * m + 1, b + 2)
        lo, hi = lo + step_lo, hi + step_hi


def _richmond_szekeres(budget: PrecisionBudget, max_terms: int, trace: Optional[list] = None) -> IdentityReport:
    """Partial sum of L(1/n^2) over 2 <= n <= N = max_terms + 1 plus the
    tail bound after N, bracketing pi^2/6."""

    def rhs_fn():
        return _pi_squared_over(6)

    # a generator, so that tens of thousands of terms are never held
    terms = _richmond_terms(max_terms, budget.working_bits)
    parameters = {"terms": str(max_terms)}
    tail = _richmond_tail(max_terms + 1)  # after n = N = max_terms + 1
    return _evaluate_series_report("richmond-szekeres", parameters, budget, terms, tail, rhs_fn, trace)


def _sinh_theta(
    theta: Fraction, budget: PrecisionBudget, max_terms: int, trace: Optional[list] = None
) -> IdentityReport:
    """Numeric-parameter instance P = 2cosh(theta), Q = 1, k = 1:
    sum_{n>=2} L(sinh^2(theta)/sinh^2(n theta)) = L(e^(-2 theta))."""
    if theta <= 0:
        raise DomainError("theta must be positive")

    def form_at(bits):
        with interval_precision(bits):
            decay = 1 / iv.exp(iv_from_fraction(theta))
            return _lucas_form(decay * decay)  # rho = 1/alpha^2

    # the cap and the size of K at the tails' precision, as for a Lucas
    # series; then K and rho, below 1 and a few ulps wide at w + 8 bits,
    # within 1/8 unit of the terms' scale 2^-w, w as the coarse K and
    # max_terms give it (the N <= max_terms terms summed take no more), and
    # _CUT_OFF_BITS more, so that ``_term_upper`` reads them as exact
    coarse = form_at(_TAIL_BITS)
    cap = _certified_cap(coarse.rho)
    form = form_at(_lambert_scale(coarse, cap, budget, max_terms) + _CUT_OFF_BITS + 8)
    parameters = {"theta": _rational_str(theta)}
    return _lambert_report("sinh-theta", parameters, form, cap, budget, max_terms, trace, None, ((1, form.rho),))


def _sqrt5(k: int, odd: bool, budget, max_terms, trace=None) -> IdentityReport:
    if k < 1 or (k % 2 == 1) != odd:
        raise UsageError(f"this catalog entry requires a positive {'odd' if odd else 'even'} k")
    return lucas_pos_verify(LucasParams(QuadraticElement.sqrt_of(5), 1), k, budget, max_terms, trace)


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------


_DIGITS = r"\d+(?:_\d+)*"  # digit groups as Decimal and Fraction read them
_RATIONAL_TEXT = re.compile(
    rf"[+-]?(?:{_DIGITS}/{_DIGITS}|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?)"
)
# Fraction(Decimal) builds 10^|exponent|, so the exponent is bounded.  A
# report prints a radius of 2^-(2^20+1) or more, half the finest unit that
# mpf_to_fraction accepts, to three digits, at 10^e with e >= -315656
# (``enclosure.outward_decimal``); beyond e = -315657 the power has more
# than 2^20 + 10 bits
_MAX_DECIMAL_EXPONENT = (_MAX_EXPONENT + 1) * 30103 // 100000 + 4


def parse_decimal(value) -> Fraction:
    """Exact rational value of a decimal or p/q string, or of a number.  The
    digits go through Decimal, which reads any length, where int and
    Fraction stop at sys.get_int_max_str_digits(); a decimal exponent beyond
    +-_MAX_DECIMAL_EXPONENT raises ValueError."""
    text = value.strip() if isinstance(value, str) else ""
    if not _RATIONAL_TEXT.fullmatch(text):
        return Fraction(value)
    number, _, denominator = text.partition("/")
    try:
        numerator = Decimal(number)
    except InvalidOperation:  # an exponent beyond even Decimal's range
        numerator = None
    if numerator is None or abs(numerator.as_tuple().exponent) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond +-{_MAX_DECIMAL_EXPONENT}")
    return Fraction(numerator) / Fraction(Decimal(denominator or 1))


def _rational_str(value) -> str:
    """str(Fraction(value)), with its integers written by Decimal, which has no length limit."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _integer(value) -> int:
    """Exact integer from an int or a string with an integral value."""
    number = parse_decimal(value)
    if number.denominator != 1:
        raise ValueError("must be an integer")
    return number.numerator


def _pi2_over(divisor: int, budget: PrecisionBudget) -> ErrorBoundedValue:
    with interval_precision(budget.working_bits):
        return ErrorBoundedValue.from_interval(iv.pi ** 2 / divisor)


def _cited_rogers(element: QuadraticElement):
    return lambda budget: rogers_l(quad_to_real(element, budget.working_bits), budget)


_PHI_INV4 = QuadraticElement.from_rational(1, Fraction(5)) / quad_pow(
    QuadraticElement(Fraction(1, 2), Fraction(1, 2), Fraction(5)), 4
)


def _verifier(verify, instance):
    """Table verifier calling ``verify(*instance(**values), budget, max_terms, trace)``."""
    return lambda budget, max_terms, trace, **values: verify(*instance(**values), budget, max_terms, trace)


@dataclass(frozen=True)
class IdentitySpec:
    """One identity: parameter schema, verifier, summary and registry instances.

    ``params`` maps each key to (parser, default), a default of None marking
    a required key; ``verify(budget, max_terms, trace, **values)`` receives
    every key, parsed.  Each of ``examples`` is a registry instance
    (name, parameter strings, expected, cited value), where
    ``expected(budget)`` encloses the cited value, or is None.
    """

    name: str
    params: dict
    verify: Callable[..., IdentityReport]
    description: str
    examples: tuple = ()

    def run(self, budget: PrecisionBudget, max_terms: int, trace: Optional[list], given: dict) -> IdentityReport:
        unknown = set(given) - set(self.params)
        if unknown:
            raise UsageError(f"unknown parameter keys for {self.name}: {sorted(unknown)}")
        values = {}
        for key, (parse, default) in self.params.items():
            if key in given:
                try:
                    values[key] = parse(given[key])
                except (ValueError, ZeroDivisionError) as exc:
                    raise UsageError(f"parameter {key}: {exc}") from exc
            elif default is None:
                raise UsageError(f"identity {self.name} requires parameter {key!r}")
            else:
                values[key] = default
        return replace(self.verify(budget, max_terms, trace, **values), identity_id=self.name)


_RATIONAL = (parse_decimal, None)
_K = {"k": (_integer, 1)}
_X_K = {"x": (parse_decimal, Fraction(2)), "k": (_integer, 1)}
_P_Q_K = {"P": _RATIONAL, "Q": _RATIONAL, "k": (_integer, 1)}
_PELL = {"pell_a": _RATIONAL, "pell_b": _RATIONAL, "pell_n": (_integer, None)}

# one row per identity: name, parameters, verifier / description / registry
# instances, in the order of `dilogid suite` and `dilogid verify --help`
IDENTITIES = {
    spec.name: spec
    for spec in (
        IdentitySpec("theorem-main", {"a": _RATIONAL, "b": _RATIONAL},
                     _verifier(theorem_main_verify, lambda a, b: (TwoParamInstance(a, b),)),
                     "two-parameter series: sum of L(x_n y_n) = L(a) + L(b) - L(|a-b|/(1-min(a,b)))",
                     (("theorem-main(2/3,1/3)", {"a": "2/3", "b": "1/3"}, partial(_pi2_over, 12), "pi^2/12"),)),
        IdentitySpec("corollary", {"t": _RATIONAL}, _verifier(corollary_verify, lambda t: (t,)),
                     "one-parameter specialization summing to L((1-t)/(1+t))",
                     (("corollary(1/3)", {"t": "1/3"}, partial(_pi2_over, 12), "pi^2/12"),)),
        IdentitySpec("lucas-pos", _P_Q_K, _verifier(lucas_pos_verify, lambda P, Q, k: (LucasParams(P, Q), k)),
                     "Lucas series for Q > 0 summing to L(Q^k/alpha^(2k))"),
        IdentitySpec("lucas-neg", _P_Q_K, _verifier(lucas_neg_verify, lambda P, Q, k: (LucasParams(P, Q), k)),
                     "Lucas two-series identity for Q < 0 and odd k, summing to L(-Q^k/alpha^(2k))"),
        IdentitySpec("fib-even", _K, _verifier(lucas_pos_verify, lambda k: (LucasParams(3, 1), k)),
                     "even-indexed Fibonacci series summing to L(1/phi^(4k))",
                     (("fib-even", {"k": "1"}, _cited_rogers(_PHI_INV4), "L(1/phi^4) = L(2/(7+3*sqrt(5)))"),)),
        IdentitySpec("chebyshev-x", _X_K, _verifier(lucas_pos_verify, lambda x, k: (LucasParams(2 * x, 1), k)),
                     "Chebyshev-denominator series for rational x > 1",
                     (("chebyshev-x(2)", {"x": "2", "k": "1"}, _cited_rogers(QuadraticElement(7, -4, 3)),
                       "L(7-4*sqrt(3))"),)),
        IdentitySpec("repunit-x", _X_K, _verifier(lucas_pos_verify, lambda x, k: (LucasParams(x + 1, x), k)),
                     "base-x repunit series summing to L(1/x^k)",
                     (("repunit-x(2)", {"x": "2", "k": "1"}, partial(_pi2_over, 12), "L(1/2) = pi^2/12"),)),
        IdentitySpec("fib-lucas-neg", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(1, -1), k)),
                     "Fibonacci/Lucas two-series identity summing to L(1/phi^(2k))",
                     (("fib-lucas-neg", {"k": "1"}, partial(_pi2_over, 15), "pi^2/15"),)),
        IdentitySpec("pell", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(2, -1), k)),
                     "Pell/Pell-Lucas two-series identity",
                     (("pell", {"k": "1"}, _cited_rogers(QuadraticElement(3, -2, 2)), "L(1/(3+2*sqrt(2)))"),)),
        IdentitySpec("q-minus-3", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(1, -3), k)),
                     "(P,Q) = (1,-3) two-series identity",
                     (("q-minus-3", {"k": "1"}, _cited_rogers(QuadraticElement(Fraction(7, 6), Fraction(-1, 6), 13)),
                       "L(6/(7+sqrt(13)))"),)),
        IdentitySpec("sqrt5-k-odd", _K, _verifier(_sqrt5, lambda k: (k, True)),
                     "(P,Q) = (sqrt(5),1) series, odd k, recovering the Q<0 Fibonacci case",
                     (("sqrt5-k-odd", {"k": "1"}, partial(_pi2_over, 15), "L(1/phi^2) = pi^2/15"),)),
        IdentitySpec("sqrt5-k-even", {"k": (_integer, 2)}, _verifier(_sqrt5, lambda k: (k, False)),
                     "(P,Q) = (sqrt(5),1) series, even k, recovering the Fibonacci case",
                     (("sqrt5-k-even", {"k": "2"}, _cited_rogers(_PHI_INV4), "L(1/phi^4)"),)),
        IdentitySpec("sinh-theta", {"theta": (parse_decimal, Fraction(1))},
                     _verifier(_sinh_theta, lambda theta: (theta,)),
                     "sum of L(sinh^2(theta)/sinh^2(n theta)) = L(e^(-2 theta))",
                     (("sinh-theta(1)", {"theta": "1"}, None, "L(e^-2)"),)),
        IdentitySpec("richmond-szekeres", {}, _richmond_szekeres,
                     "sum of L(1/n^2) from n=2 brackets pi^2/6",
                     (("richmond-szekeres", {}, partial(_pi2_over, 6), "pi^2/6"),)),
        IdentitySpec("bridgeman", _PELL,
                     _verifier(bridgeman_verify,
                               lambda pell_a, pell_b, pell_n: (PellSolution(pell_a, pell_b, pell_n),)),
                     "Bridgeman's series for L(1/u^2), u = a + b sqrt(n) a Pell solution, in Lucas form",
                     (("bridgeman(3,2,2)", {"pell_a": "3", "pell_b": "2", "pell_n": "2"},
                       _cited_rogers(QuadraticElement(17, -12, 2)), "L(1/u^2) = L(17-12*sqrt(2))"),
                      ("bridgeman(1,1,2)", {"pell_a": "1", "pell_b": "1", "pell_n": "2"},
                       _cited_rogers(QuadraticElement(3, -2, 2)), "L(1/u^2) = L(3-2*sqrt(2))"))),
    )
}


def identity_spec(name: str) -> IdentitySpec:
    if name not in IDENTITIES:
        raise UsageError(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}")
    return IDENTITIES[name]


def catalog_verify(
    name: str,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
    **params,
) -> IdentityReport:
    """Verify a named identity of the table; parameters are parsed by its
    schema (strings or exact values) and missing ones take their defaults."""
    return identity_spec(name).run(budget, max_terms, trace, params)
