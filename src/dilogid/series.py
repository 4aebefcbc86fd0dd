"""Evaluators and verifiers for the dilogarithm series identities.

Each verifier truncates its series where the certified bound on the
omitted tail drops below half the tolerance (or at the term cap), sums L
over the kept terms and evaluates the closed form as enclosures in one
pass at the working precision (``_evaluate_series_report``), and returns
an IdentityReport: pass iff |residual.midpoint| <= residual.radius +
tail_bound + 10^-digits, and fail when the residual radius misses
10^-digits.  ``IDENTITIES`` at the end is the one table of identities.

Every series but Richmond-Szekeres has summands of one Lambert form,
t_n = K rho^n / (1 - s rho^(n+1))^2 for n >= 0 (``LambertForm``):

  * two-parameter series, with b < a (the summand is symmetric):
    rho = (1-a)/(1-b), K = b (a-b)^2 / (a (1-b)^2), s = b/a;
  * the corollary at t = p/q, the same at ((1+t)/2, (1-t)/2):
    rho = s = (q-p)/(q+p), K = 4 p^2 rho / (q+p)^2;
  * Lucas series with Q > 0, from their index 1, by Binet's formula:
    rho = (beta/alpha)^k = (Q/alpha^2)^k, K = rho (1-rho)^2, s = rho, and
    with Q < 0, odd k: the parity sub-series interleaved as A_1, B_1, A_2,
    ... are the Q > 0 series at (sqrt(D), -Q), with roots alpha and -beta,
    so rho = (|Q|/alpha^2)^k (Bridgeman's series are Lucas series);
  * sinh-theta, the Q > 0 form at (2 cosh(theta), 1, 1): rho = e^(-2 theta).

A Lucas rho is the closed form's argument.  Each exact description is
checked against an exact generator once per instance (``_check_form``).
The tails use L(x) <= x (pi^2/6 + log(1/x)) on (0, 1/2] over the
geometric sequence t_N rho^j, as for s >= 0

    t_(n+1) / t_n = rho ((1 - s rho^(n+1)) / (1 - s rho^(n+2)))^2 <= rho;

the ratio cap is rho or a certified upper bound on it (``_certified_cap``).

The terms are integer enclosures at a scale 2^-w, generated once
(``_lambert_terms``): rho^n steps as a scaled integer with floors at the
lower end of rho's enclosure and ceilings at the upper end, and a term's
bounds are integer floor and ceiling divisions, so they hold by induction
with no error term.  Their width, under 2^5 (1/(1-rho))^2 units whatever
n, sets w (``_lambert_scale``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain, count, islice
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from mpmath import iv, mp

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    ScaledInterval,
    interval_precision,
    iv_from_fraction,
    mpf_to_fraction,
)
from .exactnum import QuadraticElement, exact_sqrt, quad_interval, quad_pow, quad_to_real
from .lucas import Coefficient, LucasParams, PreconditionError, _coeff_sign, lucas_uv
from .rogers import _pi_squared_over, _raw, _rogers_eval, _rogers_interval, _shift, rogers_l

DEFAULT_MAX_TERMS = 10000
# precision of tail bounds and ratio caps; it must differ from every
# summation pass, because the benchmark tracer counts passes by it
_TAIL_BITS = 96


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
        tolerance = Fraction(1, 10 ** digits)
        ok = abs(residual.midpoint) <= residual.radius + mpf_to_fraction(tail_bound) + tolerance
        verdict = "pass" if ok and residual.radius <= tolerance else "fail"
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


def _log10_upper(value: Fraction) -> float:
    # An upper bound on log10 of a positive rational: num < 2^bits(num) and
    # den >= 2^(bits(den)-1).  On the dyadic upper bound of a term it lies
    # within a bit of the term, so the pre-filter of _tail_small_enough
    # refuses only terms t > 10^-(digits+1) / 2, where tail_bound is at
    # least t (pi^2/6 + log(1/t)) > 10^-digits / 2 for digits >= 3 and
    # refuses them too: the truncation index is tail_bound's alone.
    return (value.numerator.bit_length() - value.denominator.bit_length() + 1) * 0.30103


def _tail_small_enough(t: Fraction, cap, tolerance_half: Fraction, digits: int) -> bool:
    if 2 * t.numerator > t.denominator:
        return False
    if t.numerator > 0 and _log10_upper(t) > -(digits + 1):
        return False
    try:
        bound = tail_bound(t, cap)
    except DomainError:
        return False
    return mpf_to_fraction(bound) <= tolerance_half


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
    (1-rho)^2 rho X / (1 - rho^2 X)^2 for the Lucas terms.  Their difference
    has a numerator of degree at most 4 in X, which vanishes identically
    if it vanishes at the five distinct X = 1, rho, ..., rho^4.  The Q < 0
    Lucas generator interleaves two such functions, one per parity of n,
    so it is checked at five pairs (count = 10).
    """
    for n, expected in enumerate(islice(exact_terms, count)):
        if form.term(n) != expected:
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
    """Integers lo <= 2^w value <= hi for a positive rational, Q(sqrt(D)) value or interval."""
    if isinstance(value, QuadraticElement):
        # within 2^(-w-4) of the value, as it lies below 1
        value = quad_to_real(value, w + 8).interval()
    if isinstance(value, Fraction):
        num = value.numerator << w
        return num // value.denominator, -(-num // value.denominator)
    (s_lo, m_lo, e_lo, _), (s_hi, m_hi, e_hi, _) = value._mpi_
    return _shift(-m_lo if s_lo else m_lo, e_lo + w), _shift(-m_hi if s_hi else m_hi, e_hi + w, up=True)


def _lambert_terms(form: LambertForm, w: int) -> Iterator[ScaledInterval]:
    """Enclosures at scale 2^-w of t = K x / (1 - sigma x)^2, x = rho^n: x
    steps from 2^w with floors by the lower bound on rho and ceilings by the
    upper one, and t grows with K, x and sigma x < 1, so its lower bound
    takes every lower bound and floors, its upper bound the rest."""
    one = 1 << w
    (k_lo, k_hi), (r_lo, r_hi) = _scaled_bounds(form.k, w), _scaled_bounds(form.rho, w)
    # s is rho in every Lucas and sinh-theta form
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
        yield ScaledInterval((k_lo * x_lo << w) // (d_hi * d_hi), -(-(k_hi * x_hi << w) // (d_lo * d_lo)), w)
        x_lo = x_lo * r_lo >> w
        x_hi = -(-x_hi * r_hi >> w)


def _lambert_scale(form: LambertForm, cap: Fraction, budget: PrecisionBudget, max_terms: int) -> int:
    """Bits w of the scale 2^-w of ``_lambert_terms``.

    Widths in units of 2^-w, to first order.  Let c = ceil(1/(1-cap)) >=
    1/(1-rho).  The bounds on K, s and rho are at most 3 wide (exact, or
    enclosed within 1/8 unit, floored and ceiled), so those on sigma = s rho
    at most 7.  Each power stream stays within c units of 2^w rho^n at its
    end of rho's bounds and n rho^(n-1) <= c, so the bounds on x = rho^n lie
    at most 2c + 3c apart.  As sigma <= rho and K / (1-sigma)^2 = t_0 < 1,
    the partial derivatives of t = K x / (1 - sigma x)^2 on x <= 1 are at
    most 2c in x and in sigma x and c^2 in K; with a unit for rounding
    sigma x and one per division, a term's bounds lie at most
    2c 5c + 2c (7 + 1) + 3c^2 + 2 <= 31 c^2 < 2^5 c^2 apart, whatever n.
    L'(t) < w on [2^-w, 1 - 2^-w], which holds every enclosure the kernel
    accepts, so N <= max_terms terms widen the lhs by less than
    N w 2^5 c^2 2^-w, below 2^-working_bits at this w.  The first term
    t_0 >= K gets -log2(K) more bits, to stay separated from 0.  sinh-theta's
    rho is enclosed at the working precision, so its terms widen the lhs by
    a few N w c^2 2^-working_bits instead.
    """
    c = -(-cap.denominator // (cap.denominator - cap.numerator))
    w = budget.working_bits + max(0, -_log2_floor(form.k)) + max_terms.bit_length() + 2 * c.bit_length() + 5
    # 2^bits(2w) > 2w >= the final scale, which bounds L'
    return w + (2 * w).bit_length()


# ---------------------------------------------------------------------------
# shared evaluation driver
# ---------------------------------------------------------------------------


def _scaled_enclosure(lo: int, hi: int, scale: int, prec: int) -> ErrorBoundedValue:
    """[lo 2^-scale, hi 2^-scale] rounded outward to ``prec`` bits."""
    return ErrorBoundedValue(*(mp.make_mpf(end) for end in _raw(ScaledInterval(lo, hi, scale), prec)))


def _evaluate_series_report(
    identity_id: str,
    parameters: dict,
    budget: PrecisionBudget,
    terms: Iterable,
    tail,
    row_tail: Callable[[int, object], object],
    rhs_fn: Callable[[], object],
    trace: Optional[list] = None,
) -> IdentityReport:
    """Sum enclosures of L over the kept ``terms`` (scaled intervals or
    Fractions, which the kernel checks to lie in (0, 1)) in one interval
    context at the working precision, evaluate the closed form ``rhs_fn()``
    in the same context, and report.  ``tail`` bounds the omitted terms;
    ``row_tail(kept, first_omitted)`` bounds the terms after the first
    ``kept``, for the rows of a trace.
    ``IdentityReport.build`` fails a residual whose radius misses the
    tolerance.

    The kernel's integer bounds on each L are added exactly, at the finest
    scale 2^-scale met so far, so a term far below the working precision
    keeps its size; the lhs is rounded outward to the working precision
    once, at the end."""
    prec = budget.working_bits
    with interval_precision(prec):
        rows: list = []
        n_terms = lo = hi = scale = 0
        for term in terms:
            t_lo, t_hi, t_scale = _rogers_eval(term)
            if t_scale > scale:
                lo, hi, scale = lo << (t_scale - scale), hi << (t_scale - scale), t_scale
            lo += t_lo << (scale - t_scale)
            hi += t_hi << (scale - t_scale)
            n_terms += 1
            if trace is not None:
                rows.append((term, _scaled_enclosure(lo, hi, scale, prec)))
        lhs = _scaled_enclosure(lo, hi, scale, prec)
        rhs_iv = rhs_fn()
        res_iv = lhs.interval() - rhs_iv
        rhs = ErrorBoundedValue.from_interval(rhs_iv)
        residual = ErrorBoundedValue.from_interval(res_iv)
    if trace is not None:
        trace.extend(_trace_rows(rows, tail, row_tail))
    return IdentityReport.build(
        identity_id,
        parameters,
        budget.target_digits,
        n_terms,
        lhs,
        rhs,
        tail,
        residual,
    )


def _trace_rows(rows, final_tail, row_tail):
    out = []
    for n, (term, partial) in enumerate(rows):
        running = final_tail
        if n + 1 < len(rows):
            try:
                running = row_tail(n + 1, rows[n + 1][0])
            except DomainError:
                running = None
        if isinstance(term, ScaledInterval):
            term = Fraction(term.lo + term.hi, 1 << (term.scale + 1))
        out.append({"n": n, "term": term, "lhs_partial": partial, "tail_bound": running})
    return out


def _choose_truncation(term_iter: Iterable, ratio_cap, budget: PrecisionBudget, max_terms: int) -> tuple[list, object]:
    """Read scaled-interval terms until the certified tail after them fits
    in half the tolerance.  Returns (the kept terms, the tail bound)."""
    if max_terms < 1:
        raise UsageError("max_terms must be positive")
    tol_half = budget.tolerance / 2
    kept: list = []
    for term in term_iter:
        upper = term.upper()
        if len(kept) >= max_terms or (kept and _tail_small_enough(upper, ratio_cap, tol_half, budget.target_digits)):
            return kept, tail_bound(upper, ratio_cap)
        kept.append(term)
    raise AssertionError("term iterator exhausted unexpectedly")


def _lambert_report(identity_id, parameters, form, cap, budget, max_terms, trace, rhs_fn) -> IdentityReport:
    """Truncate and sum a Lambert-form series whose term ratio is at most
    ``cap``; each term is generated once."""
    terms = _lambert_terms(form, _lambert_scale(form, cap, budget, max_terms))
    kept, tail = _choose_truncation(terms, cap, budget, max_terms)
    row_tail = lambda _, first_omitted: tail_bound(first_omitted.upper(), cap)  # noqa: E731
    return _evaluate_series_report(identity_id, parameters, budget, kept, tail, row_tail, rhs_fn, trace)


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
    cap = _certified_cap(form.rho)
    _check_form(form, _theorem_terms(inst))
    third = abs(a - b) / (1 - min(a, b))

    def rhs_fn():
        return _rogers_interval(a) + _rogers_interval(b) - _rogers_interval(third)

    parameters = {"a": _rational_str(a), "b": _rational_str(b)}
    return _lambert_report("theorem-main", parameters, form, cap, budget, max_terms, trace, rhs_fn)


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
    re-indexed from 1; its Lambert form is checked exactly against the
    simplified closed form ``corollary_remark_term``.
    """
    t = Fraction(t)
    if not (0 < t < 1):
        raise DomainError("parameter must lie in (0, 1)")
    form = _two_param_form(TwoParamInstance((1 + t) / 2, (1 - t) / 2))
    cap = _certified_cap(form.rho)
    _check_form(form, (corollary_remark_term(t, n + 1) for n in count()))

    def rhs_fn():
        return _rogers_interval(form.rho)  # rho = (1-t)/(1+t)

    return _lambert_report("corollary", {"t": _rational_str(t)}, form, cap, budget, max_terms, trace, rhs_fn)


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


def _lucas_pos_terms(params: LucasParams, k: int) -> Iterator:
    """U_k^2 Q^(kn) / U_{k(n+1)}^2 for n >= 1, exactly, from (U_k, U_{k+1})
    by U_{m+1} = P U_m - Q U_{m-1}."""
    p, q = params.p, params.q
    u_lo, u_hi = lucas_uv(params, k).u, lucas_uv(params, k + 1).u
    numer = u_lo * u_lo
    qk = q ** k
    qpow = qk
    while True:
        for _ in range(k):
            u_lo, u_hi = u_hi, p * u_hi - q * u_lo
        yield numer * qpow / (u_lo * u_lo)
        qpow = qpow * qk


def _lucas_neg_terms(params: LucasParams, k: int) -> Iterator:
    """Pairs (A_n, B_n) of the two sub-series for Q < 0, odd k."""
    vk = lucas_uv(params, k).v
    vk2 = vk * vk
    d = params.d
    p, q = params.p, params.q
    q2k = params.q ** (2 * k)
    # one U stream in steps of k: U_2kn for A_n, then
    # V_k(2n+1) = 2 U_(k(2n+1)+1) - P U_k(2n+1) for B_n
    u_lo, u_hi = lucas_uv(params, 2 * k).u, lucas_uv(params, 2 * k + 1).u
    qpow_a = params.q ** k
    qpow_b = q2k
    while True:
        a_term = -vk2 * qpow_a / (d * u_lo * u_lo)
        for _ in range(k):
            u_lo, u_hi = u_hi, p * u_hi - q * u_lo
        v = 2 * u_hi - p * u_lo
        yield a_term, vk2 * qpow_b / (v * v)
        for _ in range(k):
            u_lo, u_hi = u_hi, p * u_hi - q * u_lo
        qpow_a = qpow_a * q2k
        qpow_b = qpow_b * q2k


def _lucas_rhs_arg(params: LucasParams, k: int):
    """Exact |Q|^k / alpha^(2k), the closed form's argument and the series' rho."""
    alpha = params.alpha_exact()
    if alpha is None:
        raise PreconditionError("exact closed form requires sqrt(D) in the ring")
    qk = params.q ** k if _coeff_sign(params.q) > 0 else -(params.q ** k)
    if isinstance(alpha, QuadraticElement) and not isinstance(qk, QuadraticElement):
        qk = QuadraticElement.from_rational(qk, alpha.radicand)
    arg = qk / quad_pow(alpha, 2 * k)
    if not (arg.sign() > 0 and (arg - 1).sign() < 0):
        raise AssertionError("closed-form argument outside (0, 1)")
    return arg


def _lucas_verify(params, k, budget, max_terms, trace) -> IdentityReport:
    """By the sign of Q, the Q > 0 series, or the odd-k parity sub-series
    interleaved (A_1, B_1, A_2, ...): that is the Q > 0 series at
    (sqrt(D), -Q), with the same Lambert form and ratio cap (|Q|/alpha^2)^k."""
    if _coeff_sign(params.q) > 0:
        identity_id, exact_terms, checked = "lucas-pos", _lucas_pos_terms(params, k), 5
    else:
        identity_id, exact_terms, checked = "lucas-neg", chain.from_iterable(_lucas_neg_terms(params, k)), 10
    cap = _ratio_cap_sup(params, k)
    form = _lucas_form(_lucas_rhs_arg(params, k))
    _check_form(form, exact_terms, checked)

    def rhs_fn():
        rho = form.rho
        return _rogers_interval(rho if isinstance(rho, Fraction) else quad_to_real(rho, iv.prec + 16))

    parameters = {"P": _coeff_str(params.p), "Q": _coeff_str(params.q), "k": str(k)}
    return _lambert_report(identity_id, parameters, form, cap, budget, max_terms, trace, rhs_fn)


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
    from .lucas import transform_params

    if not params.is_rational:
        raise PreconditionError("split check requires rational parameters")
    if _coeff_sign(params.q) >= 0:
        raise PreconditionError("split check requires Q < 0")
    if not isinstance(k, int) or k < 1:
        raise PreconditionError("k must be a positive integer")
    transformed = transform_params(params)
    pos_terms = _lucas_pos_terms(transformed, k)
    vk = lucas_uv(params, k).v
    uk = lucas_uv(params, k).u
    d, q = params.d, params.q
    for n in range(1, n_terms + 1):
        summand = next(pos_terms)
        u_next = lucas_uv(params, k * (n + 1)).u
        v_next = lucas_uv(params, k * (n + 1)).v
        if k % 2 == 1:
            if n % 2 == 1:
                expected = -vk * vk * q ** (k * n) / (d * u_next * u_next)
            else:
                expected = vk * vk * q ** (k * n) / (v_next * v_next)
        else:
            expected = uk * uk * q ** (k * n) / (u_next * u_next)
        if summand != expected:
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

    def power_components(self, k: int) -> tuple[Fraction, Fraction]:
        power = quad_pow(self.solution.unit(), k)
        return power.rat_part, power.rad_part

    def roundtrip_ok(self, k: int) -> bool:
        rat, rad = self.power_components(k)
        return rat == self.a_k(k) and rad == self.b_k(k)


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
    D = 4 b^2 n.  In both cases the series is exactly the k = 1 Lucas
    series under pell_to_lucas; its Lambert form is checked exactly against
    the original b^2/b_k^2 (resp. a^2/(n b_{2k}^2), a^2/a_{2k+1}^2) forms,
    computed independently from powers of u.
    """
    params = pell_to_lucas(sol).params
    a, b, n = sol.a, sol.b, sol.n
    u = sol.unit()
    # the closed-form argument 1/u^2 is the Lucas one, and Bridgeman's own
    # terms, from exact powers of u, are functions of rho^n = u^(-2n) of the
    # kind that _check_form compares, one per parity of n for a negative
    # solution: five indices (pairs) prove every term of the Lambert form
    rho = QuadraticElement.from_rational(1, Fraction(n)) / quad_pow(u, 2)
    if rho != _lucas_rhs_arg(params, 1):
        raise AssertionError("1/u^2 does not match the Lucas closed-form argument")
    if sol.sign > 0:
        original, checked = (b * b / quad_pow(u, m + 1).rad_part ** 2 for m in count(1)), 5
    else:
        pairs = ((a * a / (n * quad_pow(u, 2 * m).rad_part ** 2), a * a / quad_pow(u, 2 * m + 1).rat_part ** 2)
                 for m in count(1))
        original, checked = chain.from_iterable(pairs), 10
    _check_form(_lucas_form(rho), original, checked)

    report = _lucas_verify(params, 1, budget, max_terms, trace)
    parameters = {
        "a": _rational_str(a),
        "b": _rational_str(b),
        "n": str(n),
        "sign": "+1" if sol.sign > 0 else "-1",
    }
    return replace(report, identity_id="bridgeman", parameters=parameters)


# ---------------------------------------------------------------------------
# worked examples with their own series
# ---------------------------------------------------------------------------


def _richmond_tail(last: int):
    """Integral-style bound (pi^2/6 + 2 log m + 2)/m on the sum of L(1/n^2)
    over n > m = ``last``."""
    with interval_precision(_TAIL_BITS):
        m = iv.mpf(last)
        return mp.make_mpf(((_pi_squared_over(6) + 2 * iv.log(m) + 2) / m)._mpi_[1])


def _richmond_szekeres(budget: PrecisionBudget, max_terms: int, trace: Optional[list] = None) -> IdentityReport:
    """Partial sum of L(1/n^2) over 2 <= n <= N = max_terms + 1 plus the
    tail bound after N, bracketing pi^2/6."""
    last = max_terms + 1
    tail = _richmond_tail(last)

    def rhs_fn():
        return _pi_squared_over(6)

    def row_tail(kept, first_omitted):
        return _richmond_tail(kept + 1)  # the first ``kept`` terms end at n = kept + 1

    # a generator, so that tens of thousands of terms are never held
    terms = (Fraction(1, m * m) for m in range(2, last + 1))
    parameters = {"terms": str(max_terms)}
    return _evaluate_series_report("richmond-szekeres", parameters, budget, terms, tail, row_tail, rhs_fn, trace)


def _sinh_theta(
    theta: Fraction, budget: PrecisionBudget, max_terms: int, trace: Optional[list] = None
) -> IdentityReport:
    """Numeric-parameter instance P = 2cosh(theta), Q = 1, k = 1:
    sum_{n>=2} L(sinh^2(theta)/sinh^2(n theta)) = L(e^(-2 theta))."""
    if theta <= 0:
        raise DomainError("theta must be positive")
    with interval_precision(budget.working_bits):
        growth = iv.exp(iv_from_fraction(theta))
        decay = 1 / growth
        rho = decay * decay  # 1/alpha^2
        cap = _certified_cap(rho)
        form = _lucas_form(rho)
        rhs_arg = ErrorBoundedValue.from_interval(rho)

    def rhs_fn():
        return _rogers_interval(rhs_arg)

    parameters = {"theta": _rational_str(theta)}
    return _lambert_report("sinh-theta", parameters, form, cap, budget, max_terms, trace, rhs_fn)


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
# Fraction(Decimal) builds 10^|exponent|; beyond this exponent that power has
# more than 2^20 bits, the scale at which mpf_to_fraction refuses a value
_MAX_DECIMAL_EXPONENT = (1 << 20) * 30103 // 100000


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


def _cited_pi2(divisor: int):
    return lambda budget: _pi2_over(divisor, budget)


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
                     (("theorem-main(2/3,1/3)", {"a": "2/3", "b": "1/3"}, _cited_pi2(12), "pi^2/12"),)),
        IdentitySpec("corollary", {"t": _RATIONAL}, _verifier(corollary_verify, lambda t: (t,)),
                     "one-parameter specialization summing to L((1-t)/(1+t))",
                     (("corollary(1/3)", {"t": "1/3"}, _cited_pi2(12), "pi^2/12"),)),
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
                     (("repunit-x(2)", {"x": "2", "k": "1"}, _cited_pi2(12), "L(1/2) = pi^2/12"),)),
        IdentitySpec("fib-lucas-neg", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(1, -1), k)),
                     "Fibonacci/Lucas two-series identity summing to L(1/phi^(2k))",
                     (("fib-lucas-neg", {"k": "1"}, _cited_pi2(15), "pi^2/15"),)),
        IdentitySpec("pell", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(2, -1), k)),
                     "Pell/Pell-Lucas two-series identity",
                     (("pell", {"k": "1"}, _cited_rogers(QuadraticElement(3, -2, 2)), "L(1/(3+2*sqrt(2)))"),)),
        IdentitySpec("q-minus-3", _K, _verifier(lucas_neg_verify, lambda k: (LucasParams(1, -3), k)),
                     "(P,Q) = (1,-3) two-series identity",
                     (("q-minus-3", {"k": "1"}, _cited_rogers(QuadraticElement(Fraction(7, 6), Fraction(-1, 6), 13)),
                       "L(6/(7+sqrt(13)))"),)),
        IdentitySpec("sqrt5-k-odd", _K, _verifier(_sqrt5, lambda k: (k, True)),
                     "(P,Q) = (sqrt(5),1) series, odd k, recovering the Q<0 Fibonacci case",
                     (("sqrt5-k-odd", {"k": "1"}, _cited_pi2(15), "L(1/phi^2) = pi^2/15"),)),
        IdentitySpec("sqrt5-k-even", {"k": (_integer, 2)}, _verifier(_sqrt5, lambda k: (k, False)),
                     "(P,Q) = (sqrt(5),1) series, even k, recovering the Fibonacci case",
                     (("sqrt5-k-even", {"k": "2"}, _cited_rogers(_PHI_INV4), "L(1/phi^4)"),)),
        IdentitySpec("sinh-theta", {"theta": (parse_decimal, Fraction(1))},
                     _verifier(_sinh_theta, lambda theta: (theta,)),
                     "sum of L(sinh^2(theta)/sinh^2(n theta)) = L(e^(-2 theta))",
                     (("sinh-theta(1)", {"theta": "1"}, None, "L(e^-2)"),)),
        IdentitySpec("richmond-szekeres", {}, _richmond_szekeres,
                     "sum of L(1/n^2) from n=2 brackets pi^2/6",
                     (("richmond-szekeres", {}, _cited_pi2(6), "pi^2/6"),)),
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
