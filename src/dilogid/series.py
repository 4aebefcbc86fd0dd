"""Evaluators and verifiers for the dilogarithm series identities.

Each verifier truncates its series at an index N chosen so that the
certified bound on the omitted tail drops below half the requested
tolerance (or the term cap is reached), evaluates the partial sum and the
closed-form side as rigorous enclosures, and returns an IdentityReport.
The verdict convention is

    pass  iff  |residual.midpoint| <= residual.radius + tail_bound + 10^-digits,

with an explicit fail when the residual radius misses 10^-digits at the
working precision.  Every verifier runs through one summation driver,
``_evaluate_series_report``, which sums in one pass; ``IDENTITIES`` at the
end of the module is the one table of named identities, with their
parameters and registry instances.

Tail bounds use L(x) <= x*(pi^2/6 + log(1/x)) on (0, 1/2] together with a
geometric dominating sequence certified by the caller:

  * two-parameter series: term ratio <= min(1-a,1-b)/max(1-a,1-b), a
    consequence of the shift identities D_n >= max(1-a,1-b) D_{n-1};
  * Lucas series with Q > 0: term ratio <= (Q/alpha^2)^k, from
    U_{m+k} >= alpha^k U_m (Binet, both roots positive);
  * Lucas series with Q < 0, k odd: both parity sub-series have term
    ratio <= (Q^2/alpha^4)^k, by the same Binet argument applied with
    step 2k to U at even and V at odd indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from itertools import islice, tee
from math import lcm
from typing import Callable, Iterable, Iterator, Optional

from mpmath import iv, mp

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    RationalPair,
    interval_precision,
    iv_from_fraction,
    mpf_to_fraction,
)
from .exactnum import QuadraticElement, exact_sqrt, quad_interval, quad_pow, quad_to_real
from .lucas import Coefficient, LucasParams, PreconditionError, _coeff_sign, lucas_uv
from .rogers import _GUARD_TERMS, _pi_squared_over, _rogers_eval, rogers_l

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


def _theorem_terms(inst: TwoParamInstance) -> Iterator[RationalPair]:
    # integer core: with a = A/q, b = B/q over a common denominator q and
    # C = q - A, D = q - B, the summand reduces to
    #     A B (A-B)^2 (C D)^n / (A D^(n+1) - B C^(n+1))^2,
    # so each term costs integer multiplies only; it is never reduced
    a, b = inst.a, inst.b
    q = lcm(a.denominator, b.denominator)
    big_a = a.numerator * (q // a.denominator)
    big_b = b.numerator * (q // b.denominator)
    c, d = q - big_a, q - big_b
    numer_scale = big_a * big_b * (big_a - big_b) ** 2
    cd_pow = 1
    d_pow, c_pow = d, c
    while True:
        n_n = big_a * d_pow - big_b * c_pow
        yield RationalPair(numer_scale * cd_pow, n_n * n_n)
        cd_pow *= c * d
        d_pow *= d
        c_pow *= c


# ---------------------------------------------------------------------------
# tail machinery
# ---------------------------------------------------------------------------


def _as_sup_fraction(value):
    """An exact rational at or above a term or ratio cap: a Fraction or a
    RationalPair as it is, else the upper endpoint of its enclosure."""
    if isinstance(value, (Fraction, RationalPair)):
        return value
    if isinstance(value, QuadraticElement):
        rv = value.rational_value()
        if rv is not None:
            return rv
        value = quad_to_real(value, 80)
    return value.endpoints()[1]


def tail_bound(first_omitted, ratio_cap):
    """Certified bound on sum L(t_j) over omitted terms t_j.

    Requires t_0 <= first_omitted <= 1/2 and t_{j+1} <= ratio_cap * t_j.
    Uses L(x) <= x*(pi^2/6 + log(1/x)) on (0, 1/2], summed over the
    dominating geometric sequence t_0 * r^j.
    """
    t = _as_sup_fraction(first_omitted)
    r = _as_sup_fraction(ratio_cap)
    if t.numerator < 0:
        raise DomainError("first omitted term must be nonnegative")
    if t.numerator == 0:
        return mp.mpf(0)
    if 2 * t.numerator > t.denominator:
        raise DomainError("first omitted term above 1/2: lower the truncation point")
    if not (0 < r < 1):
        raise DomainError("ratio cap must lie in (0, 1)")
    with interval_precision(_TAIL_BITS):
        ti = iv_from_fraction(t)
        ri = iv_from_fraction(r)
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


def _log10_upper(value) -> float:
    # An upper bound on log10(num/den) for any positive integers, reduced or
    # not: num < 2^bits(num) and den >= 2^(bits(den)-1).  A common factor
    # moves bits(num) - bits(den) by at most one, so on an unreduced pair
    # the pre-filter of _tail_small_enough can decide otherwise than on the
    # reduced one only for a term t within a bit of its threshold, where
    # 10^-(digits+1.61) < t < 10^-(digits+1).  tail_bound is at least
    # t (pi^2/6 + log(1/t)), above 10^-digits / 2 there for digits >= 7, so
    # it refuses every such t and the truncation index does not change.
    return (value.numerator.bit_length() - value.denominator.bit_length() + 1) * 0.30103


def _tail_small_enough(term, cap, tolerance_half: Fraction, digits: int) -> bool:
    t = _as_sup_fraction(term)
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
# shared evaluation driver
# ---------------------------------------------------------------------------


def _assert_unit_open(value) -> None:
    """An exact rational or Q(sqrt(D)) value lies inside (0, 1)."""
    if isinstance(value, (Fraction, RationalPair)):
        if not (0 < value.numerator < value.denominator):
            raise AssertionError(f"series argument {value.numerator}/{value.denominator} outside (0, 1)")
    elif not (value.sign() > 0 and (value - 1).sign() < 0):
        raise AssertionError("series argument outside (0, 1)")


def _term_rogers(term, guard: int):
    """Interval Rogers L of one exact or enclosed series term at the
    current precision."""
    if isinstance(term, QuadraticElement):
        rv = term.rational_value()
        term = rv if rv is not None else quad_to_real(term, iv.prec + 16)
    return _rogers_eval(term, guard)


def _exact_bits(budget: PrecisionBudget, n_terms: int) -> int:
    """Working bits for a sum of ``n_terms`` exact terms: more digits per
    decade of the term count absorb the rounding of their conversions."""
    return PrecisionBudget(budget.target_digits + max(4, len(str(n_terms)) + 3)).working_bits


def _evaluate_series_report(
    identity_id: str,
    parameters: dict,
    budget: PrecisionBudget,
    terms: Iterable,
    tail,
    ratio_cap,
    rhs_fn: Callable[[int], object],
    trace: Optional[list] = None,
    bits: Optional[int] = None,
    guard: int = _GUARD_TERMS,
) -> IdentityReport:
    """Sum enclosures of L over the kept ``terms`` (enclosures, or exact
    values checked to lie in (0, 1)) in one interval context at ``bits``
    (default ``budget.working_bits``) with ``guard`` guard terms per
    evaluation, evaluate the closed form ``rhs_fn(guard)`` in the same
    context, and report.  ``tail`` bounds the omitted terms; ``ratio_cap``
    gives the running tails of a trace (None: every row shows ``tail``).
    ``IdentityReport.build`` fails a residual whose radius misses the
    tolerance."""
    with interval_precision(bits or budget.working_bits):
        rows: list = []
        n_terms = 0
        acc = iv.mpf(0)
        for term in terms:
            if not isinstance(term, ErrorBoundedValue):
                _assert_unit_open(term)
            acc = acc + _term_rogers(term, guard)
            n_terms += 1
            if trace is not None:
                exact = term.fraction() if isinstance(term, RationalPair) else term
                rows.append((exact, ErrorBoundedValue.from_interval(acc)))
        rhs_iv = rhs_fn(guard)
        res_iv = acc - rhs_iv
        lhs = ErrorBoundedValue.from_interval(acc)
        rhs = ErrorBoundedValue.from_interval(rhs_iv)
        residual = ErrorBoundedValue.from_interval(res_iv)
    if trace is not None:
        trace.extend(_trace_rows(rows, tail, ratio_cap))
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


def _trace_rows(rows, final_tail, ratio_cap):
    out = []
    for n, (term, partial) in enumerate(rows):
        running = final_tail
        if ratio_cap is not None and n + 1 < len(rows):
            try:
                running = tail_bound(rows[n + 1][0], ratio_cap)
            except DomainError:
                running = None
        out.append({"n": n, "term": term, "lhs_partial": partial, "tail_bound": running})
    return out


def _choose_truncation(term_iter: Iterable, ratio_cap, budget: PrecisionBudget, max_terms: int) -> tuple[int, object]:
    """Read terms until the certified tail fits in half the tolerance.

    An item of ``term_iter`` is one term, or a tuple holding the next term
    of each of several sub-series that share ``ratio_cap``; each member
    then gets an equal share of the tolerance, and ``max_terms`` counts
    items.  Returns (N, tail bound): the first N items are kept.
    """
    if max_terms < 1:
        raise UsageError("max_terms must be positive")
    tol_half = budget.tolerance / 2
    digits = budget.target_digits
    for count, item in enumerate(term_iter):
        group = item if isinstance(item, tuple) else (item,)
        if count >= max_terms or (
            count and all(_tail_small_enough(t, ratio_cap, tol_half / len(group), digits) for t in group)
        ):
            if len(group) == 1:
                return count, tail_bound(item, ratio_cap)
            total = sum(mpf_to_fraction(tail_bound(t, ratio_cap)) for t in group)
            return count, ErrorBoundedValue.from_fraction_pair(total, total).upper  # exact sum, rounded up
    raise AssertionError("term iterator exhausted unexpectedly")


def _held_truncation(term_iter: Iterable, ratio_cap, budget: PrecisionBudget, max_terms: int) -> tuple[list, object]:
    """``_choose_truncation`` that holds the kept terms: (terms, tail bound),
    the terms flattened."""
    term_iter, held = tee(term_iter)
    count, tail = _choose_truncation(term_iter, ratio_cap, budget, max_terms)
    return [t for item in islice(held, count) for t in (item if isinstance(item, tuple) else (item,))], tail


# ---------------------------------------------------------------------------
# Theorem (two-parameter series) and its corollary
# ---------------------------------------------------------------------------


def _two_param_ratio_cap(inst: TwoParamInstance) -> Fraction:
    oma, omb = 1 - inst.a, 1 - inst.b
    return _certified_cap(min(oma, omb) / max(oma, omb))


def theorem_main_verify(
    inst: TwoParamInstance,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify sum L(x_n y_n) = L(a) + L(b) - L(|a-b|/(1-min(a,b)))."""
    a, b = inst.a, inst.b
    cap = _two_param_ratio_cap(inst)
    n_terms, tail = _choose_truncation(_theorem_terms(inst), cap, budget, max_terms)
    third = abs(a - b) / (1 - min(a, b))

    def rhs_fn(guard):
        return _rogers_eval(a, guard) + _rogers_eval(b, guard) - _rogers_eval(third, guard)

    # the sum streams the terms again: holding thousands of growing exact
    # terms costs more memory than the integer multiplies that rebuild them
    terms = islice(_theorem_terms(inst), n_terms)
    parameters = {"a": _rational_str(a), "b": _rational_str(b)}
    bits = _exact_bits(budget, n_terms)
    return _evaluate_series_report("theorem-main", parameters, budget, terms, tail, cap, rhs_fn, trace, bits)


def corollary_remark_term(t: Fraction, m: int) -> Fraction:
    """Simplified summand 4 t^2 (1-t^2)^m / ((1+t)^(m+1) - (1-t)^(m+1))^2."""
    return 4 * t * t * (1 - t * t) ** m / ((1 + t) ** (m + 1) - (1 - t) ** (m + 1)) ** 2


def _corollary_checked(t: Fraction, terms: Iterable[RationalPair]) -> Iterator[RationalPair]:
    """The terms, each first checked against corollary_remark_term(t, n + 1).

    With t = p/q the simplified form is 4p^2 (q^2-p^2)^(n+1) / diff^2,
    diff = (q+p)^(n+2) - (q-p)^(n+2), so a term num/den matches iff
    num * diff^2 == den * 4p^2 (q^2-p^2)^(n+1), in integers.  The
    generator's pair is exactly that numerator and denominator, which is
    tested first: it settles the match with one squaring instead of three
    full-size products.
    """
    p, q = t.numerator, t.denominator
    scale = 4 * p * p
    sq = q * q - p * p
    # incremental powers: recomputing them per index would redo three large
    # exponentiations for every term
    sq_pow = sq
    plus_pow = (q + p) ** 2
    minus_pow = (q - p) ** 2
    for n, term in enumerate(terms):
        num, den = term.numerator, term.denominator
        expected_num = scale * sq_pow
        diff = plus_pow - minus_pow
        diff_sq = diff * diff
        if not (num == expected_num and den == diff_sq) and num * diff_sq != den * expected_num:
            raise AssertionError(f"summand {n} does not match the simplified form")
        yield term
        sq_pow *= sq
        plus_pow *= q + p
        minus_pow *= q - p


def corollary_verify(
    t: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: Optional[list] = None,
) -> IdentityReport:
    """Verify the one-parameter specialization summing to L((1-t)/(1+t)).

    The instance is the two-parameter series at (a, b) = ((1+t)/2, (1-t)/2),
    re-indexed from 1; every term the truncation reads is checked exactly
    against the simplified closed form ``corollary_remark_term``.
    """
    t = Fraction(t)
    if not (0 < t < 1):
        raise DomainError("parameter must lie in (0, 1)")
    inst = TwoParamInstance((1 + t) / 2, (1 - t) / 2)
    cap = _two_param_ratio_cap(inst)
    n_terms, tail = _choose_truncation(_corollary_checked(t, _theorem_terms(inst)), cap, budget, max_terms)
    target = (1 - t) / (1 + t)

    def rhs_fn(guard):
        return _rogers_eval(target, guard)

    terms = islice(_theorem_terms(inst), n_terms)
    bits = _exact_bits(budget, n_terms)
    return _evaluate_series_report("corollary", {"t": _rational_str(t)}, budget, terms, tail, cap, rhs_fn, trace, bits)


# ---------------------------------------------------------------------------
# Lucas-sequence series
# ---------------------------------------------------------------------------


def _ratio_cap_sup(params: LucasParams, k: int, power: int) -> Fraction:
    """Certified upper bound on (|Q| / alpha^2)^(power*k)."""
    with interval_precision(_TAIL_BITS):
        alpha = (quad_interval(params.p) + iv.sqrt(quad_interval(params.d))) / 2
        q = abs(quad_interval(params.q))
        return _certified_cap((q / alpha ** 2) ** (power * k))


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
    """Exact |Q|^k / alpha^(2k), in the coefficient ring when possible."""
    alpha = params.alpha_exact()
    if alpha is None:
        raise PreconditionError("exact closed form requires sqrt(D) in the ring")
    qk = params.q ** k if _coeff_sign(params.q) > 0 else -(params.q ** k)
    if isinstance(alpha, QuadraticElement) and not isinstance(qk, QuadraticElement):
        qk = QuadraticElement.from_rational(qk, alpha.radicand)
    arg = qk / quad_pow(alpha, 2 * k)
    _assert_unit_open(arg)
    return arg


def _lucas_verify(params, k, budget, max_terms, trace) -> IdentityReport:
    """The Q > 0 series, or for Q < 0 the two parity sub-series of the
    odd-k identity summed pairwise, by the sign of Q."""
    if _coeff_sign(params.q) > 0:
        identity_id, power, term_iter = "lucas-pos", 1, _lucas_pos_terms(params, k)
    else:
        identity_id, power, term_iter = "lucas-neg", 2, _lucas_neg_terms(params, k)
    cap = _ratio_cap_sup(params, k, power)
    terms, tail = _held_truncation(term_iter, cap, budget, max_terms)
    rhs_arg = _lucas_rhs_arg(params, k)

    def rhs_fn(guard):
        return _term_rogers(rhs_arg, guard)

    parameters = {"P": _coeff_str(params.p), "Q": _coeff_str(params.q), "k": str(k)}
    bits = _exact_bits(budget, len(terms))
    return _evaluate_series_report(identity_id, parameters, budget, terms, tail, cap, rhs_fn, trace, bits)


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
    series under pell_to_lucas, and the first 30 terms are cross-checked
    against the original b^2/b_k^2 (resp. a^2/(n b_{2k}^2), a^2/a_{2k+1}^2)
    forms computed independently from powers of u.
    """
    corr = pell_to_lucas(sol)
    params = corr.params
    a, b, n = sol.a, sol.b, sol.n

    # the rewritten series must coincide with the original Bridgeman form,
    # with b_k, a_k taken from exact powers of u
    if sol.sign > 0:
        term_stream = _lucas_pos_terms(params, 1)
        for idx in range(1, 31):
            term = next(term_stream)
            b_power = quad_pow(sol.unit(), idx + 1).rad_part
            if term != b * b / (b_power * b_power):
                raise AssertionError("term mismatch with the b^2/b_k^2 form")
    else:
        pair_stream = _lucas_neg_terms(params, 1)
        for idx in range(1, 31):
            a_term, b_term = next(pair_stream)
            even_power = quad_pow(sol.unit(), 2 * idx)
            odd_power = quad_pow(sol.unit(), 2 * idx + 1)
            if a_term != a * a / (n * even_power.rad_part ** 2):
                raise AssertionError("term mismatch with the a^2/(n b_2k^2) form")
            if b_term != a * a / (odd_power.rat_part ** 2):
                raise AssertionError("term mismatch with the a^2/a_{2k+1}^2 form")

    # closed-form argument 1/u^2 agrees exactly with the Lucas-side argument
    inv_u_sq = QuadraticElement.from_rational(1, Fraction(sol.n)) / quad_pow(sol.unit(), 2)
    if inv_u_sq != _lucas_rhs_arg(params, 1):
        raise AssertionError("1/u^2 does not match the Lucas closed-form argument")

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


def _richmond_szekeres(budget: PrecisionBudget, max_terms: int, trace: Optional[list] = None) -> IdentityReport:
    """Partial sum of L(1/n^2) over 2 <= n <= N = max_terms + 1 plus the
    integral-style tail bound (pi^2/6 + 2 log N + 2)/N, bracketing pi^2/6."""
    last = max_terms + 1
    with interval_precision(_TAIL_BITS):
        n_iv = iv.mpf(last)
        bound = (_pi_squared_over(6) + 2 * iv.log(n_iv) + 2) / n_iv
        tail = mp.make_mpf(bound._mpi_[1])

    def rhs_fn(guard):
        return _pi_squared_over(6)

    # a generator, so that tens of thousands of terms are never held
    terms = (Fraction(1, m * m) for m in range(2, last + 1))
    parameters = {"terms": str(max_terms)}
    return _evaluate_series_report("richmond-szekeres", parameters, budget, terms, tail, None, rhs_fn, trace, guard=2)


def _sinh_theta_terms(growth, decay) -> Iterator:
    """Intervals of sinh^2(theta)/sinh^2(n theta) = (g - 1/g)^2 / (g^n - g^-n)^2,
    n >= 2, from g = ``growth`` and 1/g = ``decay``; the powers come from
    repeated multiplication, so the relative width grows linearly in n."""
    numer = (growth - decay) ** 2
    g_pow, d_pow = growth, decay
    while True:
        g_pow, d_pow = g_pow * growth, d_pow * decay
        yield numer / (g_pow - d_pow) ** 2


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
        decay_sq = decay * decay  # 1/alpha^2
        cap = _certified_cap(decay_sq)
        terms = map(ErrorBoundedValue.from_interval, _sinh_theta_terms(growth, decay))
        terms, tail = _held_truncation(terms, cap, budget, max_terms)
        rhs_arg = ErrorBoundedValue.from_interval(decay_sq)

    def rhs_fn(guard):
        return _rogers_eval(rhs_arg, guard)

    parameters = {"theta": _rational_str(theta)}
    return _evaluate_series_report("sinh-theta", parameters, budget, terms, tail, cap, rhs_fn, trace)


def _sqrt5(k: int, odd: bool, budget, max_terms, trace=None) -> IdentityReport:
    if k < 1 or (k % 2 == 1) != odd:
        raise UsageError(f"this catalog entry requires a positive {'odd' if odd else 'even'} k")
    return lucas_pos_verify(LucasParams(QuadraticElement.sqrt_of(5), 1), k, budget, max_terms, trace)


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------


_RATIONAL_TEXT = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def parse_decimal(value) -> Fraction:
    """Exact rational value of a decimal or p/q string, or of a number.  The
    digits go through Decimal, which reads any length, where int and
    Fraction stop at sys.get_int_max_str_digits()."""
    text = value.strip() if isinstance(value, str) else ""
    if not _RATIONAL_TEXT.fullmatch(text):
        return Fraction(value)
    number, _, denominator = text.partition("/")
    return Fraction(Decimal(number)) / Fraction(Decimal(denominator or 1))


def _rational_str(value) -> str:
    """str(Fraction(value)), with its integers written by Decimal, which has no length limit."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _integer(value) -> int:
    """Exact integer from an int or a decimal string."""
    return value if isinstance(value, int) else int(str(value))


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
                values[key] = parse(given[key])
            elif default is None:
                raise UsageError(f"identity {self.name} requires parameter {key!r}")
            else:
                values[key] = default
        return self.verify(budget, max_terms, trace, **values)


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
