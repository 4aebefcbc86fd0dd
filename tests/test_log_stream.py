"""Exact kernel arguments that carry their logs.

Richmond-Szekeres' terms 1/m^2 carry integer bounds on log m^2 from one
stream of fixed-point atanh increments (``rogers._atanh_raw``,
``series._richmond_terms``), so the kernel takes no log per term.  These
tests hold the stream to mpmath and to its proved widths, hold the reports
and trace rows to those of the bare pairs (p, q), whose logs the kernel
takes itself, and check that a supplied log is refused where the kernel's
y is 1 - x, which that log does not bound.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from dilogid import series
from dilogid.enclosure import _MAX_EXPONENT, DomainError, PrecisionBudget, PrecisionError, mpf_to_fraction
from dilogid.exactnum import QuadraticElement
from dilogid.harness import emit_report
from dilogid.lucas import LucasParams, PreconditionError
from dilogid.rogers import _GUARD_BITS, _atanh_raw, _log_product_raw, _rogers_eval
from dilogid.series import (
    _evaluate_series_report,
    _pi_squared_over,
    _richmond_tail,
    _richmond_terms,
    catalog_verify,
)

ATANH_BITS = (8, 60, 146, 430, 1100)


@st.composite
def _atanh_arguments(draw):
    k = draw(st.integers(min_value=3, max_value=2 * 10 ** 5 + 1))
    return draw(st.integers(min_value=1, max_value=k // 2)), k


def _proved_width(u: int, k: int, b: int) -> int:
    """2J + ceil(2/(2J + 1)) at the largest J the stream can sum: every
    power it sums is nonzero, so 2^b z^(2j+1) >= 1 for each, and the count
    grows with J."""
    z = Fraction(u, k)
    j = 0
    while (z ** (2 * j + 1)) * 2 ** b >= 1:
        j += 1
    return 2 * j + -(-2 // (2 * j + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(arg=_atanh_arguments(), b=st.sampled_from(ATANH_BITS))
@example(arg=(1, 3), b=60)
@example(arg=(1, 2), b=60)
@example(arg=(100000, 200001), b=430)
@example(arg=(1, 200001), b=1100)
@example(arg=(1, 3), b=8)
@example(arg=(1, 200001), b=8)
def test_atanh_bounds_contain_the_series(arg, b):
    """lo <= 2^b atanh(u/k) <= hi at triple precision, also when 2^b u < k
    leaves no nonzero power and the tail term carries the whole value; the
    width stays within the count the docstring proves."""
    u, k = arg
    lo, hi = _atanh_raw(u, k, b)
    with mp.workprec(3 * b + 64):
        exact = mp.atanh(mp.mpf(u) / k) * mp.mpf(2) ** b
        assert lo <= exact <= hi
    assert 0 <= hi - lo <= _proved_width(u, k, b)


@pytest.mark.parametrize("digits", [15, 40, 300])
def test_log_squares_contain_mpmath(digits):
    """The stream's bounds on log m^2 contain mpmath's value at every sampled
    m up to 10^5 + 1, and stay within 2^-w of it, w the kernel's bits at
    the working precision, from which the stream takes its scale."""
    last = 10 ** 5 + 1
    budget = PrecisionBudget(digits)
    w = budget.working_bits + _GUARD_BITS
    rng = random.Random(digits)
    sample = {2, 3, 4, 5, 17, 256, 1000, 65537, last - 1, last} | {rng.randint(2, last) for _ in range(40)}
    checked = 0
    for m, (one, square, (lo, hi, b)) in enumerate(_richmond_terms(last - 1, budget.working_bits), start=2):
        assert (one, square) == (1, m * m)
        if m in sample:
            with mp.workprec(3 * b):
                exact = mp.log(square) * mp.mpf(2) ** b
                assert lo <= exact <= hi
            assert (hi - lo) << w <= 1 << b
            checked += 1
    assert checked == len(sample)


def _richmond_report(budget, n_terms, terms):
    trace = []
    report = _evaluate_series_report(
        "richmond-szekeres",
        {"terms": str(n_terms)},
        budget,
        terms,
        _richmond_tail(n_terms + 1),
        lambda: _pi_squared_over(6),
        trace,
    )
    return report, trace


def test_stream_scale_does_not_depend_on_where_it_is_advanced():
    """The stream's scale follows the precision it is given: its first term
    drawn at mpmath's default interval precision, far below the working
    precision, and the rest summed by the driver at 100 digits give the
    catalog's report, a pass.  A scale read from the context of the first
    draw would carry logs at 92 bits where 407 are needed, and fail."""
    budget = PrecisionBudget(100)
    terms = _richmond_terms(2000, budget.working_bits)
    assert iv.prec < budget.working_bits
    first = next(terms)
    report = _evaluate_series_report(
        "richmond-szekeres",
        {"terms": "2000"},
        budget,
        chain([first], terms),
        _richmond_tail(2001),
        lambda: _pi_squared_over(6),
    )
    assert report.verdict == "pass"
    assert emit_report(report) == emit_report(catalog_verify("richmond-szekeres", budget, max_terms=2000))


@pytest.mark.parametrize("digits", [15, 40, 100])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 50, 2000])
def test_supplied_logs_give_the_bare_pairs_reports(digits, n_terms):
    """The same report bytes and trace rows with the stream's logs as with
    the bare pairs (1, m^2), whose logs the kernel takes with mpf_log, but
    for the last bits of each row's tail, which adds the kernel's own upper
    bounds on the terms after the row: the two runs' bounds on one term lie
    within their widths of each other, so two row tails lie within the two
    lhs widths, 4 radius, plus their roundings to _TAIL_BITS bits."""
    budget = PrecisionBudget(digits)
    carried, carried_rows = _richmond_report(budget, n_terms, _richmond_terms(n_terms, budget.working_bits))
    bare, bare_rows = _richmond_report(budget, n_terms, ((1, m * m) for m in range(2, n_terms + 2)))
    assert emit_report(carried) == emit_report(bare)
    assert emit_report(catalog_verify("richmond-szekeres", budget, max_terms=n_terms)) == emit_report(carried)
    assert len(carried_rows) == len(bare_rows) == n_terms
    def shown(row):
        # the row's partial sum as the CSV reads it, rounded outward to its bits
        return row["n"], row["term"], row["lhs_partial"].rounded(row["prec"]).endpoints()

    for ours, theirs in zip(carried_rows, bare_rows):
        assert shown(ours) == shown(theirs)
        tails = [mpf_to_fraction(row["tail_bound"]) for row in (ours, theirs)]
        assert abs(tails[0] - tails[1]) <= 4 * carried.lhs.radius + max(tails) / (1 << (series._TAIL_BITS - 2))


def test_supplied_log_multiplies_s1():
    """An exact y with its log takes S1 times the supplied bounds, at S1's
    scale: no log is taken."""
    b = 200
    with mp.workprec(3 * b):
        log_lo = int(mp.floor(mp.log(7) * mp.mpf(2) ** b))
    s1 = 3 << 150
    with mock.patch("dilogid.rogers.mpf_log", side_effect=AssertionError("a log was taken")):
        p_lo, p_hi = _log_product_raw((1, 7, (log_lo, log_lo + 1, b)), s1, s1, 100)
    with mp.workprec(3 * b):
        exact = mp.log(7) * s1
    assert p_lo <= exact <= p_hi and p_hi - p_lo <= 2 + (s1 >> b)


@pytest.mark.parametrize("x", [(2, 3), (5, 6), (51, 100)])
def test_supplied_log_above_half_is_refused(x):
    """Above 1/2 the kernel's y is 1 - x, whose log the supplied bounds on
    |log x| do not bound: refused, not ignored."""
    p, q = x
    b = 100
    with mp.workprec(3 * b):
        lo = int(mp.floor(mp.log(mp.mpf(q) / p) * mp.mpf(2) ** b))
    with pytest.raises(DomainError, match="supplied log"):
        _rogers_eval((p, q, (lo, lo + 1, b)), 83)


class TestLucasTailOutOfReach:
    """fib-even at k >= 188 799 has cap^2 < 2^-(2^20 + 1), so its tail after
    the first term has no exact rational: refused before the exact layer."""

    MESSAGE = "error: value too far from 1 for an exact rational (binary exponent beyond +-2^20)\n"

    def test_k_300000_exits_2_promptly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dilogid", "verify", "--identity", "fib-even", "--k", "300000"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == self.MESSAGE

    @pytest.mark.parametrize("k, refused", [(188798, False), (188799, True)])
    def test_borderline_k_keeps_the_exact_layer(self, k, refused):
        """Below the bound the exact layer still runs, as the truncation
        alone decides there: the first k past the check is the first whose
        cap^2 lies below 2^-(2^20 + 1)."""

        class ExactLayerReached(Exception):
            pass

        with mock.patch.object(series, "_lucas_rhs_arg", side_effect=ExactLayerReached):
            with pytest.raises(PrecisionError if refused else ExactLayerReached):
                series.lucas_pos_verify(LucasParams(3, 1), k)

    def test_without_sqrt_d_in_the_ring_the_precondition_stays(self):
        """At P = 1 + sqrt(5), Q = 1, D = 2 + 2 sqrt(5) has no square root in
        Q(sqrt(5)): at a k past the cap check, the error is still the
        exact closed form's precondition, its cause."""
        params, k = LucasParams(1 + QuadraticElement.sqrt_of(5), 1), 250000
        assert params.alpha_exact() is None
        cap = series._ratio_cap_sup(params, k)
        assert cap.numerator ** 2 << (_MAX_EXPONENT + 1) < cap.denominator ** 2
        with pytest.raises(PreconditionError, match="requires sqrt"):
            series.lucas_pos_verify(params, k)
