"""Unreduced exact terms of the two-parameter series and the one converter
from exact rationals to intervals."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import from_rational, round_ceiling, round_floor

from dilogid import series
from dilogid.enclosure import PrecisionBudget, RationalPair, rational_bounds
from dilogid.harness import emit_report
from dilogid.rogers import _branch_is_low, _one_minus
from dilogid.series import (
    TwoParamInstance,
    _corollary_checked,
    _tail_small_enough,
    corollary_verify,
    tail_bound,
    theorem_main_term,
    theorem_main_verify,
)

B40 = PrecisionBudget.for_digits(40)


def _bits(lo: int, hi: int):
    """Positive integers of lo to hi bits."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def _expected(p: int, q: int, prec: int) -> tuple:
    return from_rational(p, q, prec, round_floor), from_rational(p, q, prec, round_ceiling)


PRECISIONS = st.integers(53, 2000)
FACTORS = st.one_of(st.just(1), _bits(1, 300))


@settings(max_examples=150, deadline=None)
@given(_bits(1, 20000), _bits(1, 20000), st.booleans(), FACTORS, PRECISIONS)
@example(1, 1, False, 1, 53)
@example(1, 3, True, 7, 53)
def test_converter_matches_from_rational(p, q, negative, g, prec):
    p = -p if negative else p
    expected = _expected(p, q, prec)
    assert rational_bounds(p, q, prec) == expected
    assert rational_bounds(p * g, q * g, prec) == expected


@settings(max_examples=80, deadline=None)
@given(_bits(1, 20000), st.integers(0, 20000), FACTORS, PRECISIONS)
def test_converter_on_dyadic_values(m, k, g, prec):
    # remainder 0 whenever m fits in the quotient
    expected = _expected(m, 1 << k, prec)
    assert rational_bounds(m, 1 << k, prec) == expected
    assert rational_bounds(m * g, (1 << k) * g, prec) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(-3000, 3000), _bits(1, 2000), FACTORS, PRECISIONS)
def test_converter_one_ulp_around_a_power_of_two(e, odd, g, prec):
    # 2^e - 2^(e-prec) is one ulp below 2^e, 2^e + 2^(e-prec+1) one ulp
    # above it, and 2^e + 2^(e-prec) half an ulp above, between the two
    for num in ((1 << prec) - 1, (1 << prec) + 2, (1 << prec) + 1):
        shift = e - prec
        p, q = (num << shift, 1) if shift >= 0 else (num, 1 << -shift)
        assert rational_bounds(p * g, q * g, prec) == _expected(p, q, prec)
    # 2^e -+ 1/den, den = odd * 2^max(-e, 0): off a power of two by a
    # non-dyadic amount, smaller than one ulp once den > 2^(prec-e)
    base = odd << e if e >= 0 else odd
    den = odd if e >= 0 else odd << -e
    for p in (base - 1, base + 1):
        assert rational_bounds(p, den, prec) == _expected(p, den, prec)


UNIT = st.integers(2, 10 ** 6).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))


@settings(max_examples=200, deadline=None)
@given(UNIT, FACTORS)
@example((1, 2), 1)
@example((1, 2), 12345)
def test_branch_and_one_minus_on_pairs(pq, g):
    p, q = pq
    pair, value = RationalPair(p * g, q * g), Fraction(p, q)
    assert _branch_is_low(pair) == _branch_is_low(value)
    assert _one_minus(pair).fraction() == _one_minus(value)


@settings(max_examples=60, deadline=None)
@given(UNIT, FACTORS, st.sampled_from([("9/10", 12), ("191/200", 40), ("1/2", 100)]))
def test_tail_checks_on_pairs(pq, g, cap_digits):
    cap, digits = Fraction(cap_digits[0]), cap_digits[1]
    # terms from 10^-(digits+7) to 10^-(digits+1), around the pre-filter
    # threshold, where a common factor can move the bit-length estimate
    p, q = pq[0], pq[1] * 10 ** (digits + 1)
    pair, value = RationalPair(p * g, q * g), Fraction(p, q)
    half = Fraction(1, 2 * 10 ** digits)
    assert _tail_small_enough(pair, cap, half, digits) == _tail_small_enough(value, cap, half, digits)
    assert tail_bound(pair, cap) == tail_bound(value, cap)


PARAMETER = st.integers(2, 400).flatmap(lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))


@settings(max_examples=25, deadline=None)
@given(PARAMETER, PARAMETER)
def test_streamed_terms_equal_theorem_term(a, b):
    assume(a != b)
    for inst in (TwoParamInstance(a, b), TwoParamInstance(b, a)):
        for n, term in enumerate(islice(series._theorem_terms(inst), 40)):
            assert isinstance(term, RationalPair)
            expected = theorem_main_term(inst, n)
            assert term.numerator * expected.denominator == term.denominator * expected.numerator


def _perturbed_terms(monkeypatch, change):
    original = series._theorem_terms

    def terms(inst):
        for n, term in enumerate(original(inst)):
            yield change(n, term)

    monkeypatch.setattr(series, "_theorem_terms", terms)


def test_corollary_rejects_a_perturbed_streamed_term(monkeypatch):
    _perturbed_terms(
        monkeypatch, lambda n, term: RationalPair(term.numerator + (n == 7), term.denominator)
    )
    with pytest.raises(AssertionError, match="summand 7"):
        corollary_verify(Fraction(1, 3), B40)


def test_scaled_pairs_give_the_same_reports(monkeypatch):
    # a common factor changes neither the corollary check (it falls back to
    # cross-multiplication) nor any converted interval
    t, inst = Fraction(1, 3), TwoParamInstance(Fraction(2, 3), Fraction(1, 3))
    plain = emit_report(corollary_verify(t, B40)), emit_report(theorem_main_verify(inst, B40))
    _perturbed_terms(monkeypatch, lambda n, term: RationalPair(term.numerator * 6, term.denominator * 6))
    assert (emit_report(corollary_verify(t, B40)), emit_report(theorem_main_verify(inst, B40))) == plain


def test_corollary_check_accepts_equal_values_in_other_form():
    t = Fraction(2, 7)
    inst = TwoParamInstance((1 + t) / 2, (1 - t) / 2)
    raw = list(islice(series._theorem_terms(inst), 12))
    scaled = [RationalPair(term.numerator * (n + 2), term.denominator * (n + 2)) for n, term in enumerate(raw)]
    assert len(list(_corollary_checked(t, iter(scaled)))) == 12
    wrong = scaled[:5] + [RationalPair(scaled[5].numerator, scaled[5].denominator + 1)]
    with pytest.raises(AssertionError, match="summand 5"):
        list(_corollary_checked(t, iter(wrong)))
