"""The one converter from exact rationals to intervals, the exact
two-parameter generator, and the integer term enclosures the L kernel and
the truncation read: their branch, 1 - x and tail checks, and the
negative controls of the summed stream."""

from fractions import Fraction
from itertools import islice
from math import log

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_man_exp, from_rational, round_ceiling, round_floor

from dilogid import rogers, series
from dilogid.enclosure import (
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    ScaledInterval,
    interval_precision,
    iv_from_fraction,
    mpf_to_fraction,
    rational_bounds,
)
from dilogid.exactnum import QuadraticElement
from dilogid.harness import emit_report
from dilogid.lucas import LucasParams
from dilogid.rogers import _one_minus, _raw, _rogers_eval
from dilogid.series import (
    LambertForm,
    TwoParamInstance,
    _certified_cap,
    _check_form,
    _lucas_form,
    _lucas_rhs_arg,
    _ratio_cap_sup,
    _tail_small_enough,
    _two_param_form,
    corollary_remark_term,
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
SCALES = st.integers(1, 400)


def _scaled(p: int, q: int, scale: int) -> ScaledInterval:
    """The integer enclosure of p/q at scale 2^-scale."""
    num = p << scale
    return ScaledInterval(num // q, -(-num // q), scale)


def _midpoint(pair: ScaledInterval) -> Fraction:
    return Fraction(pair.lo + pair.hi, 1 << (pair.scale + 1))


def _kernel_branch(x, prec):
    """(y, reflected): the argument that ``_rogers_eval`` hands the power
    sums at ``prec`` bits, and whether it reflects the result, or None when
    it refuses x as outside (0, 1)."""
    seen = []
    li2_sums, zeta2 = rogers._li2_series_raw, rogers._zeta2_fixed
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rogers, "_li2_series_raw", lambda y, w: seen.append(y) or li2_sums(y, w))
        monkeypatch.setattr(rogers, "_zeta2_fixed", lambda w: seen.append("reflected") or zeta2(w))
        try:
            _rogers_eval(x, prec)
        except DomainError:
            return None
    return seen[0], "reflected" in seen


@settings(max_examples=200, deadline=None)
@given(UNIT, SCALES)
@example((1, 2), 1)
@example((1, 2), 300)
def test_branch_and_one_minus_on_pairs(pq, scale):
    # integer endpoint pairs: the kernel's branch follows their midpoint, and
    # 1 - x is exact, the mirror of the pair; at a precision above the
    # scale, the kernel sums the pair or its mirror unrounded
    p, q = pq
    pair = _scaled(p, q, scale)
    one = 1 << scale
    mirror = _one_minus(pair)
    assert (mirror.lo, mirror.hi, mirror.scale) == (one - pair.hi, one - pair.lo, scale)
    assert _midpoint(mirror) == 1 - _midpoint(pair)
    prec = scale + 64
    w = prec + rogers._GUARD_BITS
    low = pair.lo + pair.hi <= one
    inside = 0 < pair.lo and pair.hi < one
    expected = (_raw(pair if low else mirror, w), not low)
    assert _kernel_branch(pair, prec) == (expected if inside else None)
    if pair.lo == pair.hi:
        # an exact midpoint takes the same branch, y = (p, q) or (q - p, q)
        midpoint = _midpoint(pair)
        m_p, m_q = midpoint.numerator, midpoint.denominator
        expected = ((m_p, m_q) if low else (m_q - m_p, m_q), not low)
        assert _kernel_branch((m_p, m_q), prec) == (expected if inside else None)


@settings(max_examples=200, deadline=None)
@given(_bits(1, 600), st.one_of(st.just(0), _bits(1, 600)), SCALES, st.integers(53, 400))
def test_scaled_intervals_convert_like_their_fractions(lo, width, scale, prec):
    hi = lo + width
    lower = rational_bounds(lo, 1 << scale, prec)[0]
    upper = rational_bounds(hi, 1 << scale, prec)[1]
    assert _raw(ScaledInterval(lo, hi, scale), prec) == (lower, upper)


@pytest.mark.parametrize("lo, hi", [(-5, -3), (-5, 0), (0, 0), (0, 7), (-(1 << 300) - 1, 1 << 300)])
def test_scaled_intervals_of_any_sign_convert_like_their_fractions(lo, hi):
    for scale, prec in ((1, 53), (300, 60), (2, 400)):
        lower = rational_bounds(lo, 1 << scale, prec)[0]
        upper = rational_bounds(hi, 1 << scale, prec)[1]
        assert _raw(ScaledInterval(lo, hi, scale), prec) == (lower, upper)


MANTISSAS = st.integers(-(1 << 300), 1 << 300)


@settings(max_examples=200, deadline=None)
@given(MANTISSAS, st.integers(-2000, 2000), MANTISSAS, st.integers(-2000, 2000))
@example(-3, -1, 1, -2)  # a negative lower end, the upper end at the finer scale
@example(1, -2, 3, -1)  # the lower end at the finer scale
@example(5, 10, 7, 3)  # both ends integers: scale 0
def test_scaled_enclosures_keep_their_endpoints(m_a, e_a, m_b, e_b):
    # the endpoints of an enclosure, read as integers at one scale, are its
    # endpoints exactly, whichever of them has the finer exponent
    lower, upper = sorted(mp.make_mpf(from_man_exp(m, e)) for m, e in ((m_a, e_a), (m_b, e_b)))
    pair = ErrorBoundedValue(lower, upper).scaled()
    assert pair.scale >= 0
    assert Fraction(pair.lo, 1 << pair.scale) == mpf_to_fraction(lower)
    assert Fraction(pair.hi, 1 << pair.scale) == mpf_to_fraction(upper)


def test_scaled_enclosure_refuses_far_exponents():
    tiny = mp.make_mpf(from_man_exp(1, -(1 << 21)))
    with pytest.raises(PrecisionError):
        ErrorBoundedValue(tiny, mp.mpf(0.5)).scaled()


# caps near 1 and, as for Lucas series of large k, near 0
CAPS = {text: Fraction(text) for text in ("1/2", "9/10", "93/100", "191/200", "99/100")}
CAPS.update({"1-2^-90": 1 - Fraction(1, 1 << 90), "2^-64": Fraction(1, 1 << 64)})
TAIL_DIGITS = [12, 40, 300, 3000]


def _tail_after(form: LambertForm, cap: Fraction):
    """The enclosed form and f(n), the certified tail after the first n
    terms, as the verifier builds them."""
    enclosed = series._enclosed_form(form)
    return enclosed, lambda n: tail_bound(series._term_upper(enclosed, n), cap)


def _scanned_truncation(tail_after, half: Fraction, max_terms: int):
    """The truncation by a linear scan: the first n in [1, max_terms] that
    ``_tail_small_enough`` accepts, else max_terms, and its tail."""
    for n in range(1, max_terms + 1):
        if _tail_small_enough(n, tail_after, half):
            return n, tail_after(n)
    return max_terms, tail_after(max_terms)


@pytest.mark.parametrize("bits", [12, 200])
@pytest.mark.parametrize("digits", TAIL_DIGITS)
@pytest.mark.parametrize("cap", CAPS)
def test_tail_check_at_the_certified_boundary(cap, digits, bits):
    # at a scale where the boundary term has about ``bits`` bits, bisect for
    # the largest t that tail_bound accepts; forms K rho^n with rho = cap
    # whose t_2 lies there or one unit either side cross too close to it for
    # the float estimate to tell, and the truncation still decides as a scan
    cap = CAPS[cap]
    half = Fraction(1, 2 * 10 ** digits)
    # ln(tol/2) + ln(1 - cap)
    threshold = -digits * log(10) - log(2) + log(1 - cap)
    # -log2 of the boundary term t, from t (pi^2/6 + ln 1/t) = e^threshold
    e = -threshold / log(2)
    for _ in range(3):
        e = (log(1.645 + e * log(2)) - threshold) / log(2)
    scale = bits + int(e)

    def accepts(hi):
        return mpf_to_fraction(tail_bound(Fraction(hi, 1 << scale), cap)) <= half

    lo, hi = 1, 1 << (bits + 3)
    assert accepts(lo) and not accepts(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    budget = PrecisionBudget.for_digits(digits)
    for end in (lo - 1, lo, hi):
        enclosed, tail_after = _tail_after(LambertForm(Fraction(end, 1 << scale) / cap ** 2, cap, Fraction(0)), cap)
        expected = _scanned_truncation(tail_after, half, 6)
        n_terms = series._choose_truncation(enclosed, cap, budget, 6, tail_after)
        assert (n_terms, tail_after(n_terms)) == expected, end - lo


def _rational_row(form, digits, max_terms):
    return form, _certified_cap(form.rho), digits, max_terms


def _lucas_row(params, k, digits, max_terms):
    return _lucas_form(_lucas_rhs_arg(params, k)), _ratio_cap_sup(params, k), digits, max_terms


def _sinh_theta_row(digits, max_terms):
    with interval_precision(400):
        decay = 1 / iv.exp(iv_from_fraction(Fraction(1, 10)))
        form = _lucas_form(decay * decay)
    return form, _certified_cap(form.rho), digits, max_terms


SLOW = _two_param_form(TwoParamInstance(Fraction(1, 50), Fraction(3, 47)))
NEAR_ONE = LambertForm(Fraction(1, 10 ** 50), 1 - Fraction(1, 1 << 90), Fraction(1, 2))
SQRT5 = LucasParams(QuadraticElement.sqrt_of(5), 1)
TRUNCATIONS = {
    "theorem-main(1/50,3/47)": _rational_row(SLOW, 40, 2100),
    "theorem-main(1/50,3/47)-capped": _rational_row(SLOW, 40, 600),
    "corollary(1/3)-12": _rational_row(_lucas_form(Fraction(1, 2)), 12, 100),
    "rho=2^-64-3000": _rational_row(_lucas_form(Fraction(1, 1 << 64)), 3000, 400),
    # t_n below 2^-(2^20), beyond an exact rational, from n = 210 on
    "rho=2^-5000": _rational_row(_lucas_form(Fraction(1, 1 << 5000)), 40, 1000),
    "rho=1-2^-90-12": _rational_row(NEAR_ONE, 12, 50),
    "rho=1-2^-90-capped": _rational_row(NEAR_ONE, 40, 50),
    "fib-even-300": _lucas_row(LucasParams(3, 1), 1, 300, 500),
    "sqrt5-k-even-100": _lucas_row(SQRT5, 2, 100, 500),
    "sinh-theta(1/10)": _sinh_theta_row(40, 600),
    "sinh-theta(1/10)-capped": _sinh_theta_row(40, 100),
}


@pytest.mark.parametrize("form, cap, digits, max_terms", TRUNCATIONS.values(), ids=TRUNCATIONS.keys())
def test_truncation_search_matches_a_scan(monkeypatch, form, cap, digits, max_terms):
    # exact, Q(sqrt(D)) and interval forms, caps near 0 and near 1, and the
    # term cap reached; the search decides as the scan whatever its
    # estimate: too early, too late, beyond the cap, negative or NaN
    enclosed, tail_after = _tail_after(form, cap)
    budget = PrecisionBudget.for_digits(digits)
    expected = _scanned_truncation(tail_after, budget.tolerance / 2, max_terms)
    n_terms = series._choose_truncation(enclosed, cap, budget, max_terms, tail_after)
    assert (n_terms, tail_after(n_terms)) == expected
    for estimate in (0, max_terms, 10 ** 9, -5, float("nan")):
        monkeypatch.setattr(series, "_truncation_estimate", lambda *args: estimate)
        n_terms = series._choose_truncation(enclosed, cap, budget, max_terms, tail_after)
        assert (n_terms, tail_after(n_terms)) == expected, estimate


def test_truncation_runs_before_the_form_check(monkeypatch):
    # a series whose tail cannot be certified stops before the exact form
    # check, which at Lucas index k multiplies integers of O(k) bits
    def uncertified(*args):
        raise PrecisionError("tail out of reach")

    def checked(*args):
        raise AssertionError("form checked before the truncation")

    monkeypatch.setattr(series, "_choose_truncation", uncertified)
    monkeypatch.setattr(series, "_check_form", checked)
    with pytest.raises(PrecisionError):
        corollary_verify(Fraction(1, 3), B40)


@pytest.mark.parametrize(
    "name, params, digits",
    [("theorem-main", {"a": "1/50", "b": "3/47"}, 40), ("corollary", {"t": "1/50"}, 40), ("fib-even", {"k": "1"}, 300),
     ("fib-even", {"k": "1"}, 1000)],
)
def test_truncation_certifies_few_terms(monkeypatch, name, params, digits):
    # the search tries its estimate of the truncation point and the index
    # before it, so tail_bound runs at most twice, and the bound it accepts
    # is the final tail; ratios near 0.96 put 2000 terms before
    # it, and at 1000 digits the crossing term, about 10^-1000, lies below
    # the smallest double
    calls = []
    original = series.tail_bound

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, "tail_bound", counted)
    report = series.IDENTITIES[name].run(PrecisionBudget.for_digits(digits), series.DEFAULT_MAX_TERMS, None, params)
    assert report.verdict == "pass"
    assert len(calls) <= 2


PARAMETER = st.integers(2, 400).flatmap(lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))


@settings(max_examples=25, deadline=None)
@given(PARAMETER, PARAMETER)
def test_streamed_terms_equal_theorem_term(a, b):
    assume(a != b)
    for inst in (TwoParamInstance(a, b), TwoParamInstance(b, a)):
        for n, term in enumerate(islice(series._theorem_terms(inst), 40)):
            assert term == theorem_main_term(inst, n)
            assert _two_param_form(inst).term(n) == term


def _perturbed_terms(monkeypatch, change):
    """Replace the summed stream of every Lambert-form series by
    ``change(stream)``."""
    original = series._lambert_terms

    def terms(form, w):
        return change(original(form, w))

    monkeypatch.setattr(series, "_lambert_terms", terms)


def test_corollary_rejects_a_perturbed_streamed_term(monkeypatch):
    def raise_term_7(stream):
        for n, term in enumerate(stream):
            # 2^-60 relative, far above the lhs radius
            yield ScaledInterval(term.lo + (term.lo >> 60), term.hi + (term.hi >> 60), term.scale) if n == 7 else term

    assert corollary_verify(Fraction(1, 3), B40).verdict == "pass"
    _perturbed_terms(monkeypatch, raise_term_7)
    assert corollary_verify(Fraction(1, 3), B40).verdict == "fail"


def test_scaled_pairs_give_the_same_reports(monkeypatch):
    # a finer scale for the same integer enclosures changes neither the
    # truncation nor any converted interval
    t, inst = Fraction(1, 3), TwoParamInstance(Fraction(2, 3), Fraction(1, 3))
    plain = emit_report(corollary_verify(t, B40)), emit_report(theorem_main_verify(inst, B40))
    _perturbed_terms(
        monkeypatch, lambda stream: (ScaledInterval(x.lo << 6, x.hi << 6, x.scale + 6) for x in stream)
    )
    assert (emit_report(corollary_verify(t, B40)), emit_report(theorem_main_verify(inst, B40))) == plain


def test_corollary_check_accepts_equal_values_in_other_form():
    t = Fraction(2, 7)
    form = _lucas_form((1 - t) / (1 + t))
    remark = [corollary_remark_term(t, n + 1) for n in range(5)]
    # the same values as Q(sqrt(5)) elements
    embedded = [QuadraticElement.from_rational(value, 5) for value in remark]
    _check_form(form, iter(embedded))
    for n in range(5):
        wrong = remark[:n] + [remark[n] * (1 + Fraction(1, 10 ** 40))] + remark[n + 1:]
        with pytest.raises(AssertionError, match=f"summand {n}"):
            _check_form(form, iter(wrong))


def test_form_check_compares_the_radical_parts():
    # a summand t_n + 10^-40 sqrt(5) off a rational form: K X equals the
    # rational part of t_n (1 - s rho X)^2, and only the radical part differs
    t = Fraction(2, 7)
    form = _lucas_form((1 - t) / (1 + t))
    remark = [corollary_remark_term(t, n + 1) for n in range(5)]
    for n in range(5):
        wrong = remark[:n] + [remark[n] + QuadraticElement(0, Fraction(1, 10 ** 40), 5)] + remark[n + 1:]
        with pytest.raises(AssertionError, match=f"summand {n}"):
            _check_form(form, iter(wrong))


def test_form_check_folds_a_square_radicand():
    # v = (v - 2) + sqrt(4) holds a rational value with a radical part: it
    # folds into A, and the check compares values, not triples
    t = Fraction(2, 7)
    form = _lucas_form((1 - t) / (1 + t))
    remark = [corollary_remark_term(t, n + 1) for n in range(5)]
    _check_form(form, iter(QuadraticElement(value - 2, 1, 4) for value in remark))
    wrong = [QuadraticElement(value - 2, 1 + Fraction(1, 10 ** 40), 4) for value in remark]
    with pytest.raises(AssertionError, match="summand 0"):
        _check_form(form, iter(wrong))
