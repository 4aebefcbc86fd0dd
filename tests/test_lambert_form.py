"""The Lambert form t_n = K rho^n / (1 - s rho^(n+1))^2 of the geometric
series and its fixed-point term generator.

Every generated enclosure must contain the exact term (or overlap the
closed-form interval term of sinh-theta) and lie inside (0, 1); a wrong
description must fail the five-index exact check, and a dropped or
shifted summed term must fail the verdict.
"""

import contextlib
import io
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import iv

from dilogid import series
from dilogid.enclosure import (
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    ScaledInterval,
    interval_precision,
    iv_from_fraction,
)
from dilogid.exactnum import QuadraticElement
from dilogid.harness import run_cli
from dilogid.lucas import LucasParams
from dilogid.series import (
    DEFAULT_MAX_TERMS,
    LambertForm,
    PellSolution,
    TwoParamInstance,
    _certified_cap,
    _check_form,
    _lambert_scale,
    _lambert_terms,
    _lucas_form,
    _lucas_neg_terms,
    _lucas_pos_terms,
    _lucas_rhs_arg,
    _ratio_cap_sup,
    _theorem_terms,
    _two_param_form,
    bridgeman_verify,
    catalog_verify,
    corollary_remark_term,
    corollary_verify,
    lucas_neg_verify,
    lucas_pos_verify,
    pell_to_lucas,
    theorem_main_verify,
)

B40 = PrecisionBudget(40)
N_TERMS = 300


def _generated(form, cap, budget=B40):
    w = _lambert_scale(form, cap, budget, DEFAULT_MAX_TERMS)
    return list(islice(_lambert_terms(form, w), N_TERMS))


def _assert_encloses(enclosures, exact_terms, budget=B40):
    """Each enclosure contains its exact term and lies inside (0, 1):
    above 0 for every term above 2^-working_bits, the terms the
    truncation can keep."""
    floor = Fraction(1, 1 << budget.working_bits)
    for n, (pair, term) in enumerate(zip(enclosures, exact_terms)):
        one = 1 << pair.scale
        assert 0 <= pair.lo <= pair.hi < one, n
        if isinstance(term, QuadraticElement):
            scaled = term * one
            assert (scaled - pair.lo).sign() >= 0 and (pair.hi - scaled).sign() >= 0, n
            assert pair.lo > 0 or term < floor, n
        else:
            assert pair.lo <= term * one <= pair.hi, n
            assert pair.lo > 0 or term < floor, n


PARAMETER = st.integers(2, 200).flatmap(lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))


@settings(max_examples=15, deadline=None)
@given(PARAMETER, PARAMETER)
def test_two_parameter_enclosures_contain_the_exact_terms(a, b):
    assume(a != b)
    inst = TwoParamInstance(a, b)
    form = _two_param_form(inst)
    _assert_encloses(_generated(form, _certified_cap(form.rho)), _theorem_terms(inst))


@settings(max_examples=15, deadline=None)
@given(PARAMETER)
def test_corollary_enclosures_contain_the_exact_terms(t):
    form = _two_param_form(TwoParamInstance((1 + t) / 2, (1 - t) / 2))
    exact = (corollary_remark_term(t, n + 1) for n in range(N_TERMS))
    _assert_encloses(_generated(form, _certified_cap(form.rho)), exact)


LUCAS = [
    ("fib-even", LucasParams(3, 1), 1),
    ("chebyshev-x(2)", LucasParams(4, 1), 1),
    ("repunit-x(2)", LucasParams(3, 2), 1),
    ("fib-lucas-neg", LucasParams(1, -1), 1),
    ("pell", LucasParams(2, -1), 1),
    ("q-minus-3", LucasParams(1, -3), 1),
    ("sqrt5-k-odd", LucasParams(QuadraticElement.sqrt_of(5), 1), 1),
    ("sqrt5-k-even", LucasParams(QuadraticElement.sqrt_of(5), 1), 2),
    ("bridgeman(3,2,2)", pell_to_lucas(PellSolution(3, 2, 2)).params, 1),
    ("bridgeman(1,1,2)", pell_to_lucas(PellSolution(1, 1, 2)).params, 1),
]


def _lucas_exact(params, k):
    if series._coeff_sign(params.q) > 0:
        return _lucas_pos_terms(params, k)
    return chain.from_iterable(_lucas_neg_terms(params, k))


@pytest.mark.parametrize("name, params, k", LUCAS, ids=[row[0] for row in LUCAS])
def test_lucas_enclosures_contain_the_exact_terms(name, params, k):
    form = _lucas_form(_lucas_rhs_arg(params, k))
    _assert_encloses(_generated(form, _ratio_cap_sup(params, k)), _lucas_exact(params, k))


@pytest.mark.parametrize("theta", [Fraction(1, 10), Fraction(1), Fraction(3)], ids=str)
def test_sinh_theta_enclosures_overlap_the_closed_form(theta):
    bits = B40.working_bits
    with interval_precision(bits):
        growth = iv.exp(iv_from_fraction(theta))
        decay = 1 / growth
        rho = decay * decay
        form = _lucas_form(rho)
        cap = _certified_cap(rho)
        # the closed form (g - 1/g)^2 / (g^n - g^-n)^2, n >= 2
        numer = (growth - decay) ** 2
        closed = [numer / (growth ** n - decay ** n) ** 2 for n in range(2, N_TERMS + 2)]
    floor = Fraction(1, 1 << bits)
    for n, (pair, term) in enumerate(zip(_generated(form, cap), closed)):
        lo, hi = ErrorBoundedValue.from_interval(term).endpoints()
        one = 1 << pair.scale
        assert 0 <= pair.lo <= pair.hi < one, n
        assert pair.lo <= hi * one and lo * one <= pair.hi, n
        assert pair.lo > 0 or hi < floor, n


UNIT = st.integers(2, 60).flatmap(lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))


@settings(max_examples=300, deadline=None)
@given(UNIT, UNIT, UNIT, st.integers(4, 48))
def test_enclosures_contain_exact_terms_at_coarse_scales(k, rho, s, w):
    # at a scale of a few bits every rounding direction matters
    form = LambertForm(k, rho, s)
    try:
        terms = list(islice(_lambert_terms(form, w), 40))
    except PrecisionError:
        assume(False)
    for n, pair in enumerate(terms):
        assert pair.lo <= form.term(n) * (1 << w) <= pair.hi, n


@settings(max_examples=200, deadline=None)
@given(UNIT, UNIT, UNIT, st.integers(4, 48), st.integers(0, 3000))
def test_started_streams_contain_exact_terms_at_coarse_scales(k, rho, s, w, start):
    # rho^start by square and multiply, each product floored or ceiled
    form = LambertForm(k, rho, s)
    try:
        terms = list(islice(series._lambert_stream(form, w, start), 3))
    except PrecisionError:
        assume(False)
    for n, pair in enumerate(terms, start):
        assert pair.lo <= form.term(n) * (1 << w) <= pair.hi, n


def _two_parameter_row(a, b, n):
    form = _two_param_form(TwoParamInstance(a, b))
    return form, _certified_cap(form.rho), n


def _lucas_row(params, k, n):
    return _lucas_form(_lucas_rhs_arg(params, k)), _ratio_cap_sup(params, k), n


CUT_OFF = {
    "theorem-main(1/50,3/47)": _two_parameter_row(Fraction(1, 50), Fraction(3, 47), 2000),
    "corollary(1/2)": _two_parameter_row(Fraction(3, 4), Fraction(1, 4), 40),
    "fib-even": _lucas_row(LucasParams(3, 1), 1, 40),
    "sqrt5-k-even": _lucas_row(LucasParams(QuadraticElement.sqrt_of(5), 1), 2, 40),
}


@pytest.mark.parametrize("form, cap, n", CUT_OFF.values(), ids=CUT_OFF.keys())
def test_cut_off_term_keeps_the_tail_bits(form, cap, n):
    # enclosed again where its upper end has _cut_off_bits bits, a term's
    # bounds agree to 2^-115 of it, whatever the stream's scale
    bits = series._cut_off_bits(cap)
    for w in (200, 211, 260):
        term = next(series._lambert_stream(form, w, n))
        fine = next(series._lambert_stream(form, term.scale + bits - term.hi.bit_length(), n))
        assert fine.hi.bit_length() >= bits - 1
        assert (fine.hi - fine.lo) << 115 <= fine.lo


def test_unseparated_denominator_is_refused():
    # sigma = 999/1000 rounds up to 1 at 4 bits
    with pytest.raises(PrecisionError):
        next(_lambert_terms(LambertForm(Fraction(1, 4), Fraction(999, 1000), Fraction(1)), 4))


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

PERTURB = 1 + Fraction(1, 10 ** 30)


def _wrong_forms(form):
    yield LambertForm(form.k * PERTURB, form.rho, form.s)
    yield LambertForm(form.k, form.rho * PERTURB, form.s)
    yield LambertForm(form.k, form.rho, form.s * PERTURB)
    # shifted by one index: t'_n = t_(n+1)
    yield LambertForm(form.k * form.rho, form.rho, form.s * form.rho)


EXACT_FAMILIES = [
    ("theorem-main", lambda: (_two_param_form(TwoParamInstance(Fraction(1, 50), Fraction(3, 47))),
                              _theorem_terms(TwoParamInstance(Fraction(1, 50), Fraction(3, 47))), 5)),
    ("corollary", lambda: (_two_param_form(TwoParamInstance(Fraction(2, 3), Fraction(1, 3))),
                           (corollary_remark_term(Fraction(1, 3), n + 1) for n in range(10)), 5)),
    ("lucas-pos", lambda: (_lucas_form(_lucas_rhs_arg(LucasParams(5, 6), 1)), _lucas_pos_terms(LucasParams(5, 6), 1), 5)),
    ("lucas-neg", lambda: (_lucas_form(_lucas_rhs_arg(LucasParams(3, -2), 5)),
                           chain.from_iterable(_lucas_neg_terms(LucasParams(3, -2), 5)), 10)),
    ("sqrt5", lambda: (_lucas_form(_lucas_rhs_arg(LucasParams(QuadraticElement.sqrt_of(5), 1), 3)),
                       _lucas_pos_terms(LucasParams(QuadraticElement.sqrt_of(5), 1), 3), 5)),
]


@pytest.mark.parametrize("name, build", EXACT_FAMILIES, ids=[row[0] for row in EXACT_FAMILIES])
def test_five_index_check_accepts_the_form_and_rejects_wrong_ones(name, build):
    form, exact, count = build()
    exact = list(islice(exact, count))
    _check_form(form, iter(exact), count)
    for wrong in _wrong_forms(form):
        with pytest.raises(AssertionError, match="does not match the Lambert form"):
            _check_form(wrong, iter(exact), count)


def test_q_negative_check_covers_both_parities():
    # the A terms alone agree, a wrong B_1 is caught among the five pairs
    params = LucasParams(1, -1)
    form = _lucas_form(_lucas_rhs_arg(params, 1))
    exact = list(islice(chain.from_iterable(_lucas_neg_terms(params, 1)), 10))
    exact[1] = exact[1] * PERTURB
    with pytest.raises(AssertionError, match="summand 1"):
        _check_form(form, iter(exact), 10)


def test_q_negative_verifier_checks_five_pairs(monkeypatch):
    original = series._lucas_neg_terms

    def wrong_b5(params, k):
        for m, (a_term, b_term) in enumerate(original(params, k)):
            yield a_term, b_term * PERTURB if m == 4 else b_term

    monkeypatch.setattr(series, "_lucas_neg_terms", wrong_b5)
    with pytest.raises(AssertionError, match="summand 9"):
        lucas_neg_verify(LucasParams(1, -1), 1, B40)


@pytest.mark.parametrize("sol", [PellSolution(3, 2, 2), PellSolution(1, 1, 2)], ids=["positive", "negative"])
def test_bridgeman_checks_the_form_against_powers_of_u(monkeypatch, sol):
    # Bridgeman's own terms come from u^m, m >= 2; the closed form from u^2
    assert bridgeman_verify(sol, B40).verdict == "pass"
    original = series.quad_pow
    monkeypatch.setattr(series, "quad_pow", lambda x, m: original(x, m) * (PERTURB if m > 2 else 1))
    with pytest.raises(AssertionError, match="does not match the Lambert form"):
        bridgeman_verify(sol, B40)


@pytest.mark.parametrize(
    "verify",
    [
        lambda: theorem_main_verify(TwoParamInstance(Fraction(2, 3), Fraction(1, 3)), B40),
        lambda: corollary_verify(Fraction(1, 3), B40),
    ],
    ids=["theorem-main", "corollary"],
)
@pytest.mark.parametrize("which", range(4), ids=["K", "rho", "s", "shift"])
def test_verifier_rejects_a_wrong_two_parameter_form(monkeypatch, verify, which):
    original = series._two_param_form
    monkeypatch.setattr(series, "_two_param_form", lambda inst: list(_wrong_forms(original(inst)))[which])
    with pytest.raises(AssertionError, match="does not match the Lambert form"):
        verify()


@pytest.mark.parametrize("which", range(4), ids=["K", "rho", "s", "shift"])
@pytest.mark.parametrize(
    "verify",
    [lambda: lucas_pos_verify(LucasParams(3, 1), 1, B40), lambda: lucas_neg_verify(LucasParams(1, -1), 1, B40)],
    ids=["lucas-pos", "lucas-neg"],
)
def test_verifier_rejects_a_wrong_lucas_form(monkeypatch, verify, which):
    original = series._lucas_form
    monkeypatch.setattr(series, "_lucas_form", lambda rho: list(_wrong_forms(original(rho)))[which])
    with pytest.raises(AssertionError, match="does not match the Lambert form"):
        verify()


def _dropped(index):
    def change(stream):
        return (term for n, term in enumerate(stream) if n != index)

    return change


def _shifted(index):
    # the term at ``index`` replaced by the next one
    def change(stream):
        terms = list(islice(stream, 400))
        terms[index] = terms[index + 1]
        return iter(terms)

    return change


CATALOG = [
    ("theorem-main", {"a": "2/3", "b": "1/3"}),
    ("corollary", {"t": "1/3"}),
    ("fib-even", {"k": "1"}),
    ("fib-lucas-neg", {"k": "1"}),
    ("sqrt5-k-even", {"k": "2"}),
    ("bridgeman", {"pell_a": "3", "pell_b": "2", "pell_n": "2"}),
    ("sinh-theta", {"theta": "1"}),
]


@pytest.mark.parametrize("change", [_dropped(0), _dropped(3), _shifted(0), _shifted(4)],
                         ids=["drop-0", "drop-3", "shift-0", "shift-4"])
@pytest.mark.parametrize("name, params", CATALOG, ids=[row[0] for row in CATALOG])
def test_dropped_or_shifted_summed_term_fails(monkeypatch, name, params, change):
    assert catalog_verify(name, B40, **params).verdict == "pass"
    original = series._lambert_terms
    monkeypatch.setattr(series, "_lambert_terms", lambda form, w: change(original(form, w)))
    assert catalog_verify(name, B40, **params).verdict == "fail"


@pytest.mark.parametrize(
    "name, params",
    [
        ("theorem-main", {"a": "1/2", "b": "1e-100"}),
        ("fib-even", {"k": "100"}),
        ("sqrt5-k-even", {"k": "200"}),
        ("sinh-theta", {"theta": "100"}),
    ],
    ids=["rational-K", "lucas-K", "sqrt5-K", "interval-K"],
)
def test_first_term_far_below_the_working_precision(name, params):
    # t_0 near 10^-100 or smaller: the scale takes -log2(K) more bits, so the
    # first enclosure stays separated from 0
    report = catalog_verify(name, B40, **params)
    assert report.verdict == "pass" and report.terms_used == 1
    assert report.lhs.endpoints()[0] > 0


def test_trace_of_a_q_sqrt_d_series(tmp_path):
    # the summed terms of a Q(sqrt(5)) series print as decimals
    trace = tmp_path / "trace.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["verify", "--identity", "sqrt5-k-odd", "--digits", "30", "--trace", str(trace)]) == 0
    rows = trace.read_text().splitlines()
    assert rows[1].startswith("0,0.2000") and len(rows) == 1 + 76
