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
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_man_exp

from dilogid import series
from dilogid.enclosure import (
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    interval_precision,
    iv_from_fraction,
)
from dilogid.exactnum import QuadraticElement
from dilogid.harness import run_cli
from dilogid.lucas import LucasParams, lucas_uv, transform_params
from dilogid.series import (
    DEFAULT_MAX_TERMS,
    LambertForm,
    PellSolution,
    TwoParamInstance,
    _certified_cap,
    _check_form,
    _enclosed_form,
    _lambert_scale,
    _lambert_terms,
    _lucas_form,
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
    # as the verifier generates them: from the form enclosed at w + 24 bits
    w = _lambert_scale(form, cap, budget, DEFAULT_MAX_TERMS)
    return list(islice(_lambert_terms(_enclosed_form(form, w + 24), w), N_TERMS))


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
    form = _lucas_form((1 - t) / (1 + t))
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
    # a Q < 0 series is the Q > 0 one at (sqrt(D), -Q)
    return _lucas_pos_terms(params if series._coeff_sign(params.q) > 0 else transform_params(params), k)


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
        terms = list(islice(_lambert_terms(_enclosed_form(form, w + 24), w), 40))
    except PrecisionError:
        assume(False)
    for n, pair in enumerate(terms):
        assert pair.lo <= form.term(n) * (1 << w) <= pair.hi, n


def _exact_bounds(x: Fraction, w: int) -> tuple:
    """floor and ceiling of 2^w x, from the rational itself."""
    num = x.numerator << w
    return num // x.denominator, -(-num // x.denominator)


DENOMINATOR_2_23 = st.integers(2, 1 << 23).flatmap(lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))
# 2^50 x lies 1/q above, or below, an integer at q = 2^23 - 1: the closest
# that 2^w x comes to an integer it is not, for a denominator up to 2^23
_Q = (1 << 23) - 1
_ABOVE, _BELOW = Fraction(pow(2, -50, _Q), _Q), Fraction(_Q - pow(2, -50, _Q), _Q)


@settings(max_examples=300, deadline=None)
@given(DENOMINATOR_2_23, DENOMINATOR_2_23, DENOMINATOR_2_23, st.integers(4, 600))
@example(_ABOVE, _BELOW, _ABOVE, 50)
@example(_BELOW, _ABOVE, _BELOW, 50)
def test_rational_term_bounds_are_the_exact_floors(k, rho, s, w):
    # a rational enclosed at w + 24 bits lies within 2^-24 units of 2^-w,
    # closer than 2^w x comes to an integer it is not for a denominator up
    # to 2^23: its floor and ceiling at 2^-w are the rational's own, and so
    # are the terms, as the floors of the exact form would give them
    form = LambertForm(k, rho, s)
    enclosed = _enclosed_form(form, w + 24)
    exact = [_exact_bounds(x, w) for x in form]
    assert [series._scaled_bounds(v, w) for v in enclosed] == exact
    with interval_precision(w + 8):
        floors = LambertForm(*(iv.make_mpf((from_man_exp(lo, -w), from_man_exp(hi, -w))) for lo, hi in exact))

    def first_terms(stream):
        try:
            return list(islice(stream, 30))
        except PrecisionError as exc:
            return str(exc)

    assert first_terms(_lambert_terms(enclosed, w)) == first_terms(_lambert_terms(floors, w))


def _assert_tight(bound, term):
    # t_n <= bound <= t_n (1 + 2^-118): tail_bound, which reads the bound to
    # 96 bits, reads the term itself unless it lies that close below a
    # 96-bit number
    assert term <= bound <= term * (1 + Fraction(1, 1 << 118))


@settings(max_examples=200, deadline=None)
@given(UNIT, UNIT, UNIT, st.integers(0, 3000))
def test_cut_off_bound_is_tight_above_the_exact_term(k, rho, s, n):
    form = LambertForm(k, rho, s)
    _assert_tight(series._term_upper(_enclosed_form(form), n), form.term(n))


def _two_parameter_row(a, b, n):
    return _two_param_form(TwoParamInstance(a, b)), n


def _lucas_row(params, k, n):
    return _lucas_form(_lucas_rhs_arg(params, k)), n


CUT_OFF = {
    "theorem-main(1/50,3/47)": _two_parameter_row(Fraction(1, 50), Fraction(3, 47), 2000),
    "corollary(1/2)": (_lucas_form(Fraction(1, 3)), 40),
    "fib-even": _lucas_row(LucasParams(3, 1), 1, 40),
    "sqrt5-k-even": _lucas_row(LucasParams(QuadraticElement.sqrt_of(5), 1), 2, 40),
}


@pytest.mark.parametrize("form, n", CUT_OFF.values(), ids=CUT_OFF.keys())
def test_cut_off_bound_of_a_registry_form_is_tight(form, n):
    # against the exact rational or Q(sqrt(D)) term
    _assert_tight(series._term_upper(_enclosed_form(form), n), form.term(n))


@pytest.mark.parametrize("n", [0, 1, 40, 361, 3000])
def test_cut_off_bound_of_sinh_theta_contains_the_term(n):
    # sinh^2(theta) / sinh^2((n+2) theta) at theta = 1/10, by mpmath at 100
    # digits, against the form's intervals at 400 bits
    with interval_precision(400):
        decay = 1 / iv.exp(iv_from_fraction(Fraction(1, 10)))
        form = _lucas_form(decay * decay)
    with mp.workdps(100):
        theta = mp.mpf(1) / 10
        term = series.mpf_to_fraction(mp.sinh(theta) ** 2 / mp.sinh((n + 2) * theta) ** 2)
    error = Fraction(1, 10 ** 95)
    assert term * (1 - error) <= series._term_upper(form, n) <= term * (1 + error) * (1 + Fraction(1, 1 << 118))


@pytest.mark.parametrize("identity, params, digits", [
    ("theorem-main", {"a": "12/29", "b": "9/26"}, 40),
    ("q-minus-3", {"k": "1"}, 300),
])
def test_traced_rows_enclose_the_form_once(monkeypatch, identity, params, digits):
    # each --trace row bounds its tail from the cut-off term's formula; K,
    # rho and s are enclosed once per report, whatever the number of rows
    # (q-minus-3's are Q(sqrt(13)) values).  The series need 870 and 1223
    # terms, so both caps hold every row.
    calls = []
    original = series.quad_interval

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(series, "quad_interval", counted)
    counts = []
    for rows in (50, 500):
        calls.clear()
        trace: list = []
        series.IDENTITIES[identity].run(PrecisionBudget.for_digits(digits), rows, trace, params)
        assert len(trace) == rows
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_unseparated_denominator_is_refused():
    # sigma = 999/1000 rounds up to 1 at 4 bits
    with pytest.raises(PrecisionError):
        next(_lambert_terms(_enclosed_form(LambertForm(Fraction(1, 4), Fraction(999, 1000), Fraction(1)), 28), 4))


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
    ("corollary", lambda: (_lucas_form(Fraction(1, 2)),
                           (corollary_remark_term(Fraction(1, 3), n + 1) for n in range(10)), 5)),
    ("lucas-pos", lambda: (_lucas_form(_lucas_rhs_arg(LucasParams(5, 6), 1)), _lucas_pos_terms(LucasParams(5, 6), 1), 5)),
    ("lucas-neg", lambda: (_lucas_form(_lucas_rhs_arg(LucasParams(3, -2), 5)),
                           _lucas_pos_terms(transform_params(LucasParams(3, -2)), 5), 5)),
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
    # the reduced stream interleaves A_n and B_n: a wrong B_1 is caught
    params = LucasParams(1, -1)
    form = _lucas_form(_lucas_rhs_arg(params, 1))
    exact = list(islice(_lucas_pos_terms(transform_params(params), 1), 5))
    exact[1] = exact[1] * PERTURB
    with pytest.raises(AssertionError, match="summand 1"):
        _check_form(form, iter(exact), 5)


def test_q_negative_verifier_checks_five_terms_of_the_reduced_stream(monkeypatch):
    original = series._lucas_pos_terms

    def wrong_fifth(params, k):
        for n, term in enumerate(original(params, k)):
            yield term * PERTURB if n == 4 else term

    monkeypatch.setattr(series, "_lucas_pos_terms", wrong_fifth)
    with pytest.raises(AssertionError, match="summand 4"):
        lucas_neg_verify(LucasParams(1, -1), 1, B40)


@pytest.mark.parametrize("sol", [PellSolution(3, 2, 2), PellSolution(1, 1, 2)], ids=["positive", "negative"])
def test_bridgeman_checks_the_form_against_powers_of_u(monkeypatch, sol):
    # Bridgeman's own terms come from u^m, m >= 2; the closed form from u^2
    assert bridgeman_verify(sol, B40).verdict == "pass"
    original = series.quad_pow
    monkeypatch.setattr(series, "quad_pow", lambda x, m: original(x, m) * (PERTURB if m > 2 else 1))
    with pytest.raises(AssertionError, match="does not match the Lambert form"):
        bridgeman_verify(sol, B40)


CRITERION_9 = [PellSolution(3, 2, 2), PellSolution(1, 1, 2), PellSolution(2, 1, 5), PellSolution(5, 2, 6),
               PellSolution(8, 3, 7)]


@pytest.mark.parametrize("sol", CRITERION_9, ids=lambda sol: f"{sol.a}-{sol.b}-{sol.n}")
def test_bridgeman_terms_are_the_lucas_terms(monkeypatch, sol):
    # the lemma that makes Bridgeman's series the k = 1 Lucas series of
    # pell_to_lucas: the terms its one form check reads, from powers of u,
    # are the Lucas terms at 20 indices (pairs for a negative solution)
    checked = []
    original = series._check_form

    def recording(form, exact, count=5):
        checked.append(list(islice(exact, 4 * count)))
        original(form, iter(checked[-1]), count)

    monkeypatch.setattr(series, "_check_form", recording)
    assert bridgeman_verify(sol, B40).verdict == "pass"
    params = pell_to_lucas(sol).params
    lucas = _lucas_exact(params, 1)
    assert len(checked) == 1
    assert checked[0] == list(islice(lucas, 20 if sol.sign > 0 else 40))


@pytest.mark.parametrize("verify", [lambda: theorem_main_verify(TwoParamInstance(Fraction(2, 3), Fraction(1, 3)), B40)],
                         ids=["theorem-main"])
@pytest.mark.parametrize("which", range(4), ids=["K", "rho", "s", "shift"])
def test_verifier_rejects_a_wrong_two_parameter_form(monkeypatch, verify, which):
    original = series._two_param_form
    monkeypatch.setattr(series, "_two_param_form", lambda inst: list(_wrong_forms(original(inst)))[which])
    with pytest.raises(AssertionError, match="does not match the Lambert form"):
        verify()


# every geometric family but theorem-main takes the corollary's form
@pytest.mark.parametrize("which", range(4), ids=["K", "rho", "s", "shift"])
@pytest.mark.parametrize(
    "verify",
    [
        lambda: corollary_verify(Fraction(1, 3), B40),
        lambda: lucas_pos_verify(LucasParams(3, 1), 1, B40),
        lambda: lucas_neg_verify(LucasParams(1, -1), 1, B40),
        lambda: bridgeman_verify(PellSolution(3, 2, 2), B40),
        lambda: bridgeman_verify(PellSolution(1, 1, 2), B40),
    ],
    ids=["corollary", "lucas-pos", "lucas-neg", "bridgeman-3-2-2", "bridgeman-1-1-2"],
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


# ---------------------------------------------------------------------------
# every family but theorem-main is the corollary at t = (1 - rho)/(1 + rho)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 50), Fraction(6, 119), Fraction(9, 10)], ids=str)
def test_corollary_form_is_the_lucas_form(t):
    # the two-parameter form at ((1+t)/2, (1-t)/2), exactly
    assert _two_param_form(TwoParamInstance((1 + t) / 2, (1 - t) / 2)) == _lucas_form((1 - t) / (1 + t))


# (P, Q, k) with a rational rho = (Q/alpha^2)^k, and t = U_k sqrt(D) / V_k
RATIONAL_RHO = [((5, 6, 1), Fraction(1, 5)), ((3, 2, 1), Fraction(1, 3)), ((3, 2, 2), Fraction(3, 5)),
                ((5, 6, 3), Fraction(19, 35))]


@pytest.mark.parametrize("pqk, t", RATIONAL_RHO, ids=[str(t) for _, t in RATIONAL_RHO])
def test_corollary_at_the_lucas_t_gives_the_lucas_report(pqk, t):
    p, q, k = pqk
    params = LucasParams(p, q)
    uv = lucas_uv(params, k)
    assert uv.u * params.sqrt_d_exact() / uv.v == t
    corollary, lucas = corollary_verify(t, B40), lucas_pos_verify(params, k, B40)
    assert (corollary.lhs, corollary.rhs, corollary.residual, corollary.terms_used) == (
        lucas.lhs, lucas.rhs, lucas.residual, lucas.terms_used)
    # the Lucas cap is certified from an interval, at or above rho
    assert corollary.tail_bound <= lucas.tail_bound
