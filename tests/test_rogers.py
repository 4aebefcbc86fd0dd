"""Rigorous dilogarithm and Rogers-L evaluation."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from dilogid.enclosure import (
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    mpf_to_fraction,
    rational_bounds,
)
from dilogid.exactnum import QuadraticElement, quad_to_real
from dilogid.rogers import (
    _li2_series_raw,
    _log_product_raw,
    _raw,
    _rogers_eval,
    _validate_unit_arg,
    abel_residual,
    li2,
    reflection_residual,
    rogers_l,
)

from conftest import (
    assert_encloses,
    li2_brute_bracket,
    li2_reference,
    pi_squared_over,
    random_unit_fraction,
    rogers_reference,
)

B50 = PrecisionBudget.for_digits(50)
TOL50 = Fraction(1, 10 ** 50)

INV_PHI = QuadraticElement(Fraction(-1, 2), Fraction(1, 2), 5)
INV_PHI_SQ = QuadraticElement(Fraction(3, 2), Fraction(-1, 2), 5)


class TestLi2:
    def test_zero(self):
        enc = li2(Fraction(0), B50)
        assert enc.midpoint == 0 and enc.radius == 0

    def test_one_is_zeta_two(self):
        assert_encloses(li2(Fraction(1), B50), pi_squared_over(6))

    def test_half_against_brute_force(self):
        enc = li2(Fraction(1, 2), B50)
        lo, hi = li2_brute_bracket(Fraction(1, 2), 220)
        assert lo - enc.radius <= enc.midpoint <= hi + enc.radius
        assert abs(enc.midpoint - Fraction("0.58224052646501250590")) < Fraction(1, 10 ** 19)

    def test_half_closed_form(self):
        # Li2(1/2) = pi^2/12 - log(2)^2/2
        from mpmath import mp
        from dilogid.enclosure import mpf_to_fraction

        with mp.workdps(70):
            ref = mpf_to_fraction(mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2)
        assert_encloses(li2(Fraction(1, 2), B50), ref)

    @pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(3, 5), Fraction(9, 10), Fraction(99, 100)])
    def test_against_polylog(self, x):
        assert_encloses(li2(x, B50), li2_reference(x))

    def test_radius_meets_budget(self):
        for digits in (15, 40, 50):
            budget = PrecisionBudget.for_digits(digits)
            enc = li2(Fraction(2, 3), budget)
            assert enc.radius <= Fraction(1, 10 ** digits)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            li2(Fraction(-1, 10), B50)
        with pytest.raises(DomainError):
            li2(Fraction(11, 10), B50)

    def test_enclosure_input(self):
        arg = quad_to_real(INV_PHI, 220)
        assert_encloses(li2(arg, B50), li2_reference(Fraction(arg.midpoint)), Fraction(1, 10 ** 45))


class TestRogersL:
    def test_boundary_values(self):
        zero = rogers_l(Fraction(0), B50)
        assert zero.midpoint == 0 and zero.radius == 0
        assert_encloses(rogers_l(Fraction(1), B50), pi_squared_over(6))

    def test_special_value_half(self):
        assert_encloses(rogers_l(Fraction(1, 2), B50), pi_squared_over(12))

    def test_special_value_inverse_phi(self):
        enc = rogers_l(quad_to_real(INV_PHI, 240), B50)
        assert_encloses(enc, pi_squared_over(10), Fraction(1, 10 ** 48))

    def test_special_value_inverse_phi_squared(self):
        enc = rogers_l(quad_to_real(INV_PHI_SQ, 240), B50)
        assert_encloses(enc, pi_squared_over(15), Fraction(1, 10 ** 48))

    @pytest.mark.parametrize(
        "x", [Fraction(1, 100), Fraction(1, 3), Fraction(2, 3), Fraction(97, 100)]
    )
    def test_against_polylog(self, x):
        assert_encloses(rogers_l(x, B50), rogers_reference(x))

    def test_tiny_argument(self):
        x = Fraction(1, 10 ** 60)
        enc = rogers_l(x, B50)
        # L(x) ~ x log(1/x) near zero; enclosure must stay sound and small
        assert 0 <= enc.midpoint - enc.radius <= enc.midpoint + enc.radius < Fraction(1, 10 ** 55)

    def test_near_one_argument(self):
        x = 1 - Fraction(1, 10 ** 60)
        enc = rogers_l(x, B50)
        assert_encloses(enc, pi_squared_over(6), Fraction(1, 10 ** 49))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rogers_l(Fraction(3, 2), B50)


class TestReflection:
    def test_symmetry_point(self):
        assert reflection_residual(Fraction(1, 2), B50).contains_zero()

    def test_boundary(self):
        assert reflection_residual(Fraction(0), B50).contains_zero()
        assert reflection_residual(Fraction(1), B50).contains_zero()

    def test_third(self):
        res = reflection_residual(Fraction(1, 3), B50)
        assert res.contains_zero()
        assert res.radius <= Fraction(1, 10 ** 49)

    def test_hundred_seeded_points(self):
        rng = random.Random(11223)
        for _ in range(100):
            x = random_unit_fraction(rng)
            assert reflection_residual(x, B50).contains_zero()


class TestAbel:
    def test_symmetric_instance(self):
        # both middle arguments equal (1/4)/(3/4) = 1/3
        x = Fraction(1, 2)
        assert x * (1 - x) / (1 - x * x) == Fraction(1, 3)
        assert abel_residual(x, x, B50).contains_zero()

    def test_generic_point(self):
        assert abel_residual(Fraction(3, 10), Fraction(7, 10), B50).contains_zero()

    def test_golden_instance(self):
        arg = quad_to_real(INV_PHI_SQ, 260)
        assert abel_residual(arg, arg, B50).contains_zero()

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            abel_residual(Fraction(0), Fraction(1, 2), B50)
        with pytest.raises(DomainError):
            abel_residual(Fraction(1, 2), Fraction(1), B50)

    def test_hundred_seeded_points(self):
        rng = random.Random(44556)
        for _ in range(100):
            x, y = random_unit_fraction(rng), random_unit_fraction(rng)
            assert abel_residual(x, y, B50).contains_zero()


class TestEnclosureArguments:
    """An enclosure enters the kernel as it is, its integers read directly."""

    def test_abel_with_one_exact_and_one_enclosure_argument(self):
        # the exact argument is converted to an interval for the five-term
        # arguments, the enclosure read on its integers
        arg = quad_to_real(INV_PHI_SQ, 260)
        for x, y in ((Fraction(3, 10), arg), (arg, Fraction(3, 10))):
            res = abel_residual(x, y, B50)
            assert res.contains_zero() and res.radius <= TOL50

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10 ** 30)])
    def test_endpoints_finer_than_the_kernel_scale(self, x):
        # endpoints of 4x the working bits, past the kernel's scale of
        # working bits + 20, are rounded outward to it: still an enclosure
        bits = 4 * B50.working_bits
        arg = ErrorBoundedValue.from_interval(iv.make_mpf(rational_bounds(x.numerator, x.denominator, bits)))
        assert arg.scale >= bits
        for value, reference in ((li2(arg, B50), li2_reference(x)), (rogers_l(arg, B50), rogers_reference(x))):
            assert_encloses(value, reference)
            assert value.radius <= TOL50

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(3, 8), Fraction(5, 8), Fraction(1)])
    def test_zero_width_enclosure_takes_the_exact_path(self, x):
        # a dyadic x: both endpoints are x exactly
        point = ErrorBoundedValue.from_fraction_pair(x, x)
        assert point.endpoints() == (x, x)
        exact = _validate_unit_arg(point)
        assert exact == (x.numerator, x.denominator)
        for evaluate in (li2, rogers_l, reflection_residual):
            from_point, from_fraction = evaluate(point, B50), evaluate(x, B50)
            assert from_point.endpoints() == from_fraction.endpoints()


class TestEnclosureDiscipline:
    def test_monotonicity_seeded(self):
        budget = PrecisionBudget.for_digits(30)
        rng = random.Random(889900)
        for _ in range(60):
            x, y = sorted((random_unit_fraction(rng), random_unit_fraction(rng)))
            if x == y:
                continue
            ex, ey = rogers_l(x, budget), rogers_l(y, budget)
            assert ex.midpoint < ey.midpoint + ex.radius + ey.radius

    def test_precision_refinement_nests(self):
        for x in (Fraction(1, 3), Fraction(7, 9), Fraction(1, 97)):
            coarse = rogers_l(x, PrecisionBudget.for_digits(20))
            fine = rogers_l(x, PrecisionBudget.for_digits(40))
            assert fine.radius < coarse.radius
            assert abs(fine.midpoint - coarse.midpoint) <= coarse.radius + fine.radius
            assert coarse.overlaps(fine)

    def test_budget_requires_positive_digits(self):
        with pytest.raises(ValueError):
            PrecisionBudget(0)

    def test_budget_tolerance(self):
        assert PrecisionBudget.for_digits(12).tolerance == Fraction(1, 10 ** 12)

    def test_escalation_failure_is_explicit(self):
        # a wide input enclosure cannot reach a 40-digit radius at the
        # working precision: the failure must surface, not a silent answer
        from dilogid.enclosure import PrecisionError

        wide = ErrorBoundedValue.from_fraction_pair(Fraction(1, 4), Fraction(1, 3))
        with pytest.raises(PrecisionError):
            rogers_l(wide, PrecisionBudget.for_digits(40))

    def test_enclosures_have_no_arithmetic(self):
        # sums run in the kernel's integer bounds or in mpmath.iv; an
        # enclosure plus a rational must not silently lose precision
        value = rogers_l(Fraction(1, 2), PrecisionBudget.for_digits(300))
        for combine in (
            lambda: value + Fraction(1, 3),
            lambda: value + value,
            lambda: 2 * value,
            lambda: Fraction(1, 3) + value,
            lambda: value - value,
            lambda: 1 - value,
            lambda: -value,
        ):
            with pytest.raises(TypeError):
                combine()


@settings(max_examples=40, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 500), max_value=Fraction(499, 500), max_denominator=500)
)
def test_reflection_property(x):
    assert reflection_residual(x, PrecisionBudget.for_digits(25)).contains_zero()


@settings(max_examples=25, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=100),
    y=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=100),
)
def test_abel_property(x, y):
    assert abel_residual(x, y, PrecisionBudget.for_digits(25)).contains_zero()


# The fixed-point kernel at several working precisions against mpmath's
# polylog at twice that precision or more.  y = p/q in (0, 1/2] and x = y
# (the direct branch) or 1 - y (the reflected one), either exact or as the
# one-ulp dyadic interval of y at the working precision, mirrored for 1 - y.
# Rounding each endpoint outward to prec bits costs under 2 ulps of 2^-prec,
# since L and Li2 stay below 2, and the fixed-point error count a small part
# of one ulp: exact points stay within 5 ulps.  A one-ulp interval of y adds
# its image, at most y 2^(1-prec) sup|f'| <= 1.5 ulps, and the same again
# where the interval enters twice: 8 ulps.
KERNEL_BITS = (60, 146, 430, 1100)
POINT_ULPS, INTERVAL_ULPS = 5, 8


@st.composite
def _rationals_up_to(draw, top=Fraction(1, 2)):
    q = draw(st.integers(min_value=2, max_value=10 ** 40))
    return Fraction(draw(st.integers(min_value=1, max_value=q * top.numerator // top.denominator)), q)


def _polylog_reference(x: Fraction, rogers: bool, bits: int) -> Fraction:
    """Li2(x), or L(x) when ``rogers``, at twice ``bits`` or more."""
    # 1400 bits keep 1 - 10^-200 apart from 1 with room to spare
    with mp.workprec(max(2 * bits, 1400)):
        xs = mp.mpf(x.numerator) / x.denominator
        value = mp.polylog(2, xs)
        if rogers:
            value += mp.log(xs) * mp.log(1 - xs) / 2
        return mpf_to_fraction(value)


@pytest.mark.parametrize("bits", KERNEL_BITS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(y=_rationals_up_to(), reflected=st.booleans(), interval=st.booleans())
@example(y=Fraction(1, 2), reflected=False, interval=False)
@example(y=Fraction(1, 2), reflected=False, interval=True)
@example(y=Fraction(1, 3), reflected=True, interval=True)
@example(y=Fraction(1, 10 ** 200), reflected=False, interval=False)
@example(y=Fraction(1, 10 ** 200), reflected=True, interval=False)
@example(y=Fraction(1, 10 ** 200), reflected=True, interval=True)
def test_kernel_contains_polylog(bits, y, reflected, interval):
    if interval:
        lo, hi = (mpf_to_fraction(mp.make_mpf(end)) for end in rational_bounds(y.numerator, y.denominator, bits))
        ends = (1 - hi, 1 - lo) if reflected else (lo, hi)
        x = ErrorBoundedValue.from_fraction_pair(*ends)
    else:
        ends = (1 - y,) if reflected else (y,)
        x = ends[0]
    for rogers in (False, True):
        ends_raw = _raw(_rogers_eval(x if interval else (x.numerator, x.denominator), bits, rogers), bits)
        lower, upper = (mpf_to_fraction(mp.make_mpf(end)) for end in ends_raw)
        # L and Li2 increase on (0, 1), so the image of an interval lies
        # between the values at its ends
        references = [_polylog_reference(end, rogers, bits) for end in ends]
        assert lower <= min(references) and max(references) <= upper
        assert (upper - lower) * 2 ** bits <= (INTERVAL_ULPS if interval else POINT_ULPS)


def _sweep_arguments(count: int = 200, seed: int = 31) -> list:
    """Fixed-seed enclosure arguments inside (0, 1), each with a working
    precision from 1 to 200 bits, where the kernel's scale is as coarse as
    21 bits and an undercounted unit would show: the wide [1/4, 1/3] and
    [3/5, 2/3], then in turn intervals straddling 1/2 (a third of them),
    points of zero width from 2^-299 to 1 - 2^-299, and intervals on
    either side of 1/2 up to a quarter wide, at scales of 8 to 300 bits."""
    pair = ErrorBoundedValue.from_fraction_pair
    rng = random.Random(seed)
    args = [pair(Fraction(1, 4), Fraction(1, 3)), pair(Fraction(3, 5), Fraction(2, 3))]
    while len(args) < count:
        s = rng.randint(8, 300)
        one, margin = 1 << s, 1 << (s - 6)
        kind = len(args) % 3
        if kind == 0:
            lo, hi = rng.randint(margin, one // 2 - 1), rng.randint(one // 2 + 1, one - margin)
        elif kind == 1:
            lo = hi = rng.randint(1, 1 << rng.randint(1, s - 1))
            if rng.random() < 0.5:
                lo = hi = one - lo
        else:
            lo = rng.randint(margin, one - 2 * margin)
            hi = min(lo + rng.randint(0, one // 4), one // 2 - 1 if lo < one // 2 else one - margin)
        args.append(ErrorBoundedValue(lo, hi, s))
    return [(arg, rng.randint(1, 200)) for arg in args]


def _sweep_reference(end: Fraction, bits: int) -> tuple:
    """Li2 and L at a dyadic point, at ``bits`` bits."""
    with mp.workprec(bits):
        x = mp.mpf(end.numerator) / end.denominator
        value = mp.polylog(2, x)
        return mpf_to_fraction(value), mpf_to_fraction(value + mp.log(x) * mp.log(1 - x) / 2)


def test_low_precision_kernel_contains_polylog():
    """The kernel's integer bounds on Li2 and L of an interval contain
    mpmath's polylog at both ends, 128 bits past the kernel's scale, before
    any rounding to the working precision could hide a missing unit: each
    function increases on (0, 1), so its image lies between those values.
    Wide and straddling intervals bound log(x) log(1-x) from one log of
    y's lower end (``_log_product_raw``)."""
    for x, prec in _sweep_arguments():
        bounds = [_rogers_eval(x, prec, rogers) for rogers in (False, True)]
        bits = max(bounds[0].scale, x.scale) + 128
        references = [_sweep_reference(Fraction(end, 1 << x.scale), bits) for end in {x.lo, x.hi}]
        for rogers, (lo, hi, scale) in enumerate(bounds):
            values = [reference[rogers] for reference in references]
            assert Fraction(lo, 1 << scale) <= min(values) and max(values) <= Fraction(hi, 1 << scale), (x, prec)


@pytest.mark.parametrize("n_terms", [None, 1, 4])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(y=_rationals_up_to(Fraction(3, 5)), bits=st.sampled_from(KERNEL_BITS))
@example(y=Fraction(1, 2), bits=60)
def test_fixed_point_sums_bound_the_series(n_terms, y, bits):
    """The integer sums at scale 2^-w bound 2^w Li2 and -2^w log(1-y) at
    the ends of the dyadic interval of y, also when the sums stop after one
    or four terms, where the tail bound carries the rest; y reaches 3/5, as
    an upper endpoint a rounding above 1/2 may."""
    w = bits + 20
    y_raw = rational_bounds(y.numerator, y.denominator, w)
    s2_lo, s2_hi, s1_lo, s1_hi = _sums_with_terms(y_raw, w, n_terms)
    with mp.workprec(w + 64):
        lo, hi = (mp.make_mpf(end) for end in y_raw)
        scale = mp.mpf(2) ** w
        assert s2_lo <= scale * mp.polylog(2, lo) and scale * mp.polylog(2, hi) <= s2_hi
        assert s1_lo <= -scale * mp.log(1 - lo) and -scale * mp.log(1 - hi) <= s1_hi


@pytest.mark.parametrize("n_terms", [None, 1, 4])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(y=_rationals_up_to(Fraction(3, 5)), bits=st.sampled_from(KERNEL_BITS))
def test_fixed_point_sums_bound_a_wide_interval(n_terms, y, bits):
    """On the wide interval [y (1 - 2^-8), y] the upper sums, which come
    from the lower end's stream, need the rise across the interval on top
    of the error count: the one-ulp intervals above do not."""
    w = bits + 20
    y_lo = y * (1 - Fraction(1, 256))
    y_raw = (rational_bounds(y_lo.numerator, y_lo.denominator, w)[0],
             rational_bounds(y.numerator, y.denominator, w)[1])
    s2_lo, s2_hi, s1_lo, s1_hi = _sums_with_terms(y_raw, w, n_terms)
    with mp.workprec(w + 64):
        lo, hi = (mp.make_mpf(end) for end in y_raw)
        scale = mp.mpf(2) ** w
        assert s2_lo <= scale * mp.polylog(2, lo) and scale * mp.polylog(2, hi) <= s2_hi
        assert s1_lo <= -scale * mp.log(1 - lo) and -scale * mp.log(1 - hi) <= s1_hi


@pytest.mark.parametrize(
    "y_lo, y_hi, li2_ratio, log_ratio",
    [(Fraction(1, 4), Fraction(1, 3), Fraction(105, 100), Fraction(107, 100)),
     (Fraction(3, 10), Fraction(1, 2), Fraction(119, 100), Fraction(119, 100))],
)
def test_wide_interval_sums_stay_near_the_growth(y_lo, y_hi, li2_ratio, log_ratio):
    """The rises bound each series' slope at y_hi, Li2's by -log(1-y_hi)/y_hi:
    the widths of the sums stay within these ratios of the growth of Li2
    and of -log(1-y) across the interval (1.047 and 1.061, 1.182 and 1.189
    measured); the slope 1/(1-y_hi) for both would give Li2 1.27 and 1.56."""
    w = 120
    y_raw = (rational_bounds(y_lo.numerator, y_lo.denominator, w)[0],
             rational_bounds(y_hi.numerator, y_hi.denominator, w)[1])
    s2_lo, s2_hi, s1_lo, s1_hi = _li2_series_raw(y_raw, w)
    with mp.workprec(w + 64):
        lo, hi = (mp.mpf(y.numerator) / y.denominator for y in (y_lo, y_hi))
        scale = mp.mpf(2) ** w
        assert s2_hi - s2_lo <= li2_ratio * scale * (mp.polylog(2, hi) - mp.polylog(2, lo))
        assert s1_hi - s1_lo <= log_ratio * scale * (mp.log(1 - lo) - mp.log(1 - hi))


def _sums_with_terms(y, w, n_terms):
    """``_li2_series_raw`` with its own term count, or with ``n_terms``."""
    if n_terms is None:
        return _li2_series_raw(y, w)
    with mock.patch("dilogid.rogers._series_terms_needed", lambda decay, bits: n_terms):
        return _li2_series_raw(y, w)


@pytest.mark.parametrize("n_terms", [None, 1, 4])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(y=_rationals_up_to(), bits=st.sampled_from(KERNEL_BITS))
@example(y=Fraction(1, 2), bits=60)
@example(y=Fraction(1, 10 ** 40), bits=60)
@example(y=Fraction(7, 10 ** 40), bits=60)
def test_exact_stream_sums_bound_the_series(n_terms, y, bits):
    """The single stream X_n = floor(X_(n-1) p/q) of an exact y = p/q <= 1/2
    gives sums at scale 2^-w that bound 2^w Li2(y) and -2^w log(1-y) from
    both sides, whatever the number of terms; below 2^-w, where 2^w y < 1,
    the lower sums must be 0."""
    w = bits + 20
    s2_lo, s2_hi, s1_lo, s1_hi = _sums_with_terms((y.numerator, y.denominator), w, n_terms)
    with mp.workprec(2 * w + 64):
        ys = mp.mpf(y.numerator) / y.denominator
        scale = mp.mpf(2) ** w
        assert s2_lo <= scale * mp.polylog(2, ys) <= s2_hi
        assert s1_lo <= -scale * mp.log(1 - ys) <= s1_hi


@pytest.mark.parametrize("prec", KERNEL_BITS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(y=_rationals_up_to(), s1=st.integers(min_value=1, max_value=2 ** 1200))
@example(y=Fraction(1, 2), s1=2 ** 1200)
@example(y=Fraction(1, 3), s1=2 ** 1200)
@example(y=Fraction(5, 13), s1=2 ** 1200)
@example(y=Fraction(3, 8), s1=2 ** 1200)
@example(y=Fraction(6, 13), s1=2 ** 1200)
def test_exact_log_product_bounds(prec, y, s1):
    """One log of q/p encloses |log y| S1 for an exact y = p/q <= 1/2 and
    an exact S1: the bounds hold at the integer scale, before any rounding
    to the working precision could hide a missing ulp or slack.  The log
    of the dyadic bound of q/p rounds down to within the slack below
    log(q/p) of its next float at 5/13 (60 bits), 3/8 (146 and 430 bits)
    and 6/13 (430 and 1100 bits): there the ulp alone falls short."""
    p_lo, p_hi = _log_product_raw((y.numerator, y.denominator), s1, s1, prec)
    with mp.workprec(2 * prec + 1300):
        exact = -mp.log(mp.mpf(y.numerator) / y.denominator) * s1
        assert p_lo <= exact <= p_hi


@pytest.mark.parametrize("prec", KERNEL_BITS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_rationals_up_to(), width=st.fractions(min_value=0, max_value=1, max_denominator=1000))
@example(a=Fraction(1, 4), width=Fraction(1, 6))
@example(a=Fraction(1, 3), width=Fraction(1))
@example(a=Fraction(2, 5), width=Fraction(3, 4))
@example(a=Fraction(49, 100), width=Fraction(1, 2))
@example(a=Fraction(1, 10 ** 40), width=Fraction(1))
def test_interval_log_product_bounds(prec, a, width):
    """One log of y_lo bounds |log y| S1 over a dyadic interval [y_lo, y_hi]
    with y_lo + y_hi <= 1, straddling 1/2 or not, from bounds on S1 at its
    two ends: at the integer scale 2^1200, before any rounding could hide a
    missing ulp, the lower bound lies below P(y_lo), the least value of P on
    the interval, and the upper one above P at min(y_hi, 1/2), its greatest."""
    b = a + width * (1 - 2 * a)
    y_raw = tuple(rational_bounds(end.numerator, end.denominator, prec)[0] for end in (a, b))
    with mp.workprec(2 * prec + 1300):
        lo, hi = (mp.make_mpf(end) for end in y_raw)
        scale = mp.mpf(2) ** 1200
        s1_lo, s1_hi = int(mp.floor(-mp.log(1 - lo) * scale)), int(mp.ceil(-mp.log(1 - hi) * scale))
        p_lo, p_hi = _log_product_raw(y_raw, s1_lo, s1_hi, prec)
        top = min(hi, mp.mpf(0.5))
        assert p_lo <= mp.log(lo) * mp.log(1 - lo) * scale
        assert mp.log(top) * mp.log(1 - top) * scale <= p_hi
