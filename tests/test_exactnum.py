"""Exact quadratic-field arithmetic."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dilogid import exactnum
from dilogid.enclosure import DomainError, interval_precision
from dilogid.exactnum import (
    QuadraticElement,
    RadicandMismatchError,
    exact_sqrt,
    quad_pow,
    quad_to_real,
)
from dilogid.lucas import LucasParams
from dilogid.series import _lucas_rhs_arg

from conftest import sqrt_bracket


def quad(a, b, d):
    return QuadraticElement(Fraction(a), Fraction(b), Fraction(d))


class TestQuadMul:
    def test_conjugate_product_is_norm(self):
        x = quad(3, 2, 2)
        assert x * x.conjugate() == 1
        assert x.norm() == 1

    def test_golden_ratio_square(self):
        phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
        assert phi * phi == quad(Fraction(3, 2), Fraction(1, 2), 5)

    def test_rational_embedding(self):
        c, d = quad(Fraction(7, 3), 0, 11), quad(Fraction(-2, 5), 0, 11)
        assert c * d == Fraction(-14, 15)

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatchError):
            quad(1, 1, 2) * quad(1, 1, 3)


class TestQuadPow:
    def test_power_zero(self):
        assert quad_pow(quad(5, -3, 7), 0) == 1

    def test_one_plus_sqrt2_squared(self):
        assert quad_pow(quad(1, 1, 2), 2) == quad(3, 2, 2)

    def test_pell_unit_squared(self):
        assert quad_pow(quad(3, 2, 2), 2) == quad(17, 12, 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            quad_pow(quad(1, 1, 2), -1)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(20240)
        for _ in range(40):
            x = quad(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                rng.randint(2, 30),
            )
            n = rng.randint(0, 12)
            expected = quad(1, 0, x.radicand)
            for _ in range(n):
                expected = expected * x
            assert quad_pow(x, n) == expected

    def test_power_additivity(self):
        rng = random.Random(4242)
        for _ in range(60):
            x = quad(rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 20))
            m, n = rng.randint(0, 64), rng.randint(0, 64)
            assert quad_pow(x, m + n) == quad_pow(x, m) * quad_pow(x, n)


class TestQuadToReal:
    def test_zero(self):
        enc = quad_to_real(quad(0, 0, 5), 100)
        assert enc.midpoint == 0 and enc.radius == 0

    def test_golden_ratio_digits(self):
        phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
        enc = quad_to_real(phi, 200)
        lo, hi = sqrt_bracket(5, 42)
        assert abs(enc.midpoint - (1 + lo) / 2) <= enc.radius + Fraction(1, 10 ** 41)
        # digits stated in the design notes
        assert abs(enc.midpoint - Fraction("1.61803398874989484820")) < Fraction(1, 10 ** 19)

    def test_small_pell_value_digits(self):
        x = quad(3, -2, 2)
        enc = quad_to_real(x, 200)
        lo, hi = sqrt_bracket(8, 42)
        assert 3 - hi <= enc.midpoint + enc.radius
        assert enc.midpoint - enc.radius <= 3 - lo
        assert abs(enc.midpoint - Fraction("0.17157287525380990239")) < Fraction(1, 10 ** 19)

    @pytest.mark.parametrize(
        "element",
        [
            quad(Fraction(1, 2), Fraction(1, 2), 5),
            quad(3, -2, 2),
            quad(161, -72, 5),  # heavy cancellation: 161^2 - 72^2*5 = 1
            quad(Fraction(7, 6), Fraction(-1, 6), 13),
            quad(-4, 3, 3),
        ],
    )
    def test_radius_bound(self, element):
        for precision in (64, 128, 300):
            enc = quad_to_real(element, precision)
            bound = Fraction(2) ** (4 - precision) * max(Fraction(1), enc.abs_inf())
            assert enc.radius <= bound

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            QuadraticElement(1, 1, -2)


def _convergents(d: int):
    """Convergents p/q of sqrt(d), d not a square, from its continued fraction."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, q0, p, q = 1, 0, a0, 1
    while True:
        yield p, q
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p, q = p, q, a * p + p0, a * q + q0


def _near_cancelling(d: int, kind: str, n: int, delta: int) -> QuadraticElement:
    """p + delta - q sqrt(d) for the n-th convergent p/q of sqrt(d), or the
    n-th power of the Pell unit among the convergents, or of its conjugate,
    with delta added to the rational part."""
    convergents = _convergents(d)
    if kind == "convergent":
        for _ in range(n):
            next(convergents)
        p, q = next(convergents)
        return quad(p + delta, -q, d)
    p, q = next((p, q) for p, q in convergents if abs(p * p - d * q * q) == 1)
    power = quad_pow(quad(p, q if kind == "unit" else -q, d), n)
    return power + delta


NONSQUARE = st.integers(2, 200).filter(lambda d: math.isqrt(d) ** 2 != d)
SCALE = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool)


@settings(max_examples=200, deadline=None)
@given(
    NONSQUARE,
    st.sampled_from(["convergent", "unit", "conjugate"]),
    st.integers(0, 300),
    st.integers(-1, 1),
    SCALE,
    st.integers(53, 1200),
)
def test_quad_to_real_one_pass_near_cancellation(d, kind, n, delta, scale, precision):
    """One precision context, an enclosure of x and a radius within
    2^(4-precision) |x|, however much a + b sqrt(D) cancels."""
    x = _near_cancelling(d, kind, n, delta) * scale
    entries = []

    def counting(bits):
        entries.append(bits)
        return interval_precision(bits)

    with mock.patch.object(exactnum, "interval_precision", counting):
        enc = quad_to_real(x, precision)
    assert len(entries) == 1
    lo, hi = enc.endpoints()
    assert (x - lo).sign() >= 0 and (hi - x).sign() >= 0
    assert (abs(x) * Fraction(2) ** (4 - precision) - enc.radius).sign() >= 0


class TestFieldAxioms:
    def _random_element(self, rng, d):
        return quad(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            d,
        )

    def test_axioms_hold_for_1000_seeded_pairs(self):
        rng = random.Random(1357)
        for _ in range(1000):
            d = Fraction(rng.randint(2, 80))
            x, y = self._random_element(rng, d), self._random_element(rng, d)
            z = self._random_element(rng, d)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_norm_multiplicative_1000_seeded_pairs(self):
        rng = random.Random(2468)
        for _ in range(1000):
            d = Fraction(rng.randint(2, 80))
            x, y = self._random_element(rng, d), self._random_element(rng, d)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_division_inverts_multiplication(self):
        rng = random.Random(8642)
        for _ in range(200):
            d = Fraction(rng.randint(2, 50))
            x, y = self._random_element(rng, d), self._random_element(rng, d)
            if y.sign() == 0:
                continue
            assert (x * y) / y == x


class TestOrderingAndSign:
    def test_sign_examples(self):
        assert quad(3, -2, 2).sign() == 1  # 9 > 8
        assert quad(2, -2, 2).sign() == -1  # 4 < 8
        assert quad(161, -72, 5).sign() == 1  # 25921 > 25920
        assert quad(-161, 72, 5).sign() == -1
        assert quad(0, 0, 7).sign() == 0
        assert quad(2, -1, 4).sign() == 0  # 2 - sqrt(4) = 0 exactly

    def test_ordering_respected_by_midpoints(self):
        rng = random.Random(97531)
        for _ in range(200):
            d = Fraction(rng.randint(2, 60))
            x = quad(rng.randint(-8, 8), rng.randint(-8, 8), d)
            y = quad(rng.randint(-8, 8), rng.randint(-8, 8), d)
            if not x < y:
                x, y = y, x
            if x == y:
                continue
            ex, ey = quad_to_real(x, 80), quad_to_real(y, 80)
            assert ex.midpoint < ey.midpoint + ex.radius + ey.radius


class TestEquality:
    def test_cross_radicand(self):
        assert quad(0, 1, 8) == quad(0, 2, 2)
        assert quad(1, 3, 12) == quad(1, 6, 3)
        assert quad(0, 1, 8) != quad(0, 1, 2)

    def test_perfect_square_radicands(self):
        assert quad(1, 1, 4) == quad(3, 0, 9)
        assert quad(1, 1, 4) == 3
        assert quad(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)) == Fraction(3, 4)

    def test_conjugation_involution(self):
        x = quad(Fraction(5, 3), Fraction(-7, 2), 11)
        assert x.conjugate().conjugate() == x

    def test_exact_sqrt(self):
        assert exact_sqrt(Fraction(49, 4)) == Fraction(7, 2)
        assert exact_sqrt(Fraction(2)) is None
        assert exact_sqrt(Fraction(-4)) is None


@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=20),
    b=st.fractions(min_value=-5, max_value=5, max_denominator=20),
    c=st.fractions(min_value=-5, max_value=5, max_denominator=20),
    e=st.fractions(min_value=-5, max_value=5, max_denominator=20),
    d=st.integers(min_value=0, max_value=50),
)
def test_norm_multiplicativity_property(a, b, c, e, d):
    x = QuadraticElement(a, b, Fraction(d))
    y = QuadraticElement(c, e, Fraction(d))
    assert (x * y).norm() == x.norm() * y.norm()


# -- the integer representation (A + B sqrt(D)) / C --------------------------
#
# The reference below evaluates the same formulas over Fraction components
# (a, b) of a + b sqrt(D); its sign refines an isqrt bracket of sqrt(D), so
# it shares no code with QuadraticElement.sign.

RADICANDS = [Fraction(5), Fraction(2), Fraction(13), Fraction(5, 4), Fraction(8, 9),
             Fraction(4), Fraction(9, 4), Fraction(0)]
COMPONENT = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def _parts(x):
    return x.rat_part, x.rad_part


def _triple(x):
    return x._a, x._b, x._c


def _reference_element(a, b, d):
    return (a, b if d else Fraction(0))


def _reference_rational(a, b, d):
    s = exact_sqrt(d)
    if b == 0:
        return a
    return None if s is None else a + b * s


def _reference_sign(a, b, d):
    rv = _reference_rational(a, b, d)
    if rv is not None:
        return (rv > 0) - (rv < 0)
    # a + b sqrt(D) is irrational, so a fine enough bracket excludes 0
    bits = 8
    while True:
        root = math.isqrt(d.numerator * d.denominator << 2 * bits)
        ends = [a + b * Fraction(r, d.denominator << bits) for r in (root, root + 1)]
        if min(ends) > 0 or max(ends) < 0:
            return 1 if ends[0] > 0 else -1
        bits *= 2


def _reference_quotient(x, y, d):
    (a, b), (c, e) = x, y
    norm = c * c - e * e * d
    if norm == 0:
        rv = _reference_rational(c, e, d)
        return a / rv, b / rv
    return (a * c - b * e * d) / norm, (b * c - a * e) / norm


def _assert_reduced(x):
    a, b, c = _triple(x)
    assert all(isinstance(v, int) for v in (a, b, c))
    assert c > 0 and math.gcd(a, b, c) == 1
    if x.radicand == 0:
        assert b == 0


@settings(max_examples=300, deadline=None)
@given(COMPONENT, COMPONENT, COMPONENT, COMPONENT, st.sampled_from(RADICANDS))
def test_ring_operations_match_fraction_formulas(a, b, c, e, d):
    x, y = QuadraticElement(a, b, d), QuadraticElement(c, e, d)
    (a, b), (c, e) = _reference_element(a, b, d), _reference_element(c, e, d)
    expected = {
        "+": (a + c, b + e),
        "-": (a - c, b - e),
        "*": (a * c + b * e * d, a * e + b * c),
        "neg": (-a, -b),
        "conjugate": (a, -b),
    }
    results = {"+": x + y, "-": x - y, "*": x * y, "neg": -x, "conjugate": x.conjugate()}
    if _reference_sign(c, e, d) != 0:
        expected["/"] = _reference_quotient((a, b), (c, e), d)
        results["/"] = x / y
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for op, result in results.items():
        _assert_reduced(result)
        assert _parts(result) == expected[op], op
        assert result.radicand == d
    assert x.norm() == a * a - b * b * d
    assert x.rational_value() == _reference_rational(a, b, d)
    # rational operands on either side
    assert _parts(x * c) == _parts(c * x) == (a * c, b * c)
    assert _parts(c - x) == (c - a, -b)


@settings(max_examples=300, deadline=None)
@given(COMPONENT, COMPONENT, COMPONENT, COMPONENT, st.sampled_from(RADICANDS))
def test_sign_order_and_equality_match_the_reference(a, b, c, e, d):
    x, y = QuadraticElement(a, b, d), QuadraticElement(c, e, d)
    (a, b), (c, e) = _reference_element(a, b, d), _reference_element(c, e, d)
    assert x.sign() == _reference_sign(a, b, d)
    difference = _reference_sign(a - c, b - e, d)
    assert (x < y, x <= y, x > y, x >= y) == (difference < 0, difference <= 0, difference > 0, difference >= 0)
    assert (x == y) == (difference == 0) == (y == x)
    assert (x != y) == (difference != 0)
    assert abs(x).sign() == abs(_reference_sign(a, b, d))


@settings(max_examples=200, deadline=None)
@given(COMPONENT, COMPONENT, COMPONENT, COMPONENT, st.sampled_from(RADICANDS))
def test_equal_values_have_equal_triples(a, b, c, e, d):
    x, y = QuadraticElement(a, b, d), QuadraticElement(c, e, d)
    assert _triple(x + y - y) == _triple(x)
    assert _triple(QuadraticElement(*_parts(x), d)) == _triple(x)
    if y.norm() != 0:
        assert _triple(x * y / y) == _triple(x)
        assert _triple(x / y * y) == _triple(x)


def test_reduced_triples_fixed_examples():
    assert _triple(quad(Fraction(2, 4), Fraction(3, 6), 5)) == (1, 1, 2)
    assert _triple(quad(Fraction(6, 4), 0, 5)) == (3, 0, 2)
    assert _triple(quad(0, 0, 7)) == (0, 0, 1)
    assert _triple(quad(-3, 6, 2) / 3) == (-1, 2, 1)
    phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert _triple(phi * phi) == (3, 1, 2)
    assert _triple(phi + phi.conjugate()) == (1, 0, 1)
    assert _triple(1 / phi) == (-1, 1, 2)
    assert _triple(quad(3, 2, 2) * quad(3, -2, 2)) == (1, 0, 1)


def test_products_over_a_rational_radicand():
    # sqrt(5/4) squared is 5/4, not 5; sqrt(8/9) squared is 8/9
    x = quad(1, 1, Fraction(5, 4))
    assert _parts(x * x) == (Fraction(9, 4), Fraction(2))
    assert _parts(x * x.conjugate()) == (Fraction(-1, 4), 0) and x.norm() == Fraction(-1, 4)
    r = QuadraticElement.sqrt_of(Fraction(8, 9))
    assert r * r == Fraction(8, 9)
    assert _parts(quad(Fraction(1, 3), 2, Fraction(8, 9)) * quad(3, Fraction(-1, 2), Fraction(8, 9))) == (
        Fraction(1, 9), Fraction(35, 6))
    assert _parts(1 / x) == (Fraction(-4), Fraction(4))


def test_division_by_a_norm_zero_element_over_a_square_radicand():
    for d, zero, nonzero, value in (
        (4, quad(2, -1, 4), quad(1, Fraction(1, 2), 4), 2),
        (Fraction(9, 4), quad(Fraction(3, 2), -1, Fraction(9, 4)), quad(Fraction(3, 2), 1, Fraction(9, 4)), 3),
    ):
        assert zero.norm() == 0 and nonzero.norm() == 0 and nonzero == value
        x = quad(5, 7, d)
        assert _parts(x / nonzero) == (Fraction(5, value), Fraction(7, value))
        assert x / nonzero * value == x
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            1 / zero


# (P, Q), k and the str and repr of the registry's closed-form argument
# rho = |Q|^k / alpha^(2k); (3, 2) has the square radicand 1
SQRT5 = QuadraticElement.sqrt_of(5)
REGISTRY_RHO_TEXT = [
    ((3, 1), 1, "7/2 + -3/2*sqrt(5)", "QuadraticElement(Fraction(7, 2), Fraction(-3, 2), Fraction(5, 1))"),
    ((4, 1), 1, "7 + -2*sqrt(12)", "QuadraticElement(Fraction(7, 1), Fraction(-2, 1), Fraction(12, 1))"),
    ((3, 2), 1, "5/4 + -3/4*sqrt(1)", "QuadraticElement(Fraction(5, 4), Fraction(-3, 4), Fraction(1, 1))"),
    ((1, -1), 1, "3/2 + -1/2*sqrt(5)", "QuadraticElement(Fraction(3, 2), Fraction(-1, 2), Fraction(5, 1))"),
    ((2, -1), 1, "3 + -1*sqrt(8)", "QuadraticElement(Fraction(3, 1), Fraction(-1, 1), Fraction(8, 1))"),
    ((1, -3), 1, "7/6 + -1/6*sqrt(13)", "QuadraticElement(Fraction(7, 6), Fraction(-1, 6), Fraction(13, 1))"),
    ((6, 1), 1, "17 + -3*sqrt(32)", "QuadraticElement(Fraction(17, 1), Fraction(-3, 1), Fraction(32, 1))"),
    ((SQRT5, 1), 1, "3/2 + -1/2*sqrt(5)", "QuadraticElement(Fraction(3, 2), Fraction(-1, 2), Fraction(5, 1))"),
    ((SQRT5, 1), 2, "7/2 + -3/2*sqrt(5)", "QuadraticElement(Fraction(7, 2), Fraction(-3, 2), Fraction(5, 1))"),
    ((Fraction(3, 2), Fraction(1, 7)), 2, "2993/32 + -1155/16*sqrt(47/28)",
     "QuadraticElement(Fraction(2993, 32), Fraction(-1155, 16), Fraction(47, 28))"),
]


@pytest.mark.parametrize("params, k, text, representation", REGISTRY_RHO_TEXT)
def test_registry_rho_text_is_unchanged(params, k, text, representation):
    rho = _lucas_rhs_arg(LucasParams(*params), k)
    assert (str(rho), repr(rho)) == (text, representation)
    assert eval(representation) == rho


def test_elements_are_immutable_and_unhashable():
    x = quad(1, 2, 3)
    with pytest.raises(AttributeError):
        x._a = 5
    with pytest.raises(AttributeError):
        x.rat_part = Fraction(5)
    with pytest.raises(TypeError):
        hash(x)
    assert _triple(x) == (1, 2, 1)
