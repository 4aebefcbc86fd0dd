"""Rigorous dilogarithm and Rogers-L evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dilogid.enclosure import DomainError, ErrorBoundedValue, PrecisionBudget
from dilogid.exactnum import QuadraticElement, quad_to_real
from dilogid.rogers import abel_residual, li2, reflection_residual, rogers_l

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
