"""Lucas sequence layer: fast doubling, Binet forms, transformation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dilogid.exactnum import QuadraticElement, quad_pow, quad_to_real
from dilogid.lucas import (
    LucasParams,
    PreconditionError,
    alpha_power_exact,
    lucas_uv,
    lucas_uv_naive,
    strong_divisibility_check,
    transform_case_check,
    transform_params,
)
from dilogid.series import _lucas_pos_terms, neg_from_pos_split_check

CATALOG_PARAMS = [
    LucasParams(3, 1),
    LucasParams(4, 1),
    LucasParams(3, 2),
    LucasParams(6, 1),
    LucasParams(1, -1),
    LucasParams(2, -1),
    LucasParams(1, -3),
]


class TestRecurrence:
    def test_initial_values(self):
        for params in CATALOG_PARAMS:
            pair = lucas_uv(params, 0)
            assert pair.u == 0 and pair.v == 2

    def test_paper_values_q_minus_3(self):
        # first terms of U(1,-3) and V(1,-3)
        params = LucasParams(1, -3)
        expected_u = [0, 1, 1, 4, 7, 19, 40, 97, 217, 508, 1159]
        expected_v = [2, 1, 7, 10, 31, 61, 154, 337, 799, 1810, 4207]
        for n in range(11):
            pair = lucas_uv(params, n)
            assert pair.u == expected_u[n]
            assert pair.v == expected_v[n]

    def test_even_fibonacci_values(self):
        pair = lucas_uv(LucasParams(3, 1), 3)
        assert pair.u == 8 and pair.v == 18  # U_3 = F_6

    def test_fast_doubling_matches_naive(self):
        for params in CATALOG_PARAMS:
            naive = lucas_uv_naive(params, 300)
            for n in (0, 1, 2, 3, 17, 64, 100, 299, 300):
                fast = lucas_uv(params, n)
                slow = lucas_uv_naive(params, n)
                assert fast.u == slow.u and fast.v == slow.v
            assert lucas_uv(params, 300).u == naive.u

    def test_fast_doubling_quadratic_params(self):
        params = LucasParams(QuadraticElement.sqrt_of(5), 1)
        for n in range(40):
            fast, slow = lucas_uv(params, n), lucas_uv_naive(params, n)
            assert fast.u == slow.u and fast.v == slow.v

    def test_sqrt5_sequence_structure(self):
        # U_n(sqrt(5),1) alternates sqrt(5)*F_n (even n) and L_n (odd n)
        params = LucasParams(QuadraticElement.sqrt_of(5), 1)
        fib = LucasParams(1, -1)
        for n in range(1, 30):
            u = lucas_uv(params, n).u
            if n % 2 == 0:
                assert u == QuadraticElement(0, lucas_uv(fib, n).u, 5)
            else:
                assert u == lucas_uv(fib, n).v

    def test_fundamental_identity(self):
        for params in CATALOG_PARAMS:
            for n in range(101):
                pair = lucas_uv(params, n)
                assert pair.v ** 2 - params.d * pair.u ** 2 == 4 * params.q ** n

    def test_negative_index_rejected(self):
        with pytest.raises(PreconditionError):
            lucas_uv(LucasParams(3, 1), -1)


class TestStandingAssumptions:
    def test_q_zero_rejected(self):
        with pytest.raises(PreconditionError):
            LucasParams(3, 0)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(PreconditionError):
            LucasParams(-1, -1)

    def test_nonpositive_discriminant_rejected(self):
        with pytest.raises(PreconditionError):
            LucasParams(2, 1)  # D = 0
        with pytest.raises(PreconditionError):
            LucasParams(1, 1)  # D = -3


class TestBinet:
    def test_alpha_power_exact_basics(self):
        assert alpha_power_exact(LucasParams(3, 1), 0) == 1
        assert alpha_power_exact(LucasParams(1, -1), 2) == QuadraticElement(
            Fraction(3, 2), Fraction(1, 2), 5
        )

    def test_alpha_power_cross_field(self):
        # (P,Q) = (6,1): alpha^2 = 17 + 12 sqrt(2) expressed over radicand 32
        value = alpha_power_exact(LucasParams(6, 1), 2)
        assert value == QuadraticElement(17, 12, 2)

    def test_alpha_power_equals_quad_pow(self):
        for params in CATALOG_PARAMS:
            alpha = params.alpha_exact()
            for n in (0, 1, 2, 3, 10, 31, 64):
                assert alpha_power_exact(params, n) == quad_pow(alpha, n)

    def test_binet_form_exact(self):
        # (alpha^n - beta^n)/(alpha - beta) reduces to U_n inside Q(sqrt(D))
        for params in CATALOG_PARAMS:
            alpha, beta = params.alpha_exact(), params.beta_exact()
            sqrt_d = QuadraticElement.sqrt_of(params.d)
            apow = bpow = QuadraticElement.from_rational(1, params.d)
            for n in range(201):
                pair = lucas_uv(params, n)
                assert (apow - bpow) / sqrt_d == pair.u
                assert apow + bpow == pair.v
                apow, bpow = apow * alpha, bpow * beta

    def test_binet_numeric_consistency(self):
        # exact alpha^n enclosure agrees with the interval power of alpha
        params = LucasParams(1, -1)
        alpha = params.alpha_exact()
        base = quad_to_real(alpha, 160)
        from dilogid.enclosure import ErrorBoundedValue, interval_precision

        for n in (1, 7, 50, 200):
            exact = quad_to_real(alpha_power_exact(params, n), 160)
            with interval_precision(160):
                numeric = ErrorBoundedValue.from_interval(base.interval() ** n)
            assert exact.overlaps(numeric)


class TestTransformation:
    def test_fibonacci_case(self):
        transformed = transform_params(LucasParams(1, -1))
        assert transformed.p == QuadraticElement.sqrt_of(5)
        assert transformed.q == 1

    def test_pell_case(self):
        transformed = transform_params(LucasParams(2, -1))
        assert transformed.p == QuadraticElement.sqrt_of(8)
        assert transformed.q == 1

    def test_new_discriminant_is_p_squared(self):
        for params in CATALOG_PARAMS:
            transformed = transform_params(params)
            assert transformed.d == params.p ** 2

    def test_roots_carry_over(self):
        for params in CATALOG_PARAMS:
            transformed = transform_params(params)
            assert transformed.alpha_exact() == params.alpha_exact()
            assert transformed.beta_exact() == -params.beta_exact()

    def test_case_formulas(self):
        for params in (LucasParams(1, -1), LucasParams(2, -1), LucasParams(1, -3)):
            for n in range(101):
                assert transform_case_check(params, n)

    def test_quadratic_parameters(self):
        # (sqrt(5), -1) has D = 9: P' = 3 and Q' = 1, in Q(sqrt(5))
        transformed = transform_params(LucasParams(QuadraticElement.sqrt_of(5), -1))
        assert transformed.p == 3 and transformed.q == 1
        assert transformed.p.radicand == 5
        # D = (1 + sqrt(5))^2 + 4 = 10 + 2 sqrt(5) has no square root in Q(sqrt(5))
        with pytest.raises(PreconditionError, match="requires sqrt"):
            transform_params(LucasParams(1 + QuadraticElement.sqrt_of(5), -1))

    def test_case_formula_examples(self):
        # U_2(sqrt(5),1) = sqrt(5), U_3(sqrt(5),1) = 4 = V_3(1,-1)
        transformed = transform_params(LucasParams(1, -1))
        assert lucas_uv(transformed, 2).u == QuadraticElement.sqrt_of(5)
        assert lucas_uv(transformed, 3).u == 4


class TestStrongDivisibility:
    def test_examples(self):
        assert strong_divisibility_check(LucasParams(3, 1), 2, 4)
        assert strong_divisibility_check(LucasParams(1, -1), 6, 9)
        assert strong_divisibility_check(LucasParams(1, -1), 12, 12)

    def test_divisibility_sequence(self):
        # m | n implies U_m | U_n for integer parameters
        for params in (LucasParams(1, -1), LucasParams(3, 1), LucasParams(1, -3)):
            values = [int(lucas_uv(params, n).u) for n in range(61)]
            for m in range(1, 61):
                for n in range(m, 61, m):
                    assert values[n] % values[m] == 0

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            strong_divisibility_check(LucasParams(Fraction(1, 2), -1), 2, 3)
        with pytest.raises(PreconditionError):
            strong_divisibility_check(LucasParams(6, 3), 2, 3)  # gcd(P,Q) = 3


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=-12, max_value=12),
    n=st.integers(min_value=0, max_value=150),
)
def test_doubling_equals_naive_property(p, q, n):
    if q == 0 or p * p - 4 * q <= 0:
        return
    params = LucasParams(p, q)
    fast, slow = lucas_uv(params, n), lucas_uv_naive(params, n)
    assert fast.u == slow.u and fast.v == slow.v


# lucas_uv runs rational parameters over Z at (lam P, lam^2 Q), lam the lcm
# of their denominators; these have lam > 1
POSITIVE_P = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(30), max_denominator=12)
RATIONAL_Q = st.fractions(min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(p=POSITIVE_P, q=RATIONAL_Q, n=st.integers(min_value=0, max_value=300), quadratic=st.booleans())
def test_integer_doubling_equals_naive(p, q, n, quadratic):
    """Exact equality with the recurrence at rational (P, Q), and at their
    transform (sqrt(D), -Q) over Q(sqrt(D)), for n <= 300."""
    if q == 0 or p * p - 4 * q <= 0:
        return
    params = LucasParams(p, q)
    if quadratic:
        params = transform_params(params)
    fast, slow = lucas_uv(params, n), lucas_uv_naive(params, n)
    assert fast.index == n and fast.u == slow.u and fast.v == slow.v
    assert type(fast.u) is type(slow.u) and type(fast.v) is type(slow.v)


@pytest.mark.parametrize(
    "p, q",
    [(Fraction(3, 2), Fraction(-5, 7)), (Fraction(5, 3), Fraction(1, 2)), (Fraction(1, 6), Fraction(-1, 4)),
     (QuadraticElement.sqrt_of(5), 1), (QuadraticElement(Fraction(1, 2), Fraction(1, 3), 7), Fraction(-2, 5))],
)
def test_integer_doubling_matches_naive_at_fixed_parameters(p, q):
    params = LucasParams(p, q)
    for n in (0, 1, 2, 3, 7, 64, 65, 300):
        fast, slow = lucas_uv(params, n), lucas_uv_naive(params, n)
        assert fast.u == slow.u and fast.v == slow.v, n


# The summand stream of the Lucas series steps once per term by the stride
# recurrence U_(m+k) = V_k U_m - Q^k U_(m-k) over Z at (lam P, lam^2 Q), or
# over Q(sqrt(D)): its terms equal those built from lucas_uv at each index.
# Every Q^k differs from Q, so that a stride with Q in place of Q^k shows.
SIXTH = QuadraticElement(Fraction(1, 2), Fraction(1, 3), 7)
STRIDE_POS = [(LucasParams(3, 2), 2), (LucasParams(3, 2), 3), (LucasParams(Fraction(7, 3), Fraction(1, 2)), 3),
              (transform_params(LucasParams(1, -3)), 2), (LucasParams(SIXTH, Fraction(2, 5)), 3)]


@pytest.mark.parametrize("params, k", STRIDE_POS, ids=["3-2-k2", "3-2-k3", "7/3-1/2-k3", "sqrt13-3-k2", "quadratic-k3"])
def test_stride_stream_matches_doubling_q_positive(params, k):
    q, first = params.q, lucas_uv(params, k)
    for n, term in zip(range(1, 7), _lucas_pos_terms(params, k)):
        assert term == first.u ** 2 * q ** (k * n) / lucas_uv(params, k * (n + 1)).u ** 2, n


# A Q < 0 series, odd k, is read from the same stream at (sqrt(D), -Q): its
# terms are A_1, B_1, A_2, ..., built from lucas_uv at (P, Q), also at odd
# k > 1 and at rationals whose integer form has lam > 1
@pytest.mark.parametrize("params, k", [(LucasParams(1, -3), 3), (LucasParams(Fraction(3, 2), Fraction(-5, 7)), 3),
                                       (LucasParams(2, -1), 5)], ids=["1-(-3)-k3", "3/2-(-5/7)-k3", "2-(-1)-k5"])
def test_reduced_stream_is_the_q_negative_series(params, k):
    assert neg_from_pos_split_check(params, k, 12)

