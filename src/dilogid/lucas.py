"""Lucas sequences U_n(P,Q), V_n(P,Q) over exact coefficient rings.

Evaluation is by fast doubling, over the integers for rational parameters;
the plain linear recurrence is retained as a test oracle.  Coefficients may
be rationals or quadratic elements over a shared radicand, so the parameter
transformation P' = sqrt(P^2-4Q), Q' = -Q, the reduction of the Q < 0
Lucas series to the Q > 0 one, stays inside exact arithmetic whenever
sqrt(D) lies in the ring.

Standing assumptions (checked on construction): P > 0, Q != 0, and the
discriminant D = P^2 - 4Q > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .exactnum import QuadraticElement, exact_sqrt

Coefficient = Union[Fraction, QuadraticElement]


class PreconditionError(ValueError):
    """A standing assumption or operation precondition is violated."""


def _coeff_sign(value: Coefficient) -> int:
    if isinstance(value, QuadraticElement):
        return value.sign()
    return (value > 0) - (value < 0)


def _normalize_pair(p, q) -> tuple[Coefficient, Coefficient]:
    if isinstance(p, int):
        p = Fraction(p)
    if isinstance(q, int):
        q = Fraction(q)
    if isinstance(p, QuadraticElement) and not isinstance(q, QuadraticElement):
        q = QuadraticElement.from_rational(q, p.radicand)
    elif isinstance(q, QuadraticElement) and not isinstance(p, QuadraticElement):
        p = QuadraticElement.from_rational(p, q.radicand)
    return p, q


@dataclass(frozen=True)
class LucasParams:
    """Parameter pair (P, Q) with derived discriminant D = P^2 - 4Q."""

    p: Coefficient
    q: Coefficient
    d: Coefficient = field(init=False)

    def __post_init__(self):
        p, q = _normalize_pair(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", p * p - 4 * q)
        if _coeff_sign(p) <= 0:
            raise PreconditionError("P must be positive")
        if _coeff_sign(q) == 0:
            raise PreconditionError("Q must be nonzero")
        if _coeff_sign(self.d) <= 0:
            raise PreconditionError("discriminant P^2 - 4Q must be positive")

    @property
    def is_rational(self) -> bool:
        return isinstance(self.p, Fraction)

    def _one(self) -> Coefficient:
        if self.is_rational:
            return Fraction(1)
        return QuadraticElement.from_rational(1, self.p.radicand)

    def _zero(self) -> Coefficient:
        if self.is_rational:
            return Fraction(0)
        return QuadraticElement.from_rational(0, self.p.radicand)

    def sqrt_d_exact(self) -> Optional[Coefficient]:
        """sqrt(D) within the coefficient ring, when it exists there."""
        if self.is_rational:
            return QuadraticElement.sqrt_of(self.d)
        rv = self.d.rational_value()
        if rv is None:
            return None
        s = exact_sqrt(rv)
        if s is None:
            return None
        return QuadraticElement.from_rational(s, self.p.radicand)

    def alpha_exact(self) -> Optional[QuadraticElement]:
        """Larger characteristic root (P + sqrt(D))/2 as an exact element."""
        if self.is_rational:
            return QuadraticElement(self.p / 2, Fraction(1, 2), self.d)
        s = self.sqrt_d_exact()
        if s is None:
            return None
        return (self.p + s) / 2

    def beta_exact(self) -> Optional[QuadraticElement]:
        if self.is_rational:
            return QuadraticElement(self.p / 2, Fraction(-1, 2), self.d)
        s = self.sqrt_d_exact()
        if s is None:
            return None
        return (self.p - s) / 2


def _integer_parameters(params: LucasParams) -> tuple[int, int, int]:
    """(lam, lam P, lam^2 Q) for rational P and Q, lam the lcm of their
    denominators: integer parameters whose roots are lam alpha and lam beta."""
    p, q = params.p, params.q
    lam = lcm(p.denominator, q.denominator)
    return lam, p.numerator * (lam // p.denominator), q.numerator * (lam // q.denominator) * lam


@dataclass(frozen=True)
class LucasPair:
    """Values (U_n, V_n) at one index."""

    index: int
    u: Coefficient
    v: Coefficient


def lucas_uv(params: LucasParams, n: int) -> LucasPair:
    """Exact (U_n, V_n) by fast doubling; bit-identical to the recurrence.

    Rational parameters run over the integers by homogeneity.  With lam the
    lcm of the denominators of P and Q, the roots of x^2 - lam P x + lam^2 Q
    are lam alpha and lam beta, so U_n(P, Q) = lam^(1-n) U_n(lam P, lam^2 Q)
    and V_n(P, Q) = lam^(-n) V_n(lam P, lam^2 Q); over Z the step
    (P U + V)/2 = U_(k+1) is an exact halving.
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("index must be a nonnegative integer")
    p, q, d = params.p, params.q, params.d
    if params.is_rational:
        lam, p, q = _integer_parameters(params)
        d, halve = p * p - 4 * q, (lambda x: x >> 1)
        u, v, qn = 0, 2, 1
    else:
        halve = (lambda x: x / 2)
        u, v, qn = params._zero(), 2 * params._one(), params._one()
    for bit_pos in reversed(range(n.bit_length())):
        u, v, qn = u * v, v * v - 2 * qn, qn * qn
        if (n >> bit_pos) & 1:
            u, v, qn = halve(p * u + v), halve(d * u + p * v), qn * q
    if params.is_rational:
        u, v = Fraction(u, lam ** max(n - 1, 0)), Fraction(v, lam ** n)
    return LucasPair(n, u, v)


def lucas_uv_naive(params: LucasParams, n: int) -> LucasPair:
    """Plain linear recurrence; the oracle against which doubling is tested."""
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("index must be a nonnegative integer")
    p, q = params.p, params.q
    u_prev, u_cur = params._zero(), params._one()
    v_prev, v_cur = 2 * params._one(), p
    if n == 0:
        return LucasPair(0, u_prev, v_prev)
    for _ in range(n - 1):
        u_prev, u_cur = u_cur, p * u_cur - q * u_prev
        v_prev, v_cur = v_cur, p * v_cur - q * v_prev
    return LucasPair(n, u_cur, v_cur)


def alpha_power_exact(params: LucasParams, n: int) -> QuadraticElement:
    """alpha^n = (V_n + U_n*sqrt(D))/2 as an exact element over radicand D."""
    if not params.is_rational:
        raise PreconditionError("exact alpha powers require rational P, Q")
    pair = lucas_uv(params, n)
    return QuadraticElement(pair.v / 2, pair.u / 2, params.d)


def transform_params(params: LucasParams) -> LucasParams:
    """The reduction (P, Q) -> (P', Q') = (sqrt(D), -Q), D = P^2 - 4Q, whose
    roots are alpha and -beta: over Q(sqrt(D)) for rational P and Q, and
    for parameters in a quadratic field in that field, which must hold
    sqrt(D)."""
    p_new = params.sqrt_d_exact()
    if p_new is None:
        raise PreconditionError("transformation requires sqrt(D) in the ring")
    return LucasParams(p_new, -params.q)


def transform_case_check(params: LucasParams, n: int) -> bool:
    """Check both parity case formulas relating U_n, V_n across the transform.

    With alpha' = alpha and beta' = -beta the Binet forms give

        U_n(P',Q') = sqrt(D) U_n(P,Q)/P   (n even),   V_n(P,Q)/P        (n odd),
        V_n(P',Q') = V_n(P,Q)             (n even),   sqrt(D) U_n(P,Q)  (n odd);

    V' carries no 1/P because alpha' - beta' never enters it.
    """
    if not params.is_rational:
        raise PreconditionError("case check requires rational P, Q")
    transformed = transform_params(params)
    pair_t = lucas_uv(transformed, n)
    pair = lucas_uv(params, n)
    sqrt_d = QuadraticElement.sqrt_of(params.d)
    p = params.p
    if n % 2 == 0:
        expected_u = sqrt_d * pair.u / p
        expected_v = QuadraticElement.from_rational(pair.v, params.d)
    else:
        expected_u = QuadraticElement.from_rational(pair.v / p, params.d)
        expected_v = sqrt_d * pair.u
    return pair_t.u == expected_u and pair_t.v == expected_v


def strong_divisibility_check(params: LucasParams, m: int, n: int) -> bool:
    """gcd(U_m, U_n) = U_gcd(m,n) for coprime integer parameters."""
    if not params.is_rational:
        raise PreconditionError("strong divisibility requires integer P, Q")
    p, q = params.p, params.q
    if p.denominator != 1 or q.denominator != 1:
        raise PreconditionError("strong divisibility requires integer P, Q")
    if gcd(p.numerator, q.numerator) != 1:
        raise PreconditionError("strong divisibility requires gcd(P, Q) = 1")
    if m < 1 or n < 1:
        raise PreconditionError("indices must be positive")
    um = abs(int(lucas_uv(params, m).u))
    un = abs(int(lucas_uv(params, n).u))
    ug = abs(int(lucas_uv(params, gcd(m, n)).u))
    return gcd(um, un) == ug
