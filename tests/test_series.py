"""Series identity verifiers: two-parameter theorem, Lucas branches,
the parameter reduction, the Pell correspondence, and tail bounds."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from dilogid import series
from dilogid.enclosure import (
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    interval_precision,
    mpf_to_fraction,
    rational_bounds,
)
from dilogid.exactnum import QuadraticElement
from dilogid.harness import RunConfig, emit_report, registry, run_cli, run_identity
from dilogid.lucas import LucasParams, PreconditionError, lucas_uv
from dilogid.rogers import abel_residual, li2, reflection_residual, rogers_l
from dilogid.series import (
    PellSolution,
    TwoParamInstance,
    UsageError,
    _TAIL_BITS,
    _evaluate_series_report,
    bridgeman_divisibility_check,
    bridgeman_verify,
    catalog_verify,
    corollary_remark_term,
    corollary_verify,
    d_seq,
    lucas_neg_verify,
    lucas_pos_verify,
    neg_from_pos_split_check,
    pell_to_lucas,
    tail_bound,
    theorem_main_term,
    theorem_main_verify,
    xy_seq,
)

from conftest import (
    exact_decimal,
    pi_squared_over,
    random_unit_fraction,
    rogers_reference,
    rogers_reference_of_quad,
)

B40 = PrecisionBudget.for_digits(40)
TOL40 = Fraction(1, 10 ** 40)

INST = TwoParamInstance(Fraction(1, 2), Fraction(1, 3))


def random_instance(rng, max_den=50):
    while True:
        a, b = random_unit_fraction(rng, max_den), random_unit_fraction(rng, max_den)
        if a != b:
            return TwoParamInstance(a, b)


class TestSummationDriver:
    """The driver adds the kernel's integer bounds exactly and rounds the
    lhs outward once; here the kernel returns chosen bounds, a coarse
    2^-10 and then [1 - 2^-s, 1 + 2^-s] at a scale s finer than the working
    precision, so that a rounding in the wrong direction, or a sum that
    stays at the coarse scale, leaves the exact sum outside the lhs."""

    def test_lhs_encloses_the_exact_sum(self, monkeypatch):
        s = B40.working_bits + 40
        values = iter([ErrorBoundedValue(1, 1, 10), ErrorBoundedValue((1 << s) - 1, (1 << s) + 1, s)])
        monkeypatch.setattr("dilogid.series._rogers_eval", lambda term, prec: next(values))
        zero = mp.mpf(0)
        report = _evaluate_series_report("driver", {}, B40, range(2), zero, lambda: iv.mpf(0))
        lo, hi = report.lhs.endpoints()
        middle = 1 + Fraction(1, 1 << 10)
        assert lo <= middle - Fraction(1, 1 << s) and middle + Fraction(1, 1 << s) <= hi
        assert hi - lo <= Fraction(4, 1 << B40.working_bits)
        assert report.terms_used == 2


class TestLemmaSequences:
    def test_d_seq_starts_at_one(self):
        rng = random.Random(5)
        for _ in range(10):
            assert d_seq(random_instance(rng), 0) == 1

    def test_d_seq_example(self):
        assert d_seq(INST, 1) == Fraction(5, 6)

    def test_cassini_at_one(self):
        a, b = INST.a, INST.b
        lhs = d_seq(INST, 1) ** 2 - d_seq(INST, 0) * d_seq(INST, 2)
        assert lhs == a * b * (1 - a) * (1 - b)

    def test_cassini_and_shifts(self):
        rng = random.Random(77)
        for _ in range(5):
            inst = random_instance(rng, 30)
            a, b = inst.a, inst.b
            for n in range(1, 101):
                dn, dprev, dnext = d_seq(inst, n), d_seq(inst, n - 1), d_seq(inst, n + 1)
                assert dn * dn - dprev * dnext == a * b * (1 - a) ** n * (1 - b) ** n
                assert dn - (1 - b) * dprev == b * (1 - a) ** n
                assert dn - (1 - a) * dprev == a * (1 - b) ** n

    def test_xy_seq_start(self):
        rng = random.Random(6)
        for _ in range(10):
            inst = random_instance(rng)
            assert xy_seq(inst, 0) == (inst.a, inst.b)

    def test_xy_seq_example(self):
        assert xy_seq(INST, 1) == (Fraction(2, 5), Fraction(1, 5))

    def test_recurrence_step(self):
        rng = random.Random(303)
        for _ in range(50):
            inst = random_instance(rng, 30)
            x, y = xy_seq(inst, 0)
            for n in range(100):
                denom = 1 - x * y
                x, y = x * (1 - y) / denom, y * (1 - x) / denom
                assert (x, y) == xy_seq(inst, n + 1)

    def test_instance_validation(self):
        with pytest.raises(DomainError):
            TwoParamInstance(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DomainError):
            TwoParamInstance(Fraction(0), Fraction(1, 2))
        with pytest.raises(DomainError):
            TwoParamInstance(Fraction(1, 2), Fraction(3, 2))

    def test_limit_behavior(self):
        # for b < a: x_200 near (a-b)/(1-b), y_200 near 0, exact bound
        for a, b in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(7, 9), Fraction(2, 9))):
            inst = TwoParamInstance(a, b)
            x, y = xy_seq(inst, 200)
            bound = (1 - a) ** 100 / (1 - b) ** 100
            assert abs(x - (a - b) / (1 - b)) < bound
            assert y < bound
        # symmetric case b > a
        inst = TwoParamInstance(Fraction(1, 3), Fraction(1, 2))
        x, y = xy_seq(inst, 200)
        bound = (1 - inst.b) ** 100 / (1 - inst.a) ** 100
        assert abs(y - (inst.b - inst.a) / (1 - inst.a)) < bound
        assert x < bound


class TestTheoremTerm:
    def test_first_term_is_ab(self):
        rng = random.Random(7)
        for _ in range(10):
            inst = random_instance(rng)
            assert theorem_main_term(inst, 0) == inst.a * inst.b

    def test_example_value(self):
        assert theorem_main_term(INST, 0) == Fraction(1, 6)

    def test_closed_form_two_thirds(self):
        inst = TwoParamInstance(Fraction(2, 3), Fraction(1, 3))
        for n in range(30):
            assert theorem_main_term(inst, n) == Fraction(2 ** (n + 1), (2 ** (n + 2) - 1) ** 2)

    def test_equals_xy_product(self):
        rng = random.Random(8)
        for _ in range(20):
            inst = random_instance(rng, 30)
            for n in (0, 1, 5, 17):
                x, y = xy_seq(inst, n)
                assert theorem_main_term(inst, n) == x * y

    def test_terms_inside_unit_interval(self):
        rng = random.Random(9)
        for _ in range(10):
            inst = random_instance(rng, 30)
            for n in range(100):
                assert 0 < theorem_main_term(inst, n) < 1


class TestTheoremVerify:
    def test_closed_form_pair(self):
        report = theorem_main_verify(TwoParamInstance(Fraction(2, 3), Fraction(1, 3)), B40)
        assert report.verdict == "pass"
        target = pi_squared_over(12)
        for side in (report.lhs, report.rhs):
            lo, hi = side.endpoints()
            assert lo - TOL40 <= target <= hi + mpf_to_fraction(report.tail_bound) + TOL40

    def test_generic_pair(self):
        report = theorem_main_verify(INST, B40)
        assert report.verdict == "pass"
        assert report.residual.radius <= TOL40

    def test_swap_symmetry(self):
        swapped = TwoParamInstance(INST.b, INST.a)
        r1, r2 = theorem_main_verify(INST, B40), theorem_main_verify(swapped, B40)
        assert r1.lhs.endpoints() == r2.lhs.endpoints()
        assert r1.rhs.endpoints() == r2.rhs.endpoints()

    def test_telescoping_consistency(self):
        # partial sums agree with L(x_0)+L(y_0)-L(x_N)-L(y_N)
        budget = PrecisionBudget.for_digits(30)
        inst = INST
        n_cut = 12
        # endpoints summed as exact rationals: [lo, hi] of each side
        total_lo = total_hi = Fraction(0)
        for n in range(n_cut):
            x, y = xy_seq(inst, n)
            lo, hi = rogers_l(x * y, budget).endpoints()
            total_lo, total_hi = total_lo + lo, total_hi + hi
        xn, yn = xy_seq(inst, n_cut)
        (a_lo, a_hi), (b_lo, b_hi), (x_lo, x_hi), (y_lo, y_hi) = (
            rogers_l(arg, budget).endpoints() for arg in (inst.a, inst.b, xn, yn)
        )
        closed_lo, closed_hi = a_lo + b_lo - x_hi - y_hi, a_hi + b_hi - x_lo - y_lo
        assert total_lo - closed_hi <= 0 <= total_hi - closed_lo

    def test_report_invariant(self):
        report = theorem_main_verify(INST, B40)
        ok = abs(report.residual.midpoint) <= (
            report.residual.radius + mpf_to_fraction(report.tail_bound) + TOL40
        )
        assert ok == (report.verdict == "pass")

    def test_verdict_rejects_genuine_mismatch(self):
        # negative control: a residual incompatible with zero must fail
        from dilogid.enclosure import ErrorBoundedValue
        from dilogid.series import IdentityReport
        from mpmath import mp

        off = ErrorBoundedValue.from_fraction_pair(Fraction(1, 100), Fraction(1, 99))
        report = IdentityReport.build(
            "negative-control",
            {},
            40,
            10,
            off,
            ErrorBoundedValue.zero(),
            mp.mpf(0),
            off,
        )
        assert report.verdict == "fail"


class TestCorollary:
    def test_remark_form_matches_series(self):
        inst = TwoParamInstance(Fraction(2, 3), Fraction(1, 3))  # t = 1/3
        t = Fraction(1, 3)
        for n in range(40):
            assert theorem_main_term(inst, n) == corollary_remark_term(t, n + 1)

    def test_third(self):
        report = corollary_verify(Fraction(1, 3), B40)
        assert report.verdict == "pass"
        lo, hi = report.rhs.endpoints()
        assert lo <= pi_squared_over(12) <= hi

    def test_three_fifths(self):
        report = corollary_verify(Fraction(3, 5), B40)
        assert report.verdict == "pass"

    def test_domain(self):
        with pytest.raises(DomainError):
            corollary_verify(Fraction(3, 2), B40)


class TestLucasPos:
    def test_fib_even_rhs_argument(self):
        # alpha = phi^2 for (3,1); RHS argument is 1/phi^4 = (7-3sqrt5)/2
        report = lucas_pos_verify(LucasParams(3, 1), 1, B40)
        assert report.verdict == "pass"
        target = rogers_reference_of_quad(QuadraticElement(Fraction(7, 2), Fraction(-3, 2), 5))
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_repunit_half(self):
        report = lucas_pos_verify(LucasParams(3, 2), 1, B40)
        assert report.verdict == "pass"
        lo, hi = report.rhs.endpoints()
        assert lo <= pi_squared_over(12) <= hi

    def test_six_one(self):
        report = lucas_pos_verify(LucasParams(6, 1), 1, B40)
        assert report.verdict == "pass"
        target = rogers_reference_of_quad(QuadraticElement(17, -12, 2))
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_term_structure_fib(self):
        # terms are 1/F_{2(n+1)}^2 for (3,1), k=1
        from dilogid.series import _lucas_pos_terms

        fib = LucasParams(1, -1)
        stream = _lucas_pos_terms(LucasParams(3, 1), 1)
        for n in range(1, 15):
            term = next(stream)
            f = lucas_uv(fib, 2 * (n + 1)).u
            assert term == Fraction(1, f * f)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            lucas_pos_verify(LucasParams(1, -1), 1, B40)  # Q < 0
        with pytest.raises(PreconditionError):
            lucas_pos_verify(LucasParams(3, 1), 0, B40)


class TestLucasNeg:
    def test_fibonacci_lucas(self):
        report = lucas_neg_verify(LucasParams(1, -1), 1, B40)
        assert report.verdict == "pass"
        lo, hi = report.lhs.endpoints()
        assert lo <= pi_squared_over(15) <= hi + mpf_to_fraction(report.tail_bound)

    def test_pell_numbers(self):
        report = lucas_neg_verify(LucasParams(2, -1), 1, B40)
        assert report.verdict == "pass"
        target = rogers_reference_of_quad(QuadraticElement(3, -2, 2))
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_q_minus_three(self):
        report = lucas_neg_verify(LucasParams(1, -3), 1, B40)
        assert report.verdict == "pass"
        target = rogers_reference_of_quad(
            QuadraticElement(Fraction(7, 6), Fraction(-1, 6), 13)
        )
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_term_structure(self):
        # A_1, B_1, A_2, ... read from the Q > 0 stream at (sqrt(D), -Q)
        from dilogid.lucas import transform_params
        from dilogid.series import _lucas_pos_terms

        fib = LucasParams(1, -1)
        stream = _lucas_pos_terms(transform_params(fib), 1)
        for n in range(1, 15):
            a_term, b_term = next(stream), next(stream)
            f = lucas_uv(fib, 2 * n).u
            l = lucas_uv(fib, 2 * n + 1).v
            assert a_term == Fraction(1, 5 * f * f)
            assert b_term == Fraction(1, l * l)

        pell = LucasParams(2, -1)
        stream = _lucas_pos_terms(transform_params(pell), 1)
        for n in range(1, 10):
            a_term, b_term = next(stream), next(stream)
            p = lucas_uv(pell, 2 * n).u
            q = lucas_uv(pell, 2 * n + 1).v
            assert a_term == Fraction(1, 2 * p * p)
            assert b_term == Fraction(4, q * q)

        qm3 = LucasParams(1, -3)
        stream = _lucas_pos_terms(transform_params(qm3), 1)
        for n in range(1, 10):
            a_term, b_term = next(stream), next(stream)
            u = lucas_uv(qm3, 2 * n).u
            v = lucas_uv(qm3, 2 * n + 1).v
            assert a_term == Fraction(3 ** (2 * n - 1), 13 * u * u)
            assert b_term == Fraction(3 ** (2 * n), v * v)

    @pytest.mark.parametrize(
        "p, q, k",
        [(1, -1, 1), (2, -1, 1), (1, -3, 1), (Fraction(1, 30), -1, 1), (3, -2, 5),
         (Fraction(5, 3), Fraction(-1, 2), 1), (1, -1, 3), (Fraction(7, 2), Fraction(-1, 3), 3)],
    )
    def test_interleaved_stream_has_the_single_cap(self, p, q, k):
        # A_1, B_1, A_2, ... is the Q > 0 series at (sqrt(D), -Q), so each
        # term is at most (|Q|/alpha^2)^k times the one before, exactly
        from itertools import islice

        from dilogid.lucas import transform_params
        from dilogid.series import _lucas_pos_terms, _ratio_cap_sup

        params = LucasParams(p, q)
        cap = _ratio_cap_sup(params, k)
        terms = list(islice(_lucas_pos_terms(transform_params(params), k), 60))
        assert all(later <= cap * earlier for earlier, later in zip(terms, terms[1:]))

    def test_dropped_term_fails(self, monkeypatch):
        # B_1, the second term of the summed interleaved stream
        from dilogid import series

        original = series._lambert_terms

        def without_b1(form, w):
            terms = original(form, w)
            yield next(terms)
            next(terms)
            yield from terms

        monkeypatch.setattr(series, "_lambert_terms", without_b1)
        assert catalog_verify("fib-lucas-neg", B40).verdict == "fail"

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            lucas_neg_verify(LucasParams(1, -1), 2, B40)  # even k
        with pytest.raises(PreconditionError):
            lucas_neg_verify(LucasParams(3, 1), 1, B40)  # Q > 0


class TestSplitCheck:
    def test_odd_k_instances(self):
        assert neg_from_pos_split_check(LucasParams(1, -1), 1, 30)
        assert neg_from_pos_split_check(LucasParams(2, -1), 1, 30)
        assert neg_from_pos_split_check(LucasParams(1, -3), 1, 30)

    def test_single_term(self):
        assert neg_from_pos_split_check(LucasParams(2, -1), 1, 1)

    def test_even_k_companion(self):
        # (1,-1), k=2: the transformed series reduces to F_k^2/F_{k(n+1)}^2
        assert neg_from_pos_split_check(LucasParams(1, -1), 2, 20)
        from dilogid.series import _lucas_pos_terms
        from dilogid.lucas import transform_params

        stream = _lucas_pos_terms(transform_params(LucasParams(1, -1)), 2)
        fib = LucasParams(1, -1)
        for n in range(1, 12):
            term = next(stream)
            f2, fk = lucas_uv(fib, 2).u, lucas_uv(fib, 2 * (n + 1)).u
            assert term == QuadraticElement.from_rational(Fraction(f2 * f2, fk * fk), 5)

    def test_requires_negative_q(self):
        with pytest.raises(PreconditionError):
            neg_from_pos_split_check(LucasParams(3, 1), 1, 5)


class TestPell:
    def test_positive_solution(self):
        sol = PellSolution(3, 2, 2)
        assert sol.sign == 1
        corr = pell_to_lucas(sol)
        assert corr.params.p == 6 and corr.params.q == 1
        assert corr.b_k(2) == 12  # u^2 = 17 + 12 sqrt(2)
        assert corr.a_k(2) == 17
        assert corr.roundtrip_ok(2)

    def test_negative_solutions(self):
        corr = pell_to_lucas(PellSolution(1, 1, 2))
        assert corr.params.p == 2 and corr.params.q == -1
        corr5 = pell_to_lucas(PellSolution(2, 1, 5))
        assert corr5.params.p == 4 and corr5.params.q == -1
        assert corr5.a_k(2) == 9  # u^2 = 9 + 4 sqrt(5)
        assert corr5.roundtrip_ok(2)

    def test_roundtrip_many_powers(self):
        for sol in (PellSolution(3, 2, 2), PellSolution(2, 1, 5), PellSolution(8, 3, 7)):
            corr = pell_to_lucas(sol)
            for k in range(1, 25):
                assert corr.roundtrip_ok(k)

    def test_invalid_solutions(self):
        with pytest.raises(DomainError):
            PellSolution(1, 1, 1)  # perfect-square radicand
        with pytest.raises(DomainError):
            PellSolution(2, 1, 2)  # 4 - 2 = 2
        with pytest.raises(DomainError):
            PellSolution(-3, 2, 2)

    def test_discriminant_is_4nb2(self):
        for sol in (PellSolution(3, 2, 2), PellSolution(1, 1, 2), PellSolution(2, 1, 5)):
            corr = pell_to_lucas(sol)
            assert corr.params.d == 4 * sol.n * sol.b * sol.b


class TestBridgeman:
    def test_positive_case(self):
        report = bridgeman_verify(PellSolution(3, 2, 2), B40)
        assert report.verdict == "pass"
        assert report.identity_id == "bridgeman"
        target = rogers_reference_of_quad(QuadraticElement(17, -12, 2))
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_negative_case_matches_pell_identity(self):
        report = bridgeman_verify(PellSolution(1, 1, 2), B40)
        direct = lucas_neg_verify(LucasParams(2, -1), 1, B40)
        assert report.verdict == "pass"
        assert report.lhs.endpoints() == direct.lhs.endpoints()
        assert report.rhs.endpoints() == direct.rhs.endpoints()

    def test_divisibility(self):
        assert bridgeman_divisibility_check(PellSolution(3, 2, 2), 50)
        assert bridgeman_divisibility_check(PellSolution(1, 1, 2), 50)
        assert bridgeman_divisibility_check(PellSolution(2, 1, 5), 50)

    def test_divisibility_requires_integers(self):
        # u = (1 + sqrt(5))/2 solves x^2 - 5y^2 = -1 with non-integral parts
        with pytest.raises(PreconditionError):
            bridgeman_divisibility_check(
                PellSolution(Fraction(1, 2), Fraction(1, 2), 5), 10
            )


class TestTailBound:
    def test_zero_first_term(self):
        assert mpf_to_fraction(tail_bound(Fraction(0), Fraction(1, 2))) == 0

    def test_monotone(self):
        grid = [Fraction(i, 20) for i in range(1, 10)]
        for r in (Fraction(1, 4), Fraction(3, 4)):
            values = [mpf_to_fraction(tail_bound(t, r)) for t in grid]
            assert values == sorted(values)
        for t in (Fraction(1, 10), Fraction(2, 5)):
            values = [
                mpf_to_fraction(tail_bound(t, Fraction(i, 10))) for i in range(1, 10)
            ]
            assert values == sorted(values)

    def test_dominates_brute_force(self):
        budget = PrecisionBudget.for_digits(25)
        bound = mpf_to_fraction(tail_bound(Fraction(1, 4), Fraction(1, 2)))
        partial = Fraction(0)
        term = Fraction(1, 4)
        for _ in range(10 ** 4):
            if term < Fraction(1, 10 ** 30):
                break
            partial += rogers_l(term, budget).endpoints()[1]
            term /= 2
        assert bound >= partial

    def test_rejects_large_first_term(self):
        with pytest.raises(DomainError):
            tail_bound(Fraction(3, 4), Fraction(1, 2))
        with pytest.raises(DomainError):
            tail_bound(Fraction(1, 4), Fraction(3, 2))


class TestTraceTails:
    """Every --trace row's tail bounds the rest of the series: it is at least
    the final lhs lower endpoint minus that row's lhs upper endpoint, a lower
    bound on the true remainder after the row, and at most the geometric
    majorant after the row, which the rows read before they took their
    tails from the sum."""

    @pytest.mark.parametrize(
        "name, digits, params",
        [
            ("lucas-neg", 15, {"P": "1/30", "Q": "-1", "k": "1"}),
            ("lucas-neg", 20, {"P": "5/3", "Q": "-1/2", "k": "1"}),
            ("theorem-main", 20, {"a": "1/50", "b": "3/47"}),
            ("corollary", 20, {"t": "1/3"}),
            ("lucas-pos", 20, {"P": "5", "Q": "6", "k": "1"}),
            ("sqrt5-k-odd", 20, {"k": "3"}),
            ("bridgeman", 20, {"pell_a": "3", "pell_b": "2", "pell_n": "2"}),
            ("sinh-theta", 20, {"theta": "1/2"}),
            ("richmond-szekeres", 15, {}),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_row_tails_are_bounds(self, name, digits, params, monkeypatch):
        forms = []
        lambert_report = series._lambert_report

        def recording(identity_id, parameters, form, cap, *rest):
            forms.append((form, cap))
            return lambert_report(identity_id, parameters, form, cap, *rest)

        monkeypatch.setattr(series, "_lambert_report", recording)
        rows = []
        report = catalog_verify(name, PrecisionBudget(digits), 2000, rows, **params)
        final_lo = report.lhs.endpoints()[0]
        assert len(rows) == report.terms_used
        if forms:
            (form, cap), = forms
            enclosed = series._enclosed_form(form)
            closed_lo, closed_hi = report.rhs.endpoints()
        else:
            closed_lo = closed_hi = pi_squared_over(6)

        def majorant(n):
            # the tail after row n as the rows read it before: None where the
            # term after the row exceeds 1/2 and the bound is not defined
            try:
                if not forms:
                    return mpf_to_fraction(series._richmond_tail(n + 2))
                return mpf_to_fraction(tail_bound(series._term_upper(enclosed, n + 1), cap))
            except DomainError:
                return None

        short, negative, loose, outside = [], [], [], []
        for row in rows:
            n, tail = row["n"], mpf_to_fraction(row["tail_bound"])
            partial_lo, partial_hi = row["lhs_partial"].rounded(row["prec"]).endpoints()
            short += [n] if tail < final_lo - partial_hi else []
            negative += [n] if tail < 0 else []
            loose += [n] if majorant(n) is not None and tail > majorant(n) else []
            outside += [n] if not partial_lo <= closed_lo <= closed_hi <= partial_hi + tail else []
        assert (short, negative, loose, outside) == ([], [], [], [])

    @pytest.mark.parametrize(
        "name, params, max_terms",
        [
            ("corollary", {"t": "1/3"}, 2000),
            ("theorem-main", {"a": "1/50", "b": "3/47"}, 20),
            ("fib-lucas-neg", {}, 2000),
            ("richmond-szekeres", {}, 30),
        ],
        ids=["corollary", "theorem-main-capped", "fib-lucas-neg", "richmond-szekeres"],
    )
    def test_last_row_tail_is_the_report_tail(self, name, params, max_terms):
        # one tail function serves the report and every row: the last row's
        # tail is the tail after every kept term
        rows = []
        report = catalog_verify(name, PrecisionBudget(20), max_terms, rows, **params)
        assert len(rows) == report.terms_used
        assert rows[-1]["tail_bound"] == report.tail_bound

    @pytest.mark.parametrize(
        "name, digits, params",
        [
            ("corollary", 30, {"t": "1/3"}),
            ("theorem-main", 40, {"a": "7/9", "b": "10/13"}),
            ("sinh-theta", 30, {"theta": "1/10"}),
            ("richmond-szekeres", 15, {}),
        ],
        ids=["corollary", "theorem-main", "sinh-theta", "richmond-szekeres"],
    )
    def test_trace_evaluates_no_tail(self, name, digits, params, monkeypatch):
        # the rows read their tails from the sum: a traced run bounds no
        # more tails than an untraced one
        calls = {"tail_bound": 0, "_richmond_tail": 0}

        def counting(function):
            def counted(*args):
                calls[function.__name__] += 1
                return function(*args)

            return counted

        for function in calls:
            monkeypatch.setattr(series, function, counting(getattr(series, function)))
        counts = []
        for trace in (None, []):
            catalog_verify(name, PrecisionBudget(digits), 2000, trace, **params)
            counts.append(dict(calls))
            calls.update(dict.fromkeys(calls, 0))
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) > 0

    def test_row_midpoint_is_that_of_the_rounded_enclosure(self):
        # a row keeps its integers; the CSV prints the midpoint of their
        # outward rounding, each endpoint rounded as its rational would be
        rng = random.Random(5)
        for _ in range(400):
            scale, prec = rng.randint(0, 600), rng.randint(20, 300)
            lo = rng.randint(-(1 << rng.randint(1, 700)), 1 << rng.randint(1, 700))
            hi = lo + rng.randint(0, 1 << rng.randint(0, 400))
            rounded = ErrorBoundedValue(lo, hi, scale).rounded(prec)
            lower = mpf_to_fraction(mp.make_mpf(rational_bounds(lo, 1 << scale, prec)[0]))
            upper = mpf_to_fraction(mp.make_mpf(rational_bounds(hi, 1 << scale, prec)[1]))
            assert rounded.endpoints() == (lower, upper)
            assert rounded.midpoint == (lower + upper) / 2


class TestCatalog:
    def test_richmond_small(self):
        report = catalog_verify("richmond-szekeres", PrecisionBudget.for_digits(12), max_terms=2000)
        assert report.verdict == "pass"
        width = 2 * report.lhs.radius + mpf_to_fraction(report.tail_bound)
        assert width <= Fraction(1, 100)
        lo, hi = report.lhs.endpoints()
        assert lo <= pi_squared_over(6) <= hi + mpf_to_fraction(report.tail_bound)

    def test_sinh_theta(self):
        report = catalog_verify("sinh-theta", B40, theta=Fraction(1))
        assert report.verdict == "pass"
        from mpmath import mp

        with mp.workdps(60):
            target = rogers_reference(mp.exp(-2))
        lo, hi = report.rhs.endpoints()
        assert lo - TOL40 <= target <= hi + TOL40

    def test_fib_even_aliases_lucas_pos(self):
        via_catalog = catalog_verify("fib-even", B40, k=1)
        direct = lucas_pos_verify(LucasParams(3, 1), 1, B40)
        assert via_catalog.identity_id == "fib-even"
        assert replace(via_catalog, identity_id=direct.identity_id) == direct

    # closed-form arguments |Q|^k / alpha^(2k) below 10^-200: a + b sqrt(D)
    # whose parts, above 10^200, cancel down to that size
    @pytest.mark.parametrize(
        "args",
        [
            ["--identity", "fib-even", "--k", "300"],
            ["--identity", "fib-even", "--k", "2000"],
            ["--identity", "pell", "--k", "301"],
            ["--identity", "lucas-pos", "--P", "3", "--Q", "1", "--k", "250"],
        ],
        ids=["fib-even-300", "fib-even-2000", "pell-301", "lucas-pos-3-1-250"],
    )
    def test_tiny_closed_form_argument(self, monkeypatch, capsys, args):
        monkeypatch.delenv("DILOG_DIGITS", raising=False)
        assert run_cli(["verify", *args]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_sqrt5_entries(self):
        odd = catalog_verify("sqrt5-k-odd", B40, k=1)
        assert odd.verdict == "pass"
        lo, hi = odd.lhs.endpoints()
        assert lo <= pi_squared_over(15) <= hi + mpf_to_fraction(odd.tail_bound)
        even = catalog_verify("sqrt5-k-even", B40, k=2)
        assert even.verdict == "pass"

    def test_sqrt5_parity_guard(self):
        with pytest.raises(UsageError):
            catalog_verify("sqrt5-k-odd", B40, k=2)
        with pytest.raises(UsageError):
            catalog_verify("sqrt5-k-even", B40, k=3)

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            catalog_verify("unknown-identity", B40)

    def test_unknown_override(self):
        with pytest.raises(UsageError):
            catalog_verify("fib-even", B40, theta=Fraction(1))


class TestWorkingPrecision:
    """The working precision is the target's bits plus G = 33 guard bits
    (``PrecisionBudget``); the residual radius stays within 2^4 units of
    it, at most 2^-(G-4) 10^-digits, far below the worst case of its
    docstring."""

    @staticmethod
    def radius_budget(budget):
        return Fraction(16, 1 << budget.working_bits)

    def test_no_working_precision_is_the_tail_bits(self):
        assert all(PrecisionBudget(d).working_bits != _TAIL_BITS for d in range(1, 10001))

    @pytest.mark.parametrize("digits", [15, 40, 100, 300])
    def test_registry_residuals_within_the_radius_budget(self, digits):
        for entry in registry():
            report = run_identity(RunConfig(entry.config.identity_id, entry.config.parameters, digits, 2000))
            assert report.residual.radius <= self.radius_budget(PrecisionBudget(digits)), entry.name

    def test_small_theta_residual_within_the_radius_budget(self):
        # c = 1/(1 - e^(-2 theta)) is about 50 000: enclosed at the working
        # precision, K and rho would widen the lhs by about 2^20 of its units
        report = catalog_verify("sinh-theta", B40, max_terms=2000, theta=Fraction(1, 100000))
        assert report.terms_used == 2000
        assert report.residual.radius <= self.radius_budget(B40)


def _enclosure_text(value):
    lo, hi = value.endpoints()
    return f"{exact_decimal(lo)} {exact_decimal(hi)}"


_NARROW = Fraction(1, 10 ** 60)
_PAIR = ErrorBoundedValue.from_fraction_pair
AMBIENT_CASES = {
    "rogers_l": lambda: _enclosure_text(rogers_l(Fraction(2, 3), B40)),
    "rogers_l-enclosure": lambda: _enclosure_text(rogers_l(_PAIR(Fraction(1, 4), Fraction(1, 4) + _NARROW), B40)),
    "li2": lambda: _enclosure_text(li2(Fraction(1, 3), B40)),
    "li2-enclosure": lambda: _enclosure_text(li2(_PAIR(Fraction(3, 5), Fraction(3, 5) + _NARROW), B40)),
    "reflection_residual": lambda: _enclosure_text(reflection_residual(Fraction(1, 3), B40)),
    "abel_residual": lambda: _enclosure_text(abel_residual(Fraction(1, 3), Fraction(2, 7), B40)),
    "abel_residual-enclosures": lambda: _enclosure_text(abel_residual(
        _PAIR(Fraction(1, 3), Fraction(1, 3) + _NARROW), _PAIR(Fraction(2, 7), Fraction(2, 7) + _NARROW), B40)),
    "theorem-main": lambda: emit_report(catalog_verify("theorem-main", B40, a="1/2", b="1/3")),
    "fib-lucas-neg": lambda: emit_report(catalog_verify("fib-lucas-neg", B40)),
    "sinh-theta": lambda: emit_report(catalog_verify("sinh-theta", B40, theta=Fraction(1, 10))),
    "richmond-szekeres": lambda: emit_report(catalog_verify("richmond-szekeres", B40, max_terms=50)),
}


@pytest.mark.parametrize("ambient_bits", [20, 2000])
@pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
def test_ambient_interval_precision_changes_nothing(case, ambient_bits):
    """Every value and report takes its bits from its budget: called where a
    caller has set mpmath's interval precision far below or above the
    working precision, it has the bytes of a plain call."""
    evaluate = AMBIENT_CASES[case]
    with interval_precision(ambient_bits):
        ambient = evaluate()
    assert ambient == evaluate()


@settings(max_examples=20, deadline=None)
@given(
    a=st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30), max_denominator=30),
    b=st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30), max_denominator=30),
)
def test_theorem_property(a, b):
    if a == b:
        return
    report = theorem_main_verify(TwoParamInstance(a, b), PrecisionBudget.for_digits(25), max_terms=2000)
    assert report.verdict == "pass"
