#!/usr/bin/env python3
"""Mutation check of the proofs behind the L kernel, the series driver and
its truncation, the rational converter, the Q(sqrt(D)) conversion, the
working precision's error budget, the logs that exact arguments carry
(Richmond-Szekeres' atanh stream), and the exact layer: the integer
Q(sqrt(D)) arithmetic, the Lucas doubling over Z, the one stride-k stream
of the Lucas summands, which the Q < 0 series reads at its reduced
parameters (sqrt(D), -Q), and the form check's unreduced integer triples.

The report's printed balls are checked too: each contains the enclosure
it is written from.

Each mutant is one textual change to a file under src/ and the tests that
must catch it.  The script copies src/ to a temporary directory, first runs
every listed test against the unchanged copy (they must pass), then applies
each mutant to a fresh copy and runs only that mutant's tests against it;
the mutant is killed when one of them fails.  It prints one line per
mutant, and one per equivalent mutant with the reason no test can catch it,
and exits with status 1 if a mutant survives or no longer applies.
pytest runs with ``--hypothesis-seed=0``, so a property test draws the same
examples on every run and a mutant's fate does not depend on the run.

Run from anywhere, with pytest and hypothesis installed:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENCLOSURE = "dilogid/enclosure.py"
EXACTNUM = "dilogid/exactnum.py"
LUCAS = "dilogid/lucas.py"
ROGERS = "dilogid/rogers.py"
SERIES = "dilogid/series.py"

EXACT_SUMS = "tests/test_rogers.py::test_exact_stream_sums_bound_the_series"
INTERVAL_SUMS = "tests/test_rogers.py::test_fixed_point_sums_bound_the_series"
WIDE_SUMS = "tests/test_rogers.py::test_fixed_point_sums_bound_a_wide_interval"
EXACT_LOG = "tests/test_rogers.py::test_exact_log_product_bounds"
INTERVAL_LOG = "tests/test_rogers.py::test_interval_log_product_bounds"
LOW_PRECISION = "tests/test_rogers.py::test_low_precision_kernel_contains_polylog"
KERNEL = "tests/test_rogers.py::test_kernel_contains_polylog[146]"
DRIVER = "tests/test_series.py::TestSummationDriver"
CONVERTER = "tests/test_exact_terms.py::test_converter_matches_from_rational"
PAIRS = "tests/test_exact_terms.py::test_branch_and_one_minus_on_pairs"
FORM_CHECK = "tests/test_lambert_form.py::test_five_index_check_accepts_the_form_and_rejects_wrong_ones"
NEAR_CANCELLATION = "tests/test_exactnum.py::test_quad_to_real_one_pass_near_cancellation"
TRUNCATION_SCAN = "tests/test_exact_terms.py::test_truncation_search_matches_a_scan"
TAIL_CALLS = "tests/test_exact_terms.py::test_truncation_certifies_few_terms"
SCALED = "tests/test_exact_terms.py::test_scaled_enclosures_keep_their_endpoints"
NON_FINITE = "tests/test_exact_terms.py::test_enclosure_refuses_an_infinite_endpoint"
BUDGET = "tests/test_series.py::TestWorkingPrecision"
SMALL_THETA_RADIUS = f"{BUDGET}::test_small_theta_residual_within_the_radius_budget"
TAIL_BITS_INVARIANT = f"{BUDGET}::test_no_working_precision_is_the_tail_bits"
WIDE_WIDTH = "tests/test_rogers.py::test_wide_interval_sums_stay_near_the_growth"
DEFAULT_CAP_GOLDEN = "tests/test_golden.py::test_negative_rational_as_separate_argument_matches_golden"
TIGHT_CUT_OFF = "tests/test_lambert_form.py::test_cut_off_bound_is_tight_above_the_exact_term"
WRONG_FORMS = (
    "tests/test_lambert_form.py::test_verifier_rejects_a_wrong_two_parameter_form",
    "tests/test_lambert_form.py::test_verifier_rejects_a_wrong_lucas_form",
)
TWO_PARAMETER_GOLDENS = "tests/test_golden.py::test_two_parameter_report_matches_golden"
TRACE_GOLDENS = (
    "tests/test_golden.py::test_trace_csv_matches_golden",
    "tests/test_golden.py::test_two_parameter_trace_csv_matches_golden",
)
UNREACHED_CAP = "tests/test_golden.py::test_trace_csv_does_not_depend_on_an_unreached_cap"
REDUCED_TRIPLES = "tests/test_exactnum.py::test_reduced_triples_fixed_examples"
RATIONAL_RADICAND = "tests/test_exactnum.py::test_products_over_a_rational_radicand"
RATIONAL_LUCAS = "tests/test_lucas.py::test_integer_doubling_matches_naive_at_fixed_parameters"
STRIDE_POS = "tests/test_lucas.py::test_stride_stream_matches_doubling_q_positive"
QUADRATIC_NEG = "tests/test_golden.py::test_quadratic_lucas_neg_report_matches_golden"
LUCAS_NEG = "tests/test_series.py::TestLucasNeg"
RADICAL_PARTS = "tests/test_exact_terms.py::test_form_check_compares_the_radical_parts"
SQUARE_RADICAND = "tests/test_exact_terms.py::test_form_check_folds_a_square_radicand"
ATANH = "tests/test_log_stream.py::test_atanh_bounds_contain_the_series"
PRINTED_BALLS = (
    "tests/test_harness.py::TestReportSerialization::test_roundtrip_exact",
    "tests/test_harness.py::TestReportSerialization::test_report_parses_back_to_balls_around_its_enclosures",
)
LOG_SQUARES = "tests/test_log_stream.py::test_log_squares_contain_mpmath"
SUPPLIED_LOGS = "tests/test_log_stream.py::test_supplied_logs_give_the_bare_pairs_reports"
STREAM_SCALE = "tests/test_log_stream.py::test_stream_scale_does_not_depend_on_where_it_is_advanced"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


MUTANTS = [
    # a report's balls: the radius rounded up after the midpoint's rounding
    # error is added to it, so the printed ball contains the exact one
    Mutant(
        "midpoint rounding not added to the radius", ENCLOSURE,
        "c = -((-(r_num + error) >> shift) // div)", "c = -((-r_num >> shift) // div)", PRINTED_BALLS,
    ),
    Mutant(
        "radius rounded to nearest, not up", ENCLOSURE,
        "c = -((-(r_num + error) >> shift) // div)", "c = ((r_num + error << 1) + (div << shift) >> shift + 1) // div",
        PRINTED_BALLS,
    ),
    # the exact stream: one power stream of y = p/q and its error count
    Mutant(
        "exact stream without its error count", ROGERS,
        "return s2, s2 + err, s1, s1 + err", "return s2, s2, s1, s1", (EXACT_SUMS,),
    ),
    Mutant(
        "ceiling in the exact step", ROGERS,
        "x = x * p // q", "x = -(-x * p // q)", (EXACT_SUMS,),
    ),
    Mutant(
        "ceiling in the exact step for p = 1", ROGERS,
        "x //= q", "x = -(-x // q)", (EXACT_SUMS,),
    ),
    Mutant(
        "exact error count without its last power", ROGERS,
        "_error_count(n_terms, 2, x)", "_error_count(n_terms, 2, 0)", (EXACT_SUMS,),
    ),
    # the exact argument above 1/2 enters the kernel as y = (q - p, q)
    Mutant(
        "upper branch on (p, q) for (q - p, q)", ROGERS,
        "y = x if low else (q - p, q)", "y = x", (KERNEL,),
    ),
    # one point log of q/p per exact L
    Mutant(
        "exact log without the slack of y's dyadic bound", ROGERS,
        "(man + 1 + (p > 1)) * s1_hi", "(man + 1) * s1_hi", (EXACT_LOG,),
    ),
    Mutant(
        "exact log without its ulp", ROGERS,
        "(man + 1 + (p > 1)) * s1_hi", "(man + (p > 1)) * s1_hi", (EXACT_LOG,),
    ),
    # one point log of an interval's lower end bounds log(x) log(1-x) over
    # the whole interval.  The L-level sweep does not see the log taken at
    # y_hi: the rise that S1's upper bound adds across a straddling interval
    # covers P(1/2) - P(y_hi) on every interval it draws; the integer-scale
    # test, whose S1 bounds are tight, kills it
    Mutant(
        "log taken at y_hi", ROGERS,
        "mpf_log(y[0], prec, round_floor)", "mpf_log(y[1], prec, round_floor)", (INTERVAL_LOG, LOW_PRECISION),
    ),
    Mutant(
        "lower log bound without its ulp", ROGERS,
        "lo, hi = (man - 1) * s1_lo, man * s1_hi", "lo, hi = man * s1_lo, man * s1_hi", (INTERVAL_LOG, LOW_PRECISION),
    ),
    # the driver's exact integer sum and its one outward rounding, the
    # enclosure's own, which the kernel's results and the trace rows share
    Mutant(
        "upper sum left at the coarser scale", SERIES,
        "lo << (t_scale - scale), hi << (t_scale - scale), t_scale",
        "lo << (t_scale - scale), hi, t_scale",
        (DRIVER,),
    ),
    Mutant(
        "accumulated upper bound rounded down", ENCLOSURE,
        "hi.bit_length(), prec, round_ceiling)", "hi.bit_length(), prec, round_floor)", (DRIVER,),
    ),
    Mutant(
        "final outward rounding reversed", ENCLOSURE,
        "lo.bit_length(), prec, round_floor),\n"
        "                normalize(int(hi < 0), MPZ(abs(hi)), -scale, hi.bit_length(), prec, round_ceiling)",
        "lo.bit_length(), prec, round_ceiling),\n"
        "                normalize(int(hi < 0), MPZ(abs(hi)), -scale, hi.bit_length(), prec, round_floor)",
        (DRIVER,),
    ),
    # the interval kernel's proofs, first checked by hand with 9f0958b
    Mutant(
        "interval streams without their error count", ROGERS,
        "err = _error_count(n_terms, c, x)", "err = 0", (INTERVAL_SUMS,),
    ),
    # one stream per interval argument: the upper bounds rise from the
    # lower end's sums by y_hi - y_lo times each series' slope at y_hi
    Mutant(
        "interval upper bounds of -log(1-y) without the rise", ROGERS,
        "s1_hi = s1 + err + -(-((top - bottom) << w) // (one - top))", "s1_hi = s1 + err", (WIDE_SUMS,),
    ),
    Mutant(
        "interval upper bounds of Li2 without the rise", ROGERS,
        "return s2, s2 + err + -(-(top - bottom) * s1_hi // top), s1, s1_hi", "return s2, s2 + err, s1, s1_hi",
        (WIDE_SUMS,),
    ),
    Mutant(
        "Li2's rise at the slope 1/(1-y_hi)", ROGERS,
        "return s2, s2 + err + -(-(top - bottom) * s1_hi // top), s1, s1_hi", "return s2, s2 + s1_hi - s1, s1, s1_hi",
        (WIDE_WIDTH,),
    ),
    Mutant(
        "error count without its floor term", ROGERS,
        "return n_terms + c * (1 + n_terms.bit_length())", "return c * (1 + n_terms.bit_length())",
        (INTERVAL_SUMS, EXACT_SUMS),
    ),
    Mutant(
        "error count without its tail term", ROGERS,
        "c * (1 + n_terms.bit_length()) + -(-(x_last + c) * c // (n_terms + 1))", "c * (1 + n_terms.bit_length())",
        (INTERVAL_SUMS, EXACT_SUMS),
    ),
    Mutant(
        "reflected endpoints swapped", ROGERS,
        "lo, hi = z_lo - hi, z_hi - lo", "lo, hi = z_lo - lo, z_hi - hi", (KERNEL,),
    ),
    Mutant(
        "upper log product halved twice", ROGERS,
        "p_lo, p_hi = p_lo >> 1, -(-p_hi >> 1)", "p_lo, p_hi = p_lo >> 1, -(-p_hi >> 2)", (KERNEL,),
    ),
    Mutant(
        "inverted scale shift", ROGERS,
        "scale = w - size if low else w", "scale = w + size if low else w", (KERNEL,),
    ),
    # the one rational converter, first checked by hand with 6cd6fea
    Mutant(
        "no sticky bit in the quotient", ENCLOSURE,
        "man = MPZ((quot << 1) | (rem != 0))", "man = MPZ(quot << 1)", (CONVERTER,),
    ),
    Mutant(
        "quotient 6 bits short", ENCLOSURE,
        "shift = prec + 3 - p.bit_length() + q.bit_length()", "shift = prec - 3 - p.bit_length() + q.bit_length()",
        (CONVERTER,),
    ),
    # the kernel's branch test and 1 - x on exact and integer-pair arguments
    Mutant(
        "< for <= in the exact branch test", ROGERS,
        "low = 2 * p <= q", "low = 2 * p < q", (PAIRS,),
    ),
    Mutant(
        "< for <= in the integer-pair branch test", ROGERS,
        "low = x.lo + x.hi <= 1 << x.scale", "low = x.lo + x.hi < 1 << x.scale", (PAIRS,),
    ),
    Mutant(
        "1 - x one unit off", ROGERS,
        "one = 1 << x.scale", "one = (1 << x.scale) - 1", (PAIRS,),
    ),
    # the truncation: a search over the certified tail after the first n
    # terms, from a float estimate and the index before it
    Mutant(
        "truncation point one index late", SERIES,
        "return min(hi, max_terms)", "return min(hi + 1, max_terms)", (TRUNCATION_SCAN,),
    ),
    # one tail evaluation per series, after every kept term; trace row n
    # adds the kept terms' upper bounds after it, sum_hi - hi_n
    Mutant(
        "trace row suffix taken one row off", SERIES,
        "    for n, (term, lo, hi, row_scale) in enumerate(rows):\n"
        "        suffix = from_man_exp(sum_hi - (hi << (scale - row_scale)), -scale)\n",
        "    previous = 0, scale\n"
        "    for n, (term, lo, hi, row_scale) in enumerate(rows):\n"
        "        suffix = from_man_exp(sum_hi - (previous[0] << (scale - previous[1])), -scale)\n"
        "        previous = hi, row_scale\n",
        TRACE_GOLDENS,
    ),
    Mutant(
        "final tail read at n_terms - 1", SERIES,
        "    tail = tail_after(n_terms)\n", "    tail = tail_after(n_terms - 1)\n", (TWO_PARAMETER_GOLDENS,),
    ),
    Mutant(
        "terms' scale sized from the term cap", SERIES,
        "w = _lambert_scale(form, cap, budget, n_terms)", "w = _lambert_scale(form, cap, budget, max_terms)",
        (UNREACHED_CAP,),
    ),
    # the search still finds the first index, by bisection, but with more
    # tail bounds than the two around a good estimate
    Mutant(
        "index before the estimate never tried", SERIES,
        "for n in (guess, guess - 1):", "for n in (guess,):", (TAIL_CALLS,),
    ),
    Mutant(
        "estimate a factor 2 off", SERIES,
        "target = _float_log(tolerance_half)", "target = _float_log(tolerance_half / 2)", (TAIL_CALLS,),
    ),
    # the five-index check of a Lambert form, which replaced the corollary's
    # exact per-term check
    Mutant(
        "Lambert-form check disabled", SERIES,
        "if not triples_equal(kx, mul(exact_triple(expected), mul(gap, gap))):", "if False:", (FORM_CHECK,),
    ),
    # the one verifier of every geometric series: its one form check and
    # its one closed form, a signed sum of L
    Mutant(
        "form check skipped in the one verifier", SERIES,
        "    if exact is not None:\n        _check_form(form, *exact)\n", "", WRONG_FORMS,
    ),
    Mutant(
        "closed-form sign dropped", SERIES,
        "sum(sign * _rogers_interval(argument(x), budget.working_bits)",
        "sum(_rogers_interval(argument(x), budget.working_bits)", (TWO_PARAMETER_GOLDENS,),
    ),
    # L from one kernel, first checked by hand with a8ceed7
    Mutant(
        "log product not halved", ROGERS,
        "p_lo, p_hi = p_lo >> 1, -(-p_hi >> 1)", "p_lo, p_hi = p_lo, p_hi",
        ("tests/test_rogers.py::TestRogersL::test_special_value_half",),
    ),
    Mutant(
        "Li2 for L in the series kernel", ROGERS,
        "def _rogers_eval(x, prec: int, rogers: bool = True)", "def _rogers_eval(x, prec: int, rogers: bool = False)",
        ("tests/test_series.py::TestLucasPos::test_fib_even_rhs_argument",),
    ),
    Mutant(
        "no boundary point 1", ROGERS,
        "        if p == q:\n            return _pi_squared_over(6)\n", "",
        ("tests/test_rogers.py::TestRogersL::test_boundary_values",),
    ),
    # an interval's endpoints read as integers at one scale, and checked,
    # where it becomes an enclosure
    Mutant(
        "enclosure scale from the lower endpoint only", ENCLOSURE,
        "scale = max(0, -e_lo, -e_hi)", "scale = max(0, -e_lo)", (SCALED,),
    ),
    Mutant(
        "non-finite endpoint accepted", ENCLOSURE,
        "        if not man and exp:\n            raise PrecisionError(\"enclosure has a non-finite endpoint\")\n", "",
        (NON_FINITE,),
    ),
    # the working precision's guard bits, and sinh-theta's K and rho at the
    # terms' scale: the residual radius stays within 2^4 units of the working
    # precision; G = 9 makes ceil(d log2 10) + G = 96 at d = 26
    Mutant(
        "24 fewer guard bits", ENCLOSURE,
        "_WORKING_GUARD_BITS = 33", "_WORKING_GUARD_BITS = 9",
        (TAIL_BITS_INVARIANT,),
    ),
    Mutant(
        "sinh-theta's rho back at the working precision", SERIES,
        "form = form_at(_lambert_scale(coarse, cap, budget, max_terms) + _CUT_OFF_BITS + 8)",
        "form = form_at(budget.working_bits)", (SMALL_THETA_RADIUS,),
    ),
    # the tail is certified from an upper bound on the cut-off term, computed
    # from its formula finer than the tails' precision, so that it does not
    # follow the terms' scale, and with it the term cap
    Mutant(
        "cut-off bound at the tails' precision", SERIES,
        "_CUT_OFF_BITS = _TAIL_BITS + 64", "_CUT_OFF_BITS = _TAIL_BITS", (TIGHT_CUT_OFF, DEFAULT_CAP_GOLDEN),
    ),
    Mutant(
        "cut-off bound read from the lower endpoint", SERIES,
        "(k * x / (1 - s * rho * x) ** 2)._mpi_[1]", "(k * x / (1 - s * rho * x) ** 2)._mpi_[0]", (TIGHT_CUT_OFF,),
    ),
    # (A + B sqrt(D)) / C in lowest terms over D = Dn / Dd, and the Lucas
    # doubling over Z at (lam P, lam^2 Q)
    Mutant(
        "gcd reduction skipped", EXACTNUM,
        "g = math.gcd(a, b, c)", "g = 1", (REDUCED_TRIPLES,),
    ),
    Mutant(
        "radicand denominator dropped in __mul__", EXACTNUM,
        "sa * a * dd + sb * b * dn, (sa * b + sb * a) * dd, self._c * c * dd",
        "sa * a + sb * b * dn, sa * b + sb * a, self._c * c", (RATIONAL_RADICAND,),
    ),
    Mutant(
        "lambda power off by one in lucas_uv", LUCAS,
        "Fraction(u, lam ** max(n - 1, 0))", "Fraction(u, lam ** n)", (RATIONAL_LUCAS,),
    ),
    # the Lucas summands by the stride recurrence U_(m+k) = V_k U_m -
    # Q^k U_(m-k) over U_k, over Z at (lam P, lam^2 Q)
    Mutant(
        "Q for Q^k in the stride-k U stream", SERIES,
        "v_k * w_hi - qk * w_lo", "v_k * w_hi - q * w_lo", (STRIDE_POS,),
    ),
    Mutant(
        "lambda power off by one in the integer streams", SERIES,
        "v_k.numerator * (lam ** k // v_k.denominator)",
        "v_k.numerator * (lam ** (k - 1) // v_k.denominator)", (STRIDE_POS,),
    ),
    # the Q < 0 series is the Q > 0 one at (P', Q') = (sqrt(D), -Q)
    Mutant(
        "Q' = Q in the (sqrt(D), -Q) reduction", LUCAS,
        "LucasParams(p_new, -params.q)", "LucasParams(p_new, params.q)", (QUADRATIC_NEG,),
    ),
    Mutant(
        "Q < 0 form checked against the unreduced stream", SERIES,
        "_lucas_pos_terms(params if positive else transform_params(params), k)",
        "_lucas_pos_terms(params, k)", (LUCAS_NEG,),
    ),
    # the form check on unreduced triples (A + B sqrt(D)) / C
    Mutant(
        "form check on the rational parts only", EXACTNUM,
        "return a * g == e * c and b * g == f * c", "return a * g == e * c", (RADICAL_PARTS,),
    ),
    Mutant(
        "square radicand left unfolded", EXACTNUM,
        "        if rn * rn == dn and rd * rd == dd:\n            return value._a * rd",
        "        if False:\n            return value._a * rd", (SQUARE_RADICAND,),
    ),
    Mutant(
        "three-product cross term without bf", EXACTNUM,
        "cross = (a + b) * (e + f) - ae - bf if b and f", "cross = (a + b) * (e + f) - ae if b and f", (FORM_CHECK,),
    ),
    # exact arguments that carry their logs: Richmond-Szekeres' log m^2 from
    # log 4 = 4 atanh(1/3) and the increments 4 atanh(1/(2m+1)), each a
    # fixed-point series with its error count, read by the kernel at 2^-b
    Mutant(
        "log increment at 2m - 1", SERIES,
        "_atanh_raw(1, 2 * m + 1, b + 2)", "_atanh_raw(1, 2 * m - 1, b + 2)", (LOG_SQUARES,),
    ),
    Mutant(
        "log 4 started as 2 atanh(1/3)", SERIES,
        "lo, hi = _atanh_raw(1, 3, b + 2)", "lo, hi = _atanh_raw(1, 3, b + 1)", (LOG_SQUARES,),
    ),
    Mutant(
        "atanh error count without its tail term", ROGERS,
        "return lo, lo + n - 1 + -(-2 // n)", "return lo, lo + n - 1", (ATANH,),
    ),
    Mutant(
        "supplied log read at scale 2^-(b-1)", ROGERS,
        "return s1_lo * lo >> b, -(-s1_hi * hi >> b)", "return s1_lo * lo >> (b - 1), -(-s1_hi * hi >> (b - 1))",
        (SUPPLIED_LOGS,),
    ),
    # the kernel's bits come from the precision it is given, never from
    # mpmath's interval context where a caller happens to advance the stream
    Mutant(
        "kernel bits read from the ambient context", ROGERS,
        "w = prec + _GUARD_BITS\n    return w + (2 * n_logs * w).bit_length()",
        "w = iv.prec + _GUARD_BITS\n    return w + (2 * n_logs * w).bit_length()", (STREAM_SCALE,),
    ),
    # a + b sqrt(D) with opposite signs as the norm over the conjugate
    Mutant(
        "no conjugate form", EXACTNUM,
        "    if a and (a > 0) != (b > 0):\n", "    if False:\n", (NEAR_CANCELLATION,),
    ),
]

EQUIVALENT = [
    Equivalent(
        "c = 1 in the exact stream", ROGERS,
        "_error_count(n_terms, 2, x)", "_error_count(n_terms, 1, x)",
        "it drops at most 2 + 2 bits(N) units from a count whose N units for the floors exceed their "
        "actual loss, about N/2, by far more: no longer proved, but no input comes near the difference",
    ),
]


def _run(tests, src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=900).returncode


def _mutated_copy(tmp: Path, mutant) -> Path | None:
    """A fresh copy of src/ with the mutant applied, or None when its old
    text no longer occurs exactly once."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is None:
        return src
    target = src / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return None
    target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _run(every_test, _mutated_copy(tmp, None)) != 0:
            print("error: the listed tests fail on the unchanged source")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            src = _mutated_copy(tmp, mutant)
            if src is None:
                status = "stale (old text not found once)"
            else:
                code = _run(mutant.tests, src)
                status = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failures += status != "killed"
            print(f"{status:>8}  {mutant.name}  [{time.perf_counter() - start:.1f} s]", flush=True)
        for mutant in EQUIVALENT:
            src = _mutated_copy(tmp, mutant)
            if src is None:
                failures += 1
                print(f"stale equivalent mutant: {mutant.name}")
            else:
                print(f"equivalent  {mutant.name}: {mutant.reason}")
    print(f"{len(MUTANTS)} mutants, {failures} not killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
