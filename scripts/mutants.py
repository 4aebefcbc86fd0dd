#!/usr/bin/env python3
"""Mutation check of the proofs behind the L kernel, the series driver, the
rational converter and the Q(sqrt(D)) conversion.

Each mutant is one textual change to a file under src/ and the tests that
must catch it.  The script copies src/ to a temporary directory, first runs
every listed test against the unchanged copy (they must pass), then applies
each mutant to a fresh copy and runs only that mutant's tests against it;
the mutant is killed when one of them fails.  It prints one line per
mutant, and one per equivalent mutant with the reason no test can catch it,
and exits with status 1 if a mutant survives or no longer applies.

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
ROGERS = "dilogid/rogers.py"
SERIES = "dilogid/series.py"

EXACT_SUMS = "tests/test_rogers.py::test_exact_stream_sums_bound_the_series"
INTERVAL_SUMS = "tests/test_rogers.py::test_fixed_point_sums_bound_the_series"
EXACT_LOG = "tests/test_rogers.py::test_exact_log_product_bounds"
KERNEL = "tests/test_rogers.py::test_kernel_contains_polylog[146]"
DRIVER = "tests/test_series.py::TestSummationDriver"
CONVERTER = "tests/test_exact_terms.py::test_converter_matches_from_rational"
PAIRS = "tests/test_exact_terms.py::test_branch_and_one_minus_on_pairs"
FORM_CHECK = "tests/test_lambert_form.py::test_five_index_check_accepts_the_form_and_rejects_wrong_ones"
NEAR_CANCELLATION = "tests/test_exactnum.py::test_quad_to_real_one_pass_near_cancellation"


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
    # the exact stream: one power stream of y = p/q and its error count
    Mutant(
        "exact stream without its error count", ROGERS,
        "return s2, s2 + err, s1, s1 + err", "return s2, s2, s1, s1", (EXACT_SUMS,),
    ),
    Mutant(
        "ceiling in the exact step", ROGERS,
        "x = x * p // q", "x = -(-x * p // q)", (EXACT_SUMS,),
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
    # the driver's exact integer sum and its one outward rounding
    Mutant(
        "upper sum left at the coarser scale", SERIES,
        "lo << (t_scale - scale), hi << (t_scale - scale), t_scale",
        "lo << (t_scale - scale), hi, t_scale",
        (DRIVER,),
    ),
    Mutant(
        "accumulated upper bound rounded down", ROGERS,
        "from_man_exp(x.hi, -x.scale, prec, round_ceiling)", "from_man_exp(x.hi, -x.scale, prec, round_floor)",
        (DRIVER,),
    ),
    Mutant(
        "final outward rounding reversed", ROGERS,
        "return from_man_exp(x.lo, -x.scale, prec, round_floor), from_man_exp(x.hi, -x.scale, prec, round_ceiling)",
        "return from_man_exp(x.lo, -x.scale, prec, round_ceiling), from_man_exp(x.hi, -x.scale, prec, round_floor)",
        (DRIVER,),
    ),
    # the interval kernel's proofs, first checked by hand with 9f0958b
    Mutant(
        "interval streams without their error count", ROGERS,
        "return s2_lo, s2_hi + err, s1_lo, s1_hi + err", "return s2_lo, s2_hi, s1_lo, s1_hi", (INTERVAL_SUMS,),
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
    # the branch test and 1 - x on exact and integer-pair arguments
    Mutant(
        "< for <= in the exact branch test", ROGERS,
        "return 2 * x.numerator <= x.denominator", "return 2 * x.numerator < x.denominator", (PAIRS,),
    ),
    Mutant(
        "< for <= in the integer-pair branch test", ROGERS,
        "return x.lo + x.hi <= 1 << x.scale", "return x.lo + x.hi < 1 << x.scale", (PAIRS,),
    ),
    Mutant(
        "1 - x one unit off", ROGERS,
        "one = 1 << x.scale", "one = (1 << x.scale) - 1", (PAIRS,),
    ),
    # the five-index check of a Lambert form, which replaced the corollary's
    # exact per-term check
    Mutant(
        "Lambert-form check disabled", SERIES,
        "if form.term(n) != expected:", "if False:", (FORM_CHECK,),
    ),
    # L from one kernel, first checked by hand with a8ceed7
    Mutant(
        "log product not halved", ROGERS,
        "p_lo, p_hi = p_lo >> 1, -(-p_hi >> 1)", "p_lo, p_hi = p_lo, p_hi",
        ("tests/test_rogers.py::TestRogersL::test_special_value_half",),
    ),
    Mutant(
        "Li2 for L in the series kernel", ROGERS,
        "return _dilog_raw(x, True)", "return _dilog_raw(x, False)",
        ("tests/test_series.py::TestLucasPos::test_fib_even_rhs_argument",),
    ),
    Mutant(
        "no boundary point 1", ROGERS,
        "        if x == 1:\n            return _pi_squared_over(6)\n", "",
        ("tests/test_rogers.py::TestRogersL::test_boundary_values",),
    ),
    # a + b sqrt(D) with opposite signs as the norm over the conjugate
    Mutant(
        "no conjugate form", EXACTNUM,
        "    if a and (a > 0) != (b > 0):\n", "    if False:\n", (NEAR_CANCELLATION,),
    ),
]

EQUIVALENT = [
    Equivalent(
        "c = 1 below 1/2", ROGERS,
        "c = 2\n", "c = 1\n",
        "it drops at most 2 + 2 bits(N) units from a count whose N units for the floors exceed their "
        "actual loss, about N/2, by far more: no longer proved, but no input comes near the difference",
    ),
    Equivalent(
        "interval log endpoints swapped", ROGERS,
        "return _shift(man_hi * s1_lo, exp_hi), _shift(man_lo * s1_hi, exp_lo, up=True)",
        "return _shift(man_lo * s1_lo, exp_lo), _shift(man_hi * s1_hi, exp_hi, up=True)",
        "each bound then takes every factor at one end of y's enclosure, which bounds L(y) and "
        "Li2(y) + log(y) log(1-y) = pi^2/6 - Li2(1-y) there, and both increase with y; only the "
        "byte goldens under tests/golden/enclosures/ see the changed last bits",
    ),
]


def _run(tests, src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
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
