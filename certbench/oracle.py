"""Independent output checks for the certification benchmark.

References come from mpmath's floating-point context (``mp.polylog``,
``mp.log``, ``mp.exp``, ``mp.pi``) at 30 digits beyond the target, and
quadratic irrationals r + s*sqrt(D) from integer ``isqrt`` brackets. Nothing
here calls dilogid: the oracle reads only the JSON report a verification
emits, parsed back to exact rationals.

A reference is an interval [lo, hi] of width 2*10^-(digits+20), far below
the 10^-digits the checks resolve.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from mpmath import mp
from mpmath.libmp import to_rational

_REF_EXTRA_DIGITS = 30
_REF_SLACK_DIGITS = 20


def _to_fraction(x) -> Fraction:
    p, q = to_rational(mp.mpf(x)._mpf_)
    return Fraction(p, q)


def _quad_value(r: Fraction, s: Fraction, radicand: int, dps: int):
    """r + s*sqrt(radicand) to dps digits, sqrt from an isqrt bracket."""
    k = int(dps * 3.33) + 64
    root = isqrt(radicand << (2 * k))  # sqrt(radicand) in [root, root+1] / 2^k
    value = r + s * Fraction(2 * root + 1, 2 ** (k + 1))
    return mp.mpf(value.numerator) / value.denominator


def _arg_value(arg, dps: int):
    kind = arg[0]
    if kind == "rat":
        return mp.mpf(arg[1].numerator) / arg[1].denominator
    if kind == "quad":
        return _quad_value(arg[1], arg[2], arg[3], dps)
    if kind == "exp":
        return mp.exp(mp.mpf(arg[1].numerator) / arg[1].denominator)
    raise ValueError(f"unknown argument kind {kind!r}")


def _rogers_mp(x):
    return mp.polylog(2, x) + mp.log(x) * mp.log(1 - x) / 2


def _term_value(term, dps: int):
    kind = term[0]
    if kind == "pi2":
        return mp.pi ** 2 / term[1]
    if kind == "L":
        return _rogers_mp(_arg_value(term[1], dps))
    raise ValueError(f"unknown closed-form term {kind!r}")


def reference(closed_form, digits: int) -> tuple:
    """Enclosure (lo, hi) of a closed form, as exact rationals."""
    dps = digits + _REF_EXTRA_DIGITS
    with mp.workdps(dps):
        value = mp.mpf(0)
        for sign, term in closed_form:
            value += sign * _term_value(term, dps)
        mid = _to_fraction(value)
    slack = Fraction(1, 10 ** (digits + _REF_SLACK_DIGITS))
    return mid - slack, mid + slack


def rogers_reference(x: Fraction, digits: int) -> tuple:
    return reference(((1, ("L", ("rat", x))),), digits)


def parse(text: str) -> dict:
    """Exact fields of an emitted report."""
    doc = json.loads(text)

    def enclosure(key):
        mid = Fraction(doc[key]["midpoint"])
        rad = Fraction(doc[key]["radius"])
        return mid - rad, mid + rad

    return {
        "digits": doc["digits"],
        "terms_used": doc["terms_used"],
        "lhs": enclosure("lhs"),
        "rhs": enclosure("rhs"),
        "tail": Fraction(doc["tail_bound"]),
        "verdict": doc["verdict"],
    }


def check(op, report: dict, ref: tuple) -> list:
    """Reasons the report fails the oracle; empty when it passes.

    ``identity`` operations need the cited closed form within rhs +- 10^-d,
    the reference within [lhs_lo - 10^-d, lhs_hi + tail + 10^-d], an lhs
    width plus tail of at most 10^-d, and verdict ``pass``. ``bracket``
    operations need the closed form within rhs +- 10^-d and the bracket
    lhs_lo <= reference <= lhs_hi + tail; their verdict is not consulted.
    """
    problems = []
    d = op.digits
    tol = Fraction(1, 10 ** d)
    ref_lo, ref_hi = ref
    if report["digits"] != d:
        problems.append(f"digits {report['digits']}, expected {d}")
    if report["terms_used"] < 1:
        problems.append("no terms summed")
    lhs_lo, lhs_hi = report["lhs"]
    rhs_lo, rhs_hi = report["rhs"]
    tail = report["tail"]
    if tail < 0:
        problems.append("negative tail bound")
    if not (rhs_lo - tol <= ref_lo and ref_hi <= rhs_hi + tol):
        problems.append("closed form outside rhs +- 10^-d")
    if op.check == "bracket":
        if not (lhs_lo <= ref_lo and ref_hi <= lhs_hi + tail):
            problems.append("partial sum plus tail does not bracket the closed form")
        return problems
    if not (lhs_lo - tol <= ref_lo and ref_hi <= lhs_hi + tail + tol):
        problems.append("closed form outside [lhs_lo - 10^-d, lhs_hi + tail + 10^-d]")
    if (lhs_hi - lhs_lo) + tail > tol:
        problems.append("lhs width plus tail above 10^-d")
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']!r}")
    return problems


def negative_controls(op, report: dict, ref: tuple) -> dict:
    """Perturb one accepted report three ways; each must be rejected.

    Returns {control name: True when the oracle rejected it}.
    """
    d = op.digits
    tol = Fraction(1, 10 ** d)
    shift = Fraction(1, 10 ** (d - 2))
    shifted_ref = (ref[0] + shift, ref[1] + shift)

    first_lo, first_hi = rogers_reference(op.first_term, d)
    lhs_lo, lhs_hi = report["lhs"]
    dropped = dict(report, lhs=(lhs_lo - first_hi, lhs_hi - first_lo))

    # move the partial sum so its lower end sits above the closed form
    # by more than the 10^-d slack
    lift = ref[1] - lhs_lo + 2 * tol
    excluded = dict(report, lhs=(lhs_lo + lift, lhs_hi + lift))

    return {
        "shifted_reference": bool(check(op, report, shifted_ref)),
        "dropped_first_term": bool(check(op, dropped, ref)),
        "bracket_excludes_value": bool(check(op, excluded, ref)),
    }


def self_test() -> list:
    """Checks of the reference path itself against known closed forms."""
    problems = []
    for digits in (40, 300):
        tol = Fraction(1, 10 ** (digits + 15))
        half = rogers_reference(Fraction(1, 2), digits)
        pi12 = reference(((1, ("pi2", 12)),), digits)
        if abs(half[0] - pi12[0]) > tol:
            problems.append(f"L(1/2) != pi^2/12 at {digits} digits")
        # L(1/phi^2) = pi^2/15 with 1/phi^2 = (3 - sqrt 5)/2
        inv_phi2 = reference(((1, ("L", ("quad", Fraction(3, 2), Fraction(-1, 2), 5))),), digits)
        pi15 = reference(((1, ("pi2", 15)),), digits)
        if abs(inv_phi2[0] - pi15[0]) > tol:
            problems.append(f"L(1/phi^2) != pi^2/15 at {digits} digits")
    return problems
