"""Command-line front end: identity registry, reports, property suites.

Subcommands:

  verify          one identity -> JSON report (outward-rounded decimal balls)
  suite           every registry instance at default parameters -> summary
  properties      seeded randomized invariant suites
  special-values  the closed-form table L(0), L(1/2), L(1/phi), L(1/phi^2), L(1)

Exit status: 0 all pass, 1 any verification failure, 2 usage/config error.
Rationals are entered as "p/q" or decimal strings and parsed exactly; no
binary floats touch the exact paths.  Reports are deterministic: each
enclosure is printed as a decimal ball that contains it, the radius rounded
up to three significant digits, and the tail bound rounded up to three.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from .enclosure import (
    DEFAULT_BUDGET,
    DomainError,
    ErrorBoundedValue,
    PrecisionBudget,
    PrecisionError,
    decimal_upper,
    mpf_to_fraction,
)
from .exactnum import QuadraticElement, quad_to_real
from .lucas import LucasParams, PreconditionError, lucas_uv, lucas_uv_naive
from .rogers import abel_residual, reflection_residual, rogers_l
from .series import (
    DEFAULT_MAX_TERMS,
    IDENTITIES,
    IdentityReport,
    TwoParamInstance,
    UsageError,
    _integer,
    _pi2_over,
    d_seq,
    identity_spec,
    parse_decimal,
    tail_bound,
    xy_seq,
)

DIGITS_ENV_VAR = "DILOG_DIGITS"
DEFAULT_DIGITS = DEFAULT_BUDGET.target_digits
MIN_DIGITS = 10
DEFAULT_SEED = 987654321
# significant digits of the --trace CSV's term, partial-sum and tail columns
TRACE_DIGITS = 24


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------


def approx_decimal(value, significant: int = 12) -> str:
    """Deterministically rounded decimal (for human-facing trace columns)."""
    if isinstance(value, ErrorBoundedValue):
        value = value.midpoint
    value = Fraction(value)
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = significant
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _ball_fields(value: ErrorBoundedValue) -> dict:
    mid, rad = value.decimal_ball()
    return {"midpoint": str(mid), "radius": str(rad)}


def emit_report(report: IdentityReport) -> str:
    """Deterministic JSON serialization of one report: each enclosure as a
    decimal ball that contains it, its radius rounded up to three
    significant digits (``ErrorBoundedValue.decimal_ball``), and the tail
    bound rounded up to three (``decimal_upper``)."""
    doc = {
        "identity_id": report.identity_id,
        "parameters": dict(sorted(report.parameters.items())),
        "digits": report.digits,
        "terms_used": report.terms_used,
        "lhs": _ball_fields(report.lhs),
        "rhs": _ball_fields(report.rhs),
        "tail_bound": str(decimal_upper(report.tail_bound)),
        "residual": _ball_fields(report.residual),
        "verdict": report.verdict,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_report(text: str) -> dict:
    """Parse an emitted report back to the exact rationals it prints: each
    ball contains the enclosure it was written from, and the tail is at
    least the certified one."""
    doc = json.loads(text)
    out = dict(doc)
    for key in ("lhs", "rhs", "residual"):
        out[key] = {
            "midpoint": parse_decimal(doc[key]["midpoint"]),
            "radius": parse_decimal(doc[key]["radius"]),
        }
    out["tail_bound"] = parse_decimal(doc["tail_bound"])
    return out


def write_trace_csv(rows: list, path: str) -> None:
    """CSV of partial sums: one row per term index."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "term", "lhs_partial", "tail_bound"])
        for row in rows:
            writer.writerow(
                [
                    row["n"],
                    approx_decimal(row["term"], TRACE_DIGITS),
                    approx_decimal(row["lhs_partial"].rounded(row["prec"]), TRACE_DIGITS),
                    approx_decimal(mpf_to_fraction(row["tail_bound"]), TRACE_DIGITS),
                ]
            )


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    identity_id: str
    parameters: dict = field(default_factory=dict)
    digits: int = DEFAULT_DIGITS
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        _check_digits(self.digits)
        if self.max_terms < 1:
            raise UsageError("max_terms must be positive")

    def budget(self) -> PrecisionBudget:
        return PrecisionBudget.for_digits(self.digits)


def _check_digits(digits: int) -> None:
    if digits < MIN_DIGITS:
        raise UsageError(f"digits must be at least {MIN_DIGITS}")
    try:
        PrecisionBudget.for_digits(digits)
    except ValueError as exc:  # beyond the most digits any run can report
        raise UsageError(f"digits: {exc}") from exc


def default_digits() -> int:
    raw = os.environ.get(DIGITS_ENV_VAR)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{DIGITS_ENV_VAR} must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# identity dispatch
# ---------------------------------------------------------------------------


def run_identity(config: RunConfig, trace: Optional[list] = None) -> IdentityReport:
    """Run one RunConfig through the identity table."""
    try:
        spec = identity_spec(config.identity_id)
        return spec.run(config.budget(), config.max_terms, trace, config.parameters)
    except UsageError:
        raise
    except (PreconditionError, PrecisionError, DomainError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# registry for `suite`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    config: RunConfig
    expected: Optional[Callable[[PrecisionBudget], ErrorBoundedValue]]
    cited_value: str


def registry() -> tuple:
    """The paper's example instances with their cited closed-form values,
    at DEFAULT_DIGITS: ``run_suite`` sets the digits of every run."""
    return tuple(
        RegistryEntry(name, RunConfig(spec.name, dict(params)), expected, cited_value)
        for spec in IDENTITIES.values()
        for name, params, expected, cited_value in spec.examples
    )


def run_suite(digits: int, max_terms: int, stream) -> bool:
    """Run every registry entry; print one line per identity."""
    all_ok = True
    for entry in registry():
        config = replace(entry.config, digits=digits, max_terms=max_terms)
        report = run_identity(config)
        ok = report.verdict == "pass"
        agree = ""
        if entry.expected is not None:
            budget = config.budget()
            matches = report.rhs.widened(budget.tolerance).overlaps(entry.expected(budget))
            ok = ok and matches
            agree = " rhs=cited" if matches else " RHS-MISMATCH"
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(
            f"{status} {entry.name:24s} verdict={report.verdict} "
            f"terms={report.terms_used}{agree} [{entry.cited_value}]",
            file=stream,
        )
    return all_ok


# ---------------------------------------------------------------------------
# seeded property suites
# ---------------------------------------------------------------------------


def _random_fraction(rng: random.Random, max_den: int = 200) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _random_quad(rng: random.Random, radicand: Fraction) -> QuadraticElement:
    def small(lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 9))

    return QuadraticElement(small(), small(), radicand)


def _prop_field_axioms(rng: random.Random, count: int) -> tuple:
    for _ in range(count):
        d = Fraction(rng.randint(2, 60))
        x, y, z = (_random_quad(rng, d) for _ in range(3))
        if (x + y) + z != x + (y + z):
            return False, "associativity of addition failed"
        if (x * y) * z != x * (y * z):
            return False, "associativity of multiplication failed"
        if x * (y + z) != x * y + x * z:
            return False, "distributivity failed"
        if x * y != y * x or x + y != y + x:
            return False, "commutativity failed"
    return True, f"{count} triples"


def _prop_norm_multiplicative(rng: random.Random, count: int) -> tuple:
    for _ in range(count):
        d = Fraction(rng.randint(2, 60))
        x, y = _random_quad(rng, d), _random_quad(rng, d)
        if (x * y).norm() != x.norm() * y.norm():
            return False, f"norm multiplicativity failed at {x}, {y}"
    return True, f"{count} pairs"


def _prop_reflection(rng: random.Random, count: int, digits: int) -> tuple:
    budget = PrecisionBudget.for_digits(digits)
    for _ in range(count):
        x = _random_fraction(rng)
        if not reflection_residual(x, budget).contains_zero():
            return False, f"reflection residual missed zero at x={x}"
    return True, f"{count} points at {digits} digits"


def _prop_abel(rng: random.Random, count: int, digits: int) -> tuple:
    budget = PrecisionBudget.for_digits(digits)
    for _ in range(count):
        x, y = _random_fraction(rng), _random_fraction(rng)
        if not abel_residual(x, y, budget).contains_zero():
            return False, f"five-term residual missed zero at ({x}, {y})"
    return True, f"{count} points at {digits} digits"


def _prop_lemma_recurrence(rng: random.Random, count: int) -> tuple:
    for _ in range(count):
        a, b = _random_fraction(rng, 40), _random_fraction(rng, 40)
        if a == b:
            continue
        inst = TwoParamInstance(a, b)
        x, y = xy_seq(inst, 0)
        for n in range(40):
            nx = x * (1 - y) / (1 - x * y)
            ny = y * (1 - x) / (1 - x * y)
            expected = xy_seq(inst, n + 1)
            if (nx, ny) != expected:
                return False, f"recurrence failed at ({a},{b}), n={n}"
            x, y = nx, ny
    return True, f"{count} instances, 40 steps each"


def _prop_cassini_shift(rng: random.Random, count: int) -> tuple:
    for _ in range(count):
        a, b = _random_fraction(rng, 40), _random_fraction(rng, 40)
        if a == b:
            continue
        inst = TwoParamInstance(a, b)
        for n in range(1, 30):
            dn, dp, dnn = d_seq(inst, n), d_seq(inst, n - 1), d_seq(inst, n + 1)
            if dn * dn - dp * dnn != a * b * (1 - a) ** n * (1 - b) ** n:
                return False, f"Cassini-like identity failed at ({a},{b}), n={n}"
            if dn - (1 - b) * dp != b * (1 - a) ** n:
                return False, f"first shift identity failed at ({a},{b}), n={n}"
            if dn - (1 - a) * dp != a * (1 - b) ** n:
                return False, f"second shift identity failed at ({a},{b}), n={n}"
    return True, f"{count} instances, n < 30"


def _prop_lucas_doubling(rng: random.Random, count: int) -> tuple:
    for _ in range(count):
        p = rng.randint(1, 9)
        q = rng.randint(-9, 9)
        if q == 0 or p * p - 4 * q <= 0:
            continue
        params = LucasParams(p, q)
        n = rng.randint(0, 120)
        fast, slow = lucas_uv(params, n), lucas_uv_naive(params, n)
        if fast.u != slow.u or fast.v != slow.v:
            return False, f"doubling mismatch at (P,Q)=({p},{q}), n={n}"
    return True, f"{count} random (P,Q,n)"


def _prop_tail_domination(rng: random.Random, count: int) -> tuple:
    budget = PrecisionBudget.for_digits(25)
    for _ in range(count):
        t0 = Fraction(rng.randint(1, 100), 400)  # in (0, 1/4]
        ratio = Fraction(rng.randint(10, 90), 100)
        bound = mpf_to_fraction(tail_bound(t0, ratio))
        partial = Fraction(0)
        term = t0
        for _ in range(200):
            partial += rogers_l(term, budget).endpoints()[1]
            term *= ratio
            if term == 0 or term < Fraction(1, 10 ** 30):
                break
        if bound < partial:
            return False, f"tail bound {float(bound)} below partial sum {float(partial)}"
    return True, f"{count} geometric configurations"


def run_properties(seed: int, digits: int, points: int, stream) -> bool:
    """Seeded random invariant suites; one line per suite."""
    suites = (
        ("exact-field-axioms", lambda rng: _prop_field_axioms(rng, 1000)),
        ("norm-multiplicativity", lambda rng: _prop_norm_multiplicative(rng, 1000)),
        ("lemma-recurrence", lambda rng: _prop_lemma_recurrence(rng, 25)),
        ("cassini-and-shifts", lambda rng: _prop_cassini_shift(rng, 10)),
        ("lucas-fast-doubling", lambda rng: _prop_lucas_doubling(rng, 50)),
        ("reflection-residual", lambda rng: _prop_reflection(rng, points, digits)),
        ("abel-residual", lambda rng: _prop_abel(rng, points, digits)),
        ("tail-domination", lambda rng: _prop_tail_domination(rng, 10)),
    )
    all_ok = True
    for name, runner in suites:
        rng = random.Random(f"{seed}:{name}")
        ok, detail = runner(rng)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name:24s} {detail}", file=stream)
    return all_ok


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------


def special_values_table(digits: int) -> list:
    """Rows (label, enclosure, closed_form_enclosure, ok) for the 5-point table."""
    budget = PrecisionBudget.for_digits(digits)
    inv_phi = QuadraticElement(Fraction(-1, 2), Fraction(1, 2), 5)
    inv_phi_sq = QuadraticElement(Fraction(3, 2), Fraction(-1, 2), 5)
    points = (
        ("0", Fraction(0), None),
        ("1/2", Fraction(1, 2), 12),
        ("1/phi", inv_phi, 10),
        ("1/phi^2", inv_phi_sq, 15),
        ("1", Fraction(1), 6),
    )
    rows = []
    for label, point, divisor in points:
        if isinstance(point, QuadraticElement):
            value = rogers_l(quad_to_real(point, budget.working_bits), budget)
        else:
            value = rogers_l(point, budget)
        closed = (
            ErrorBoundedValue.zero() if divisor is None else _pi2_over(divisor, budget)
        )
        ok = value.widened(budget.tolerance).overlaps(closed)
        rows.append((label, value, closed, ok))
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilogid",
        description="Rigorous verification of Rogers-dilogarithm series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="verify a single identity",
        epilog=_identity_list(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # argparse takes "-1/2" for an option, as it knows only integers and
    # decimals as negative numbers; here a dash and a digit start a value
    verify._negative_number_matcher = re.compile(r"-\.?\d")
    verify.add_argument("--identity", required=True, help=", ".join(IDENTITIES))
    for key, (parse, names) in _verify_flags().items():
        kind = "integer" if parse is _integer else "rational (p/q or decimal)"
        verify.add_argument(f"--{key.replace('_', '-')}", dest=key, help=f"{kind}; for {', '.join(names)}")
    verify.add_argument("--digits", type=int, default=None)
    verify.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    verify.add_argument("--output", help="path for the JSON report (default stdout)")
    verify.add_argument("--trace", help="path for a CSV of partial sums")
    verify.add_argument(
        "--rhs-expected",
        help="decimal value the right-hand side must match within tolerance",
    )

    suite = sub.add_parser("suite", help="run every registry identity")
    suite.add_argument("--digits", type=int, default=None)
    suite.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)

    props = sub.add_parser("properties", help="seeded random invariant suites")
    props.add_argument("--seed", type=int, default=DEFAULT_SEED)
    props.add_argument("--digits", type=int, default=None)
    props.add_argument("--points", type=int, default=100)

    special = sub.add_parser("special-values", help="closed-form value table")
    special.add_argument("--digits", type=int, default=None)
    return parser


def _verify_flags() -> dict:
    """Parameter key -> (parser, identities that take it), in table order."""
    flags: dict = {}
    for spec in IDENTITIES.values():
        for key, (parse, _) in spec.params.items():
            flags.setdefault(key, (parse, []))[1].append(spec.name)
    return flags


def _identity_list() -> str:
    lines = ["identities (parameters, defaults):"]
    for spec in IDENTITIES.values():
        flags = ", ".join(k.replace("_", "-") + ("" if d is None else f"={d}") for k, (_, d) in spec.params.items())
        lines.append(f"  {spec.name} ({flags or 'none'})\n      {spec.description}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    try:
        expected = None if args.rhs_expected is None else parse_decimal(args.rhs_expected)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--rhs-expected must be a rational (p/q or decimal), got {args.rhs_expected!r}") from exc
    config = RunConfig(
        args.identity,
        {key: getattr(args, key) for key in _verify_flags() if getattr(args, key) is not None},
        args.digits,
        args.max_terms,
    )
    trace_rows: Optional[list] = [] if args.trace else None
    report = run_identity(config, trace_rows)
    document = emit_report(report)
    if args.output:
        try:
            Path(args.output).write_text(document)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(document)
    if args.trace:
        try:
            write_trace_csv(trace_rows, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 1
    if expected is not None:
        if not report.rhs.widened(config.budget().tolerance).contains(expected):
            print("error: right-hand side does not match --rhs-expected", file=sys.stderr)
            return 1
    return 0 if report.verdict == "pass" else 1


def _cmd_suite(args) -> int:
    ok = run_suite(args.digits, args.max_terms, sys.stdout)
    return 0 if ok else 1


def _cmd_properties(args) -> int:
    if args.points < 1:
        raise UsageError("points must be positive")
    ok = run_properties(args.seed, args.digits, args.points, sys.stdout)
    return 0 if ok else 1


def _cmd_special_values(args) -> int:
    digits = args.digits
    rows = special_values_table(digits)
    all_ok = True
    for label, value, closed, ok in rows:
        all_ok = all_ok and ok
        print(
            f"{'PASS' if ok else 'FAIL'} L({label:7s}) = {approx_decimal(value, digits)}"
            f"  closed-form {approx_decimal(closed, digits)}"
        )
    return 0 if all_ok else 1


def run_cli(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "verify": _cmd_verify,
        "suite": _cmd_suite,
        "properties": _cmd_properties,
        "special-values": _cmd_special_values,
    }
    try:
        if args.digits is None:
            args.digits = default_digits()
        _check_digits(args.digits)
        return handlers[args.command](args)
    except (UsageError, PreconditionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
