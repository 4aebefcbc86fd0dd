"""Byte-for-byte comparison with golden reports and traces.

The files under tests/golden/ were produced by an earlier implementation:
the JSON report of every registry instance at 40 and 100 digits with a cap
of 2000 terms, and the --trace CSVs of two identities at 30 digits.  Any
change to them is a change of the report format or of a certified value.
"""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dilogid.enclosure import ErrorBoundedValue, PrecisionBudget, PrecisionError
from dilogid.harness import RunConfig, emit_report, exact_decimal, registry, run_cli, run_identity
from dilogid.rogers import abel_residual, li2, reflection_residual, rogers_l

GOLDEN = Path(__file__).parent / "golden"


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


@pytest.mark.parametrize("digits", [40, 100])
@pytest.mark.parametrize("entry", registry(), ids=lambda entry: entry.name)
def test_registry_report_matches_golden(entry, digits):
    config = RunConfig(entry.config.identity_id, entry.config.parameters, digits, 2000)
    expected = (GOLDEN / f"registry-d{digits}" / f"{_slug(entry.name)}.json").read_text()
    assert emit_report(run_identity(config)) == expected


@pytest.mark.parametrize(
    "stem, args",
    [
        ("corollary-t-1-3", ["--identity", "corollary", "--t", "1/3"]),
        ("fib-lucas-neg", ["--identity", "fib-lucas-neg"]),
    ],
)
def test_trace_csv_matches_golden(tmp_path, stem, args):
    trace = tmp_path / "trace.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(["verify", *args, "--digits", "30", "--trace", str(trace)])
    assert code == 0
    assert trace.read_bytes() == (GOLDEN / f"trace-{stem}-d30.csv").read_bytes()


def test_every_golden_report_is_checked():
    names = {f"{_slug(entry.name)}.json" for entry in registry()}
    for digits in (40, 100):
        assert {path.name for path in (GOLDEN / f"registry-d{digits}").iterdir()} == names


# Reports of slow two-parameter instances (ratio caps 0.93 and 0.90, 1305
# and 942 growing exact terms) and of a cut-off case, at 40 digits,
# and the trace CSV of the cut-off case, under tests/golden/two-parameter/;
# they were produced by the implementation that reduced every term to a
# Fraction.
TWO_PARAMETER = [
    ("theorem-main-64-157-57-157-d40", "theorem-main", {"a": "64/157", "b": "57/157"}, 10000),
    ("corollary-6-119-d40", "corollary", {"t": "6/119"}, 10000),
    ("theorem-main-1-50-3-47-d40-max20", "theorem-main", {"a": "1/50", "b": "3/47"}, 20),
]


@pytest.mark.parametrize("stem, identity_id, parameters, max_terms", TWO_PARAMETER, ids=[row[0] for row in TWO_PARAMETER])
def test_two_parameter_report_matches_golden(stem, identity_id, parameters, max_terms):
    config = RunConfig(identity_id, parameters, 40, max_terms)
    expected = (GOLDEN / "two-parameter" / f"{stem}.json").read_text()
    assert emit_report(run_identity(config)) == expected


def test_two_parameter_trace_csv_matches_golden(tmp_path):
    trace = tmp_path / "trace.csv"
    args = ["--identity", "theorem-main", "--a", "1/50", "--b", "3/47", "--max-terms", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(["verify", *args, "--digits", "40", "--trace", str(trace)])
    assert code == 0
    expected = GOLDEN / "two-parameter" / "trace-theorem-main-1-50-3-47-d40-max20.csv"
    assert trace.read_bytes() == expected.read_bytes()


# Single-value enclosures of Li2, L and the reflection residual at the
# boundary points, on both sides of 1/2, next to 0 and 1 and on input
# enclosures, plus one five-term residual, at 15, 50 and 300 digits, under
# tests/golden/enclosures/.  Each line is the point and the exact decimal
# endpoints, or the error the call raised; the files were produced by the
# implementation that had separate Li2 and L kernels.
def _enclosure_points():
    pair = ErrorBoundedValue.from_fraction_pair
    tiny = Fraction(1, 10 ** 30)
    narrow = Fraction(1, 10 ** 320)
    return [
        ("0", Fraction(0)),
        ("1", Fraction(1)),
        ("1/3", Fraction(1, 3)),
        ("1/2", Fraction(1, 2)),
        ("2/3", Fraction(2, 3)),
        ("999/1000", Fraction(999, 1000)),
        ("10^-30", tiny),
        ("1-10^-30", 1 - tiny),
        # 1-x (or x) rounds to 1 at the working precision below 300 digits
        ("10^-200", Fraction(1, 10 ** 200)),
        ("1-10^-200", 1 - Fraction(1, 10 ** 200)),
        ("[1/4,1/3]", pair(Fraction(1, 4), Fraction(1, 3))),
        ("[3/5,2/3]", pair(Fraction(3, 5), Fraction(2, 3))),
        ("[1/3,1/3+10^-320]", pair(Fraction(1, 3), Fraction(1, 3) + narrow)),
        ("[2/3,2/3+10^-320]", pair(Fraction(2, 3), Fraction(2, 3) + narrow)),
    ]


ENCLOSURE_FUNCTIONS = {"li2": li2, "rogers_l": rogers_l, "reflection_residual": reflection_residual}


def _enclosure_line(label, evaluate):
    try:
        value = evaluate()
    except PrecisionError as exc:  # the raised error is part of the golden
        return f"{label} {type(exc).__name__}: {exc}\n"
    return f"{label} {exact_decimal(value.lower)} {exact_decimal(value.upper)}\n"


def enclosure_golden_text(function: str, digits: int) -> str:
    budget = PrecisionBudget.for_digits(digits)
    if function == "abel_residual":
        x, y = Fraction(1, 3), Fraction(2, 7)
        return _enclosure_line("1/3,2/7", lambda: abel_residual(x, y, budget))
    evaluate = ENCLOSURE_FUNCTIONS[function]
    return "".join(
        _enclosure_line(label, lambda x=x: evaluate(x, budget)) for label, x in _enclosure_points()
    )


ENCLOSURE_CASES = [
    (function, digits)
    for function in (*ENCLOSURE_FUNCTIONS, "abel_residual")
    for digits in (15, 50, 300)
]


@pytest.mark.parametrize("function, digits", ENCLOSURE_CASES, ids=[f"{f}-d{d}" for f, d in ENCLOSURE_CASES])
def test_enclosure_matches_golden(function, digits):
    expected = (GOLDEN / "enclosures" / f"{function}-d{digits}.txt").read_text()
    assert enclosure_golden_text(function, digits) == expected


def test_every_golden_enclosure_is_checked():
    names = {f"{function}-d{digits}.txt" for function, digits in ENCLOSURE_CASES}
    assert {path.name for path in (GOLDEN / "enclosures").iterdir()} == names
