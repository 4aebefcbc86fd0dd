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
# and 942 terms) and of a cut-off case, at 40 digits, and the trace CSV of
# the cut-off case, under tests/golden/two-parameter/; they were produced by
# the implementation that reduced every term to a Fraction, and regenerated
# with fixed-point terms with the same terms_used, tail_bound and verdict.
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


# Reports of Lucas-layer paths that no registry instance takes, at 40 digits
# with a cap of 2000 terms, under tests/golden/lucas/: lucas-pos and
# lucas-neg at several (P, Q, k), the sqrt(5) catalog at k = 3 and 4,
# Chebyshev x = 3/2 and x = 2 with k = 30 (whose Q(sqrt(D)) closed-form
# argument is about 5*10^-35), Bridgeman with a positive and a negative Pell
# solution, and sinh-theta at theta = 1/2, 3 and the small theta = 1/10.
# They were produced by the implementation in which each Lucas branch had
# its own caller, the three sinh-theta reports by the one that computes
# each sinh-theta term in closed form.
LUCAS = [
    ("lucas-pos-5-6-1", "lucas-pos", {"P": "5", "Q": "6", "k": "1"}),
    ("lucas-pos-3-1-3", "lucas-pos", {"P": "3", "Q": "1", "k": "3"}),
    ("lucas-pos-7-2-3-2-2", "lucas-pos", {"P": "7/2", "Q": "3/2", "k": "2"}),
    ("lucas-neg-1-m1-3", "lucas-neg", {"P": "1", "Q": "-1", "k": "3"}),
    ("lucas-neg-3-m2-5", "lucas-neg", {"P": "3", "Q": "-2", "k": "5"}),
    ("lucas-neg-5-3-m1-2-1", "lucas-neg", {"P": "5/3", "Q": "-1/2", "k": "1"}),
    ("sqrt5-k-odd-3", "sqrt5-k-odd", {"k": "3"}),
    ("sqrt5-k-even-4", "sqrt5-k-even", {"k": "4"}),
    ("chebyshev-x-3-2-2", "chebyshev-x", {"x": "3/2", "k": "2"}),
    ("chebyshev-x-2-30", "chebyshev-x", {"x": "2", "k": "30"}),
    ("bridgeman-7-2-12", "bridgeman", {"pell_a": "7", "pell_b": "2", "pell_n": "12"}),
    ("bridgeman-2-1-5", "bridgeman", {"pell_a": "2", "pell_b": "1", "pell_n": "5"}),
    ("sinh-theta-1-2", "sinh-theta", {"theta": "1/2"}),
    ("sinh-theta-3", "sinh-theta", {"theta": "3"}),
    ("sinh-theta-1-10", "sinh-theta", {"theta": "1/10"}),
]


@pytest.mark.parametrize("stem, identity_id, parameters", LUCAS, ids=[row[0] for row in LUCAS])
def test_lucas_report_matches_golden(stem, identity_id, parameters):
    config = RunConfig(identity_id, parameters, 40, 2000)
    expected = (GOLDEN / "lucas" / f"{stem}-d40.json").read_text()
    assert emit_report(run_identity(config)) == expected


def test_negative_rational_as_separate_argument_matches_golden(monkeypatch, capsys):
    monkeypatch.delenv("DILOG_DIGITS", raising=False)
    code = run_cli(["verify", "--identity", "lucas-neg", "--P", "5/3", "--Q", "-1/2", "--k", "1"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "lucas" / "lucas-neg-5-3-m1-2-1-d40.json").read_text()


def test_every_lucas_golden_is_checked():
    names = {f"{stem}-d40.json" for stem, _, _ in LUCAS}
    assert {path.name for path in (GOLDEN / "lucas").iterdir()} == names


# Standard output of the commands that print single values and the
# registry summary, with DILOG_DIGITS unset, under tests/golden/cli/; they
# were produced by the implementation that retried a single value at up to
# three doublings of its working precision.
CLI = [
    ("suite", ["suite"]),
    ("special-values-d50", ["special-values", "--digits", "50"]),
    ("properties-points20", ["properties", "--points", "20"]),
]


@pytest.mark.parametrize("stem, argv", CLI, ids=[row[0] for row in CLI])
def test_cli_output_matches_golden(monkeypatch, stem, argv):
    monkeypatch.delenv("DILOG_DIGITS", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    assert code == 0
    assert out.getvalue() == (GOLDEN / "cli" / f"{stem}.txt").read_text()


def test_every_cli_golden_is_checked():
    assert {path.name for path in (GOLDEN / "cli").iterdir()} == {f"{stem}.txt" for stem, _ in CLI}
