"""Byte-for-byte comparison with golden reports and traces.

The files under tests/golden/ were produced by an earlier implementation:
the JSON report of every registry instance at 40 and 100 digits with a cap
of 2000 terms, and the --trace CSVs of two identities at 30 digits.  Any
change to them is a change of the report format or of a certified value.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from dilogid.harness import RunConfig, emit_report, registry, run_cli, run_identity

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
