"""CLI, report serialization, registry, and property-suite runner."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from dilogid.harness import (
    RunConfig,
    approx_decimal,
    emit_report,
    exact_decimal,
    parse_decimal,
    parse_report,
    registry,
    run_cli,
    run_identity,
    run_properties,
    run_suite,
    special_values_table,
)
from dilogid.series import UsageError

from conftest import pi_squared_over


class TestDecimalRendering:
    def test_exact_roundtrip(self):
        for value in (
            Fraction(0),
            Fraction(3),
            Fraction(-7, 8),
            Fraction(1, 2 ** 40),
            Fraction(12345678901234567890123, 2 ** 77),
            -Fraction(9, 2 ** 200),
        ):
            assert parse_decimal(exact_decimal(value)) == value

    def test_roundtrip_beyond_the_int_string_limit(self):
        # 6200 fractional digits, more than CPython converts between int
        # and str by default (sys.get_int_max_str_digits() = 4300)
        value = Fraction(1, 2 ** 6200)
        assert parse_decimal(exact_decimal(value)) == value

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            exact_decimal(Fraction(1, 3))

    def test_approx_decimal_deterministic(self):
        v = Fraction(2, 3)
        assert approx_decimal(v, 12) == approx_decimal(v, 12)
        assert approx_decimal(Fraction(0), 10) == "0"


class TestReportSerialization:
    def test_roundtrip_exact(self):
        config = RunConfig("lucas-neg", {"P": "1", "Q": "-1", "k": "1"}, 40)
        report = run_identity(config)
        parsed = parse_report(emit_report(report))
        assert parsed["identity_id"] == "lucas-neg"
        assert parsed["digits"] == 40
        assert parsed["terms_used"] == report.terms_used
        assert parsed["verdict"] == report.verdict
        for key, side in (("lhs", report.lhs), ("rhs", report.rhs), ("residual", report.residual)):
            assert parsed[key]["midpoint"] == side.midpoint
            assert parsed[key]["radius"] == side.radius
        from dilogid.enclosure import mpf_to_fraction

        assert parsed["tail_bound"] == mpf_to_fraction(report.tail_bound)

    def test_pass_report_exposes_verdict_inequality(self):
        config = RunConfig("theorem-main", {"a": "1/2", "b": "1/3"}, 40)
        report = run_identity(config)
        parsed = parse_report(emit_report(report))
        tolerance = Fraction(1, 10 ** parsed["digits"])
        assert abs(parsed["residual"]["midpoint"]) <= (
            parsed["residual"]["radius"] + parsed["tail_bound"] + tolerance
        )


class TestRunConfig:
    def test_digit_floor(self):
        with pytest.raises(UsageError):
            RunConfig("theorem-main", {}, digits=5)

    def test_max_terms_floor(self):
        with pytest.raises(UsageError):
            RunConfig("theorem-main", {}, max_terms=0)

    def test_unknown_identity(self):
        with pytest.raises(UsageError):
            run_identity(RunConfig("not-an-identity", {}))

    def test_unknown_parameter_key(self):
        with pytest.raises(UsageError):
            run_identity(RunConfig("theorem-main", {"a": "1/2", "b": "1/3", "theta": "1"}))

    def test_missing_parameter(self):
        with pytest.raises(UsageError):
            run_identity(RunConfig("theorem-main", {"a": "1/2"}))


class TestCliVerify:
    def test_lucas_neg_example(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "verify", "--identity", "lucas-neg",
                "--P", "1", "--Q", "-1", "--k", "1",
                "--digits", "40", "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        # rhs must be pi^2/15 to 40 digits
        rhs_mid = parse_decimal(doc["rhs"]["midpoint"])
        assert abs(rhs_mid - pi_squared_over(15)) < Fraction(1, 10 ** 39)

    def test_theorem_main_example(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "verify", "--identity", "theorem-main",
                "--a", "1/2", "--b", "1/3", "--digits", "40",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "pass"

    def test_standing_assumption_guard_exits_2(self):
        code = run_cli(
            ["verify", "--identity", "lucas-pos", "--P", "3", "--Q", "0", "--k", "1"]
        )
        assert code == 2

    def test_malformed_flag_exits_2(self):
        assert run_cli(["verify", "--no-such-flag"]) == 2

    @pytest.mark.parametrize("q", ["-1/2", "-0.5", "-.5"])
    def test_negative_value_as_separate_argument(self, capsys, q):
        # argparse alone reads "-1/2" after "--Q" as an option, not a value
        head = ["verify", "--identity", "lucas-neg", "--P", "5/3"]
        tail = ["--k", "1", "--digits", "15"]
        assert run_cli([*head, f"--Q={q}", *tail]) == 0
        attached = capsys.readouterr().out
        assert run_cli([*head, "--Q", q, *tail]) == 0
        assert capsys.readouterr().out == attached

    def test_unknown_option_before_negative_value_exits_2(self):
        argv = ["verify", "--identity", "lucas-neg", "--P", "5/3", "--Q", "-1/2", "--bogus", "-1/2"]
        assert run_cli(argv) == 2

    def test_report_beyond_the_int_string_limit(self, capsys):
        # at theta = 1500 the exact decimals of the endpoints run past the
        # 4300 digits CPython converts between int and str by default
        code = run_cli(["verify", "--identity", "sinh-theta", "--theta", "1500"])
        text = capsys.readouterr().out
        assert code == 0
        assert max(map(len, text.splitlines())) > 4300
        report = parse_report(text)
        assert report["verdict"] == "pass"
        assert report["residual"]["radius"] <= Fraction(1, 10 ** 40)

    def test_parameter_beyond_the_int_string_limit(self, capsys):
        # b = 10^-5000 is reported as a 5001-digit denominator, past the
        # 4300 digits CPython converts between int and str by default
        code = run_cli(["verify", "--identity", "theorem-main", "--a", "1/3", "--b", "1e-5000", "--max-terms", "5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert parse_decimal(report["parameters"]["b"]) == Fraction(1, 10 ** 5000)

    def test_unknown_parameter_key_exits_2(self):
        code = run_cli(
            ["verify", "--identity", "theorem-main", "--a", "1/2", "--b", "1/3", "--theta", "1"]
        )
        assert code == 2

    def test_rhs_expected_mismatch_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            [
                "verify", "--identity", "fib-lucas-neg", "--digits", "30",
                "--output", str(out), "--rhs-expected", "0.5",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("offset, status", [(0, 0), (31, 1)], ids=["exact", "off-by-1e-31"])
    def test_rhs_expected_uses_the_run_tolerance(self, tmp_path, offset, status):
        # pi^2/12 written to 110 digits, plus 10^-offset: at 100 digits an
        # error of 10^-31 is far outside the tolerance
        with mp.workdps(130):
            text = mp.nstr(mp.pi ** 2 / 12, 110, strip_zeros=False)
        places = len(text) - 2
        if offset:
            text = "0." + str(int(text[2:]) + 10 ** (places - offset)).zfill(places)
        code = run_cli(
            [
                "verify", "--identity", "corollary", "--t", "1/3", "--digits", "100",
                "--output", str(tmp_path / "r.json"), "--rhs-expected", text,
            ]
        )
        assert code == status

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            trace = tmp_path / (name + ".csv")
            code = run_cli(
                [
                    "verify", "--identity", "corollary", "--t", "1/3",
                    "--digits", "30", "--output", str(out), "--trace", str(trace),
                ]
            )
            assert code == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_trace_columns(self, tmp_path):
        out = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        code = run_cli(
            [
                "verify", "--identity", "fib-even", "--digits", "30",
                "--output", str(out), "--trace", str(trace),
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "n,term,lhs_partial,tail_bound"
        doc = json.loads(out.read_text())
        assert len(lines) - 1 == doc["terms_used"]
        # the final cumulative column matches the report's left-hand side
        final_partial = parse_decimal(lines[-1].split(",")[2])
        lhs_mid = parse_decimal(doc["lhs"]["midpoint"])
        assert abs(final_partial - lhs_mid) < Fraction(1, 10 ** 20)

    def test_unwritable_output_exits_1(self, tmp_path):
        code = run_cli(
            [
                "verify", "--identity", "repunit-x", "--digits", "15",
                "--output", str(tmp_path / "missing-dir" / "r.json"),
            ]
        )
        assert code == 1

    def test_suite_cli_exit_status(self):
        assert run_cli(["suite", "--digits", "20", "--max-terms", "1500"]) == 0

    def test_env_digit_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DILOG_DIGITS", "22")
        out = tmp_path / "r.json"
        code = run_cli(
            ["verify", "--identity", "repunit-x", "--x", "2", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["digits"] == 22

    @pytest.mark.parametrize(
        "args",
        [
            ["--identity", "sinh-theta", "--theta", f"1/{2 ** 3000}"],
            # e^(-2 theta) is below 1 at the working precision, not at the tails' 96 bits
            ["--identity", "sinh-theta", "--theta", f"1/{2 ** 100}"],
            ["--identity", "lucas-pos", "--P", "2", "--Q", "0." + "9" * 4000],
            ["--identity", "lucas-pos", "--P", "2", "--Q", "0." + "9" * 60],
            # 5000 digits, past CPython's default int/str conversion limit
            ["--identity", "lucas-pos", "--P", "2", "--Q", "0." + "9" * 5000],
            # two-parameter caps 1 - 2*10^-400 and 1 - 2*10^-44
            ["--identity", "corollary", "--t", "1e-400"],
            ["--identity", "theorem-main", "--a", "1/2", "--b", "0.5" + "0" * 42 + "1"],
        ],
        ids=[
            "sinh-theta-tiny-theta",
            "sinh-theta-ratio-near-one-at-tail-bits",
            "lucas-pos-ratio-near-one",
            "lucas-pos-ratio-60-nines",
            "lucas-pos-ratio-5000-nines",
            "corollary-ratio-near-one",
            "theorem-main-ratio-near-one",
        ],
    )
    def test_uncertifiable_ratio_exits_2(self, capsys, args):
        code = run_cli(["verify", *args, "--max-terms", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["error: could not certify the geometric ratio below 1"]

    def test_stdout_default(self, capsys):
        code = run_cli(["verify", "--identity", "repunit-x", "--digits", "20"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["identity_id"] == "repunit-x"


class TestSuiteAndProperties:
    def test_registry_covers_catalog(self):
        names = {entry.config.identity_id for entry in registry()}
        for required in (
            "theorem-main", "corollary", "fib-even", "fib-lucas-neg",
            "pell", "q-minus-3", "sqrt5-k-odd", "sqrt5-k-even",
            "richmond-szekeres", "sinh-theta", "chebyshev-x", "repunit-x",
            "bridgeman",
        ):
            assert required in names

    def test_suite_passes(self):
        stream = io.StringIO()
        ok = run_suite(digits=25, max_terms=3000, stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert ok
        assert len(lines) == len(registry())
        assert all(line.startswith("PASS") for line in lines)

    def test_properties_pass_quickly(self):
        stream = io.StringIO()
        ok = run_properties(seed=123, digits=20, points=5, stream=stream)
        assert ok
        assert all(line.startswith("PASS") for line in stream.getvalue().splitlines())

    def test_properties_deterministic(self):
        streams = []
        for _ in range(2):
            stream = io.StringIO()
            run_properties(seed=99, digits=15, points=2, stream=stream)
            streams.append(stream.getvalue())
        assert streams[0] == streams[1]

    def test_special_values(self):
        rows = special_values_table(30)
        assert [row[0] for row in rows] == ["0", "1/2", "1/phi", "1/phi^2", "1"]
        assert all(row[3] for row in rows)


class TestCliSubcommands:
    def test_special_values_exit_zero(self):
        assert run_cli(["special-values", "--digits", "25"]) == 0

    def test_properties_exit_zero(self):
        assert run_cli(["properties", "--points", "2", "--digits", "15"]) == 0

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dilogid", "verify", "--identity", "repunit-x", "--digits", "15"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"


class TestBadInput:
    """Bad option values exit 2 with one error line and no traceback."""

    @pytest.mark.parametrize(
        "argv, env_digits",
        [
            (["special-values", "--digits", "0"], None),
            (["properties", "--digits", "0"], None),
            (["special-values"], "3"),
            (["properties", "--points", "-5", "--digits", "15"], None),
            (["properties", "--points", "0", "--digits", "15"], None),
            (["verify", "--identity", "corollary", "--t", "1/3", "--rhs-expected", "abc"], None),
            (["verify", "--identity", "corollary", "--t", "1/3", "--rhs-expected", "1/0"], None),
            # the ratio cap e^(-2 theta) has no exact rational value in memory
            (["verify", "--identity", "sinh-theta", "--theta", "1e400"], None),
        ],
        ids=[
            "special-values-digits-0",
            "properties-digits-0",
            "env-digits-3",
            "properties-points-negative",
            "properties-points-0",
            "rhs-expected-not-a-number",
            "rhs-expected-zero-denominator",
            "sinh-theta-theta-1e400",
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, monkeypatch, argv, env_digits):
        if env_digits is not None:
            monkeypatch.setenv("DILOG_DIGITS", env_digits)
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--identity", "theorem-main", "--a", "1e99999999", "--b", "1/3"],
            ["--identity", "theorem-main", "--a", "1_0e9_999_999", "--b", "1/3"],
            # past even Decimal's exponent range
            ["--identity", "theorem-main", "--a", "1e9999999999999999999", "--b", "1/3"],
            ["--identity", "corollary", "--t", "1/3", "--rhs-expected", "1e99999999"],
        ],
        ids=["a-1e99999999", "a-with-digit-groups", "a-past-decimal-range", "rhs-expected-1e99999999"],
    )
    def test_huge_decimal_exponent_exits_2_promptly(self, args):
        # the exact value of 1e99999999 is a 332-million-bit integer
        proc = subprocess.run(
            [sys.executable, "-m", "dilogid", "verify", *args], capture_output=True, text=True, timeout=5
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--identity", "fib-lucas-neg", "--k", "1.5"], "error: parameter k: must be an integer"),
            (
                ["--identity", "bridgeman", "--pell-a", "3", "--pell-b", "2", "--pell-n", "2.5"],
                "error: parameter pell_n: must be an integer",
            ),
            # an integral k past the 4300 digits int() reads from a string: the
            # ratio cap (1/alpha^2)^k has no exact value in memory
            (["--identity", "fib-even", "--k", "1" + "0" * 5000], "error: value too far from 1"),
        ],
        ids=["k-1.5", "pell-n-2.5", "k-5001-digits"],
    )
    def test_integer_parameter(self, capsys, args, message):
        code = run_cli(["verify", *args, "--max-terms", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)

    def test_integral_decimal_is_an_integer_parameter(self):
        reports = [run_identity(RunConfig("fib-lucas-neg", {"k": k}, 15, 5)) for k in ("3", "3.0", "6/2", "0.3e1")]
        assert all(report == reports[0] for report in reports)
