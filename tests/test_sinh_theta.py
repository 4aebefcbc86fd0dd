"""The numeric-parameter Lucas series at P = 2cosh(theta), Q = 1:
sum_{n>=2} L(sinh^2(theta)/sinh^2(n theta)) = L(e^(-2 theta)).

Its terms are integer enclosures of the Lambert form with K and
rho = e^(-2 theta) enclosed once, finer than the terms' scale by the bits
of the cut-off term's bound, so a small theta needs neither more working
bits nor a second pass.
"""

import json
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv, mp

from dilogid import series
from dilogid.enclosure import ErrorBoundedValue, PrecisionBudget, interval_precision, iv_from_fraction
from dilogid.harness import run_cli
from dilogid.series import catalog_verify

GOLDEN = Path(__file__).parent / "golden"


def test_theta_one_hundredth_passes(capsys, monkeypatch):
    # the widening recurrence gave a non-finite enclosure here
    monkeypatch.delenv("DILOG_DIGITS", raising=False)
    code = run_cli(["verify", "--identity", "sinh-theta", "--theta", "1/100"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_theta_one_fifteenth_at_100_digits_runs_once(monkeypatch):
    budget = PrecisionBudget(100)
    opened, scales = [], []
    original, terms = series.interval_precision, series._lambert_terms

    @contextmanager
    def recording(bits):
        opened.append(bits)
        with original(bits) as ctx:
            yield ctx

    def recording_terms(form, w):
        scales.append(w)
        return terms(form, w)

    monkeypatch.setattr(series, "interval_precision", recording)
    monkeypatch.setattr(series, "_lambert_terms", recording_terms)
    report = catalog_verify("sinh-theta", budget, theta="1/15")
    assert report.verdict == "pass"
    # K and rho at w + _CUT_OFF_BITS + 8 bits for the scale 2^-w of the
    # default term cap, at least as fine as the scale of the terms summed,
    # then the sum; every other context is a 96-bit ratio cap or tail bound
    # or a cut-off term's bound
    with interval_precision(series._TAIL_BITS):
        decay = 1 / iv.exp(iv_from_fraction(Fraction(1, 15)))
        coarse = series._lucas_form(decay * decay)
    cap = series._certified_cap(coarse.rho)
    fine = series._lambert_scale(coarse, cap, budget, series.DEFAULT_MAX_TERMS) + series._CUT_OFF_BITS + 8
    skipped = (series._TAIL_BITS, series._CUT_OFF_BITS)
    assert [bits for bits in opened if bits not in skipped] == [fine, budget.working_bits]
    assert scales[0] + series._CUT_OFF_BITS + 8 <= fine


def test_perturbed_term_fails(monkeypatch):
    original = series._lambert_terms

    def perturbed(form, w):
        terms = original(form, w)
        first = next(terms)
        # 1 + 10^-30 times the first term
        yield ErrorBoundedValue(first.lo + first.lo // 10 ** 30, first.hi + first.hi // 10 ** 30, w)
        yield from terms

    monkeypatch.setattr(series, "_lambert_terms", perturbed)
    assert catalog_verify("sinh-theta", PrecisionBudget(40), theta=1).verdict == "fail"


def _mpmath_partial_sum(theta: Fraction, n_terms: int, dps: int):
    """sum of L(sinh^2(theta)/sinh^2(n theta)) for n = 2 .. n_terms + 1, by
    mpmath's polylog at ``dps`` digits."""
    with mp.workdps(dps):
        th = mp.mpf(theta.numerator) / theta.denominator
        numer = mp.sinh(th) ** 2
        total = mp.mpf(0)
        for n in range(2, n_terms + 2):
            t = numer / mp.sinh(n * th) ** 2
            total += mp.polylog(2, t) + mp.log(t) * mp.log(1 - t) / 2
        return Fraction(int(total.man)) * Fraction(2) ** int(total.exp)


@pytest.mark.parametrize(
    "golden, theta",
    [
        ("registry-d40/sinh-theta-1.json", Fraction(1)),
        ("registry-d100/sinh-theta-1.json", Fraction(1)),
        ("lucas/sinh-theta-1-2-d40.json", Fraction(1, 2)),
        ("lucas/sinh-theta-3-d40.json", Fraction(3)),
        ("lucas/sinh-theta-1-10-d40.json", Fraction(1, 10)),
    ],
)
def test_golden_lhs_encloses_the_mpmath_partial_sum(golden, theta):
    doc = json.loads((GOLDEN / golden).read_text())
    n_terms, digits = doc["terms_used"], doc["digits"]
    assert doc["parameters"]["theta"] == str(theta)
    oracle = _mpmath_partial_sum(theta, n_terms, 2 * digits)
    midpoint = Fraction(Decimal(doc["lhs"]["midpoint"]))
    radius = Fraction(Decimal(doc["lhs"]["radius"]))
    # the oracle's own rounding: under 10 ulps at 2*digits digits per term
    slack = Fraction(10 * n_terms, 10 ** (2 * digits))
    assert abs(oracle - midpoint) + slack <= radius
