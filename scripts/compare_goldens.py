#!/usr/bin/env python3
"""Check regenerated golden files against the ones at a git revision.

A change of the working precision changes the bytes of every enclosure,
so its goldens are regenerated; this script checks that each new file
still says what the old one said.  For every file under tests/golden/
that differs from its version at REV (default HEAD):

  * a JSON report keeps identity_id, parameters, digits, terms_used and
    verdict; its lhs, rhs and residual overlap the old ones; its
    tail_bound agrees within 2^-40 relative; and its residual radius is
    at most 2^4 units of the working precision (``PrecisionBudget``),
    2^-(G-4) 10^-digits for G guard bits;
  * an enclosure line keeps its label and overlaps the old enclosure, or
    raises the same error type as before;
  * a trace CSV keeps its rows and every value within 2^-40 relative.

It prints one line per changed file and exits with status 1 if a check
fails.  Run from anywhere:

    python scripts/compare_goldens.py [REV]
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dilogid.enclosure import PrecisionBudget  # noqa: E402

GOLDEN = "tests/golden"
RELATIVE = Fraction(1, 1 << 40)


def _value(text: str) -> Fraction:
    return Fraction(Decimal(text))


def _close(new: Fraction, old: Fraction) -> bool:
    return abs(new - old) <= RELATIVE * abs(old)


def _overlap(new: dict, old: dict) -> bool:
    gap = abs(_value(new["midpoint"]) - _value(old["midpoint"]))
    return gap <= _value(new["radius"]) + _value(old["radius"])


def _check_report(new: str, old: str) -> list[str]:
    new, old = json.loads(new), json.loads(old)
    problems = [key for key in ("identity_id", "parameters", "digits", "terms_used", "verdict") if new[key] != old[key]]
    problems += [f"{key} disjoint" for key in ("lhs", "rhs", "residual") if not _overlap(new[key], old[key])]
    if not _close(_value(new["tail_bound"]), _value(old["tail_bound"])):
        problems.append("tail_bound moved")
    if _value(new["residual"]["radius"]) > Fraction(16, 1 << PrecisionBudget(new["digits"]).working_bits):
        problems.append("residual radius above 2^4 units of the working precision")
    return problems


def _check_enclosures(new: str, old: str) -> list[str]:
    problems = []
    new_lines, old_lines = new.splitlines(), old.splitlines()
    if len(new_lines) != len(old_lines):
        return ["line count changed"]
    for new_line, old_line in zip(new_lines, old_lines):
        label, _, new_rest = new_line.partition(" ")
        old_label, _, old_rest = old_line.partition(" ")
        new_parts, old_parts = new_rest.split(" "), old_rest.split(" ")
        if label != old_label:
            problems.append(f"label {old_label} became {label}")
        elif new_parts[0].endswith(":") or old_parts[0].endswith(":"):
            if new_parts[0] != old_parts[0]:
                problems.append(f"{label}: {old_parts[0]} became {new_parts[0]}")
        else:
            (new_lo, new_hi), (old_lo, old_hi) = map(_value, new_parts), map(_value, old_parts)
            if new_lo > old_hi or old_lo > new_hi:
                problems.append(f"{label} disjoint")
    return problems


def _check_trace(new: str, old: str) -> list[str]:
    new_rows, old_rows = list(csv.reader(io.StringIO(new))), list(csv.reader(io.StringIO(old)))
    if len(new_rows) != len(old_rows) or new_rows[0] != old_rows[0]:
        return ["rows or header changed"]
    problems = []
    for new_row, old_row in zip(new_rows[1:], old_rows[1:]):
        for name, a, b in zip(new_rows[0], new_row, old_row):
            if a != b and not (a and b and _close(_value(a), _value(b))):
                problems.append(f"row {old_row[0]}: {name} moved")
    return problems


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def main(rev: str = "HEAD") -> int:
    failures = 0
    changed = _git("diff", "--name-only", rev, "--", GOLDEN).split()
    for name in changed:
        new = (ROOT / name).read_text()
        old = _git("show", f"{rev}:{name}")
        check = {".json": _check_report, ".txt": _check_enclosures, ".csv": _check_trace}[Path(name).suffix]
        problems = check(new, old)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok':>4}  {name}" + (f": {'; '.join(problems)}" if problems else ""))
    print(f"{len(changed)} changed goldens, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
