"""Seeded inputs of the three certification workloads.

Each workload is a list of operations. One operation is one call into a
public verifier of dilogid plus the serialization of its report; the
operation also carries the closed form its identity cites, which the oracle
evaluates without dilogid. The same seed always gives the same list.

The seeded instances are drawn so that their cost barely moves with the
seed (a fixed geometric ratio, or a narrow window of ratios and bit sizes):
the seed changes the inputs, not the amount of work, so that runs with
different seeds measure the same thing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("slow-ratio", "registry", "small-args")

# Closed forms are tuples the oracle knows how to evaluate:
#   ("pi2", k)            pi^2 / k
#   ("L", arg)            Rogers L at arg, where arg is
#       ("rat", Fraction)             a rational
#       ("quad", r, s, D)             r + s*sqrt(D), r and s rational
#       ("exp", Fraction)             e^x
# A closed form is a tuple of (sign, term) pairs that are summed.


@dataclass(frozen=True)
class Op:
    """One verification: what to call, and what its result must equal."""

    label: str
    # the public entry point that runs it: theorem_main_verify,
    # corollary_verify, catalog_verify or run_identity (dilogid.harness)
    verifier: str
    identity_id: str
    params: dict
    digits: int
    closed_form: tuple
    # "identity": the certificate must pin the closed form to 10^-digits;
    # "bracket": the partial sum plus its tail must bracket the closed form
    check: str = "identity"
    max_terms: int = 10000
    # first summand, exact, when the oracle knows it (for negative controls)
    first_term: Optional[Fraction] = None


def _rogers(arg) -> tuple:
    return ((1, ("L", arg)),)


def _pi2(k: int) -> tuple:
    return ((1, ("pi2", k)),)


def _theorem_main_op(a: Fraction, b: Fraction, label: str) -> Op:
    third = abs(a - b) / (1 - min(a, b))
    closed = ((1, ("L", ("rat", a))), (1, ("L", ("rat", b))), (-1, ("L", ("rat", third))))
    return Op(
        label,
        "theorem_main_verify",
        "theorem-main",
        {"a": str(a), "b": str(b)},
        40,
        closed,
        first_term=a * b,
    )


def _corollary_op(t: Fraction, label: str) -> Op:
    return Op(
        label,
        "corollary_verify",
        "corollary",
        {"t": str(t)},
        40,
        _rogers(("rat", (1 - t) / (1 + t))),
        first_term=(1 - t * t) / 4,
    )


def _primes(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]


def slow_ratio(seed: int) -> list:
    """Two fixed anchors with ratio caps 0.955 and 0.961, plus two seeded
    theorem-main instances with cap 0.93 and one seeded corollary instance
    with cap near 0.905.

    Five operations per round put the median verification on one kind of
    operation, the seeded theorem-main, in every run.
    """
    rng = random.Random(f"slow-ratio:{seed}")
    # 1-a = 93/q and 1-b = 100/q fix the ratio cap at exactly 0.93; a prime
    # q keeps a and b unreduced, so every seed has the same bit sizes
    seeded_tm = [
        _theorem_main_op(Fraction(q - 93, q), Fraction(q - 100, q), f"theorem-main(q={q})")
        for q in rng.sample(_primes(150, 200), 2)
    ]
    # t within 0.001 of 1/20 (cap about 0.905) with a denominator near 120
    candidates = [
        Fraction(p, den)
        for den in range(99, 146)
        for p in (5, 6, 7)
        if abs(Fraction(p, den) - Fraction(1, 20)) <= Fraction(1, 1000) and Fraction(p, den).denominator == den
    ]
    t = rng.choice(candidates)
    ops = [
        _theorem_main_op(Fraction(1, 50), Fraction(3, 47), "theorem-main(1/50,3/47)"),
        _corollary_op(Fraction(1, 50), "corollary(1/50)"),
        *seeded_tm,
        _corollary_op(t, f"corollary({t})"),
    ]
    rng.shuffle(ops)
    return ops


# The instances of harness.registry() at the time this benchmark was written,
# without Richmond-Szekeres, with the closed forms the registry cites.
_REGISTRY = (
    ("theorem-main(2/3,1/3)", "theorem-main", {"a": "2/3", "b": "1/3"}, _pi2(12), Fraction(2, 9)),
    ("corollary(1/3)", "corollary", {"t": "1/3"}, _pi2(12), Fraction(2, 9)),
    # 1/phi^4 = (7 - 3 sqrt 5)/2
    ("fib-even", "fib-even", {"k": "1"}, _rogers(("quad", Fraction(7, 2), Fraction(-3, 2), 5)), None),
    ("chebyshev-x(2)", "chebyshev-x", {"x": "2", "k": "1"}, _rogers(("quad", Fraction(7), Fraction(-4), 3)), None),
    ("repunit-x(2)", "repunit-x", {"x": "2", "k": "1"}, _pi2(12), None),
    ("fib-lucas-neg", "fib-lucas-neg", {"k": "1"}, _pi2(15), None),
    # 1/(3 + 2 sqrt 2) = 3 - 2 sqrt 2
    ("pell", "pell", {"k": "1"}, _rogers(("quad", Fraction(3), Fraction(-2), 2)), None),
    # 6/(7 + sqrt 13) = (7 - sqrt 13)/6
    ("q-minus-3", "q-minus-3", {"k": "1"}, _rogers(("quad", Fraction(7, 6), Fraction(-1, 6), 13)), None),
    ("sqrt5-k-odd", "sqrt5-k-odd", {"k": "1"}, _pi2(15), None),
    ("sqrt5-k-even", "sqrt5-k-even", {"k": "2"}, _rogers(("quad", Fraction(7, 2), Fraction(-3, 2), 5)), None),
    ("sinh-theta(1)", "sinh-theta", {"theta": "1"}, _rogers(("exp", Fraction(-2))), None),
    (
        "bridgeman(3,2,2)",
        "bridgeman",
        {"pell_a": "3", "pell_b": "2", "pell_n": "2"},
        _rogers(("quad", Fraction(17), Fraction(-12), 2)),
        None,
    ),
    (
        "bridgeman(1,1,2)",
        "bridgeman",
        {"pell_a": "1", "pell_b": "1", "pell_n": "2"},
        _rogers(("quad", Fraction(3), Fraction(-2), 2)),
        None,
    ),
)

REGISTRY_DIGITS = (40, 100, 300)


def registry(seed: int) -> list:
    """Every registry instance but Richmond-Szekeres at 40, 100 and 300
    digits; the registry is fixed, so the seed only sets the order."""
    ops = [
        Op(f"{label}@{digits}", "run_identity", identity_id, params, digits, closed, first_term=first)
        for digits in REGISTRY_DIGITS
        for label, identity_id, params, closed, first in _REGISTRY
    ]
    random.Random(f"registry:{seed}").shuffle(ops)
    return ops


SMALL_ARGS_DIGITS = 15
# about 49000 evaluations of L(1/n^2) in all; each point moves by at most 2%
_SMALL_ARGS_POINTS = (4000, 7000, 10000, 13000, 15000)


def small_args(seed: int) -> list:
    """The Richmond-Szekeres bracket of pi^2/6 at five seeded truncation points."""
    rng = random.Random(f"small-args:{seed}")
    ops = []
    for base in _SMALL_ARGS_POINTS:
        n = base + rng.randint(-base // 50, base // 50)
        ops.append(
            Op(
                f"richmond-szekeres(N={n})",
                "catalog_verify",
                "richmond-szekeres",
                {"terms": str(n)},
                SMALL_ARGS_DIGITS,
                _pi2(6),
                check="bracket",
                max_terms=n,
                first_term=Fraction(1, 4),
            )
        )
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list:
    if workload == "slow-ratio":
        return slow_ratio(seed)
    if workload == "registry":
        return registry(seed)
    if workload == "small-args":
        return small_args(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
