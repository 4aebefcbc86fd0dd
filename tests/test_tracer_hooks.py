"""The certification benchmark's per-layer tracer still finds its hooks.

certbench/tracer.py replaces named dilogid functions with timing wrappers
and lists the names it cannot find; a renamed hook silently reads 0 in the
benchmark's per-layer table.  The tracer is loaded from its source file and
used as the benchmark uses it, on two registry instances and sinh-theta at
theta = 1/10, at 40 digits, and on Richmond-Szekeres, whose exact terms take
the kernel's exact-argument path, at 15 digits.
"""

import types
from pathlib import Path

from dilogid.harness import RunConfig, run_identity

TRACER_SOURCE = Path(__file__).resolve().parent.parent / "certbench" / "tracer.py"

# hooks of the two Lucas closed-form helpers that are now one function, of
# the Q < 0 pair stream, whose terms are now read from _lucas_pos_terms at
# the reduced parameters (sqrt(D), -Q) and counted under its hook, and of the
# interval log, which _log_product_raw replaced by one point log of the lower
# end: its time stays in the _log_product_raw span, its count reads 0
KNOWN_STALE = {
    "dilogid.series._pos_rhs_arg",
    "dilogid.series._neg_rhs_arg",
    "dilogid.series._lucas_neg_terms",
    "dilogid.rogers.mpi_log",
}


def _load_tracer():
    # exec rather than import, so that no bytecode cache is written next to it
    module = types.ModuleType("certbench_tracer")
    exec(compile(TRACER_SOURCE.read_text(), str(TRACER_SOURCE), "exec"), module.__dict__)
    return module.Tracer


def test_tracer_hooks_are_present_and_counted():
    tracer = _load_tracer()()
    tracer.install()
    try:
        run_identity(RunConfig("theorem-main", {"a": "2/3", "b": "1/3"}, 40))
        run_identity(RunConfig("fib-lucas-neg", {}, 40))
        run_identity(RunConfig("sinh-theta", {"theta": "1/10"}, 40))
        interval_counts = dict(tracer.counts)
        run_identity(RunConfig("richmond-szekeres", {}, 15, 50))
    finally:
        tracer.remove()
    assert set(tracer.missing) <= KNOWN_STALE
    # one summation pass per verification, told apart by the frame that
    # opens its precision context
    assert tracer.counts["series.sum_passes"] == 4
    # the exact path reaches the same hooks: one L per term, and its Li2
    # terms counted through _series_terms_needed
    assert tracer.counts["rogers.eval_calls"] == interval_counts["rogers.eval_calls"] + 50
    assert tracer.counts["rogers.li2_terms"] > interval_counts["rogers.li2_terms"]
    for count in ("series.sum_passes", "rogers.eval_calls", "rogers.li2_terms", "enclosure.convert_calls"):
        assert tracer.counts[count] > 0, count
    # the log of every interval and exact L is timed inside its product
    assert tracer.self_ns["rogers.log"] > 0
