"""One workload in one single-threaded process.

Started by run.py. Set-up (imports, input generation, reference values)
ends with a ``READY`` line on standard output, followed by a ``SPEED``
line: the factor that scales times measured now to the reference machine
speed (see speed.py). With ``--setup-only`` the process exits there. Otherwise it runs whole rounds of the workload's
operations, checks every report with the oracle, runs the oracle's
negative controls and prints one JSON line of results.

A round runs every operation once, in the seeded order. Another round
starts only while the elapsed time plus the median round time so far stays
within ``--seconds``; at least one round runs. With ``--trace 1`` a round
runs the operations untraced and then traced, so the tracing overhead is
measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dilogid  # noqa: E402
from dilogid import harness  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

PER_LAYER_TIMES = (
    "series.terms",
    "series.truncation",
    "enclosure.convert",
    "rogers.eval",
    "rogers.li2",
    "rogers.log",
    "series.rhs",
    "exactnum.quad_to_real",
    "lucas.uv",
    "harness.report",
)
PER_LAYER_COUNTS = (
    "series.terms",
    "series.tail_bound_calls",
    "enclosure.convert_calls",
    "rogers.eval_calls",
    "rogers.li2_terms",
    "rogers.log_calls",
    "series.sum_passes",
    "series.rhs_calls",
    "exactnum.quad_to_real_calls",
    "lucas.uv_calls",
)


def prepare(op):
    """A zero-argument call into the public verifier named by the operation."""
    budget = dilogid.PrecisionBudget.for_digits(op.digits)
    if op.verifier == "theorem_main_verify":
        inst = dilogid.TwoParamInstance(Fraction(op.params["a"]), Fraction(op.params["b"]))
        return lambda: dilogid.theorem_main_verify(inst, budget)
    if op.verifier == "corollary_verify":
        t = Fraction(op.params["t"])
        return lambda: dilogid.corollary_verify(t, budget)
    if op.verifier == "catalog_verify":
        return lambda: dilogid.catalog_verify(op.identity_id, budget, op.max_terms)
    config = harness.RunConfig(op.identity_id, dict(op.params), op.digits, op.max_terms)
    return lambda: harness.run_identity(config)


def run_round(ops, calls, refs, probe=None) -> list:
    """Time each verification (verifier call plus emit_report), then check it.

    With a speed probe, ``seconds`` is the wall time less the probe's own
    time and ``scaled`` is that time at the reference machine speed;
    without one both are the plain wall time.
    """
    results = []
    for op, call, ref in zip(ops, calls, refs):
        start = time.perf_counter()
        try:
            text = harness.emit_report(call())
        except Exception as exc:  # a verifier that raises is a failed operation
            results.append({"span": (start, time.perf_counter()), "text": None, "problems": [repr(exc)]})
            continue
        end = time.perf_counter()
        report = oracle.parse(text)
        results.append({"span": (start, end), "text": text, "report": report, "problems": oracle.check(op, report, ref)})
    for r in results:
        start, end = r.pop("span")
        r["seconds"], r["scaled"] = probe.scaled(start, end) if probe else (end - start, end - start)
    return results


def self_check(ops, refs, results) -> dict:
    """The oracle's own test plus its three negative controls."""
    out = {"oracle_self_test": oracle.self_test()}
    for op, ref, result in zip(ops, refs, results):
        if op.first_term is not None and result["text"] is not None and not result["problems"]:
            out["control_op"] = op.label
            out["controls_rejected"] = oracle.negative_controls(op, result["report"], ref)
            break
    return out


def _wall(results) -> float:
    return sum(r["scaled"] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    calls = [prepare(op) for op in ops]
    refs = [oracle.reference(op.closed_form, op.digits) for op in ops]
    print("READY", flush=True)
    print(f"SPEED {speed.speed_factor(args.workload)}", flush=True)
    if args.setup_only:
        return 0

    rounds, traced_rounds, tracers, round_seconds, kernel_seconds = [], [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        with speed.SpeedProbe(args.workload) as probe:
            rounds.append(run_round(ops, calls, refs, probe))
        kernel_seconds.append(statistics.median(d for _, d in probe.samples) if probe.samples else None)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                with speed.SpeedProbe(args.workload, tracer.exclude) as traced_probe:
                    traced_rounds.append(run_round(ops, calls, refs, traced_probe))
            finally:
                tracer.remove()
            tracers.append(tracer)
        round_seconds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(round_seconds) > args.seconds:
            break

    all_results = [r for rnd in rounds + traced_rounds for r in rnd]
    failed = sum(1 for r in all_results if r["problems"])
    first = rounds[0]
    # every round, traced or not, must emit byte-identical reports
    mismatched = [
        op.label
        for i, op in enumerate(ops)
        if any(rnd[i]["text"] != first[i]["text"] for rnd in rounds[1:] + traced_rounds)
    ]
    checks = self_check(ops, refs, first)
    controls = checks.get("controls_rejected", {})
    correct = (
        not mismatched
        and not checks["oracle_self_test"]
        and len(controls) == 3
        and all(controls.values())
    )

    if args.trace:
        metrics = {}
        for layer in PER_LAYER_TIMES:
            metrics[f"{layer}_ms"] = (statistics.median(t.ms(layer) for t in tracers), "ms")
        for name in PER_LAYER_COUNTS:
            metrics[name] = (statistics.median(t.counts.get(name, 0) for t in tracers), "count")
        metrics["series.sum_passes_per_verify"] = (metrics["series.sum_passes"][0] / len(ops), "passes/verify")
        overhead = statistics.median(_wall(r) for r in traced_rounds) - statistics.median(_wall(r) for r in rounds)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        ok = [r for r in first if r["text"] is not None]
        metrics = {
            "wall_s": (statistics.median(_wall(r) for r in rounds), "s"),
            "verify_ms_p50": (statistics.median(r["scaled"] * 1000 for rnd in rounds for r in rnd), "ms"),
            "terms_total": (sum(r["report"]["terms_used"] for r in ok), "count"),
            "report_bytes": (sum(len(r["text"].encode()) for r in ok), "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    detail = {
        "ops": [op.label for op in ops],
        "round_seconds": [[r["seconds"] for r in rnd] for rnd in rounds],
        "round_scaled_seconds": [[r["scaled"] for r in rnd] for rnd in rounds],
        "median_kernel_seconds": kernel_seconds,
        "traced_round_seconds": [[r["seconds"] for r in rnd] for rnd in traced_rounds],
        "traced_round_scaled_seconds": [[r["scaled"] for r in rnd] for rnd in traced_rounds],
        "problems": {
            op.label: r["problems"] for rnd in rounds + traced_rounds for op, r in zip(ops, rnd) if r["problems"]
        },
        "nondeterministic_reports": mismatched,
        "self_check": checks,
        "trace_layers": [
            {"self_ms": {k: v / 1e6 for k, v in t.self_ns.items()}, "counts": dict(t.counts)} for t in tracers
        ],
        "trace_missing_hooks": sorted({name for t in tracers for name in t.missing}),
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(all_results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "detail": detail,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
