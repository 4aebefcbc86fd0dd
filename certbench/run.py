#!/usr/bin/env python3
"""Certification benchmark of dilogid: one workload per invocation.

    python3 certbench/run.py --workload slow-ratio --seed 1 --seconds 36 --trace 0

Run from the root of a dilogid checkout. The workload runs in one
single-threaded worker process (worker.py). With ``--trace 0`` the last line
of standard output is a JSON object with every end-to-end metric; with
``--trace 1`` it has every per-layer metric instead. A full record of the
run is written to certbench/runs/.

``setup_s`` is measured here, from starting a worker process to its READY
line, five times: four workers that stop after set-up and the measured
worker itself. Each is scaled to the reference machine speed by the factor
the worker measures right after set-up (see speed.py); the median is
reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "runs"
WORKLOADS = ("slow-ratio", "registry", "small-args")
SETUPS = 5
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def _run_worker(args, setup_only: bool, deadline: float) -> tuple:
    """Start a worker; return (seconds from start to READY, the speed factor
    it measured right after, rest of its stdout)."""
    command = [
        sys.executable,
        str(WORKER),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    # the deadline holds even while a read below blocks
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        # the worker writes nothing to stdout before READY, so reading the
        # raw pipe byte by byte stops exactly at the end of that line
        line = b""
        while not line.endswith(b"\n"):
            chunk = proc.stdout.read(1)
            if not chunk:
                break
            line += chunk
        ready = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line != b"READY\n" or proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode} before its result")
    speed_line, _, output = rest.decode().partition("\n")
    label, _, factor = speed_line.partition(" ")
    if label != "SPEED":
        raise WorkerError("worker printed no speed factor after set-up")
    return ready, float(factor), output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dilogid certification benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dilogid" / "__init__.py").is_file():
        print(f"error: no dilogid sources under {ROOT / 'src'}; run from a dilogid checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []  # (seconds to READY, speed factor right after)
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                ready, factor, _ = _run_worker(args, True, deadline)
                setups.append((ready, factor))
        ready, factor, output = _run_worker(args, False, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append((ready, factor))
    lines = output.strip().splitlines()
    if not lines:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    detail = result.pop("detail")
    if not args.trace:
        scaled = [ready * factor for ready, factor in setups]
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}

    RUNS.mkdir(exist_ok=True)
    record = dict(vars(args), result=result, setups=setups, python=sys.version, detail=detail)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, problems in detail["problems"].items():
        print(f"failed: {key}: {'; '.join(problems)}", file=sys.stderr)
    if detail["nondeterministic_reports"]:
        print(f"reports differ between rounds: {detail['nondeterministic_reports']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
