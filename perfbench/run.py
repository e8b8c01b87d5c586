"""Benchmark of cold `cfg` invocations on three seeded workloads.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; it reads the program from ``src/`` and
writes only under ``perfbench/_work/``.  One operation is one
``chipfiring.cli.main(argv)`` call in a freshly forked child (see runner.py).
With ``--trace 0`` it runs the workload's operations in order, over and over,
for about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics (see tracer.py).  Every output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import runner
import tracer
import workloads

PINNED = Path(__file__).resolve().parent / "pinned.json"
WORK = Path("perfbench") / "_work"
SETUP_REPEATS = 9
RUN_LIMIT_S = 150.0  # no operation starts later than this into a run


class Session:
    """Runs a workload's operations and keeps every failure it sees."""

    def __init__(self, cli, workload: str, seed: int, use_pins: bool = True):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.cli = cli
        self.ops = workloads.build(workload, seed)
        workloads.write_inputs(self.ops)
        pins = json.loads(PINNED.read_text())["ops"] if use_pins and PINNED.is_file() else {}
        self.pins = {op.name: pins.get(op.key) for op in self.ops}
        self.oracles = runner.oracle_texts(self.ops)
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, op, tracer_factory=None) -> dict:
        limit = min(runner.OP_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            result = {"time_s": 0.0, "scaled_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "out_bytes": 0,
                      "error": "not started: the run reached its time limit"}
        else:
            result = runner.run_op(
                self.cli, op, pinned=self.pins[op.name], oracle=self.oracles.get(op.path),
                tracer_factory=tracer_factory, limit=limit,
            )
        self.attempted += 1
        if result["error"]:
            self.errors.append(f"{op.name}: {result['error']}")
        return result

    def run_pass(self, tracer_factory=None) -> list[dict]:
        return [self.run(op, tracer_factory) for op in self.ops]

    def report(self, metrics: dict, correct: bool = True) -> dict:
        for error in self.errors:
            print(f"FAILED {error}", file=sys.stderr)
        return {
            "correct": correct and not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }


def timed(session: Session, seconds: float) -> dict:
    setup = runner.setup_seconds(SETUP_REPEATS)
    times, scaled, rss = defaultdict(list), defaultdict(list), []
    start = time.monotonic()
    # one full pass, then further ops in the same order while each is expected
    # to end within the time budget, so every op gets about equally many samples
    for i in itertools.count():
        op = session.ops[i % len(session.ops)]
        now = time.monotonic()
        expected_end = now - start + times[op.name][-1] if times[op.name] else 0.0
        if i >= len(session.ops) and (expected_end > seconds or now > session.deadline):
            break
        result = session.run(op)
        times[op.name].append(result["time_s"])
        scaled[op.name].append(result["scaled_s"])
        rss.append(result["rss_mb"])
    per_op = sorted(statistics.median(t) for t in scaled.values())
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (statistics.quantiles(per_op, n=10, method="inclusive")[8], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    n, failed = len(per_op), len(session.errors)
    runs = sum(len(t) for t in times.values())
    unscaled = sum(statistics.median(t) for t in times.values())
    print(f"{n} ops, {runs} op runs; each op's time is the median of its runs, "
          f"scaled to the reference host speed (speed.py)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    fail_frac = failed / session.attempted
    print(f"  {'fail_frac':<12} {fail_frac:.6g} ({failed} of {session.attempted} op runs failed)")
    print(f"  (wall_s unscaled: {unscaled:.6g} s, so this host ran at "
          f"{sum(per_op) / unscaled:.3g} x the reference speed)")
    if n < 100:
        print(f"  (op_p90_s: only {n} ops, so fewer than ten lie beyond the 90th percentile)")
    return session.report(metrics)


def traced(session: Session, workload: str) -> dict:
    plain = session.run_pass()
    spans_file = WORK / f"spans-{workload}.jsonl"
    spans_file.write_text("")
    traced_results = session.run_pass(lambda: tracer.Tracer(spans_file).install())
    calls, self_s, counts, cache = Counter(), Counter(), Counter(), defaultdict(lambda: [0, 0])
    intact = True
    for result in traced_results:
        trace = result.get("trace")
        if trace is None:
            continue
        calls.update(trace["calls"])
        self_s.update(trace["self_s"])
        counts.update(trace["counts"])
        for layer, (hits, misses) in trace["cache"].items():
            cache[layer][0] += hits
            cache[layer][1] += misses
        intact &= trace["integrity"]

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(layer):
        hits, misses = cache[layer]
        return ratio(hits, hits + misses)

    metrics = {
        "cli.self_s": (self_s["cli"], "s"),
        "cli.out_bytes": (sum(r["out_bytes"] for r in traced_results), "bytes"),
        "proc.cpu_s": (sum(r["cpu_s"] for r in plain), "s"),
        "trace.overhead": (
            ratio(sum(r["time_s"] for r in traced_results), sum(r["time_s"] for r in plain)),
            "ratio",
        ),
        "graph.new": (counts["graph.new"], "count"),
        "graph.query.calls": (counts["graph.query"], "count"),
        "dynamics.firings": (counts["dynamics.firings"], "count"),
        "dynamics.config.new": (counts["dynamics.config.new"], "count"),
        "recurrent.enum.hit_ratio": (hit_ratio("recurrent.enum"), "ratio"),
        "recurrent.cells": (counts["recurrent.cells"], "count"),
        "recurrent.burning_tests": (counts["recurrent.burning_tests"], "count"),
        "recurrent.found": (counts["recurrent.found"], "count"),
        "recurrent.yield": (
            ratio(counts["recurrent.found"], counts["recurrent.burning_tests"]),
            "ratio",
        ),
        "recurrent.kappa.hit_ratio": (hit_ratio("recurrent.kappa"), "ratio"),
        "bijection.swap_steps": (counts["bijection.swap_steps"], "count"),
        "tutte.gen.hit_ratio": (hit_ratio("tutte.gen"), "ratio"),
        "polynomial.ops": (counts["polynomial.ops"], "count"),
        "polynomial.new": (counts["polynomial.new"], "count"),
    }
    for layer in (*tracer.SPANS, *tracer.METHOD_SPANS):
        if layer != "graph.parse":
            metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    if not intact:
        print("FAILED trace: spans do not nest or do not sum to the traced time", file=sys.stderr)
    print(f"{len(session.ops)} ops, one untraced and one traced pass; spans in {spans_file}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<28} {value:.6g} {unit}")
    return session.report(metrics, intact)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = runner.import_program()
    os.chdir(runner.ROOT)
    session = Session(cli, args.workload, args.seed)
    pinned = sum(1 for pin in session.pins.values() if pin)
    print(f"workload {args.workload}, seed {args.seed}, python {sys.version.split()[0]}; "
          f"{pinned} of {len(session.ops)} ops also checked against pinned outputs")
    result = traced(session, args.workload) if args.trace else timed(session, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
