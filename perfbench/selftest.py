"""Self-test of the benchmark's op model, hang guard and counters.

    python3 perfbench/selftest.py

- Counters that explain the baseline: traced `cfg recurrents` on K7 at sink k0
  scans 46,656 cells with 46,656 burning tests and finds 16,807 recurrent
  configurations; on the 4-fold banana path on 5 vertices it scans 2,048 cells
  and finds 256.
- Cold start: after an op that sets CFG_CAP_CELLS through `--cap`, one op run
  twice in a row gives identical counters and cache statistics, so no cache
  entry or environment value carries over from one op to the next.
- Hang guard: an op given a limit far below its run time is killed and failed.
- Trace integrity: in every traced op the spans nest and their self times sum
  to the traced duration.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

import runner
import tracer
import workloads

SPANS_FILE = os.path.join("perfbench", "_work", "spans-selftest.jsonl")


def main() -> int:
    cli = runner.import_program()
    os.chdir(runner.ROOT)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def op(name, g, *argv):
        return workloads.make_op("selftest", name, argv[0], g, *argv[1:])

    k7 = op("k7", workloads.complete(7), "recurrents", "--sink", "k0", "--format", "json")
    banana = workloads.banana_path(5, 4)
    enum_banana = op("banana5x4", banana, "recurrents", "--sink", "p0", "--format", "json")
    capped = op("banana5x4-capped", banana, "recurrents", "--sink", "p0", "--cap", "100")
    tutte = op("tutte-banana5x4", banana, "tutte", "--eval", "2")
    workloads.write_inputs([k7, enum_banana, capped, tutte])
    open(SPANS_FILE, "w").close()

    def traced(o):
        result = runner.run_op(cli, o, tracer_factory=lambda: tracer.Tracer(SPANS_FILE).install())
        check(result["error"] is None, f"{o.name}: output correct ({result['error']})")
        trace = result.get("trace", {"counts": {}, "calls": {}, "cache": {}, "integrity": False})
        check(trace["integrity"], f"{o.name}: spans nest and self times sum to the traced duration")
        return trace

    counts = traced(k7)["counts"]
    check(
        counts.get("recurrent.cells") == counts.get("recurrent.burning_tests") == 46_656
        and counts.get("recurrent.found") == 16_807,
        f"K7 at k0: 46656 cells and burning tests, 16807 found ({counts})",
    )
    counts = traced(enum_banana)["counts"]
    check(
        counts.get("recurrent.cells") == 2_048 and counts.get("recurrent.found") == 256,
        f"4-fold banana path on 5 vertices: 2048 cells, 256 found ({counts})",
    )

    result = runner.run_op(cli, capped)
    check(result.get("exit") == 3, f"--cap 100 stops with exit 3 (got {result.get('exit')})")
    first, second = traced(tutte), traced(tutte)
    same = all(first[key] == second[key] for key in ("counts", "calls", "cache"))
    check(same and first["counts"], "one op twice in a row: identical counters and cache stats")
    check("CFG_CAP_CELLS" not in os.environ, "the parent's environment is untouched")

    start = time.monotonic()
    result = runner.run_op(cli, k7, limit=0.5)
    waited = time.monotonic() - start
    check(
        str(result["error"]).startswith("killed") and waited < 5,
        f"an op over its limit is killed and failed ({result['error']}, after {waited:.2f} s)",
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
