"""Record the pinned outputs that later runs are checked against.

    python3 perfbench/record.py

For every operation of every workload at the default seed it stores the exit
code and the sha256 of stdout in pinned.json.  Each output must first pass the
independent checks in workloads.py (matrix-tree counts, the benchmark's own
burning test, the undirected Tutte oracle); nothing is recorded otherwise.
Run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import os
import sys

import runner
import workloads
from run import PINNED, Session


def main() -> int:
    cli = runner.import_program()
    os.chdir(runner.ROOT)
    pins, errors = {}, []
    for workload in workloads.WORKLOADS:
        session = Session(cli, workload, workloads.DEFAULT_SEED, use_pins=False)
        for op, result in zip(session.ops, session.run_pass()):
            pins[op.key] = {
                "op": f"{workload}/{op.name}",
                "exit": result.get("exit"),
                "sha256": result.get("sha256"),
            }
        errors += session.errors
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    if errors:
        return 1
    data = {"seed": workloads.DEFAULT_SEED, "ops": dict(sorted(pins.items()))}
    PINNED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded {len(pins)} outputs in {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
