"""Benchmark entry point: one workload, one seed, one line of JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hard-cells --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  Human-readable notes go to stdout first; the last
line is ``{"correct", "attempted", "failed", "metrics"}``.  ``--workload
all`` runs the three workloads in turn (for people; the final line then
carries every metric prefixed with its workload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import Context, import_program

WORKLOADS = ("hard-cells", "tractable-cli", "batch-mixed")


def run_workload(name: str, args) -> dict:
    import batch_mixed
    import hard_cells
    import tractable_cli

    module = {"hard-cells": hard_cells, "tractable-cli": tractable_cli,
              "batch-mixed": batch_mixed}[name]
    ctx = Context(os.getcwd(), args.seed, args.seconds, bool(args.trace), name)
    try:
        attempted, failed, metrics = module.run(ctx)
    finally:
        ctx.close()
    for note in ctx.notes:
        print("%s: %s" % (name, note))
    print("%s: fail_ratio = %.6f (ratio; %d failed of %d attempted)"
          % (name, failed / attempted, failed, attempted))
    for key in sorted(metrics):
        print("%s: %s = %.6g %s" % (name, key, metrics[key]["value"], metrics[key]["unit"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program(os.getcwd())

    if args.workload != "all":
        result = run_workload(args.workload, args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            part = run_workload(name, args)
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                result["metrics"]["%s/%s" % (name, key)] = value
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
