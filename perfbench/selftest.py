"""Tiny-size self-test of the benchmark.

Runs every workload for one round, untraced and traced, from the
repository root and checks that:

* every end-to-end metric of ``BENCHMARK.json`` is emitted with its unit
  (untraced), and every per-layer metric with its unit (traced);
* no answer is wrong, including the traced run's comparison of its
  answers with the untraced pass it replays;
* ``trace.coverage`` is reported, and above zero, on every workload;
* the workload-shape assertions hold (no ``shape violation`` line).

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != [(name, unit) for name, unit, _better in layers.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            argv = spec["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            where = "%s --trace %s" % (workload, trace)
            if done.returncode != 0:
                problems.append("%s: exit %d\n%s" % (where, done.returncode, done.stderr[-3000:]))
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d wrong answers" % (where, result["failed"]))
            for entry in wanted:
                got = result["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append("%s: %s missing or wrong unit" % (where, entry["name"]))
            if set(result["metrics"]) != {entry["name"] for entry in wanted}:
                problems.append("%s: unexpected metric names" % where)
            if trace == "1" and not result["metrics"]["trace.coverage"]["value"] > 0:
                problems.append("%s: no trace.coverage" % where)
            problems.extend(
                "%s: %s" % (where, line) for line in lines if "shape violation" in line
            )
            print("%s: ok" % where if not problems else "%s: checked" % where, flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
