"""``tractable-cli``: cold ``python -m repro count --json`` processes over
database files of polynomial Table 1 cells.

One operation is one process, run to completion before the next starts.
Interpreter start, ``import repro.cli``, parsing and planning (including
the dpdb width probe, which compiles the full lineage CNF) do the work;
search does almost none.  The mid-size files are kept so the probe cost
shows.
"""

from __future__ import annotations

import json
import os
import sys

import corpus
import layers
from common import (
    Calibration, import_times, measure_setup, metric, run_child, run_rounds, scale,
    timed_metrics,
)

FRONT_DOOR = "import repro.cli"
#: Reference seconds of one round on the commit that added the benchmark.
NOMINAL_ROUND_S = 11.5
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")


def _argv(op, prefix):
    return prefix + [
        "count", "--mode", op["mode"], "--db", op["path"], "--query", op["query"], "--json",
    ]


def _run_op(op, ctx, prefix):
    child = run_child(_argv(op, prefix), ctx)
    record = {"op": op, "seconds": child.seconds, "rss_mb": child.rss_mb}
    try:
        answer = json.loads(child.stdout.strip().splitlines()[-1])
        record["count"] = answer["count"]
        record["method"] = answer["method"]
    except (ValueError, IndexError, KeyError):
        record["error"] = "exit %d: %s" % (child.code, child.stderr[-500:])
    if child.code != 0:
        record["error"] = "exit %d: %s" % (child.code, child.stderr[-500:])
    return record


def _pass(ctx, prefix, seconds=None, ops=None):
    """Whole rounds of processes for ``seconds`` (see
    ``common.run_rounds``), or the given operations once."""
    records = []
    calibration = Calibration(ctx.cpus)
    calibration.sample()

    def run_round(index):
        for op in ops or corpus.cli_round(ctx.seed, index, ctx.workdir):
            record = _run_op(op, ctx, prefix)
            calibration.sample()
            record["ref"] = calibration.reference(record["seconds"])
            record["round"] = index
            records.append(record)

    return records, run_rounds(seconds, run_round, NOMINAL_ROUND_S, 1 if ops else None)


def _check(records, ctx):
    failed = 0
    for record in records:
        if record.get("error") or record["count"] != record["op"]["expected"]:
            failed += 1
            ctx.note("wrong: %s %s" % (
                os.path.basename(record["op"]["path"]), record.get("error", record.get("count"))))
    return failed


def _shape(ops, ctx):
    """Every file is a polynomial Table 1 cell; record the sizes."""
    from repro.core.classify import classify
    from repro.core.problems import Mode, ProblemVariant
    from repro.io.databases import parse_database
    from repro.io.queries import parse_query

    seen = set()
    for op in ops:
        with open(op["path"], "r", encoding="utf-8") as handle:
            text = handle.read()
        db = parse_database(text)
        mode = Mode.VALUATIONS if op["mode"] == "val" else Mode.COMPLETIONS
        variant = ProblemVariant(mode, codd=db.is_codd, uniform=db.is_uniform)
        verdict = classify(parse_query(op["query"])).entry(variant).tractability
        if not verdict.is_tractable:
            ctx.note("shape violation: %s is %s" % (op["path"], verdict.value))
        key = (op["family"], op["facts"] // 25)
        if key not in seen:
            seen.add(key)
            ctx.note("shape: %s %s %d facts %d bytes (%s)" % (
                op["family"], variant.paper_name, op["facts"], len(text), verdict.value))


def run(ctx):
    ctx.pin()
    run_child([sys.executable, "-c", FRONT_DOOR], ctx)  # byte-compile, untimed
    setup = measure_setup(FRONT_DOOR, ctx)
    python_m = [sys.executable, "-m", "repro"]
    if not ctx.trace:
        records, rounds = _pass(ctx, python_m, ctx.seconds)
        failed = _check(records, ctx)
        _shape([r["op"] for r in records[: len(records) // rounds]], ctx)
        ctx.note("%d rounds of %d processes" % (rounds, len(records) // rounds))
        metrics = {
            **timed_metrics(records, "round", ctx, "count processes"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(max(r["rss_mb"] for r in records), "MB"),
        }
        return len(records), failed, metrics

    plain, _rounds = _pass(ctx, python_m, ctx.seconds / 3.0)
    trace_path = os.path.join(ctx.workdir, "trace.json")
    merged = layers.Tracer()
    traced = []
    for op in (r["op"] for r in plain):
        traced.extend(_pass(ctx, [sys.executable, SHIM, trace_path], ops=[op])[0])
        with open(trace_path, "r", encoding="utf-8") as handle:
            layers.merge(merged, json.load(handle))
    failed = _check(plain + traced, ctx)
    for a, b in zip(plain, traced):
        if a.get("count") != b.get("count"):
            failed += 1
            ctx.note("traced answer differs: %s" % a["op"]["path"])
    traced_seconds = sum(r["seconds"] for r in traced)
    overhead = sum(r["ref"] for r in plain) / sum(r["ref"] for r in traced) - 1.0
    import_s, numpy_s = import_times("repro.cli", ctx)
    metrics = layers.layer_metrics(merged, len(traced), traced_seconds, scale(traced))
    metrics.update({
        "startup.import_s": metric(import_s, "s"),
        "startup.numpy_import_s": metric(numpy_s, "s"),
        "trace.overhead": metric(overhead, "ratio"),
    })
    return len(plain) + len(traced), failed, metrics
