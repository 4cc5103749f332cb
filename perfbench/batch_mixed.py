"""``batch-mixed``: the ``repro batch`` front door over seeded JSONL streams.

Each invocation runs ``repro.cli.main(["batch", ...])`` in-process with
``--workers min(nproc, 2)`` on a fresh stream; one operation is one batch
job.  The stream mixes repeated questions (memo cache), several circuit
questions per instance (circuit store and passes), update chains
(conditioning, splicing, parent-chain lookups), distinct hard jobs
compiled in pool workers (serialize and IPC), an ``approx-val`` job and
closed-form jobs.  Latency on this workload is per invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time

import corpus
import layers
import oracle
from common import (
    Calibration, children_rss_mb, import_times, measure_setup, metric, run_rounds, scale,
    self_rss_mb, timed_metrics,
)

WORKERS = min(os.cpu_count() or 1, 2)
FRONT_DOOR = (
    "import multiprocessing, repro.cli, repro.engine\n"
    "pool = multiprocessing.get_context().Pool(%d)\n"
    "pool.map(abs, range(%d))\n"
    "pool.close()\n"
    "pool.join()\n" % (WORKERS, WORKERS)
)
#: Reference seconds of one invocation on the commit that added the benchmark.
NOMINAL_INVOCATION_S = 0.66
#: Stream index of the untimed warm-up invocation (never a timed one).
WARM_UP = 1 << 20


def _invoke(path, out_path, workers=WORKERS):
    """One ``repro batch`` invocation; returns its wall seconds."""
    import repro.cli
    from repro.compile.dpdb import probe_cache_clear

    probe_cache_clear()
    argv = ["batch", "--jobs", path, "--workers", str(workers), "--out", out_path]
    with contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        repro.cli.main(argv)
        return time.perf_counter() - started


def _read(out_path):
    with open(out_path, "r", encoding="utf-8") as handle:
        return {record["label"]: record for record in map(json.loads, handle)}


def _wrong(record, kind, expected) -> bool:
    if record is None or record["error"]:
        return True
    count = record["count"]
    if kind == "exact":
        return count != expected
    if kind == "approx":
        exact, epsilon = expected
        return abs(count - exact) > epsilon * exact
    for v, table in expected.items():
        for colour, probability in table.items():
            got = count.get("⊥u%d" % v, {}).get(repr(colour))
            if got is None or abs(got - float(probability)) > 1e-9:
                return True
    return False


def _pass(ctx, catalogue, seconds=None, invocations=None):
    """Invocations over fresh streams for ``seconds`` (see
    ``common.run_rounds``), or the first ``invocations`` streams; returns
    per-invocation records."""
    records = []
    calibration = Calibration(ctx.cpus[:WORKERS])
    calibration.sample()

    def run_round(index):
        path, checks = corpus.batch_file(ctx.seed, index, ctx.workdir, catalogue)
        out_path = os.path.join(ctx.workdir, "out-%d.jsonl" % index)
        wall = _invoke(path, out_path)
        calibration.sample()
        records.append({"index": index, "seconds": wall, "checks": checks,
                        "ref": calibration.reference(wall),
                        "results": _read(out_path), "ops": len(checks)})

    run_rounds(seconds, run_round, NOMINAL_INVOCATION_S, invocations)
    return records


def _check(records, ctx):
    failed = jobs = 0
    for record in records:
        for label, (kind, expected) in record["checks"].items():
            jobs += 1
            result = record["results"].get(label)
            if _wrong(result, kind, expected):
                failed += 1
                ctx.note("wrong: stream %d %s %s" % (
                    record["index"], label,
                    result and (result["error"] or result["count"])))
    return jobs, failed


def run(ctx):
    setup = measure_setup(FRONT_DOOR, ctx)
    catalogue = oracle.load_expected()
    path, _checks = corpus.batch_file(ctx.seed, WARM_UP, ctx.workdir, catalogue)
    _invoke(path, os.path.join(ctx.workdir, "warm-up.jsonl"))

    if not ctx.trace:
        records = _pass(ctx, catalogue, seconds=ctx.seconds)
        jobs, failed = _check(records, ctx)
        ctx.note("%d invocations of %d jobs, %d workers" % (len(records), jobs // len(records), WORKERS))
        metrics = {
            **timed_metrics(records, "index", ctx, "batch invocations"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(max(self_rss_mb(), children_rss_mb()), "MB"),
        }
        return jobs, failed, metrics

    plain = _pass(ctx, catalogue, seconds=ctx.seconds / 3.0)
    tracer = layers.Tracer()
    layers.install_layers(tracer)
    try:
        traced = _pass(ctx, catalogue, invocations=len(plain))
    finally:
        tracer.uninstall()
    jobs, failed = _check(plain, ctx)
    traced_jobs, traced_failed = _check(traced, ctx)
    failed += traced_failed
    for a, b in zip(plain, traced):
        for label, result in a["results"].items():
            if result["count"] != b["results"][label]["count"]:
                failed += 1
                ctx.note("traced answer differs: stream %d %s" % (a["index"], label))

    # The tracemalloc pass runs in-process (workers=0) so that every
    # allocation is seen, on the first stream without its distinct hard
    # jobs and approx job, which tracemalloc would slow twentyfold.
    path, _checks = corpus.batch_file(ctx.seed, 0, ctx.workdir, catalogue)
    with open(path, "r", encoding="utf-8") as handle:
        kept = [line for line in handle if '"label": "hard-' not in line
                and '"label": "approx"' not in line]
    memory_path = os.path.join(ctx.workdir, "memory.jsonl")
    with open(memory_path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)
    memory = layers.MemoryProbe()
    memory.install()
    try:
        _invoke(memory_path, os.path.join(ctx.workdir, "memory-out.jsonl"), workers=0)
    finally:
        memory.uninstall()

    queue, execute, fallbacks, approx_worker = [], [], 0, 0.0
    for record in traced:
        for result in record["results"].values():
            meta = result.get("meta", {})
            fallbacks += "fallback" in meta
            if "queue_seconds" in meta.get("metrics", {}):
                queue.append(meta["metrics"]["queue_seconds"])
                execute.append(result["seconds"])
                if result["problem"] == "approx-val":
                    approx_worker += result["seconds"]
    traced_seconds = sum(r["seconds"] for r in traced)
    overhead = sum(r["ref"] for r in plain) / sum(r["ref"] for r in traced) - 1.0
    to_reference = scale(traced)
    import_s, numpy_s = import_times("repro.cli", ctx)
    metrics = layers.layer_metrics(tracer, traced_jobs, traced_seconds, to_reference)
    metrics.update({
        "startup.import_s": metric(import_s, "s"),
        "startup.numpy_import_s": metric(numpy_s, "s"),
        "pool.queue_s_p50": metric(statistics.median(queue) * to_reference if queue else 0.0, "s"),
        "pool.execute_s_p50": metric(
            statistics.median(execute) * to_reference if execute else 0.0, "s"),
        "pool.serial_fallbacks": metric(fallbacks, "count"),
        "approx.s": metric(
            (tracer.self_s.get("approx", 0.0) + approx_worker) * to_reference / traced_jobs, "s/op"),
        "trace.overhead": metric(overhead, "ratio"),
    })
    metrics.update(layers.memory_metrics(memory))
    return jobs + traced_jobs, failed, metrics
