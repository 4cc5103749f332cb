"""``hard-cells``: in-process ``repro.solve()`` over #P-hard Table 1 cells.

One operation is one ``solve()`` call on an instance the process has not
answered before (the dpdb probe memo is cleared outside the timed
interval).  Ordering, search and DP do nearly all the work here; start-up,
io and the engine do almost none.
"""

from __future__ import annotations

import time

import corpus
import layers
import oracle
from common import (
    Calibration, geomean, import_times, measure_setup, metric, run_rounds, scale, self_rss_mb,
    timed_metrics,
)

FRONT_DOOR = "from repro import solve"
#: Reference seconds of one round on the commit that added the benchmark.
NOMINAL_ROUND_S = 6.5
#: Shape assertion: a search instance makes at least this many decisions.
MIN_DECISIONS = 300
#: The traced run's regret pass forces every method on these round-0
#: instances: the three grids, a chorded cycle and a #Comp instance ...
REGRET_SUBSET = (("grid", None), ("chorded", 4), ("comp", 3))
#: ... and its tracemalloc pass (about 20 times slower than a plain
#: solve) runs the width-10 grid (dpdb) and the chorded cycle (search).
MEMORY_SUBSET = (("grid-3x16", None), ("chorded", 4))


def _subset(ops, wanted):
    return [
        op for op in ops
        if (op[5]["family"], op[5].get("stratum")) in wanted
        or (op[0], op[5].get("stratum")) in wanted
    ]


def _solve_op(op, method="auto"):
    """Time one solve; returns a record (latency, count, method, stats)."""
    from repro import solve
    from repro.compile.dpdb import probe_cache_clear

    label, problem, db, query, expected, shape = op
    probe_cache_clear()
    started = time.perf_counter()
    try:
        answer = solve(problem, db, query, method=method)
    except Exception as exc:  # noqa: BLE001 - an error is a failed operation
        return {"label": label, "seconds": time.perf_counter() - started,
                "error": "%s: %s" % (type(exc).__name__, exc), "expected": expected}
    seconds = time.perf_counter() - started
    return {
        "label": label, "seconds": seconds, "count": answer.count,
        "method": answer.method, "expected": expected,
        "decisions": answer.stats.get("counters", {}).get("sharpsat.decisions"),
        "family": shape["family"],
    }


def _pass(ctx, hard, seconds=None, rounds=None, tracer=None):
    """Whole rounds for ``seconds`` (see ``common.run_rounds``), or the
    first ``rounds`` rounds."""
    records = []
    calibration = Calibration(ctx.cpus)
    calibration.sample()

    def run_round(index):
        for op in hard.round(index):
            if tracer is not None:
                tracer.counts["op.dpdb_width"] = 0
            record = _solve_op(op)
            calibration.sample()
            record["ref"] = calibration.reference(record["seconds"])
            record["round"] = index
            if tracer is not None:
                record["width"] = int(tracer.counts["op.dpdb_width"])
            records.append(record)

    return records, run_rounds(seconds, run_round, NOMINAL_ROUND_S, rounds)


def _check(records, ctx):
    """Answers against the oracle, plus the workload-shape assertions."""
    failed = 0
    violations = []
    for record in records:
        if record.get("error") or record["count"] != record["expected"]:
            failed += 1
            ctx.note("wrong: %s %s" % (record["label"], record.get("error", record.get("count"))))
            continue
        if record["count"] == 0:
            violations.append("%s: zero count" % record["label"])
        if record["method"] in ("lineage", "circuit") and (record["decisions"] or 0) < MIN_DECISIONS:
            violations.append("%s: %s decisions" % (record["label"], record["decisions"]))
    return failed, violations


def run(ctx):
    ctx.pin()
    setup = measure_setup(FRONT_DOOR, ctx)
    from repro import solve  # noqa: F401  (the front door, imported once)

    catalogue = oracle.load_expected()
    hard = corpus.HardCells(ctx.seed, catalogue)
    _solve_op(hard.round(0)[0])  # lazy imports and first-call set-up, untimed

    if not ctx.trace:
        records, rounds = _pass(ctx, hard, seconds=ctx.seconds)
        failed, violations = _check(records, ctx)
        ctx.note("%d rounds of %d operations" % (rounds, len(records) // rounds))
        for violation in violations:
            ctx.note("shape violation: " + violation)
        metrics = {
            **timed_metrics(records, "round", ctx, "solve() calls"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(self_rss_mb(), "MB"),
        }
        return len(records), failed, metrics

    return _traced(ctx, hard)


def _traced(ctx, hard):
    plain, rounds = _pass(ctx, hard, seconds=ctx.seconds / 3.0)
    fallbacks = layers.fallback_count()
    tracer = layers.Tracer()
    layers.install_layers(tracer)
    try:
        traced, _ = _pass(ctx, hard, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    failed, violations = _check(plain + traced, ctx)
    for a, b in zip(plain, traced):
        if (a["label"], a.get("count")) != (b["label"], b.get("count")):
            failed += 1
            ctx.note("traced answer differs: %s" % a["label"])
    for record in traced:
        ctx.note("shape: %s method=%s width=%s decisions=%s" % (
            record["label"], record.get("method"), record.get("width"), record.get("decisions")))
    for violation in violations:
        ctx.note("shape violation: " + violation)

    first = hard.round(0)
    regrets = []
    calibration = Calibration(ctx.cpus)
    calibration.sample()
    for op in _subset(first, REGRET_SUBSET):
        times = []
        for method in ("auto", "lineage", "dpdb", "circuit"):
            record = _solve_op(op, method)
            calibration.sample()
            if record.get("error") or record["count"] != op[4]:
                failed += 1
                ctx.note("wrong: %s method=%s %s" % (op[0], method, record.get("error")))
                continue
            times.append(calibration.reference(record["seconds"]))
        if len(times) < 4:
            continue
        regrets.append(times[0] / min(times))
        ctx.note("regret: %s %.2f (auto %.3fs, fastest %.3fs)" % (op[0], regrets[-1], times[0], min(times)))

    memory = layers.MemoryProbe()
    memory.install()
    try:
        for op in _subset(first, MEMORY_SUBSET):
            _solve_op(op)
    finally:
        memory.uninstall()

    ops = len(traced)
    traced_seconds = sum(r["seconds"] for r in traced)
    overhead = sum(r["ref"] for r in plain) / sum(r["ref"] for r in traced) - 1.0
    import_s, numpy_s = import_times("repro", ctx)
    metrics = layers.layer_metrics(tracer, ops, traced_seconds, scale(traced))
    metrics.update({
        "startup.import_s": metric(import_s, "s"),
        "startup.numpy_import_s": metric(numpy_s, "s"),
        "planner.regret_geomean": metric(geomean(regrets), "ratio"),
        "trace.overhead": metric(overhead, "ratio"),
        "dpdb.fallbacks": metric(layers.fallback_count() - fallbacks, "count"),
    })
    metrics.update(layers.memory_metrics(memory))
    return len(plain) + len(traced), failed, metrics
