"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each layer's public functions with timing
wrappers at their call sites — every ``repro`` module attribute bound to
the function, and methods on their classes — and records each call's
*self time*: its duration minus the time of the wrapped calls nested in
it, so the layer totals add up without double counting.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

:class:`MemoryProbe` is the separate tracemalloc pass: it records the
peak traced allocation inside the search, DP and circuit entry points.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

#: Planner methods that are closed forms (time goes to ``exact.closed_form``).
CLOSED_FORMS = frozenset({"single-occurrence", "codd", "uniform", "uniform-unary"})


class _Frame:
    __slots__ = ("child", "counts")

    def __init__(self) -> None:
        self.child = 0.0
        self.counts: dict = {}


class Tracer:
    """Self time, call counts and counters per layer, while installed."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def bump(self, name: str) -> None:
        """Count ``name`` on every active frame (read back by enclosing
        wrappers' hooks)."""
        for frame in self._stack:
            frame.counts[name] = frame.counts.get(name, 0) + 1

    def wrap(self, original, layer, hook=None, generator=False):
        """A timing wrapper of ``original``; ``layer`` is a name or a
        function of ``(args, kwargs)``; ``hook(tracer, frame, args,
        kwargs, result)`` runs after each call."""
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def finish(frame, name, elapsed):
            stack.pop()
            tracer.self_s[name] += elapsed - frame.child
            if stack:
                stack[-1].child += elapsed

        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            frame = _Frame()
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                finish(frame, name, clock() - started)
            if hook is not None:
                hook(tracer, frame, args, kwargs, result)
            return result

        def generator_wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            iterator = original(*args, **kwargs)
            while True:
                frame = _Frame()
                stack.append(frame)
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    finish(frame, name, clock() - started)
                    return
                except BaseException:
                    finish(frame, name, clock() - started)
                    raise
                finish(frame, name, clock() - started)
                yield item

        chosen = generator_wrapper if generator else wrapper
        chosen.__wrapped__ = original
        chosen.__name__ = getattr(original, "__name__", "wrapped")
        return chosen

    # -- installing --------------------------------------------------------

    def patch_function(self, original, layer, hook=None, generator=False) -> None:
        """Replace ``original`` wherever a loaded ``repro`` module binds it."""
        wrapper = self.wrap(original, layer, hook, generator)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, original))

    def patch_method(self, cls, attribute: str, layer, hook=None) -> None:
        """Replace a method (plain or classmethod) on ``cls``."""
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, layer, hook))
        else:
            wrapped = self.wrap(raw, layer, hook)
        setattr(cls, attribute, wrapped)
        self._patches.append((cls, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


def merge(tracer: Tracer, recorded: dict) -> None:
    """Add another process's :meth:`Tracer.to_dict` into ``tracer``."""
    for name, value in recorded["self_s"].items():
        tracer.self_s[name] += value
    for name, value in recorded["counts"].items():
        tracer.counts[name] += value
    for name, value in recorded["maxima"].items():
        tracer.maxima[name] = max(tracer.maxima[name], value)


# -- the layer map -------------------------------------------------------


def _encode_hook(tracer, frame, args, kwargs, result):
    tracer.counts["encode.calls"] += 1
    tracer.counts["encode.clauses"] += len(result.cnf)
    tracer.bump("encode")


def _probe_hook(tracer, frame, args, kwargs, result):
    if frame.counts.get("encode"):
        tracer.counts["planner.probes_run"] += 1
        tracer.bump("probe_run")
    if result.width is not None:
        tracer.maxima["dpdb.width_max"] = max(tracer.maxima["dpdb.width_max"], result.width)
        tracer.counts["op.dpdb_width"] = max(tracer.counts["op.dpdb_width"], result.width)


def _plan_hook(tracer, frame, args, kwargs, result):
    tracer.counts["planner.plans"] += 1
    if frame.counts.get("probe_run") and result.chosen == "dpdb":
        tracer.counts["planner.probes_useful"] += frame.counts["probe_run"]


def _ordering_hook(tracer, frame, args, kwargs, result):
    tracer.maxima["ordering.width_max"] = max(
        tracer.maxima["ordering.width_max"], result[1] or 0
    )


def _search_hook(tracer, frame, args, kwargs, result):
    stats = args[0].stats()
    tracer.counts["search.decisions"] += stats["decisions"] or 0
    tracer.counts["search.cache_hits"] += stats["cache_hits"] or 0
    tracer.counts["search.cache_entries"] += stats["cache_entries"] or 0


def _circuit_hook(tracer, frame, args, kwargs, result):
    tracer.counts["circuit.nodes"] += args[0].circuit.num_nodes
    tracer.counts["circuit.compiles"] += 1


def _artifact_hook(tracer, frame, args, kwargs, result):
    tracer.counts["serialize.bytes"] += len(args[0])
    _circuit_hook(tracer, frame, (result,), kwargs, None)


def _batch_hook(tracer, frame, args, kwargs, result):
    stats = args[0].cache.stats()
    for key in ("hits", "misses", "circuit_hits", "parent_chain_hits", "worker_circuits"):
        tracer.counts["cache." + key] += stats[key]
    tracer.maxima["cache.circuit_bytes"] = max(
        tracer.maxima["cache.circuit_bytes"], stats["circuit_bytes"]
    )


def _run_layer(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method")
    return "exact.closed_form" if method in CLOSED_FORMS else "planner.run"


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.cli  # noqa: F401  (loads the modules that bind the names)
    import repro.engine.jsonl as jsonl
    from repro.approx import fpras
    from repro.compile import backend, decompose, dpdb, encode, ordering, preprocess
    from repro.compile.ddnnf_trace import TraceBuilder
    from repro.compile.sharpsat import ModelCounter
    from repro.engine import cache, fingerprint, jobs, pool
    from repro.exact import planner
    from repro.io import databases, queries

    function = tracer.patch_function
    function(databases.parse_database, "io.parse")
    function(queries.parse_query, "io.parse")
    function(jsonl.read_jobs, "io.parse", generator=True)
    function(planner.plan, "planner.plan", _plan_hook)
    function(dpdb.dpdb_probe, "planner.probe", _probe_hook)
    function(planner.run, _run_layer)
    function(encode.compile_valuation_cnf, "encode", _encode_hook)
    function(encode.compile_completion_cnf, "encode", _encode_hook)
    function(preprocess.preprocess_store, "preprocess")
    function(ordering.branching_order_masks, "ordering", _ordering_hook)
    function(ordering.refined_elimination_masks, "ordering", _ordering_hook)
    function(ordering.primal_masks, "ordering")
    function(dpdb.count_models_dpdb, "dpdb")
    function(decompose.decompose_from_elimination, "dpdb")
    function(decompose.decompose, "dpdb")
    tracer.patch_method(ModelCounter, "__init__", "search")
    tracer.patch_method(ModelCounter, "count", "search", _search_hook)
    for cls in (backend.ValuationCircuit, backend.CompletionCircuit):
        tracer.patch_method(cls, "__init__", "circuit.compile", _circuit_hook)
        tracer.patch_method(cls, "compile_componentwise", "circuit.condition")
        tracer.patch_method(cls, "to_bytes", "serialize")
        for attribute in ("weighted_count", "weighted_count_many"):
            tracer.patch_method(cls, attribute, "circuit.pass")
    tracer.patch_method(backend.ValuationCircuit, "marginals", "circuit.pass")
    tracer.patch_method(backend.ValuationCircuit, "marginals_many", "circuit.pass")
    tracer.patch_method(backend.ValuationCircuit, "condition", "circuit.condition")
    tracer.patch_method(backend.CompletionCircuit, "fact_marginals", "circuit.pass")
    tracer.patch_method(backend.CompletionCircuit, "condition_facts", "circuit.condition")
    tracer.patch_method(TraceBuilder, "build", "circuit.compile")
    function(backend.artifact_from_bytes, "serialize", _artifact_hook)
    for name in ("fingerprint_job", "fingerprint_instance", "fingerprint_derivation"):
        function(getattr(fingerprint, name), "fingerprint")
    for attribute in ("get", "put", "get_circuit", "put_circuit",
                      "get_ancestor_circuit", "get_component", "put_component"):
        tracer.patch_method(cache.CountCache, attribute, "cache")
    function(jobs.execute_job, "engine")
    function(jobs.needs_circuit, "engine")
    function(jobs.instance_fingerprint_of, "engine")
    tracer.patch_method(pool.BatchEngine, "_execute", "pool")
    function(fpras.fpras_count_valuations, "approx")
    tracer.patch_method(pool.BatchEngine, "run", "engine", _batch_hook)


#: Every per-layer metric: (name, unit, which direction is better).
#: ``s/op`` metrics are layer self seconds per operation of the traced pass.
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("startup.numpy_import_s", "s", "lower"),
    ("startup.s", "s/op", "lower"),
    ("io.parse_s", "s/op", "lower"),
    ("planner.plan_s", "s/op", "lower"),
    ("planner.probe_s", "s/op", "lower"),
    ("planner.probe_useful_ratio", "ratio", "higher"),
    ("planner.regret_geomean", "ratio", "lower"),
    ("dispatch.s", "s/op", "lower"),
    ("exact.closed_form_s", "s/op", "lower"),
    ("encode.s", "s/op", "lower"),
    ("encode.calls", "calls/op", "lower"),
    ("encode.clauses", "clauses/op", "lower"),
    ("preprocess.s", "s/op", "lower"),
    ("ordering.s", "s/op", "lower"),
    ("ordering.width_max", "vars", "lower"),
    ("search.s", "s/op", "lower"),
    ("search.decisions", "1/op", "lower"),
    ("search.decisions_per_s", "1/s", "higher"),
    ("search.cache_hit_ratio", "ratio", "higher"),
    ("dpdb.s", "s/op", "lower"),
    ("dpdb.width_max", "vars", "lower"),
    ("dpdb.fallbacks", "count", "lower"),
    ("circuit.compile_s", "s/op", "lower"),
    ("circuit.pass_s", "s/op", "lower"),
    ("circuit.condition_s", "s/op", "lower"),
    ("circuit.nodes", "nodes", "lower"),
    ("serialize.s", "s/op", "lower"),
    ("serialize.bytes", "B/op", "lower"),
    ("fingerprint.s", "s/op", "lower"),
    ("cache.s", "s/op", "lower"),
    ("cache.memo_hit_ratio", "ratio", "higher"),
    ("cache.circuit_hits", "1/op", "higher"),
    ("cache.parent_chain_hits", "1/op", "higher"),
    ("cache.circuit_bytes", "B", "lower"),
    ("engine.s", "s/op", "lower"),
    ("pool.s", "s/op", "lower"),
    ("pool.queue_s_p50", "s", "lower"),
    ("pool.execute_s_p50", "s", "lower"),
    ("pool.worker_circuits", "1/op", "higher"),
    ("pool.serial_fallbacks", "count", "lower"),
    ("approx.s", "s/op", "lower"),
    ("search.peak_alloc_mb", "MB", "lower"),
    ("dpdb.peak_alloc_mb", "MB", "lower"),
    ("circuit.peak_alloc_mb", "MB", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
)
UNITS = {name: unit for name, unit, _better in PER_LAYER}

#: Tracer layer -> its ``s/op`` metric.
SELF_TIME_METRICS = {
    "startup": "startup.s",
    "io.parse": "io.parse_s",
    "planner.plan": "planner.plan_s",
    "planner.probe": "planner.probe_s",
    "planner.run": "dispatch.s",
    "exact.closed_form": "exact.closed_form_s",
    "encode": "encode.s",
    "preprocess": "preprocess.s",
    "ordering": "ordering.s",
    "search": "search.s",
    "dpdb": "dpdb.s",
    "circuit.compile": "circuit.compile_s",
    "circuit.pass": "circuit.pass_s",
    "circuit.condition": "circuit.condition_s",
    "serialize": "serialize.s",
    "fingerprint": "fingerprint.s",
    "cache": "cache.s",
    "engine": "engine.s",
    "pool": "pool.s",
    "approx": "approx.s",
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float, scale: float) -> dict:
    """Every per-layer metric the tracer can give, over ``ops``
    operations that took ``op_seconds`` of wall time; times are converted
    to reference seconds by ``scale`` (see ``common.Calibration``).  The
    rest read 0 until the workload fills them in."""
    counts, maxima, self_s = tracer.counts, tracer.maxima, tracer.self_s
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for layer, name in SELF_TIME_METRICS.items():
        values[name] = self_s.get(layer, 0.0) * scale / ops
    lookups = counts["search.cache_hits"] + counts["search.cache_entries"]
    values.update({
        "encode.calls": counts["encode.calls"] / ops,
        "encode.clauses": counts["encode.clauses"] / ops,
        "planner.probe_useful_ratio": _ratio(
            counts["planner.probes_useful"], counts["planner.probes_run"]),
        "ordering.width_max": maxima["ordering.width_max"],
        "dpdb.width_max": maxima["dpdb.width_max"],
        "search.decisions": counts["search.decisions"] / ops,
        "search.decisions_per_s": _ratio(
            counts["search.decisions"], self_s.get("search", 0.0) * scale),
        "search.cache_hit_ratio": _ratio(counts["search.cache_hits"], lookups),
        "circuit.nodes": _ratio(counts["circuit.nodes"], counts["circuit.compiles"]),
        "serialize.bytes": counts["serialize.bytes"] / ops,
        "cache.memo_hit_ratio": _ratio(
            counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]),
        "cache.circuit_hits": counts["cache.circuit_hits"] / ops,
        "cache.parent_chain_hits": counts["cache.parent_chain_hits"] / ops,
        "cache.circuit_bytes": maxima["cache.circuit_bytes"],
        "pool.worker_circuits": counts["cache.worker_circuits"] / ops,
        "trace.coverage": sum(self_s.values()) / op_seconds,
    })
    return {name: {"value": values[name], "unit": UNITS[name]} for name in values}


def memory_metrics(memory: "MemoryProbe") -> dict:
    return {
        "%s.peak_alloc_mb" % layer: {
            "value": memory.peaks.get(layer, 0) / (1024.0 * 1024.0), "unit": "MB"}
        for layer in ("search", "dpdb", "circuit")
    }


def fallback_count() -> int:
    """The program's own ``dpdb.fallback`` counter (always-on obs layer)."""
    from repro.obs import default_registry

    return default_registry().counter("dpdb.fallback").value


# -- memory ----------------------------------------------------------------


class MemoryProbe:
    """Peak tracemalloc allocation inside the search, DP and circuit
    entry points (bytes above the allocation level at entry)."""

    def __init__(self) -> None:
        self.peaks: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, original, layer):
        probe = self

        def wrapper(*args, **kwargs):
            current, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frame = [current, 0]
            probe._stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                probe._stack.pop()
                peak = max(tracemalloc.get_traced_memory()[1], frame[1])
                probe.peaks[layer] = max(probe.peaks[layer], peak - frame[0])
                if probe._stack:
                    probe._stack[-1][1] = max(probe._stack[-1][1], peak)

        return wrapper

    def install(self) -> None:
        from repro.compile import backend, dpdb
        from repro.compile.sharpsat import ModelCounter

        targets = [
            (ModelCounter, "count", "search"),
            (dpdb, "count_models_dpdb", "dpdb"),
            (backend.ValuationCircuit, "__init__", "circuit"),
            (backend.CompletionCircuit, "__init__", "circuit"),
        ]
        for owner, attribute, layer in targets:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(original, layer))
            self._patches.append((owner, attribute, original))
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
