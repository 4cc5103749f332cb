"""Regenerate ``expected.json``: the chorded-cycle catalogue and its answers.

Chorded cycles (``scaling_hard_val_instance`` with 3 colours) have no
closed form, so their answers are committed.  Each candidate is counted
by two method families that must agree:

* the program's trail search (``solve(..., method='lineage')``), which
  also gives the decision count the catalogue is stratified by;
* this file's own variable elimination over the colouring graph (proper
  colourings, min-degree order), which shares no code with the program.

A candidate is kept when ``auto`` plans a search method, the search makes
300 to 6000 decisions, and some proper colouring exists (a nonzero model
count, so the search is not refuted early).

The interval-overlap ``#Comp`` instances (``scaling_hard_comp_instance``)
are listed too, answered by the search and by ``oracle.interval_comp``.
Every entry records its search seconds on the machine that generated the
file (best of two): the workloads stratify instances by it, so that each
round of a run sees the same mix of difficulty.  Run from the repository
root::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SIZES = (28, 32, 36, 40)
CHORD_PROBABILITIES = (0.02, 0.03)
SEEDS = range(40)
COLOURS = 3
MIN_DECISIONS, MAX_DECISIONS = 300, 6000
COMP_SIZES = (18, 21, 24)
COMP_SEEDS = range(30)


def proper_colourings(edges, vertices, k: int) -> int:
    """Proper ``k``-colourings by variable elimination over the graph."""
    factors = [((u, v), {(a, b): 1 for a in range(k) for b in range(k) if a != b})
               for u, v in edges]
    remaining = set(vertices)
    result = k ** len(remaining - {x for e in edges for x in e})
    remaining &= {x for e in edges for x in e}
    while remaining:
        def degree(x):
            return len({y for scope, _t in factors if x in scope for y in scope})

        vertex = min(remaining, key=lambda x: (degree(x), x))
        remaining.discard(vertex)
        touching = [f for f in factors if vertex in f[0]]
        factors = [f for f in factors if vertex not in f[0]]
        scope = sorted({y for s, _t in touching for y in s} - {vertex})
        table = {}
        for assignment in itertools.product(range(k), repeat=len(scope)):
            values = dict(zip(scope, assignment))
            total = 0
            for colour in range(k):
                values[vertex] = colour
                product = 1
                for s, t in touching:
                    product *= t.get(tuple(values[y] for y in s), 0)
                    if not product:
                        break
                total += product
            table[assignment] = total
        if scope:
            factors.append((tuple(scope), table))
        else:
            result *= table[()]
    for _scope, table in factors:
        result *= table[()]
    return result


def _timed(solve, *args, **kwargs):
    import time

    best, answer = None, None
    for _ in range(2):
        started = time.perf_counter()
        answer = solve(*args, **kwargs)
        seconds = time.perf_counter() - started
        best = seconds if best is None else min(best, seconds)
    return answer, best


def main() -> int:
    from repro import solve
    from repro.compile.dpdb import dpdb_probe, probe_cache_clear
    from repro.db.valuation import count_total_valuations
    from repro.exact.planner import plan
    from repro.workloads.generators import (
        scaling_hard_comp_instance,
        scaling_hard_val_instance,
    )

    from oracle import interval_comp

    entries = []
    for size, p, seed in itertools.product(SIZES, CHORD_PROBABILITIES, SEEDS):
        db, query = scaling_hard_val_instance(size, COLOURS, p, seed)
        probe_cache_clear()
        chosen = plan("val", db, query).chosen
        if chosen != "lineage":
            continue
        answer, seconds = _timed(solve, "val", db, query, method="lineage")
        decisions = answer.stats["counters"].get("sharpsat.decisions", 0)
        total = count_total_valuations(db)
        if not MIN_DECISIONS <= decisions <= MAX_DECISIONS or answer.count == total:
            continue
        edges = sorted({
            tuple(sorted((fact.terms[0].label[1], fact.terms[1].label[1])))
            for fact in db.facts
        })
        proper = proper_colourings(edges, range(size), COLOURS)
        if total - proper != answer.count:
            print("MISMATCH", size, p, seed, file=sys.stderr)
            return 1
        entries.append({
            "key": "%d,%d,%.3f,%d" % (size, COLOURS, p, seed),
            "size": size, "k": COLOURS, "p": p, "seed": seed,
            "answer": str(answer.count),
            "decisions": decisions,
            "width": dpdb_probe("val", db, query).width,
            "seconds": round(seconds, 4),
        })
        print(entries[-1]["key"], decisions, flush=True)
    comps = []
    for size, seed in itertools.product(COMP_SIZES, COMP_SEEDS):
        db, query = scaling_hard_comp_instance(size, 2, seed)
        answer, seconds = _timed(solve, "comp", db, query, method="lineage")
        s_values = [int(f.terms[0][1:]) for f in db.facts if f.relation == "S"]
        if answer.count != interval_comp(size, 2, s_values):
            print("MISMATCH comp", size, seed, file=sys.stderr)
            return 1
        comps.append({
            "key": "%d,%d" % (size, seed), "size": size, "seed": seed,
            "answer": str(answer.count),
            "decisions": answer.stats["counters"].get("sharpsat.decisions", 0),
            "seconds": round(seconds, 4),
        })
    document = {
        "about": (
            "Chorded-cycle colourings for the hard-cells and batch-mixed "
            "workloads: #Val(R(x,x)) counted by the trail search and by "
            "an independent variable elimination, which agreed on every "
            "entry; interval-overlap #Comp instances counted by the search "
            "and by oracle.interval_comp.  Regenerate with "
            "perfbench/make_expected.py."
        ),
        "chorded_cycles": entries,
        "interval_comp": comps,
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0)
        handle.write("\n")
    print("%d chorded, %d comp entries" % (len(entries), len(comps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
