"""Seeded inputs for the three workloads, each paired with its oracle answer.

Every instance is built from the program's own scaling generators
(:mod:`repro.workloads.generators`), so the benchmark measures the
families the paper's Table 1 cells are stated for.  Database files and
JSONL streams are written by :func:`spec_text` with string null names:
``repro.io.databases.format_database`` raises ``TypeError`` on the
generators' tuple-labelled nulls (``"?%s" % term.label``), a known defect
recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random

import oracle

COLOURS = 3

# -- database text -------------------------------------------------------


def to_spec(db) -> dict:
    """Plain description of ``db`` with nulls renamed ``?n0, ?n1, ...``."""
    from repro.db.terms import is_null

    names = {null: "?n%d" % i for i, null in enumerate(db.nulls)}

    def term(t):
        return names[t] if is_null(t) else str(t)

    facts = sorted(
        (fact.relation, [term(t) for t in fact.terms]) for fact in db.facts
    )
    spec = {"facts": facts}
    if db.is_uniform:
        spec["domain"] = sorted(map(str, db.uniform_domain))
    else:
        spec["dom"] = {
            names[null]: sorted(map(str, db.domain_of(null))) for null in db.nulls
        }
    return spec


def spec_text(spec: dict) -> str:
    """The ``repro.io.databases`` text of a spec."""
    lines = []
    if "domain" in spec:
        lines.append("domain " + " ".join(spec["domain"]))
    else:
        for null, values in spec["dom"].items():
            lines.append("null %s: %s" % (null[1:], " ".join(values)))
    for relation, terms in spec["facts"]:
        lines.append("%s(%s)" % (relation, ", ".join(terms)))
    return "\n".join(lines) + "\n"


def cycle_spec(n: int) -> dict:
    """The colouring database of a plain ``n``-cycle over ``c0..c2``,
    node ``v`` being the null ``?u<v>``."""
    facts = []
    for v in range(n):
        a, b = "?u%d" % v, "?u%d" % ((v + 1) % n)
        facts += [("R", [a, b]), ("R", [b, a])]
    return {"facts": facts, "domain": ["c%d" % c for c in range(COLOURS)]}


# -- hard-cells ----------------------------------------------------------

#: Each round draws one catalogue instance per stratum (strata split the
#: catalogue by its recorded search seconds), so every round and every
#: seed sees the same mix of difficulty.
CHORDED_STRATA = 18
COMP_STRATA = 6
#: The slowest few catalogue entries (about 3%) are left out of the draws,
#: so that one instance cannot decide a run's tail latency.
CHORDED_MAX_SECONDS = 0.6
COMP_MAX_SECONDS = 0.3
#: The three grid shapes: width 10 (auto picks dpdb), width 14 (auto picks
#: the trail search while dpdb is ~3x faster) and width 19 (past the dpdb
#: hard cap of 18: a forced dpdb falls back to search).
GRIDS = ((3, 16), (4, 12), (5, 8))


def strata(entries, count: int) -> list:
    """``entries`` split into ``count`` equal groups by recorded seconds."""
    ordered = sorted(entries, key=lambda e: (e["seconds"], e["key"]))
    per = len(ordered) / count
    return [ordered[int(i * per): int((i + 1) * per)] for i in range(count)]


class HardCells:
    """The seeded ``hard-cells`` corpus, one round at a time."""

    def __init__(self, seed: int, catalogue: dict) -> None:
        self.seed = seed
        rng = random.Random("hard-cells/%d" % seed)
        self.chorded = strata(
            [e for e in catalogue["chorded_cycles"] if e["seconds"] <= CHORDED_MAX_SECONDS],
            CHORDED_STRATA,
        )
        self.comp = strata(
            [e for e in catalogue["interval_comp"] if e["seconds"] <= COMP_MAX_SECONDS],
            COMP_STRATA,
        )
        for stratum in self.chorded + self.comp:
            rng.shuffle(stratum)

    def round(self, index: int) -> list:
        """The operations of round ``index``: ``(label, problem, db,
        query, expected, shape)`` tuples in a seeded order."""
        from repro.workloads.generators import (
            scaling_grid_val_instance,
            scaling_hard_comp_instance,
            scaling_hard_val_instance,
        )

        ops = []
        for number, stratum in enumerate(self.chorded):
            entry = stratum[index % len(stratum)]
            db, query = scaling_hard_val_instance(
                entry["size"], entry["k"], entry["p"], entry["seed"]
            )
            ops.append((
                "chorded-%s" % entry["key"], "val", db, query,
                int(entry["answer"]), {"family": "chorded", "stratum": number},
            ))
        for rows, cols in GRIDS:
            db, query = scaling_grid_val_instance(rows, cols, COLOURS)
            ops.append((
                "grid-%dx%d" % (rows, cols), "val", db, query,
                oracle.grid_improper(rows, cols, COLOURS),
                {"family": "grid"},
            ))
        for number, stratum in enumerate(self.comp):
            entry = stratum[index % len(stratum)]
            db, query = scaling_hard_comp_instance(entry["size"], 2, entry["seed"])
            s_values = sorted(
                int(fact.terms[0][1:]) for fact in db.facts if fact.relation == "S"
            )
            ops.append((
                "comp-%s" % entry["key"], "comp", db, query,
                oracle.interval_comp(entry["size"], 2, s_values),
                {"family": "comp", "stratum": number},
            ))
        random.Random("hard-cells/%d/%d" % (self.seed, index)).shuffle(ops)
        return ops


# -- tractable-cli -------------------------------------------------------

#: Each round writes one file per family and size: two tiny ones, where
#: interpreter start-up dominates (and where the median falls), and three
#: mid-size ones, where planning currently dominates (and where the tail
#: falls).
CLI_FAMILIES = (
    ("codd", "val", "R(x,x), S(y,z)"),
    ("single-occurrence", "val", "R(x,y), S(z)"),
    ("uniform", "val", "R(x), S(x)"),
    ("uniform-unary", "comp", "R(x), S(x)"),
)
CLI_SIZES = (8, 16, 50, 100, 160)


def _cli_instance(family: str, facts: int, seed: int):
    from repro.workloads.generators import (
        scaling_codd_instance,
        scaling_single_occurrence_instance,
        scaling_uniform_unary_comp_instance,
        scaling_uniform_val_instance,
    )

    if family == "codd":
        return scaling_codd_instance(facts // 2, seed)[0]
    if family == "single-occurrence":
        return scaling_single_occurrence_instance(facts // 2, seed)[0]
    if family == "uniform":
        return scaling_uniform_val_instance(max(1, facts * 3 // 8), 4, seed)[0]
    return scaling_uniform_unary_comp_instance(max(1, (facts - 1) * 4 // 5), 6, seed)[0]


def cli_round(seed: int, index: int, workdir: str) -> list:
    """Write round ``index``'s database files; return the operations as
    dicts (path, mode, query, family, facts, expected)."""
    rng = random.Random("tractable-cli/%d/%d" % (seed, index))
    ops = []
    for family, mode, query in CLI_FAMILIES:
        for facts in CLI_SIZES:
            spec = to_spec(_cli_instance(family, facts, rng.randrange(1 << 30)))
            path = os.path.join(
                workdir, "r%d-%s-%d.idb" % (index, family, facts)
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec_text(spec))
            ops.append({
                "path": path, "mode": mode, "query": query, "family": family,
                "facts": len(spec["facts"]),
                "expected": oracle.tractable_answer(family, spec),
            })
    rng.shuffle(ops)
    return ops


# -- batch-mixed ---------------------------------------------------------


def _random_weights(rng, n):
    """Integer weight tables for a random half of the cycle's nulls:
    ``(json form, per-vertex tables for the oracle)``."""
    record, tables = {}, []
    for v in range(n):
        table = {"c%d" % c: 1 for c in range(COLOURS)}
        if rng.random() < 0.5:
            table = {"c%d" % c: rng.randint(1, 4) for c in range(COLOURS)}
            record["u%d" % v] = table
        tables.append(table)
    return record, tables


def batch_file(seed: int, index: int, workdir: str, catalogue: dict):
    """Write one JSONL job stream; return ``(path, checks)`` where
    ``checks`` maps each job label to ``(kind, expected)``."""
    rng = random.Random("batch-mixed/%d/%d" % (seed, index))
    lines, checks = [], {}
    plain = {"c%d" % c: 1 for c in range(COLOURS)}

    def add(label, record, kind, expected):
        record["label"] = label
        lines.append(json.dumps(record))
        checks[label] = (kind, expected)

    for base in ("A", "B"):
        n = rng.randint(24, 32)
        path = os.path.join(workdir, "b%d-%s.idb" % (index, base))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec_text(cycle_spec(n)))
        job = {"db": os.path.basename(path), "query": "R(x,x)"}
        uniform = [dict(plain) for _ in range(n)]
        add(base + "-val", dict(job, problem="val"), "exact",
            oracle.cycle_improper(n, COLOURS))
        weights, tables = _random_weights(rng, n)
        add(base + "-weighted", dict(job, problem="val-weighted", weights=weights),
            "exact", oracle.improper_weighted(tables))
        add(base + "-marginals", dict(job, problem="marginals"), "marginals",
            oracle.marginals_weighted(uniform))
        rows, expected_rows = [], []
        for _ in range(2):
            row, row_tables = _random_weights(rng, n)
            rows.append(row)
            expected_rows.append(oracle.improper_weighted(row_tables))
        rows.append(None)
        expected_rows.append(oracle.cycle_improper(n, COLOURS))
        add(base + "-sweep", dict(job, problem="sweep", weights=rows), "exact",
            expected_rows)
        # Updates against the base: conditioning (resolve, then a chain
        # adding a restriction) and a splice (deleting one edge).
        pin, other, cut = rng.sample(range(n), 3)
        colour = "c%d" % rng.randrange(COLOURS)
        kept = sorted(rng.sample(sorted(plain), 2))
        resolve = ["resolve", "u%d=%s" % (pin, colour)]
        restrict = ["restrict", "u%d=%s" % (other, ",".join(kept))]
        pinned = [dict(t) for t in uniform]
        pinned[pin] = {colour: 1}
        add(base + "-resolve", dict(job, problem="update", deltas=[resolve]),
            "exact", oracle.improper_weighted(pinned))
        chained = [dict(t) for t in pinned]
        chained[other] = {c: 1 for c in kept}
        add(base + "-chain", dict(job, problem="update", deltas=[resolve, restrict]),
            "exact", oracle.improper_weighted(chained))
        a, b = "?u%d" % cut, "?u%d" % ((cut + 1) % n)
        delete = ["delete", "R(%s, %s); R(%s, %s)" % (a, b, b, a)]
        add(base + "-splice", dict(job, problem="update", deltas=[delete]),
            "exact", oracle.improper_weighted(uniform, missing={cut}))
        # Repeats of earlier questions: answered by the memo layer.
        add(base + "-weighted-again",
            dict(job, problem="val-weighted", weights=weights), "exact",
            oracle.improper_weighted(tables))
        add(base + "-resolve-again", dict(job, problem="update", deltas=[resolve]),
            "exact", oracle.improper_weighted(pinned))

    # Distinct hard instances, compiled to circuits in pool workers and
    # shipped back serialized.
    groups = strata(catalogue["chorded_cycles"], CHORDED_STRATA)
    for number in range(2):
        entry = rng.choice(groups[4 + 4 * number])
        from repro.workloads.generators import scaling_hard_val_instance

        db, _query = scaling_hard_val_instance(
            entry["size"], entry["k"], entry["p"], entry["seed"]
        )
        add("hard-%d" % number, {
            "problem": "val", "method": "circuit", "query": "R(x,x)",
            "db_text": spec_text(to_spec(db)),
        }, "exact", int(entry["answer"]))

    n = rng.randint(12, 16)
    add("approx", {
        "problem": "approx-val", "query": "R(x,x)",
        "db_text": spec_text(cycle_spec(n)), "epsilon": 0.4, "delta": 0.1,
        "seed": rng.randrange(1 << 30),
    }, "approx", (oracle.cycle_improper(n, COLOURS), 0.4))

    for family, size, query in (
        ("codd", 24, "R(x,x), S(y,z)"),
        ("single-occurrence", 24, "R(x,y), S(z)"),
    ):
        spec = to_spec(_cli_instance(family, size, rng.randrange(1 << 30)))
        add("closed-" + family, {
            "problem": "val", "query": query, "db_text": spec_text(spec),
        }, "exact", oracle.tractable_answer(family, spec))

    rng.shuffle(lines)
    path = os.path.join(workdir, "b%d.jsonl" % index)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path, checks
