"""Differential tests for ``method='nulldp'`` (null elimination for #Val).

Every answer is checked against brute force, the trail search
(``lineage``) and the boolean tree-decomposition DP (``dpdb``) on
randomized instances: self-joins, constants and UCQs; uniform,
non-uniform and singleton domains; nulls outside every match; empty and
constant-true lineages; totals past int64; and the pure-Python kernel
with numpy blocked.  None of it needs numpy.
"""

from __future__ import annotations

from math import prod
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.compile import nulldp
from repro.compile.backend import count_valuations_lineage
from repro.compile.dpdb import count_valuations_dpdb, probe_cache_clear
from repro.compile.nulldp import (
    count_valuations_nulldp,
    nulldp_probe,
)
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_valuations_brute
from repro.exact.planner import plan
from repro.io.queries import parse_query
from repro.obs import capture
from repro.util.optional import numpy_or_none
from repro.workloads.generators import scaling_hard_val_instance
from tests.conftest import small_incomplete_dbs

QUERIES = [
    "R(x, x)",
    "R(x, y), R(y, x)",
    "R(x, y), R(y, z)",
    "R(x, y), S(y)",
    "R(x, 'a'), S(x)",
    "R('a', x), R(x, 'b')",
    "R(x, x) | S('a')",
    "R(x, y), S(x) | R('b', y)",
    "S(x), S(y), R(x, y)",
]

instances = st.tuples(
    small_incomplete_dbs(schema={"R": 2, "S": 1}, max_facts=4, max_nulls=4),
    st.sampled_from(QUERIES).map(parse_query),
)


def _fresh(db, query):
    probe_cache_clear()
    return count_valuations_nulldp(db, query)


def _chain(
    length: int, colours: int, tag: str = "p"
) -> tuple[IncompleteDatabase, object]:
    """``R(x,x)`` over a path of ``length`` nulls: a proper-colouring count
    of ``colours * (colours-1)^(length-1)`` falsifying valuations."""
    nulls = [Null((tag, i)) for i in range(length)]
    facts = [Fact("R", [nulls[i], nulls[i + 1]]) for i in range(length - 1)]
    domain = ["c%d" % i for i in range(colours)]
    return IncompleteDatabase.uniform(facts, domain), parse_query("R(x, x)")


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(instances)
    def test_agrees_with_brute_lineage_and_dpdb(self, instance):
        db, query = instance
        expected = count_valuations_brute(db, query)
        assert _fresh(db, query) == expected
        assert count_valuations_lineage(db, query) == expected
        assert count_valuations_dpdb(db, query) == expected

    @settings(max_examples=60, deadline=None)
    @given(instances)
    def test_numpy_blocked_path_is_exact(self, instance):
        db, query = instance
        with mock.patch.object(nulldp, "numpy_or_none", lambda: None):
            assert _fresh(db, query) == count_valuations_brute(db, query)

    def test_hard_cycles_match_lineage(self):
        for size in (6, 10, 14):
            db, query = scaling_hard_val_instance(size, chord_probability=0.3, seed=size)
            assert _fresh(db, query) == count_valuations_lineage(db, query)


class TestCornerCases:
    def test_empty_lineage_counts_zero(self):
        db, _ = _chain(3, 3)
        query = parse_query("T(x)")
        assert nulldp_probe(db, query).answer == 0
        assert _fresh(db, query) == 0 == count_valuations_brute(db, query)

    def test_constant_true_lineage_counts_every_valuation(self):
        nulls = [Null(i) for i in range(3)]
        db = IncompleteDatabase(
            [Fact("R", [nulls[0], nulls[1]]), Fact("S", ["a"]), Fact("S", [nulls[2]])],
            dom={nulls[0]: ["a", "b"], nulls[1]: ["a", "b", "c"], nulls[2]: ["a"]},
        )
        query = parse_query("S('a')")
        assert _fresh(db, query) == 6 == count_valuations_brute(db, query)

    def test_nulls_in_no_match_contribute_a_free_factor(self):
        db, query = _chain(4, 3)
        extra = Null("loose")
        widened = IncompleteDatabase(
            list(db.facts) + [Fact("S", [extra])],
            dom={**{null: db.domain_of(null) for null in db.nulls}, extra: ["a", "b"]},
        )
        assert nulldp_probe(widened, query).free == 2
        assert _fresh(widened, query) == 2 * _fresh(db, query)
        assert _fresh(widened, query) == count_valuations_brute(widened, query)

    def test_singleton_and_mixed_domains(self):
        nulls = [Null(i) for i in range(4)]
        facts = [Fact("R", [nulls[i], nulls[(i + 1) % 4]]) for i in range(4)]
        db = IncompleteDatabase(
            facts,
            dom={
                nulls[0]: ["a"],
                nulls[1]: ["a", "b"],
                nulls[2]: ["a", "b", "c"],
                nulls[3]: ["b"],
            },
        )
        for text in ("R(x, x)", "R(x, 'a')", "R(x, y), R(y, 'b')"):
            query = parse_query(text)
            assert _fresh(db, query) == count_valuations_brute(db, query)

    def test_totals_beyond_int64_stay_exact(self):
        db, query = _chain(40, 5)
        expected = 5**40 - 5 * 4**39
        assert expected > 1 << 63
        assert _fresh(db, query) == expected
        assert count_valuations_lineage(db, query) == expected
        probe = nulldp_probe(db, query)
        path, _ = nulldp._solve(probe.elimination)
        assert path == ("object+guard" if numpy_or_none() else "python")
        with mock.patch.object(nulldp, "numpy_or_none", lambda: None):
            assert _fresh(db, query) == expected

    def test_guard_pass_keeps_int64_when_counts_stay_small(self):
        db, query = _chain(30, 5)
        probe = nulldp_probe(db, query)
        assert probe.elimination.bound >= 1 << 62
        path, falsifying = nulldp._solve(probe.elimination)
        assert path == ("int64+guard" if numpy_or_none() else "python")
        assert falsifying == 5 * 4**29

    def test_roots_multiply_past_int64(self):
        # Two components whose counts each fit int64 (the guard keeps the
        # int64 tables) but whose product does not.
        first, query = _chain(30, 5)
        second, _ = _chain(30, 5, tag="q")
        db = IncompleteDatabase.uniform(
            list(first.facts) + list(second.facts), ["c%d" % i for i in range(5)]
        )
        expected = 5**60 - (5 * 4**29) ** 2
        assert _fresh(db, query) == expected
        path, _ = nulldp._solve(nulldp_probe(db, query).elimination)
        assert path == ("int64+guard" if numpy_or_none() else "python")

    def test_forced_run_past_the_hard_cap_delegates_to_lineage(self):
        db, query = scaling_hard_val_instance(8, seed=2)
        probe_cache_clear()
        with mock.patch.object(nulldp, "NULLDP_HARD_CELL_CAP", 1):
            with capture() as captured:
                answer = count_valuations_nulldp(db, query)
        assert answer == count_valuations_lineage(db, query)
        assert captured.counters.get("nulldp.fallback", 0) == 1


class TestValueCompression:
    DOMAIN = ["v%d" % i for i in range(40)] + ["a", "b"]

    def _instance(self, seed: int, length: int = 3) -> IncompleteDatabase:
        import random

        rng = random.Random(seed)
        nulls = [Null(("n", i)) for i in range(length)]
        facts = [Fact("R", [nulls[i], nulls[i + 1]]) for i in range(length - 1)]
        facts += [
            Fact("R", [nulls[-1], "a"]),
            Fact("S", ["b"]),
            Fact("S", [rng.choice(self.DOMAIN)]),
        ]
        return IncompleteDatabase.uniform(facts, self.DOMAIN)

    def test_compressed_answer_matches_lineage_and_brute(self):
        query = parse_query("R(x, 'a'), S(x)")
        for seed in range(3):
            db = self._instance(seed, length=2)
            expected = count_valuations_brute(db, query)
            assert _fresh(db, query) == expected
            assert count_valuations_lineage(db, query) == expected
            longer = self._instance(seed, length=4)
            assert _fresh(longer, query) == count_valuations_lineage(longer, query)

    def test_cells_grow_with_constants_not_the_domain(self):
        db = self._instance(0)
        query = parse_query("R(x, 'a'), S(x)")
        probe_cache_clear()
        probe = nulldp_probe(db, query)
        # An axis holds the values a match names for its null ('a', 'b'
        # and the drawn S constant at most) plus one bucket for the rest.
        assert max(probe.elimination.sizes) <= 4
        uncompressed = sum(
            prod(len(self.DOMAIN) for _ in bag) for bag in probe.elimination.axes
        )
        row = next(
            item for item in plan("val", db, query).considered
            if item.method == "nulldp"
        )
        assert row.detail["cells"] == probe.cells < uncompressed


class TestObservability:
    def test_eliminate_span_carries_cells_and_scope(self):
        db, query = scaling_hard_val_instance(10, seed=1)
        probe_cache_clear()
        probe = nulldp_probe(db, query)
        with capture() as captured:
            count_valuations_nulldp(db, query)
        spans = [
            node
            for root in captured.roots
            for node, _depth in root.walk()
            if node.name == "nulldp.eliminate"
        ]
        assert [(node.fields["cells"], node.fields["scope_max"]) for node in spans] == [
            (probe.cells, probe.scope_max)
        ]
        assert probe.detail() == {
            "cells": probe.cells,
            "scope_max": probe.scope_max,
            "cell_limit": nulldp.NULLDP_CELL_LIMIT,
        }
