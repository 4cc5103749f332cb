"""The planner prices only methods that can still be chosen.

Under ``auto`` an applicable closed form makes every non-polynomial method
moot (the tier lattice puts it below all of them), the rest are priced in
floor order until the best cost is below the next floor (a fitting
``nulldp`` spares the dpdb width probe), ``poly`` never prices a
non-polynomial method, and a forced method prices only itself and its
fallback.  Skipped methods stay in the plan as ``not evaluated`` rows.
The differential class checks the shortcut never changes what ``auto``
picks: its choice is the argmin of cost over every entry priced directly.
"""

from __future__ import annotations

import random

import pytest

from repro.compile import dpdb, nulldp
from repro.core.query import CustomQuery
from repro.db.deltas import ResolveNull
from repro.exact import planner
from repro.exact.dispatch import solve
from repro.io.queries import parse_query
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_block_comp_instance,
    scaling_codd_instance,
    scaling_grid_val_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_single_occurrence_instance,
    scaling_uniform_unary_comp_instance,
    scaling_uniform_val_instance,
)

#: (instance, problem, the closed form that serves it) per tractable cell.
TRACTABLE = [
    pytest.param(scaling_codd_instance(12, seed=3), "val", "codd", id="codd"),
    pytest.param(
        scaling_single_occurrence_instance(12, seed=3), "val",
        "single-occurrence", id="single-occurrence",
    ),
    pytest.param(
        scaling_uniform_val_instance(12, seed=3), "val", "uniform",
        id="uniform-val",
    ),
    pytest.param(
        scaling_uniform_val_instance(12, seed=3), "comp", "uniform-unary",
        id="uniform-comp",
    ),
    pytest.param(
        scaling_uniform_unary_comp_instance(12, seed=3), "comp",
        "uniform-unary", id="uniform-unary",
    ),
]


def _probes_cached() -> int:
    return (
        dpdb._probe_val.cache_info().currsize
        + dpdb._probe_comp.cache_info().currsize
        + nulldp.nulldp_probe.cache_info().currsize
    )


def _direct_argmin(problem, db, query):
    """``auto``'s choice with every entry priced, registration order
    breaking ties (the pre-shortcut planner)."""
    best = None
    for entry in planner.methods_for(problem):
        applicable, _reason = entry.applies(db, query)
        if not applicable:
            continue
        cost = entry.cost(db, query)
        if best is None or cost < best[0]:
            best = (cost, entry.name)
    return best[1] if best else None


class TestTractableCellsSkipTheProbe:
    @pytest.mark.parametrize("instance, problem, closed_form", TRACTABLE)
    @pytest.mark.parametrize("request_", ["auto", "poly", "forced"])
    def test_chosen_is_polynomial_and_no_probe_runs(
        self, instance, problem, closed_form, request_
    ):
        db, query = instance
        method = closed_form if request_ == "forced" else request_
        dpdb.probe_cache_clear()
        built = planner.plan(problem, db, query, method)
        assert built.chosen is not None
        assert planner._REGISTRY[problem][built.chosen].polynomial
        if request_ != "poly":
            assert built.chosen == closed_form
        answer = solve(problem, db, query, method=method)
        assert answer.method == built.chosen
        assert _probes_cached() == 0

    @pytest.mark.parametrize("instance, problem, closed_form", TRACTABLE)
    def test_moot_methods_are_listed_not_priced(
        self, instance, problem, closed_form
    ):
        db, query = instance
        built = planner.plan(problem, db, query, "auto")
        rows = {item.method: item for item in built.considered}
        assert [item.method for item in built.considered] == [
            entry.name for entry in planner.methods_for(problem)
        ]
        for entry in planner.methods_for(problem):
            row = rows[entry.name]
            if entry.polynomial:
                assert not row.reason.startswith("not evaluated")
                continue
            assert not row.applicable
            assert row.cost is None and row.detail is None
            assert row.reason == (
                "not evaluated: polynomial method %r applies" % built.chosen
            )
        assert "not evaluated" in built.explain()

    def test_poly_never_prices_non_polynomial_methods(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        dpdb.probe_cache_clear()
        built = planner.plan("val", db, query, "poly")
        assert built.chosen is None and "#P-hard" in built.error
        for item in built.considered:
            if not item.polynomial:
                assert item.cost is None
                assert item.reason.startswith("not evaluated")
        assert _probes_cached() == 0


class TestForcedMethods:
    def test_forced_lineage_on_a_tractable_cell_is_priced(self):
        db, query = scaling_codd_instance(12, seed=3)
        dpdb.probe_cache_clear()
        built = planner.plan("val", db, query, "lineage")
        assert built.chosen == "lineage"
        rows = {item.method: item for item in built.considered}
        assert rows["lineage"].applicable
        assert rows["lineage"].cost is not None
        for name, row in rows.items():
            if name != "lineage":
                assert row.reason == "not evaluated: request forces 'lineage'"
                assert row.cost is None
        assert _probes_cached() == 0

    def test_forced_dpdb_still_probes(self):
        db, query = scaling_codd_instance(12, seed=3)
        dpdb.probe_cache_clear()
        built = planner.plan("val", db, query, "dpdb")
        assert built.chosen == "dpdb"
        row = next(item for item in built.considered if item.method == "dpdb")
        assert "width_limit" in row.detail
        assert _probes_cached() == 1

    def test_forced_fallback_prices_the_fallback(self):
        db, _ = scaling_hard_val_instance(6, seed=1)
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        built = planner.plan("val", db, opaque, "lineage")
        assert built.chosen == "brute"
        rows = {item.method: item for item in built.considered}
        assert not rows["lineage"].applicable
        assert "(U)CQs" in rows["lineage"].reason
        assert rows["brute"].applicable and rows["brute"].cost is not None
        assert rows["circuit"].reason.startswith("not evaluated")


def _random_instances(count=40, seed=11):
    rng = random.Random(seed)
    queries = [
        "R(x, y), S(z)",
        "R(x, x), S(y)",
        "R(x, y), S(y)",
        "R(x, y), S(x)",
        "R(x, y), R(y, z)",
        "R(x, a), S(x)",
    ]
    for index in range(count):
        db = random_incomplete_db(
            {"R": 2, "S": 1},
            seed=rng.randrange(10**6),
            num_nulls=rng.randint(1, 4),
            domain_size=rng.randint(1, 3),
            uniform=rng.random() < 0.5,
            codd=rng.random() < 0.3,
        )
        yield "val", db, parse_query(rng.choice(queries))
        comp_query = rng.choice(queries + [None])
        yield "comp", db, parse_query(comp_query) if comp_query else None


SCALING = [
    ("val", *scaling_codd_instance(6, seed=1)),
    ("val", *scaling_single_occurrence_instance(6, seed=1)),
    ("val", *scaling_uniform_val_instance(6, seed=1)),
    ("comp", *scaling_uniform_val_instance(6, seed=1)),
    ("comp", *scaling_uniform_unary_comp_instance(6, seed=1)),
    ("val", *scaling_hard_val_instance(6, seed=1)),
    ("val", *scaling_grid_val_instance(3, 4)),
    ("comp", *scaling_block_comp_instance(2, seed=1)),
    ("comp", *scaling_hard_comp_instance(5, seed=1)),
]


class TestAutoMatchesFullPricing:
    def test_randomized_instances(self):
        cases = list(_random_instances()) + SCALING
        for problem, db, query in cases:
            expected = _direct_argmin(problem, db, query)
            assert planner.plan(problem, db, query).chosen == expected, (
                problem, query, db,
            )

    @pytest.mark.parametrize("problem", planner.PROBLEMS)
    def test_every_problem_kind(self, problem):
        for kind, db, query in SCALING:
            if kind != "val":
                continue
            expected = _direct_argmin(problem, db, query)
            assert planner.plan(problem, db, query).chosen == expected

    def test_hard_cells_price_up_to_the_next_floor(self):
        for problem, db, query in SCALING[5:]:
            built = planner.plan(problem, db, query)
            rows = {item.method: item for item in built.considered}
            best = rows[built.chosen].cost
            for entry in planner.methods_for(problem):
                row = rows[entry.name]
                if row.reason.startswith("not evaluated"):
                    # Skipped only where the floor proves it cannot win.
                    assert not entry.polynomial and best < entry.floor
                elif not entry.polynomial and row.applicable:
                    assert row.cost >= entry.floor


class TestFloorOrderedPricing:
    """``auto`` prices non-polynomial methods cheapest floor first and
    stops once the best cost is below the next floor."""

    def test_fitting_nulldp_never_runs_the_dpdb_probe(self):
        db, query = scaling_hard_val_instance(12, seed=4)
        dpdb.probe_cache_clear()
        misses = dpdb._probe_val.cache_info().misses
        built = planner.plan("val", db, query)
        assert built.chosen == "nulldp"
        assert dpdb._probe_val.cache_info().misses == misses
        rows = {item.method: item for item in built.considered}
        assert rows["nulldp"].detail["cells"] > 0
        for name in ("dpdb", "lineage", "circuit", "brute"):
            assert rows[name].cost is None and rows[name].detail is None
            assert rows[name].reason.startswith(
                "not evaluated: 'nulldp' costs"
            )
        answer = solve("val", db, query)
        assert answer.method == "nulldp"
        assert dpdb._probe_val.cache_info().misses == misses

    def test_nulldp_past_the_cell_limit_hands_over_to_dpdb(self, monkeypatch):
        db, query = scaling_hard_val_instance(12, seed=4)
        dpdb.probe_cache_clear()
        monkeypatch.setattr(planner, "NULLDP_CELL_LIMIT", 0)
        built = planner.plan("val", db, query)
        rows = {item.method: item for item in built.considered}
        assert rows["nulldp"].cost > planner.TIER_LINEAGE
        assert rows["dpdb"].detail["width"] is not None
        assert built.chosen == "dpdb"

    def test_probe_cache_clear_drops_the_nulldp_memo(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        planner.plan("val", db, query)
        assert nulldp.nulldp_probe.cache_info().currsize >= 1
        dpdb.probe_cache_clear()
        assert nulldp.nulldp_probe.cache_info().currsize == 0

    def test_pure_resolution_delta_chains_still_pick_delta(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        child = db
        for null in db.nulls[:3]:
            child = child.apply(ResolveNull(null, sorted(child.domain_of(null))[0]))
        dpdb.probe_cache_clear()
        built = planner.plan("val", child, query)
        assert built.chosen == "delta"
        assert _probes_cached() == 0
        rows = {item.method: item for item in built.considered}
        assert rows["nulldp"].reason.startswith("not evaluated: 'delta' costs")

    def test_comp_plans_are_unchanged(self):
        comp_cases = [case for case in SCALING if case[0] == "comp"]
        comp_cases += [
            ("comp", db, query)
            for problem, db, query in _random_instances()
            if problem == "comp"
        ]
        for problem, db, query in comp_cases:
            built = planner.plan(problem, db, query)
            assert built.chosen == _direct_argmin(problem, db, query)
            assert "nulldp" not in {item.method for item in built.considered}
        db, query = scaling_hard_comp_instance(5, seed=1)
        dpdb.probe_cache_clear()
        assert planner.plan("comp", db, query).chosen == "dpdb"
        assert dpdb._probe_comp.cache_info().currsize == 1
