"""The solver planner: registry coverage, plan explanations, dispatch parity.

``repro.exact.dispatch`` no longer contains per-method conditionals — every
resolution goes through :mod:`repro.exact.planner`.  These tests pin the
registry's behavior to the dispatch semantics the rest of the suite (and
three PRs of callers) rely on.
"""

from __future__ import annotations

import pytest

from repro.core.query import Atom, BCQ, CustomQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.fact import Fact
from repro.db.terms import Null
from repro.exact import planner
from repro.exact.dispatch import (
    NoPolynomialAlgorithm,
    count_valuations,
    count_valuations_weighted,
)
from repro.workloads.generators import (
    scaling_codd_instance,
    scaling_hard_val_instance,
    scaling_uniform_val_instance,
)


def _uniform_unary_db():
    n1, n2 = Null("u1"), Null("u2")
    return IncompleteDatabase(
        [Fact("R", [n1]), Fact("S", [n2]), Fact("S", ["a"])],
        uniform_domain=["a", "b"],
    )


class TestRegistry:
    def test_every_problem_has_methods(self):
        for problem in planner.PROBLEMS:
            assert planner.methods_for(problem), problem

    def test_method_vocabulary_matches_pre_registry_dispatch(self):
        assert set(planner.method_names("val")) == {
            "auto", "poly", "brute", "delta", "nulldp", "dpdb", "lineage",
            "circuit", "single-occurrence", "codd", "uniform",
        }
        assert set(planner.method_names("comp")) == {
            "auto", "poly", "brute", "delta", "dpdb", "lineage", "circuit",
            "uniform-unary",
        }
        assert set(planner.method_names("val-weighted")) == {
            "auto", "brute", "circuit", "single-occurrence",
        }
        assert "poly" not in planner.method_names("val-weighted")

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            planner.methods_for("nope")

    def test_capability_flags(self):
        by_name = {m.name: m for m in planner.methods_for("val")}
        assert by_name["circuit"].supports_weights
        assert by_name["circuit"].supports_marginals
        assert not by_name["lineage"].supports_weights
        assert by_name["single-occurrence"].polynomial
        assert not by_name["brute"].polynomial


class TestPlans:
    def test_plan_reports_rejections_with_reasons(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query)
        # The small-table hard cell routes to null elimination.
        assert plan.chosen == "nulldp"
        rejected = {
            item.method: item.reason
            for item in plan.considered
            if not item.applicable
        }
        assert "single-occurrence" in rejected
        assert rejected["single-occurrence"]  # a human-readable reason
        text = plan.explain()
        assert "lineage" in text and "single-occurrence" in text
        assert "cells" in text  # the nulldp probe's cost detail surfaces

    def test_plan_costs_order_applicable_methods(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        # auto stops pricing at nulldp; price every entry directly.
        costs = {
            entry.name: entry.cost(db, query)
            for entry in planner.methods_for("val")
            if entry.applies(db, query)[0]
        }
        assert costs["nulldp"] < costs["dpdb"] < costs["lineage"]
        assert costs["lineage"] < costs["circuit"] < costs["brute"]

    def test_poly_plan_on_hard_cell_carries_error(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query, method="poly")
        assert plan.chosen is None
        assert "#P-hard" in plan.error

    def test_forced_fallback_is_noted(self):
        db, _ = scaling_hard_val_instance(6, seed=1)
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        plan = planner.plan("val", db, opaque, method="circuit")
        assert plan.chosen == "brute"
        assert any("degrading" in note for note in plan.notes)

    def test_forced_inapplicable_method_is_honored_with_note(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query, method="codd")
        assert plan.chosen == "codd"
        assert any("forced" in note for note in plan.notes)

    def test_unknown_method_raises(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        with pytest.raises(ValueError, match="unknown method"):
            planner.plan("val", db, query, method="warp")

    def test_weighted_plan_prefers_closed_form_then_circuit(self):
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("val-weighted", db, free).chosen == "single-occurrence"
        assert planner.plan("val-weighted", db, query).chosen == "circuit"

    def test_marginals_plan(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("marginals", db, query)
        assert plan.chosen == "circuit"
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        no_plan = planner.plan("marginals", db, opaque)
        assert no_plan.chosen is None
        assert no_plan.error

    def test_to_dict_is_json_shaped(self):
        import json

        db, query = scaling_hard_val_instance(6, seed=1)
        record = planner.plan("val", db, query).to_dict()
        json.dumps(record)
        assert record["chosen"] == "nulldp"
        assert all("reason" in item for item in record["considered"])
        nulldp_row = next(
            item for item in record["considered"] if item["method"] == "nulldp"
        )
        assert nulldp_row["detail"]["cells"] <= nulldp_row["detail"]["cell_limit"]
        forced = planner.plan("val", db, query, "dpdb").to_dict()
        dpdb_row = next(
            item for item in forced["considered"] if item["method"] == "dpdb"
        )
        assert dpdb_row["detail"]["width"] <= dpdb_row["detail"]["width_limit"]


class TestDispatchParity:
    """The planner resolves exactly as the pre-registry ``if`` chains did."""

    def test_auto_prefers_closed_forms_in_order(self):
        db, query = scaling_codd_instance(4, seed=1)
        assert planner.resolve("val", db, query) == "codd"
        db, query = scaling_uniform_val_instance(6, seed=1)
        assert planner.resolve("val", db, query) == "uniform"
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        db, _ = scaling_hard_val_instance(6, seed=1)
        assert planner.resolve("val", db, free) == "single-occurrence"

    def test_auto_on_hard_cell_is_lineage(self):
        # A small-table hard cell goes to null elimination; the DPs give
        # way to lineage once their tables pass the memory ceiling.
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.resolve("val", db, query) == "nulldp"

    def test_resolution_survives_astronomical_valuation_totals(self):
        # 5000 nulls of domain 10: the total has ~5000 decimal digits,
        # past CPython's int-to-str conversion limit — cost estimation
        # must never stringify it.
        domain = ["v%d" % i for i in range(10)]
        facts = [Fact("R", [Null(i)]) for i in range(5000)]
        db = IncompleteDatabase(facts, uniform_domain=domain)
        query = BCQ([Atom("R", ["x"])])
        assert planner.resolve("val", db, query, "lineage") == "lineage"
        plan = planner.plan("val", db, query)
        assert plan.chosen is not None

    def test_poly_raises_through_resolve(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        with pytest.raises(NoPolynomialAlgorithm):
            planner.resolve("val", db, query, "poly")
        with pytest.raises(NoPolynomialAlgorithm):
            planner.resolve("comp", db, query, "poly")

    def test_completion_auto(self):
        assert planner.resolve("comp", _uniform_unary_db(), None) == (
            "uniform-unary"
        )
        # The completion encoding's projection-constrained width is large
        # on this family, so #Comp stays with the trail search.
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.resolve("comp", db, query) == "lineage"

    def test_weighted_resolution(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.resolve("val-weighted", db, query) == "circuit"
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        assert planner.resolve("val-weighted", db, opaque, "circuit") == "brute"

    def test_counts_agree_across_registry_methods(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        auto = count_valuations(db, query)
        assert count_valuations(db, query, method="lineage") == auto
        assert count_valuations(db, query, method="circuit") == auto
        assert count_valuations(db, query, method="brute") == auto
        weights = {
            null: {value: 2 for value in db.domain_of(null)}
            for null in db.nulls
        }
        weighted_circuit = count_valuations_weighted(db, query, weights)
        weighted_brute = count_valuations_weighted(
            db, query, weights, method="brute"
        )
        assert weighted_circuit == weighted_brute

    def test_registration_extends_auto_without_dispatch_edits(self):
        """Adding a method is one register() call: auto picks it up."""
        db, query = scaling_hard_val_instance(6, seed=1)
        name = "test-shortcut"
        try:
            planner.register(planner.Method(
                name=name,
                problem="val",
                description="test-only constant-time method",
                polynomial=True,
                supports_weights=False,
                supports_marginals=False,
                applies=lambda d, q: (True, "always (test)"),
                cost=lambda d, q: 0.5,
                run=lambda d, q, budget=None, weights=None, circuits=None: 42,
            ))
            assert planner.resolve("val", db, query) == name
            assert count_valuations(db, query) == 42
        finally:
            del planner._REGISTRY["val"][name]
        assert planner.resolve("val", db, query) == "nulldp"
