"""Tests for the text/CSV tooling."""

import pytest
from hypothesis import given, settings

from repro.core.query import Atom, BCQ, Const, Negation, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.io.csv_loader import load_csv_relation
from repro.io.databases import (
    DatabaseSyntaxError,
    format_database,
    parse_database,
)
from repro.io.queries import QuerySyntaxError, format_query, parse_query

from tests.conftest import small_incomplete_dbs


class TestQueryParsing:
    def test_bcq(self):
        query = parse_query("R(x, y), S(y)")
        assert query == BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])

    def test_constants(self):
        query = parse_query("R(x, 'a'), S(42)")
        assert query == BCQ(
            [Atom("R", ["x", Const("a")]), Atom("S", [Const(42)])]
        )

    def test_ucq(self):
        query = parse_query("R(x) | S(x)")
        assert isinstance(query, UCQ)
        assert len(query.disjuncts) == 2

    def test_negation(self):
        query = parse_query("!R(x, x)")
        assert isinstance(query, Negation)
        assert query.inner == BCQ([Atom("R", ["x", "x"])])

    def test_errors(self):
        for bad in ("", "R(x", "R(x))", "R(x) S(y)", "R()", "R(x,)"):
            with pytest.raises(QuerySyntaxError):
                parse_query(bad)

    def test_roundtrip(self):
        for text in ("R(x, y), S(y)", "R(x) | S(x, 'a')", "!R(x, x)"):
            query = parse_query(text)
            assert parse_query(format_query(query)) == query


class TestDatabaseParsing:
    UNIFORM_TEXT = """
    # a toy instance
    domain a b 3
    R(a, ?n1)
    S(?n1, 'hello world')
    """

    def test_uniform(self):
        db = parse_database(self.UNIFORM_TEXT)
        assert db.is_uniform
        assert db.uniform_domain == frozenset({"a", "b", 3})
        assert Fact("R", ["a", Null("n1")]) in db.facts
        assert Fact("S", [Null("n1"), "hello world"]) in db.facts

    def test_non_uniform(self):
        db = parse_database(
            "null n1: a b\nnull n2: 1 2\nR(?n1, ?n2)\n"
        )
        assert not db.is_uniform
        assert db.domain_of(Null("n1")) == frozenset({"a", "b"})
        assert db.domain_of(Null("n2")) == frozenset({1, 2})

    def test_errors(self):
        with pytest.raises(DatabaseSyntaxError):
            parse_database("domain a\ndomain b\nR(a)")
        with pytest.raises(DatabaseSyntaxError):
            parse_database("domain a\nnull n: a\nR(?n)")
        with pytest.raises(DatabaseSyntaxError):
            parse_database("domain a\nwhat is this")
        with pytest.raises(DatabaseSyntaxError):
            parse_database("null n a b\nR(?n)")
        with pytest.raises(DatabaseSyntaxError):
            parse_database("domain a\nR(?)")

    @given(small_incomplete_dbs())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, db):
        parsed = parse_database(format_database(db))
        assert parsed.facts == db.facts
        assert parsed.is_uniform == db.is_uniform
        for null in db.nulls:
            # labels survive as strings
            assert parsed.domain_of(Null(str(null.label))) == db.domain_of(
                null
            )


#: One small instance per ``scaling_*`` generator.
SCALING_CASES = {
    "scaling_single_occurrence_instance": (5,),
    "scaling_codd_instance": (4,),
    "scaling_uniform_val_instance": (4,),
    "scaling_hard_val_instance": (6,),
    "scaling_grid_val_instance": (2, 4),
    "scaling_long_cycle_val_instance": (8,),
    "scaling_block_comp_instance": (2,),
    "scaling_hard_comp_instance": (4,),
    "scaling_uniform_unary_comp_instance": (5,),
}


def _counts(db, query):
    from repro.db.valuation import count_total_valuations
    from repro.exact.dispatch import solve

    val = (
        solve("val", db, query).count
        if query is not None
        else count_total_valuations(db)
    )
    return val, solve("comp", db, query).count


class TestFormatNullNames:
    def test_every_scaling_generator_is_covered(self):
        from repro.workloads import generators

        assert set(SCALING_CASES) == {
            name for name in dir(generators) if name.startswith("scaling_")
        }

    @pytest.mark.parametrize("name", sorted(SCALING_CASES))
    def test_scaling_instances_round_trip(self, name):
        from repro.workloads import generators

        db, query = getattr(generators, name)(*SCALING_CASES[name], seed=1)
        parsed = parse_database(format_database(db))
        assert len(parsed.nulls) == len(db.nulls)
        assert len(parsed.facts) == len(db.facts)
        assert parsed.is_uniform == db.is_uniform
        assert _counts(parsed, query) == _counts(db, query)

    def test_names_never_collide(self):
        labels = ["r_0", ("r", 0), ("r", "0"), 1, "1", "a b", "", "r_0_2"]
        nulls = [Null(label) for label in labels]
        db = IncompleteDatabase(
            [Fact("R", [null, "c%d" % index]) for index, null in enumerate(nulls)],
            dom={null: ["a", "b"] for null in nulls},
        )
        text = format_database(db)
        parsed = parse_database(text)
        assert len(parsed.nulls) == len(nulls)
        # Bare-word labels keep their text; the rest get fresh names.
        for kept in ("r_0", "1", "r_0_2"):
            assert Null(kept) in parsed.nulls
        query = BCQ([Atom("R", ["x", "y"])])
        assert _counts(parsed, query) == _counts(db, query)


class TestCSV:
    def test_fresh_nulls(self):
        csv_text = "alice,NULL\nbob,42\n"
        db = load_csv_relation(csv_text, "Emp", domain=[1, 42, 99])
        assert db.is_uniform
        assert len(db.nulls) == 1
        assert Fact("Emp", ["bob", 42]) in db.facts

    def test_shared_nulls_make_naive_tables(self):
        csv_text = "alice,NULL:salary\nbob,NULL:salary\n"
        db = load_csv_relation(csv_text, "Emp", domain=[1, 2])
        assert len(db.nulls) == 1
        assert not db.is_codd

    def test_per_column_domains(self):
        csv_text = "NULL,NULL\n"
        db = load_csv_relation(
            csv_text,
            "R",
            column_domains={0: ["a", "b"], 1: [1, 2, 3]},
        )
        assert not db.is_uniform
        domains = sorted(
            (sorted(map(repr, db.domain_of(n))) for n in db.nulls)
        )
        assert domains == [["'a'", "'b'"], ["1", "2", "3"]]

    def test_shared_null_across_columns_intersects(self):
        csv_text = "NULL:x,NULL:x\n"
        db = load_csv_relation(
            csv_text, "R", column_domains={0: [1, 2], 1: [2, 3]}
        )
        null = db.nulls[0]
        assert db.domain_of(null) == frozenset({2})

    def test_header_skipped(self):
        csv_text = "name,age\nalice,NULL\n"
        db = load_csv_relation(
            csv_text, "P", domain=[1, 2], has_header=True
        )
        assert len(db.facts) == 1

    def test_requires_exactly_one_domain_kind(self):
        with pytest.raises(ValueError):
            load_csv_relation("a,b\n", "R")
        with pytest.raises(ValueError):
            load_csv_relation(
                "a,b\n", "R", domain=[1], column_domains={0: [1]}
            )

    def test_missing_column_domain(self):
        with pytest.raises(ValueError):
            load_csv_relation("NULL\n", "R", column_domains={5: [1]})
