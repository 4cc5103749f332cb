"""Snapshot of the package's public surface.

``repro.__all__`` and the facade signatures are a compatibility contract:
this test pins both, so any rename, removal, or signature change shows up
as an explicit diff here instead of as a silent break for downstream code.
"""

import inspect

import repro
import repro.compile


EXPECTED_ALL = [
    "Atom",
    "BCQ",
    "Const",
    "Negation",
    "UCQ",
    "Var",
    "classify",
    "Database",
    "Fact",
    "IncompleteDatabase",
    "Null",
    "Answer",
    "NoPolynomialAlgorithm",
    "Plan",
    "count_completions",
    "count_valuations",
    "count_valuations_sweep",
    "count_valuations_weighted",
    "plan",
    "solve",
    "__version__",
]

#: The knowledge-compilation surface.  Test-only oracles (the reference
#: model counter, the witness encoding, recount marginals) live in
#: ``tests/support`` and must not come back here.
EXPECTED_COMPILE_ALL = [
    "CircuitFormatError",
    "LineageReport",
    "artifact_from_bytes",
    "ValuationCircuit",
    "CompletionCircuit",
    "count_completions_lineage",
    "count_valuations_lineage",
    "explain_completions",
    "explain_valuations",
    "explain_valuations_circuit",
    "lineage_supports",
    "DDNNF",
    "CircuitSampler",
    "TraceBuilder",
    "CompletionEncoding",
    "ValuationEncoding",
    "compile_completion_cnf",
    "compile_valuation_cnf",
    "LineageUnsupportedQuery",
    "enumerate_completion_matches",
    "enumerate_valuation_matches",
    "ModelCounter",
    "count_models",
]


def _parameters(function):
    """``(name, default)`` per parameter: the keyword surface a caller
    can pass, independent of how annotations render."""
    return [
        (name, parameter.default)
        for name, parameter in inspect.signature(function).parameters.items()
    ]


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_solve_signature(self):
        assert str(inspect.signature(repro.solve)) == (
            "(problem: 'str', db: 'IncompleteDatabase', "
            "query: 'BooleanQuery | None' = None, *, method: 'str' = 'auto', "
            "weights: 'Any' = None, budget: 'int | None' = 2000000, "
            "circuits: 'CircuitProvider | None' = None) -> 'Answer'"
        )

    def test_wrapper_signatures(self):
        assert str(inspect.signature(repro.count_valuations)) == (
            "(db: 'IncompleteDatabase', query: 'BooleanQuery', "
            "method: 'str' = 'auto', budget: 'int | None' = 2000000) "
            "-> 'int'"
        )
        assert str(inspect.signature(repro.count_valuations_sweep)) == (
            "(db: 'IncompleteDatabase', query: 'BooleanQuery', "
            "weight_rows, method: 'str' = 'auto', "
            "budget: 'int | None' = 2000000) -> 'list'"
        )

    def test_answer_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.Answer)]
        assert fields == [
            "problem", "count", "method", "plan", "seconds", "stats",
        ]


class TestCompileSurface:
    def test_compile_all_is_pinned(self):
        assert repro.compile.__all__ == EXPECTED_COMPILE_ALL

    def test_compile_all_names_resolve(self):
        for name in repro.compile.__all__:
            assert hasattr(repro.compile, name), name

    def test_counter_signatures(self):
        empty = inspect.Parameter.empty
        assert _parameters(repro.compile.ModelCounter.__init__) == [
            ("self", empty),
            ("cnf", empty),
            ("projection", None),
            ("order", None),
            ("trace", None),
            ("preprocess", True),
            ("probe", "auto"),
        ]
        assert _parameters(repro.compile.count_models) == [
            ("cnf", empty),
            ("projection", None),
            ("order", None),
            ("preprocess", True),
            ("probe", "auto"),
        ]

    def test_circuit_signatures(self):
        empty = inspect.Parameter.empty
        assert _parameters(repro.compile.ValuationCircuit.__init__) == [
            ("self", empty),
            ("db", empty),
            ("query", empty),
        ]
        assert _parameters(repro.compile.CompletionCircuit.__init__) == [
            ("self", empty),
            ("db", empty),
            ("query", None),
        ]
