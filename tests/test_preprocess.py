"""Preprocessing soundness: probing, substitution and pure literals never
change a count.

The load-bearing suite is randomized and differential: hundreds of CNFs
counted by the trail core with every preprocessing stage forced on must
agree bit for bit with the retained tuple-based reference counter (which
preprocesses nothing), in full and projected mode alike.  The directed
tests then pin each stage individually — backbones found by failed
probes, equivalences substituted away, pure non-projection literals
fixed — and the policy boundaries (no substitution under a full-count
trace, no pure elimination outside projected mode).
"""

import random

from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.preprocess import preprocess_store
from repro.compile.sharpsat import ModelCounter, count_models
from repro.compile.trail import ClauseStore
from repro.complexity.cnf import CNF
from support.sharpsat_reference import reference_count_models


def random_cnf(rng, max_variables=8, max_clauses=14):
    n = rng.randint(1, max_variables)
    cnf = CNF(n)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        cnf.add_clause(
            v if rng.random() < 0.5 else -v for v in variables
        )
    return cnf


class TestRandomizedSoundness:
    def test_full_counts_unchanged_probing_forced(self):
        rng = random.Random(20250730)
        for _ in range(120):
            cnf = random_cnf(rng)
            reference = reference_count_models(cnf)
            assert count_models(cnf, probe=True) == reference
            assert count_models(cnf, preprocess=False) == reference

    def test_projected_counts_unchanged_probing_forced(self):
        rng = random.Random(73)
        for _ in range(120):
            cnf = random_cnf(rng)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(0, cnf.num_variables),
            )
            reference = reference_count_models(cnf, projection=projection)
            assert (
                count_models(cnf, projection=projection, probe=True)
                == reference
            )
            assert (
                count_models(cnf, projection=projection, preprocess=False)
                == reference
            )

    def test_traced_projected_counts_unchanged_probing_forced(self):
        rng = random.Random(97)
        for _ in range(60):
            cnf = random_cnf(rng, max_variables=6)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(1, cnf.num_variables),
            )
            reference = reference_count_models(cnf, projection=projection)
            trace = TraceBuilder()
            counter = ModelCounter(
                cnf, projection=projection, trace=trace, probe=True
            )
            assert counter.count() == reference
            circuit = trace.build(
                counter.trace_root, cnf.num_variables, countable=projection
            )
            assert circuit.count() == reference


class TestStages:
    def test_failed_literal_becomes_backbone(self):
        # x1 -> x2 and x1 -> -x2: probing x1=True conflicts, so -x1 is
        # a backbone and lands on the root trail.
        store = ClauseStore(3, [(-1, 2), (-1, -2), (1, 3)])
        report = preprocess_store(store, probe=True)
        assert not report.conflict
        assert -1 in report.forced
        assert store.value[1] == -1
        assert report.failed_literals >= 1

    def test_both_polarities_failing_is_a_conflict(self):
        store = ClauseStore(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
        report = preprocess_store(store, probe=True)
        assert report.conflict

    def test_equivalence_substitution_in_full_untraced_mode(self):
        # x1 <-> x2 through binary clauses; probing discovers it and one
        # variable is substituted away.
        cnf = CNF(3, [(-1, 2), (1, -2), (2, 3)])
        store = ClauseStore(3, cnf.clauses)
        report = preprocess_store(store, probe=True)
        assert not report.conflict
        assert report.equivalences >= 1
        assert len(report.substitutions) == 1
        assert report.rewritten is not None
        # The count is preserved through the counter's end-to-end path.
        assert count_models(cnf, probe=True) == reference_count_models(cnf)

    def test_no_substitution_under_full_count_trace(self):
        store = ClauseStore(3, [(-1, 2), (1, -2), (2, 3)])
        report = preprocess_store(store, probe=True, traced=True)
        assert report.substitutions == {}
        assert report.rewritten is None

    def test_projected_substitution_spares_projection_variables(self):
        # x1 <-> x2, both countable: neither may be substituted; an
        # equivalent non-projection x3 <-> x1 may.
        store = ClauseStore(
            3, [(-1, 2), (1, -2), (-1, 3), (1, -3)]
        )
        report = preprocess_store(
            store, projection=frozenset({1, 2}), probe=True, traced=True
        )
        assert set(report.substitutions) <= {3}

    def test_pure_literal_projected_only(self):
        # x3 occurs only positively and is outside the projection: fixed.
        cnf = CNF(3, [(1, 3), (2, 3)])
        store = ClauseStore(3, cnf.clauses)
        report = preprocess_store(store, projection=frozenset({1, 2}))
        assert 3 in report.pure_fixed
        # In full mode the same formula keeps x3 untouched (fixing it
        # would drop the models with x3 false).
        store_full = ClauseStore(3, cnf.clauses)
        report_full = preprocess_store(store_full, probe=True)
        assert report_full.pure_fixed == ()
        # And the projected count survives the fix, end to end.
        assert count_models(
            cnf, projection=[1, 2]
        ) == reference_count_models(cnf, projection=[1, 2])

    def test_unsatisfiable_input_reports_conflict(self):
        store = ClauseStore(1, [(1,), (-1,)])
        report = preprocess_store(store)
        assert report.conflict

    def test_determined_mask_names_substituted_variables(self):
        store = ClauseStore(3, [(-1, 2), (1, -2), (2, 3)])
        report = preprocess_store(store, probe=True)
        (substituted,) = report.substitutions
        assert report.determined_mask == 1 << substituted
