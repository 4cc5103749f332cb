"""Per-null marginals by conditioning and re-counting: the search baseline.

One full model-counting search per ``(null, value)`` pair — the loop the
circuit passes of :class:`repro.compile.backend.ValuationCircuit` replace.
The tests use it as a cross-validation oracle for
:meth:`~repro.compile.backend.ValuationCircuit.marginals`; the benchmark
harness's ``amortized`` path uses it as the honest search-per-question
baseline.
"""

from __future__ import annotations

from fractions import Fraction

from repro.complexity.cnf import CNF
from repro.compile.encode import compile_valuation_cnf
from repro.compile.sharpsat import count_models
from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term


def valuation_marginals_recount(
    db: IncompleteDatabase, query: BooleanQuery
) -> dict[Null, dict[Term, Fraction]]:
    """Reference marginals by conditioning and re-counting, per value."""
    encoding = compile_valuation_cnf(db, query)
    total = encoding.total_valuations
    satisfying = total - count_models(encoding.cnf)
    if not satisfying:
        raise ValueError(
            "no valuation satisfies the query; marginals are undefined"
        )
    result: dict[Null, dict[Term, Fraction]] = {}
    for null in db.nulls:
        domain = sorted(db.domain_of(null), key=repr)
        pinned_total = total // len(domain)
        for value in domain:
            variable = encoding.choices.var(null, value)
            pinned = CNF(
                encoding.cnf.num_variables,
                list(encoding.cnf.clauses) + [(variable,)],
            )
            satisfying_pinned = pinned_total - count_models(pinned)
            result.setdefault(null, {})[value] = Fraction(
                satisfying_pinned, satisfying
            )
    return result
