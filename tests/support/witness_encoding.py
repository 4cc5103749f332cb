"""The witness encoding of ``#Val``: an independent cross-validation oracle.

The positive counterpart of the complement encoding
(:func:`repro.compile.encode.compile_valuation_cnf`): the lineage DNF is
Tseitin-style folded into CNF with one witness (commander) variable per
multi-condition match, and the count of interest is the **projected**
model count onto the choice variables — a choice assignment extends to a
model exactly when some match is fully chosen, so

    ``#Val(q)(D)  =  (projected model count)``.

The final "some witness holds" disjunction is asserted through a balanced
OR-tree of bounded-fan-in clauses rather than one wide clause: a clause
is a clique of the primal graph, and a single m-literal witness clause
would hand the treewidth heuristic an m-clique, destroying exactly the
component decomposition that makes counting tractable.  The tree keeps
every clause short, so the formula's width tracks the lineage's — at the
price of a logarithmic sprinkle of don't-care auxiliaries, which
projected counting ignores by construction.

Only the tests use it, on small instances: its global disjunction still
couples the whole formula and defeats component decomposition at scale,
and every circuit question is answerable from the complement side
(``total - falsifying``, factorized pinned totals, chain-rule sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.complexity.cnf import CNF
from repro.compile.lineage import enumerate_valuation_matches
from repro.compile.variables import ChoiceVariables
from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.valuation import count_total_valuations


@dataclass
class SatisfactionEncoding:
    """``#Val`` as a projected model count onto the choice variables."""

    cnf: CNF
    choices: ChoiceVariables
    projection: frozenset[int]
    total_valuations: int
    num_matches: int
    trivially_true: bool


def compile_satisfaction_cnf(
    db: IncompleteDatabase, query: BooleanQuery
) -> SatisfactionEncoding:
    """Compile ``(D, q)`` into the witness encoding of ``#Val(q)(D)``.

    The projected model count of the returned CNF onto ``projection``
    (the choice variables) is exactly the number of valuations ``ν`` with
    ``ν(D) |= q``; restricted to the choice variables, models *are* the
    satisfying valuations.  A trivially true query adds no lineage clause
    (every valuation qualifies); an unsatisfiable one adds the empty
    clause (none does).
    """
    cnf = CNF()
    choices = ChoiceVariables(cnf, db)
    matches = enumerate_valuation_matches(db, query)
    trivially_true = bool(matches) and not matches[0]
    if not trivially_true:
        witnesses = []
        for conditions in matches:
            if len(conditions) == 1:
                ((null, value),) = conditions
                witnesses.append(choices.var(null, value))
            else:
                commander = cnf.new_variable()
                for null, value in conditions:
                    cnf.add_clause((-commander, choices.var(null, value)))
                witnesses.append(commander)
        # Empty DNF compiles to the empty clause: no valuation satisfies q.
        _assert_disjunction(cnf, witnesses)
    return SatisfactionEncoding(
        cnf=cnf,
        choices=choices,
        projection=frozenset(choices.variables()),
        total_valuations=count_total_valuations(db),
        num_matches=len(matches),
        trivially_true=trivially_true,
    )


#: Widest clause :func:`_assert_disjunction` will emit.  Matches arrive
#: roughly grouped by locality in the database, so grouping neighbours
#: keeps tree parents local too and decomposition intact.
_DISJUNCTION_FANIN = 4


def _assert_disjunction(cnf: CNF, literals: list[int]) -> None:
    """Assert ``l1 ∨ ... ∨ lk`` via a balanced OR-tree of short clauses.

    Each tree parent ``p`` gets the one-sided Tseitin clause
    ``p → (child1 ∨ ... ∨ childF)`` and the root level is asserted
    directly; a projected model restricted to the original variables
    therefore exists iff the plain disjunction is satisfiable, while no
    clause exceeds ``_DISJUNCTION_FANIN + 1`` literals.
    """
    while len(literals) > _DISJUNCTION_FANIN:
        grouped = []
        for start in range(0, len(literals), _DISJUNCTION_FANIN):
            group = literals[start:start + _DISJUNCTION_FANIN]
            if len(group) == 1:
                grouped.append(group[0])
                continue
            parent = cnf.new_variable()
            cnf.add_clause([-parent] + group)
            grouped.append(parent)
        literals = grouped
    cnf.add_clause(literals)
