"""Domain-valued null elimination for ``#Val`` (``method='nulldp'``).

The boolean backends see a null ``⊥`` as ``|dom(⊥)|`` one-hot choice
variables, so a bag of k three-valued nulls is a ``2^(3k)``-row dpdb table
of which only ``3^k`` rows can be nonzero.  This module eliminates the
*nulls* themselves: every table axis is one null, of the size of its
(compressed) domain — the dp_on_dbs idea of tables over actual values.

**The count.**  The lineage of a (U)CQ is a monotone DNF of *matches*
(:func:`repro.compile.lineage.enumerate_valuation_matches`), each a
consistent set of conditions ``ν(⊥) = c``.  A valuation falsifies the
query exactly when it hits no match, so

    ``#Val(¬q) = Σ_ν ∏_matches f_M(ν)``,  ``f_M = 0`` at M's value tuple
    and 1 elsewhere on M's null scope,

and ``#Val(q) = ∏|dom(⊥)| − #Val(¬q)``.  The sum is computed by variable
elimination over the nulls' primal graph (two nulls adjacent when they
share a match) in the greedy min-degree order of
:mod:`repro.compile.ordering`.  Eliminating null ``⊥`` builds one table
over its bag, joins the messages of earlier eliminations, zeroes the
value cell of every match homed there (its first-eliminated null), and
sums ``⊥``'s axis out.  The work is ``Σ_bags ∏|dom|`` cells, which is what
the planner prices.

**Value compression.**  For each null, the domain values no match
mentions for it behave identically in every factor, so they merge into
one *bucket* cell carrying their multiplicity as its weight in the sum.
Axes then grow with the query's constants, not the domain: over a
40-value domain, ``R(x, a), S(x)`` keeps at most two cells per null.

**Dtypes.**  The same ladder as :mod:`repro.compile.dpdb`: int64 tensors
when the product of the participating domain sizes (a bound on every
cell) stays below ``2^62``, else a float64 guard pass whose running
maximum decides between int64 and exact Python-int object tensors.
numpy comes from :func:`repro.util.optional.numpy_or_none` on the first
pass; without it an exact pure-Python elimination runs the same plan.

The planner talks to :func:`nulldp_probe`, memoized per ``(D, q)`` and
dropped by :func:`repro.compile.dpdb.probe_cache_clear`; the runner
reuses the probe's elimination.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from typing import Any, NamedTuple

from repro.compile.dpdb import (
    _INT64_GUARD,
    _INT64_SAFE,
    DPDB_HARD_WIDTH_CAP,
    DPDB_PROBE_CLAUSE_LIMIT,
    DPDB_PROBE_VARIABLE_LIMIT,
    DPDB_WIDTH_LIMIT,
    _bits,
)
from repro.compile.lineage import enumerate_valuation_matches, lineage_supports
from repro.compile.ordering import elimination_bags_masks
from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.obs import event as _obs_event, incr as _incr, span as _span
from repro.util.optional import numpy_or_none

#: Largest single table ``auto`` prefers nulldp for: dpdb's peak-memory
#: ceiling of ``2^(DPDB_WIDTH_LIMIT+1)`` cells.
NULLDP_CELL_LIMIT = 1 << (DPDB_WIDTH_LIMIT + 1)

#: Largest single table a *forced* ``method='nulldp'`` builds (dpdb's hard
#: cap, in cells); above it the runner delegates to the trail core.
NULLDP_HARD_CELL_CAP = 1 << (DPDB_HARD_WIDTH_CAP + 1)


class _Elimination(NamedTuple):
    """The compiled elimination: one node per participating null, in
    elimination order (parents come later, so ascending is leaves-first).

    ``axes[i]`` lists node ``i``'s bag nulls ascending (table axis order),
    ``zeroes[i]`` the index tuples of the match cells homed there, and
    ``joins[i]`` each child with its message's broadcast shape and the
    bag positions of its message axes.
    """

    sizes: tuple[int, ...]
    buckets: tuple[int, ...]
    axes: tuple[tuple[int, ...], ...]
    eliminated: tuple[int, ...]
    parent: tuple[int, ...]
    joins: tuple[tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...], ...]
    zeroes: tuple[tuple[tuple[Any, ...], ...], ...]
    #: ``∏|dom|`` over the participating nulls: every cell is at most this.
    bound: int


class NulldpProbe(NamedTuple):
    """One memoized probe: verdict, exact work, and the elimination the
    runner reuses (``answer`` is set when the lineage is trivial)."""

    ok: bool
    reason: str
    cells: int = 0
    scope_max: int = 0
    table_max: int = 0
    #: ``∏|dom|`` over the nulls no match mentions (a free factor).
    free: int = 1
    answer: int | None = None
    elimination: _Elimination | None = None

    def detail(self) -> dict[str, Any]:
        """The cost detail surfaced in ``Plan`` rows and ``plan --json``."""
        return {
            "cells": self.cells,
            "scope_max": self.scope_max,
            "cell_limit": NULLDP_CELL_LIMIT,
        }


@lru_cache(maxsize=64)
def nulldp_probe(db: IncompleteDatabase, query: BooleanQuery) -> NulldpProbe:
    """Memoized probe for ``(D, q)``: enumerate the lineage matches once,
    compress the domains, order the nulls and count the cells."""
    if query is None or not lineage_supports(query):
        return NulldpProbe(ok=False, reason="lineage compilation handles (U)CQs only")
    nulls = db.nulls
    if len(nulls) > DPDB_PROBE_VARIABLE_LIMIT:
        return NulldpProbe(
            ok=False,
            reason="probe over budget (%d nulls > %d)"
            % (len(nulls), DPDB_PROBE_VARIABLE_LIMIT),
        )
    matches = enumerate_valuation_matches(db, query)
    if not matches:
        return NulldpProbe(ok=True, reason="empty lineage: no valuation satisfies q", answer=0)
    if not matches[0]:
        total = 1
        for null in nulls:
            total *= len(db.domain_of(null))
        return NulldpProbe(
            ok=True, reason="constant-true lineage: every valuation satisfies q", answer=total
        )
    if len(matches) > DPDB_PROBE_CLAUSE_LIMIT:
        return NulldpProbe(
            ok=False,
            reason="probe over budget (%d matches > %d)"
            % (len(matches), DPDB_PROBE_CLAUSE_LIMIT),
        )
    return _compile(db, matches)


def _compile(db: IncompleteDatabase, matches: list) -> NulldpProbe:
    # Compressed axes: the values some match names for the null, numbered
    # in order of first appearance (the match list is deterministic), then
    # one bucket cell for the rest of its domain when any are left.
    index: dict[Any, int] = {}
    cell_of: list[dict[Any, int]] = []
    scoped = []
    for match in matches:
        pinned = []
        for null, value in match:
            i = index.get(null)
            if i is None:
                i = index[null] = len(cell_of)
                cell_of.append({})
            cells = cell_of[i]
            cell = cells.get(value)
            if cell is None:
                cell = cells[value] = len(cells)
            pinned.append((i, cell))
        pinned.sort()
        scoped.append(tuple(pinned))
    sizes: list[int] = [0] * len(index)
    buckets: list[int] = [0] * len(index)
    free = bound = 1
    for null in db.nulls:
        domain = len(db.domain_of(null))
        i = index.get(null)
        if i is None:
            free *= domain
            continue
        bound *= domain
        buckets[i] = domain - len(cell_of[i])
        sizes[i] = len(cell_of[i]) + (1 if buckets[i] else 0)

    masks = {i: 0 for i in range(len(index))}
    for match in scoped:
        clique = 0
        for i, _cell in match:
            clique |= 1 << i
        for i, _cell in match:
            masks[i] |= clique & ~(1 << i)
    order, _width, bags = elimination_bags_masks(masks, use_min_fill=False)
    position = {null: node for node, null in enumerate(order)}

    axes = tuple(tuple(_bits(bag)) for bag in bags)
    parent = [-1] * len(order)
    children: list[list[int]] = [[] for _ in order]
    for node, null in enumerate(order):
        separator = bags[node] & ~(1 << null)
        if separator:
            up = min(position[other] for other in _bits(separator))
            parent[node] = up
            children[up].append(node)

    homed: list[list[tuple[Any, ...]]] = [[] for _ in order]
    for match in scoped:
        home = min(position[i] for i, _cell in match)
        pinned = dict(match)
        homed[home].append(
            tuple(pinned.get(i, slice(None)) for i in axes[home])
        )

    joins = []
    for node in range(len(order)):
        node_joins = []
        for child in children[node]:
            separator = bags[child] & ~(1 << order[child])
            kept = [(separator >> i) & 1 for i in axes[node]]
            node_joins.append((
                child,
                tuple(sizes[i] if keep else 1 for i, keep in zip(axes[node], kept)),
                tuple(at for at, keep in enumerate(kept) if keep),
            ))
        joins.append(tuple(node_joins))
    tables = [prod(sizes[i] for i in bag) for bag in axes]
    return NulldpProbe(
        ok=True,
        reason="null elimination, largest table %d cells" % max(tables),
        cells=sum(tables),
        scope_max=max(len(bag) for bag in axes),
        table_max=max(tables),
        free=free,
        elimination=_Elimination(
            sizes=tuple(sizes),
            buckets=tuple(buckets),
            axes=axes,
            eliminated=tuple(order),
            parent=tuple(parent),
            joins=tuple(joins),
            zeroes=tuple(tuple(cells) for cells in homed),
            bound=bound,
        ),
    )


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


def _solve(plan: _Elimination) -> tuple[str, int]:
    """Pick the table dtype, run the pass(es), return ``#Val(¬q)`` over
    the participating nulls."""
    np = numpy_or_none()
    if np is None:
        return "python", _run_python(plan)
    if plan.bound < _INT64_SAFE:
        path, dtype = "int64", np.int64
    else:
        # The cheap bound failed: the float64 guard pass runs the same
        # elimination, and int64 is trusted only if its running maximum
        # stays clear of overflow (every cell is a nonnegative count).
        _, seen = _run_numpy(plan, np.float64, track_max=True)
        path, dtype = (
            ("int64+guard", np.int64) if seen < _INT64_GUARD
            else ("object+guard", object)
        )
    # Roots multiply as Python ints: each fits, their product need not.
    return path, prod(int(root) for root in _run_numpy(plan, dtype)[0])


def _run_numpy(
    plan: _Elimination, dtype: Any, track_max: bool = False
) -> tuple[Any, float]:
    """One elimination pass with one n-d tensor per node; returns the
    root scalars and the running maximum."""
    np = numpy_or_none()
    messages: list[Any] = [None] * len(plan.eliminated)
    roots: list[Any] = []
    seen = 0.0
    for node, null in enumerate(plan.eliminated):
        bag = plan.axes[node]
        table = None
        for child, shape, _picks in plan.joins[node]:
            aligned = messages[child].reshape(shape)
            messages[child] = None
            if table is None:
                table = np.empty([plan.sizes[i] for i in bag], dtype=dtype)
                table[...] = aligned
            else:
                np.multiply(table, aligned, out=table)
            if track_max:
                seen = max(seen, float(table.max()))
        if table is None:
            table = np.ones([plan.sizes[i] for i in bag], dtype=dtype)
        for cell in plan.zeroes[node]:
            table[cell] = 0
        axis = bag.index(null)
        message = table.sum(axis=axis)
        if plan.buckets[null] > 1:
            # The bucket is the last cell; it stands for this many values.
            message = message + (plan.buckets[null] - 1) * table.take(-1, axis=axis)
        message = np.asarray(message, dtype=dtype)
        if track_max:
            seen = max(seen, float(message.max()))
        if plan.parent[node] < 0:
            roots.append(message[()])
        else:
            messages[node] = message
    return roots, seen


def _run_python(plan: _Elimination) -> int:
    """The same elimination over dicts keyed by cell tuples (exact)."""
    messages: list[Any] = [None] * len(plan.eliminated)
    result = 1
    for node, null in enumerate(plan.eliminated):
        bag = plan.axes[node]
        axis = bag.index(null)
        reads = []
        for child, _shape, picks in plan.joins[node]:
            reads.append((messages[child], picks))
            messages[child] = None
        zeroes = [
            [(at, cell) for at, cell in enumerate(pinned) if not isinstance(cell, slice)]
            for pinned in plan.zeroes[node]
        ]
        weights = [1] * plan.sizes[null]
        if plan.buckets[null]:
            weights[-1] = plan.buckets[null]
        message: dict[tuple[int, ...], int] = {}
        for cells in itertools.product(*(range(plan.sizes[i]) for i in bag)):
            if any(all(cells[at] == cell for at, cell in pinned) for pinned in zeroes):
                continue
            value = weights[cells[axis]]
            for table, picks in reads:
                # A message holds only the cells some assignment reached.
                value *= table.get(tuple(cells[at] for at in picks), 0)
            if value:
                key = cells[:axis] + cells[axis + 1:]
                message[key] = message.get(key, 0) + value
        if plan.parent[node] < 0:
            result *= message.get((), 0)
        else:
            messages[node] = message
    return result


# ---------------------------------------------------------------------------
# the counting front door the planner registers
# ---------------------------------------------------------------------------


def count_valuations_nulldp(db: IncompleteDatabase, query: BooleanQuery) -> int:
    """``#Val(q)(D)`` by null elimination, bit-identical to
    ``method='lineage'``; delegates to the trail core when the probe is
    over budget or a table would exceed :data:`NULLDP_HARD_CELL_CAP`."""
    probe = nulldp_probe(db, query)
    if probe.answer is not None:
        return probe.answer
    plan = probe.elimination
    if not probe.ok or plan is None or probe.table_max > NULLDP_HARD_CELL_CAP:
        from repro.compile.backend import count_valuations_lineage

        _obs_event(
            "nulldp.fallback",
            reason=probe.reason if not probe.ok else
            "table of %d cells exceeds hard cap %d" % (probe.table_max, NULLDP_HARD_CELL_CAP),
        )
        return count_valuations_lineage(db, query)
    _incr("nulldp.runs")
    with _span("nulldp.eliminate", cells=probe.cells, scope_max=probe.scope_max):
        _path, falsifying = _solve(plan)
    return probe.free * (plan.bound - falsifying)


__all__ = [
    "NULLDP_CELL_LIMIT",
    "NULLDP_HARD_CELL_CAP",
    "NulldpProbe",
    "count_valuations_nulldp",
    "nulldp_probe",
]
