"""Static branching order from a CNF, for the oracles and the harness.

The model counter derives its order from the adjacency masks its
occurrence index already holds
(:func:`repro.compile.ordering.branching_order_masks`); only the
reference counter, the tests and the benchmark harness start from a
plain CNF, so this wrapper lives with them.
"""

from __future__ import annotations

from repro.complexity.cnf import CNF
from repro.compile.ordering import branching_order_masks, primal_masks


def branching_order(cnf: CNF) -> tuple[list[int], int]:
    """Static branching order for the counter: reverse elimination order.

    The last vertex eliminated corresponds to the root bag of the induced
    tree decomposition; assigning it first disconnects the decomposition's
    subtrees, so component splitting fires as early as possible.  Variables
    absent from every clause are unconstrained and omitted.  Also returns
    the induced width as a difficulty estimate.
    """
    return branching_order_masks(primal_masks(cnf))
