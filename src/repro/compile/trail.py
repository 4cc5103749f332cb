"""The trail: an occurrence-indexed clause store with in-place propagation.

:class:`ClauseStore` is the mutable heart of the trail-based model counter
(:mod:`repro.compile.sharpsat`).  Where the tuple-based counter it replaced
(kept as the test oracle ``tests/support/sharpsat_reference.py``) rebuilds
the whole residual formula as fresh clause tuples on every decision, the
store keeps **one** copy of every clause and two integers of live state
per clause:

* ``sat[ci]`` — how many of the clause's literals are currently true
  (``0`` means the clause is still live);
* ``free[ci]`` — how many of its literals are still unassigned.

Assigning a literal walks only the clauses its variable occurs in (the
occurrence index, built once), bumping those counters in place: a clause
turns **unit** when ``sat == 0 and free == 1`` (the survivor is queued for
propagation) and **conflicting** at ``sat == 0 and free == 0``.  All
assignments land on a single :attr:`trail`; :meth:`backtrack` pops it and
replays the counter updates in reverse, so undoing a decision costs
exactly what making it cost — touched clauses, not formula size.

The store deliberately knows nothing about counting, components, caching
or traces — those live in the counter.  It exposes the pieces they need:
per-clause static variable bitsets (:attr:`var_masks`), the trail mark /
backtrack pair, and :meth:`snapshot` for the invariant tests (a
propagate/backtrack round trip must restore the snapshot bit for bit).
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ClauseStore:
    """One formula, occurrence-indexed, with trail-based in-place state."""

    __slots__ = (
        "num_variables", "clauses", "occ_pos", "occ_neg",
        "free", "sat", "value", "trail", "var_masks",
        "has_empty", "units",
        "propagations", "conflicts", "max_trail_depth",
    )

    def __init__(
        self, num_variables: int, clauses: Iterable[Sequence[int]]
    ) -> None:
        self.num_variables = num_variables
        #: Clause literal tuples, canonically sorted by variable.
        self.clauses: list[tuple[int, ...]] = [
            tuple(clause) for clause in clauses
        ]
        size = num_variables + 1
        #: ``occ_pos[v]`` / ``occ_neg[v]`` — indices of clauses containing
        #: the literal ``v`` / ``-v``.  Built once; never mutated.
        self.occ_pos: list[list[int]] = [[] for _ in range(size)]
        self.occ_neg: list[list[int]] = [[] for _ in range(size)]
        self.free: list[int] = []
        self.sat: list[int] = []
        #: Static bitset of each clause's variables (bit ``v`` set).
        self.var_masks: list[int] = []
        #: ``value[v]``: 0 unassigned, 1 true, -1 false.
        self.value: list[int] = [0] * size
        #: Assigned literals in assignment order.
        self.trail: list[int] = []
        self.has_empty = False
        #: Literals of the input's unit clauses (root propagation seeds).
        self.units: list[int] = []
        #: Lifetime search statistics, maintained at propagate-call
        #: boundaries only (plain int adds; never touched per literal).
        self.propagations = 0
        self.conflicts = 0
        self.max_trail_depth = 0
        for index, clause in enumerate(self.clauses):
            mask = 0
            for literal in clause:
                if literal > 0:
                    self.occ_pos[literal].append(index)
                    mask |= 1 << literal
                else:
                    self.occ_neg[-literal].append(index)
                    mask |= 1 << -literal
            self.free.append(len(clause))
            self.sat.append(0)
            self.var_masks.append(mask)
            if not clause:
                self.has_empty = True
            elif len(clause) == 1:
                self.units.append(clause[0])

    # -- trail -------------------------------------------------------------

    def mark(self) -> int:
        """The current trail height; pass to :meth:`backtrack` to undo."""
        return len(self.trail)

    def propagate(self, literals: Iterable[int]) -> bool:
        """Assign ``literals`` and run unit propagation to fixpoint.

        Returns ``False`` on conflict (a clause ran out of literals, or a
        queued literal contradicts the current assignment).  Either way
        every counter update is matched by the trail, so the caller
        unwinds with ``backtrack(mark)`` — there is no torn state.
        """
        value = self.value
        free = self.free
        sat = self.sat
        occ_pos = self.occ_pos
        occ_neg = self.occ_neg
        clauses = self.clauses
        trail = self.trail
        queue = list(literals)
        cursor = 0
        conflict = False
        height = len(trail)
        while cursor < len(queue):
            literal = queue[cursor]
            cursor += 1
            variable = literal if literal > 0 else -literal
            current = value[variable]
            if current:
                if (current > 0) != (literal > 0):
                    self.propagations += len(trail) - height
                    self.conflicts += 1
                    return False
                continue
            value[variable] = 1 if literal > 0 else -1
            trail.append(literal)
            if literal > 0:
                satisfied, touched = occ_pos[variable], occ_neg[variable]
            else:
                satisfied, touched = occ_neg[variable], occ_pos[variable]
            for ci in satisfied:
                sat[ci] += 1
                free[ci] -= 1
            # The decrements below must run even after a conflict is found
            # mid-loop: backtrack replays them symmetrically, so the
            # counters may never be left half-updated.  Only the *checks*
            # stop once the branch is dead.
            for ci in touched:
                remaining = free[ci] - 1
                free[ci] = remaining
                if not conflict and not sat[ci]:
                    if remaining == 0:
                        conflict = True
                    elif remaining == 1:
                        for unit in clauses[ci]:
                            unit_var = unit if unit > 0 else -unit
                            if not value[unit_var]:
                                queue.append(unit)
                                break
            if conflict:
                self.propagations += len(trail) - height
                self.conflicts += 1
                return False
        depth = len(trail)
        self.propagations += depth - height
        if depth > self.max_trail_depth:
            self.max_trail_depth = depth
        return True

    def backtrack(self, mark: int) -> None:
        """Pop the trail back to ``mark``, reversing every counter update."""
        value = self.value
        free = self.free
        sat = self.sat
        occ_pos = self.occ_pos
        occ_neg = self.occ_neg
        trail = self.trail
        while len(trail) > mark:
            literal = trail.pop()
            variable = literal if literal > 0 else -literal
            value[variable] = 0
            if literal > 0:
                satisfied, touched = occ_pos[variable], occ_neg[variable]
            else:
                satisfied, touched = occ_neg[variable], occ_pos[variable]
            for ci in satisfied:
                sat[ci] -= 1
                free[ci] += 1
            for ci in touched:
                free[ci] += 1

    # -- inspection --------------------------------------------------------

    def live_indices(self) -> list[int]:
        """Indices of clauses no current assignment satisfies."""
        sat = self.sat
        return [ci for ci in range(len(self.clauses)) if not sat[ci]]

    def reduced_clause(self, index: int) -> tuple[int, ...]:
        """The clause's unassigned literals, in stored (canonical) order."""
        value = self.value
        return tuple(
            literal
            for literal in self.clauses[index]
            if not value[literal if literal > 0 else -literal]
        )

    def snapshot(self) -> tuple:
        """Full live-state fingerprint, for trail round-trip tests."""
        return (
            tuple(self.free),
            tuple(self.sat),
            tuple(self.value),
            tuple(self.trail),
        )

    def __repr__(self) -> str:
        return "ClauseStore(n=%d, clauses=%d, trail=%d)" % (
            self.num_variables, len(self.clauses), len(self.trail),
        )
