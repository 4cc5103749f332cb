"""Terms of the data model: constants and labeled nulls.

Constants are ordinary hashable Python values (strings, ints, tuples...).
Nulls are explicit :class:`Null` objects so that "null-ness" is a property of
the value itself, never of a naming convention — ``Null("a")`` and the
constant ``"a"`` coexist without ambiguity.
"""

from __future__ import annotations

from typing import Any, Hashable


class Null:
    """A labeled null ``⊥_label`` (Section 2: elements of ``Nulls``).

    Two nulls are equal iff their labels are equal; a null is never equal to
    a constant.  Instances are immutable and hashable so they can populate
    facts, sets and dict keys.
    """

    __slots__ = ("_label", "_hash")

    def __init__(self, label: Hashable) -> None:
        self._label = label
        # Nulls key every lineage table and match set; hash the label once.
        self._hash = hash(("repro.Null", label))

    @property
    def label(self) -> Hashable:
        return self._label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and other._label == self._label

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuild from the label: string hashes differ between processes.
        return (Null, (self._label,))

    def __repr__(self) -> str:
        return "⊥%s" % (self._label,)

    def __lt__(self, other: "Null") -> bool:
        # Deterministic ordering for reproducible iteration in algorithms.
        if not isinstance(other, Null):
            return NotImplemented
        return repr(self) < repr(other)


Term = Any  # a constant (any hashable) or a Null


def is_null(term: Term) -> bool:
    """True when ``term`` is a labeled null."""
    return isinstance(term, Null)


def is_constant(term: Term) -> bool:
    """True when ``term`` is a constant (i.e. not a null)."""
    return not isinstance(term, Null)


def fresh_nulls(count: int, prefix: str = "n") -> list[Null]:
    """``count`` distinct nulls with labels ``prefix0 .. prefix{count-1}``."""
    return [Null("%s%d" % (prefix, i)) for i in range(count)]
