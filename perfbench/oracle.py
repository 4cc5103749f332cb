"""Independent answers for every instance the benchmark runs.

Nothing here calls the program's counting code: each answer comes from a
closed form or a small dynamic program written for the instance family, so
a wrong answer from any of the program's methods shows as a mismatch.

* colourings (``R(x,x)`` over a colouring database): ``#Val`` counts the
  *improper* colourings, i.e. the total weight minus the proper ones.
  Plain cycles use ``k^n - (k-1)^n - (-1)^n (k-1)``; weighted cycles and
  paths use per-vertex transfer vectors; grids use a column transfer
  matrix;
* the interval-overlap ``#Comp`` family: a DP over the value line;
* the four polynomial Table 1 families of the CLI workload: per-family
  closed forms;
* chorded cycles have no closed form: their answers come from the
  committed ``expected.json`` (see ``make_expected.py``).
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from functools import lru_cache

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


# -- colourings ----------------------------------------------------------


def cycle_improper(n: int, k: int) -> int:
    """Improper ``k``-colourings of a plain ``n``-cycle."""
    return k ** n - (k - 1) ** n - (-1) ** n * (k - 1)


def proper_weighted(weights, closed: bool, missing=frozenset()):
    """Weighted proper colourings of a path/cycle ``0 - 1 - ... - n-1``.

    ``weights[v]`` is the colour -> weight table of vertex ``v`` (weight 0
    or an absent colour forbids it); ``closed`` adds the edge
    ``(n-1, 0)``; ``missing`` holds the indices ``i`` whose edge
    ``(i, i+1 mod n)`` was deleted.
    """
    n = len(weights)
    colours = sorted({c for table in weights for c in table})
    total = 0
    starts = colours if closed else [None]
    for first in starts:
        if first is None:
            vector = {c: weights[0].get(c, 0) for c in colours}
        else:
            vector = {c: (weights[0].get(c, 0) if c == first else 0) for c in colours}
        for v in range(1, n):
            table = weights[v]
            mass = sum(vector.values())
            if (v - 1) in missing:
                vector = {c: mass * table.get(c, 0) for c in colours}
            else:
                vector = {
                    c: (mass - vector[c]) * table.get(c, 0) for c in colours
                }
        if first is None:
            total += sum(vector.values())
        elif (n - 1) in missing:
            total += sum(vector.values())
        else:
            total += sum(value for c, value in vector.items() if c != first)
    return total


def total_weight(weights):
    product = 1
    for table in weights:
        product *= sum(table.values())
    return product


def improper_weighted(weights, closed: bool = True, missing=frozenset()):
    """Weighted ``#Val(R(x,x))`` of a cycle/path colouring database."""
    return total_weight(weights) - proper_weighted(weights, closed, missing)


def marginals_weighted(weights, closed: bool = True, missing=frozenset()):
    """``P[v = c | query holds]`` for every vertex and colour, as
    ``{v: {c: Fraction}}`` under the weighted valuation distribution."""
    satisfying = improper_weighted(weights, closed, missing)
    table = {}
    for v, row in enumerate(weights):
        table[v] = {}
        for c, weight in row.items():
            pinned = list(weights)
            pinned[v] = {c: weight}
            table[v][c] = Fraction(
                improper_weighted(pinned, closed, missing), satisfying
            )
    return table


@lru_cache(maxsize=None)
def grid_improper(rows: int, cols: int, k: int) -> int:
    """Improper ``k``-colourings of a ``rows x cols`` grid graph."""
    states = [
        column
        for column in itertools.product(range(k), repeat=rows)
        if all(column[i] != column[i + 1] for i in range(rows - 1))
    ]
    vector = [1] * len(states)
    for _ in range(cols - 1):
        vector = [
            sum(
                vector[j]
                for j, prev in enumerate(states)
                if all(a != b for a, b in zip(prev, state))
            )
            for state in states
        ]
    return k ** (rows * cols) - sum(vector)


# -- interval-overlap #Comp ----------------------------------------------


def interval_comp(size: int, overlap: int, s_values) -> int:
    """``#Comp(R(x), S(x))`` of the interval-overlap family.

    Null ``i`` ranges over values ``i .. i+overlap-1``.  A set ``X`` of
    values is the ``R`` part of some completion iff every null's window
    meets ``X`` (no ``overlap`` consecutive values left out) and ``X`` can
    be matched into distinct nulls, which on these windows only fails for
    ``|X| > size``.  The query holds iff ``X`` meets the ``S`` values.
    """
    m = size + overlap - 1
    hit = [False] * m
    for value in s_values:
        hit[value] = True
    # state: (zeros at the end, ones so far, meets S) -> number of prefixes
    states = {(0, 0, False): 1}
    for position in range(m):
        following = {}
        for (zeros, ones, meets), count in states.items():
            if zeros + 1 < overlap:
                key = (zeros + 1, ones, meets)
                following[key] = following.get(key, 0) + count
            if ones + 1 <= size:
                key = (0, ones + 1, meets or hit[position])
                following[key] = following.get(key, 0) + count
        states = following
    return sum(count for (_z, _o, meets), count in states.items() if meets)


# -- polynomial Table 1 families -----------------------------------------


def _is_null(term) -> bool:
    return isinstance(term, str) and term.startswith("?")


def tractable_answer(family: str, spec: dict) -> int:
    """The answer for one CLI database file of the given family.

    ``spec`` is the plain description :mod:`corpus` writes the file from:
    ``facts`` as ``(relation, [terms])`` with ``?name`` nulls, and either
    ``domain`` (uniform) or ``dom`` (per null).
    """
    facts = spec["facts"]
    domain_of = (
        (lambda null: spec["domain"]) if "domain" in spec
        else (lambda null: spec["dom"][null])
    )
    nulls = sorted({t for _r, terms in facts for t in terms if _is_null(t)})
    total = 1
    for null in nulls:
        total *= len(domain_of(null))
    relation = {name: [terms for r, terms in facts if r == name] for name in ("R", "S")}
    if family == "single-occurrence":
        # R(x,y), S(z): every valuation keeps an R and an S fact.
        return total if relation["R"] and relation["S"] else 0
    if family == "codd":
        # R(x,x), S(y,z) over a Codd table: R facts are independent.
        if not relation["S"]:
            return 0
        unequal = 1
        in_r = set()
        for t1, t2 in relation["R"]:
            in_r.update(t for t in (t1, t2) if _is_null(t))
            if _is_null(t1) and _is_null(t2):
                d1, d2 = set(domain_of(t1)), set(domain_of(t2))
                unequal *= len(d1) * len(d2) - len(d1 & d2)
            elif _is_null(t1) or _is_null(t2):
                null, const = (t1, t2) if _is_null(t1) else (t2, t1)
                unequal *= len(domain_of(null)) - (const in domain_of(null))
            else:
                unequal *= int(t1 != t2)
        for null in nulls:
            if null not in in_r:
                unequal *= len(domain_of(null))
        return total - unequal
    if family == "uniform":
        return _uniform_val(spec["domain"], relation["R"], relation["S"], total)
    if family == "uniform-unary":
        return _uniform_unary_comp(spec["domain"], relation["R"], relation["S"])
    raise ValueError("unknown family %r" % family)


def _split(terms_list):
    nulls, constants = set(), set()
    for (term,) in terms_list:
        (nulls if _is_null(term) else constants).add(term)
    return nulls, constants


def _surjections(n: int, k: int) -> int:
    return sum((-1) ** j * _binomial(k, j) * (k - j) ** n for j in range(k + 1))


def _binomial(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result


def _uniform_val(domain, r_terms, s_terms, total: int) -> int:
    """``#Val(R(x), S(x))`` over a uniform table with unary ``R``, ``S``."""
    r_nulls, r_consts = _split(r_terms)
    s_nulls, s_consts = _split(s_terms)
    if r_nulls & s_nulls or r_consts & s_consts:
        return total
    domain = list(domain)
    r_only, s_only = len(r_nulls), len(s_nulls)
    disjoint = 0
    # T: the values the R nulls take; S nulls avoid T and R's constants.
    for size in range(len(domain) + 1):
        for chosen in itertools.combinations(domain, size):
            chosen = set(chosen)
            if chosen & s_consts:
                continue
            if r_only == 0 and chosen:
                continue
            onto = _surjections(r_only, len(chosen)) if r_only else 1
            free = len([v for v in domain if v not in chosen and v not in r_consts])
            disjoint += onto * free ** s_only
    return total - disjoint


def _uniform_unary_comp(domain, r_terms, s_terms) -> int:
    """``#Comp(R(x), S(x))`` over a uniform table with unary ``R``, ``S``."""
    r_nulls, r_consts = _split(r_terms)
    s_nulls, s_consts = _split(s_terms)
    both = r_nulls & s_nulls
    values = sorted(domain)
    index = {v: i for i, v in enumerate(values)}

    def mask(constants):
        return sum(1 << index[c] for c in constants if c in index), [
            c for c in constants if c not in index
        ]

    r_mask, r_extra = mask(r_consts)
    s_mask, s_extra = mask(s_consts)
    return _comp_pairs(
        len(values),
        len(r_nulls - both),
        len(s_nulls - both),
        len(both),
        r_mask,
        s_mask,
        bool(set(r_extra) & set(s_extra)),
    )


@lru_cache(maxsize=None)
def _comp_pairs(d, r_only, s_only, both, r_mask, s_mask, extra_meet) -> int:
    def images(group):
        if group == 0:
            return [0]
        return [m for m in range(1, 1 << d) if bin(m).count("1") <= group]

    pairs = set()
    for c in images(both):
        for a in images(r_only):
            for b in images(s_only):
                pairs.add((r_mask | a | c, s_mask | b | c))
    return sum(1 for r, s in pairs if extra_meet or r & s)


# -- committed answers ---------------------------------------------------


def load_expected() -> dict:
    """The committed catalogue: ``chorded_cycles`` and ``interval_comp``
    entry lists."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
