"""Exact subset search with a monotone prefix cut.

``min_max_degree_subsets`` and ``sigma`` return what the flat enumeration
in ``oracle`` returns, value and witness alike, from far fewer subsets.
Subsets are built depth first in ``itertools.combinations`` order, and each
chosen vertex keeps its count of chosen neighbours.  Adding a vertex never
lowers an induced degree, so a prefix whose maximum degree already reaches
the best value found cannot lead to a better subset and is cut.  Only
strictly better subsets replace the witness, so it is the first optimal
subset in combinations order, as in the flat enumeration.

This module imports nothing from ``oracle``: the flat enumeration there is
the independent reference the tests hold this search to.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import InvalidInputError, ResourceLimitError, SearchBudget, check_enumeration
from .graph import GraphParams, VertexSet, _membership


def _neighbor_masks(m: int, n: int) -> list[int]:
    """For each rank, the bitmask with bit u set for every neighbour rank u.

    The ranks that differ from r only in the digit of weight w form the
    line r + (b - d) w, b = 0..m-1, where d is that digit of r; the n lines
    through r meet only at r.
    """
    lines = [(w, sum(1 << b * w for b in range(m))) for w in (m ** j for j in range(n))]
    masks = []
    for r in range(m ** n):
        mask = 0
        for w, line in lines:
            mask |= line << r - r // w % m * w
        masks.append(mask ^ 1 << r)
    return masks


def _first_best_subset(adjacent: list[int], k: int,
                       first_stop: int) -> tuple[int, tuple[int, ...]]:
    """The least induced maximum degree over the k-subsets of the ranks of
    ``adjacent`` whose least rank is below ``first_stop``, and the first
    subset in combinations order that attains it.

    The walk is a loop over an explicit stack, not a recursion, so no k is
    too deep for it.  Where the ranks left are exactly the ones the subset
    still needs, that one subset is checked whole, as the flat enumeration
    checks each, instead of a rank at a time.
    """
    count = len(adjacent)
    degrees = [0] * count  # for each chosen rank, its count of chosen neighbours
    chosen: list[int] = []
    raised_by: list[list[int]] = []  # for each chosen rank, the chosen ranks it raised
    stack = []  # for each shallower depth, its (next rank, stop, members, top)
    best, witness = count, ()  # above any possible degree
    last = count - k  # the last rank that can start a subset
    # try ranks v..stop-1 after ``chosen``, whose members bitmask is
    # ``members`` and induced maximum degree ``top``
    v, stop, members, top = 0, first_stop, 0, 0
    while True:
        if v >= stop or top >= best:  # no rank left, or none can do better
            if not stack:
                break
            v, stop, members, top = stack.pop()
            chosen.pop()
            for u in raised_by.pop():
                degrees[u] -= 1
            continue
        if v == last + len(chosen):  # the subset must take every rank from v on
            full = members | -1 << v
            high = top
            for u in chain(chosen, range(v, count)):
                degree = (adjacent[u] & full).bit_count()
                if degree > high:
                    high = degree
                    if high >= best:
                        break
            else:
                best, witness = high, (*chosen, *range(v, count))
                if best == 0:
                    break
            v += 1
            continue
        shared = adjacent[v] & members
        raised = []
        high = max(top, shared.bit_count())
        while shared:
            low = shared & -shared
            shared ^= low
            u = low.bit_length() - 1
            raised.append(u)
            if degrees[u] >= high:
                high = degrees[u] + 1
        if high >= best:  # every subset through this prefix does as badly
            v += 1
        elif len(chosen) + 1 == k:
            best, witness = high, (*chosen, v)
            if best == 0:
                break
            v += 1
        else:
            for u in raised:
                degrees[u] += 1
            degrees[v] = len(raised)
            stack.append((v + 1, stop, members, top))
            chosen.append(v)
            raised_by.append(raised)
            # the rank after v leaves room for the k - len(chosen) - 1 after it
            v, stop, members, top = v + 1, last + len(chosen) + 1, members | 1 << v, high
    return best, witness


def min_max_degree_subsets(
    m: int,
    n: int,
    k: int,
    budget: SearchBudget = SearchBudget(),
    fix_first_vertex: bool = False,
) -> tuple[int, VertexSet]:
    """Exact minimum of the induced maximum degree over all k-subsets, with
    the first optimal subset in enumeration order as witness.

    ``fix_first_vertex`` restricts the search to subsets containing rank 0.
    Inputs are refused as ``oracle.min_max_degree_subsets`` refuses them,
    with the budget charged for every subset before the search starts.
    """
    params = GraphParams(m, n)
    check_enumeration(m, n, budget.max_vertices)
    count = params.vertex_count
    if not 0 <= k <= count:
        raise InvalidInputError(f"need 0 <= k <= {count}, got k={k}")
    if k == 0:
        return 0, VertexSet(params, bytes(count))
    total = math.comb(count - 1, k - 1) if fix_first_vertex else math.comb(count, k)
    if total > budget.max_subsets:
        raise ResourceLimitError(f"{total} subsets exceed the budget {budget.max_subsets}")
    # rank v can start a subset while k - 1 ranks remain above it
    first_stop = 1 if fix_first_vertex else count - k + 1
    best, witness = _first_best_subset(_neighbor_masks(m, n), k, first_stop)
    return best, VertexSet(params, _membership(count, witness))


def sigma(m: int, n: int, budget: SearchBudget = SearchBudget()) -> int:
    """Graph sensitivity: minimum induced maximum degree over all subsets one
    larger than the independence number m^(n-1)."""
    if m < 2 or n < 1:  # before the budget and the power
        raise InvalidInputError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    check_enumeration(m, n, budget.max_vertices)
    return min_max_degree_subsets(m, n, m ** (n - 1) + 1, budget=budget)[0]
