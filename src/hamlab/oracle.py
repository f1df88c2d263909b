"""Brute-force ground truth for tiny instances.

Everything here recomputes quantities from the definitions: subset
enumeration for graph sensitivity, same-part pair scans for partition metrics,
full function-space sweeps for the sensitivity/degree inequality.  Results
are the reference the fast paths and closed forms must match.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    ContractViolationError,
    DEFAULT_FUNCTION_CAP,
    DEFAULT_ORACLE_METRICS_CAP,
    DEFAULT_ORACLE_VERTEX_CAP,
    DEFAULT_SUBSET_CAP,
    InvalidInputError,
    ResourceLimitError,
    check_enumeration,
    item_count,
    power_exceeds,
)
from .functions import (
    FiniteFunction,
    _alphabets,
    _squared_ratio,
    _sweep,
    boolean_restriction_witness,
    verify_sensitivity_bound,
)
from .graph import GraphParams, VertexSet, _membership, neighbors, rank, unrank
from .partitions import Partition, PartitionMetrics


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits enforced before any enumeration begins."""

    max_vertices: int = DEFAULT_ORACLE_VERTEX_CAP
    max_subsets: int = DEFAULT_SUBSET_CAP
    max_functions: int = DEFAULT_FUNCTION_CAP

    def __post_init__(self) -> None:
        if min(self.max_vertices, self.max_subsets, self.max_functions) <= 0:
            raise InvalidInputError("budget limits must be positive")


def _neighbor_masks(params: GraphParams) -> list[int]:
    """For each rank, the bitmask with bit u set for every neighbour rank u."""
    return [sum(1 << rank(v, params) for v in neighbors(unrank(r, params), params))
            for r in range(params.vertex_count)]


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
    The value and the witness are the unpruned ones: vertex-transitivity
    gives an optimal subset through rank 0, and combinations order lists
    every such subset first.
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
    adjacent = _neighbor_masks(params)
    bits = [1 << r for r in range(count)]
    # combinations order lists the comb(count-1, k-1) subsets through rank 0
    # first; islice refuses a stop past sys.maxsize, which no search reaches
    candidates = itertools.islice(itertools.combinations(range(count), k),
                                  min(total, sys.maxsize))
    best = count  # above any possible degree
    witness: tuple[int, ...] = ()
    for subset in candidates:
        members = 0
        for r in subset:
            members |= bits[r]
        subset_max = 0
        for r in subset:
            deg = (adjacent[r] & members).bit_count()
            if deg > subset_max:
                subset_max = deg
                if subset_max >= best:
                    break
        if subset_max < best:
            best = subset_max
            witness = subset
            if best == 0:
                break
    return best, VertexSet(params, _membership(count, witness))


def sigma_exact(m: int, n: int, budget: SearchBudget = SearchBudget()) -> int:
    """Graph sensitivity: minimum induced maximum degree over all subsets one
    larger than the independence number m^(n-1)."""
    if m < 2 or n < 1:  # before the budget and the power
        raise InvalidInputError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    check_enumeration(m, n, budget.max_vertices)
    return min_max_degree_subsets(m, n, m ** (n - 1) + 1, budget=budget)[0]


@dataclass
class FunctionCheckReport:
    """Outcome of sweeping a function space against the sensitivity bound and
    the restriction pipeline."""

    functions_checked: int = 0
    violations: int = 0
    violation_tables: list[tuple[int, ...]] = field(default_factory=list)
    min_ratio: Optional[float] = None
    min_ratio_table: Optional[tuple[int, ...]] = None

    def to_doc(self) -> dict:
        return {
            "functionsChecked": self.functions_checked,
            "violations": self.violations,
            "violationTables": [list(t) for t in self.violation_tables],
            "minRatio": self.min_ratio,
            "minRatioTable": list(self.min_ratio_table)
            if self.min_ratio_table is not None
            else None,
        }


def exhaustive_function_check(
    domain,
    arity: int,
    codomain,
    budget: SearchBudget = SearchBudget(),
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> FunctionCheckReport:
    """Sweep all functions domain^arity -> codomain (or a seeded sample) and
    verify the sensitivity bound plus the restriction pipeline guarantees on
    each; any failure counts as a violation.

    Sampling requires an explicit seed; full enumeration must fit the
    function budget.  The grid and the codomain are checked against the
    budget before either is built.

    The chunk pipeline is ``functions._sweep``; this function keeps the
    budget, the report and the replay of the least-ratio table through the
    one-table public path (see ``_replay``).
    """
    check_enumeration(item_count(domain), max(arity, 1), budget.max_vertices, "grid points")
    check_enumeration(item_count(codomain), 1, budget.max_functions, "codomain values")
    domain, codomain = _alphabets(domain, codomain, arity)
    m, k = len(domain), len(codomain)
    point_count = m ** arity
    if samples is None:
        if power_exceeds(k, point_count, budget.max_functions):
            raise ResourceLimitError(
                f"{k}^{point_count} functions exceed the budget {budget.max_functions}; "
                "use sampling with an explicit seed"
            )
        tables = itertools.product(range(k), repeat=point_count)
    else:
        if seed is None:
            raise InvalidInputError("sampling requires an explicit seed")
        if samples <= 0 or samples > budget.max_functions:
            raise InvalidInputError(f"bad sample count {samples}")
        rng = random.Random(seed)
        tables = (tuple(rng.randrange(k) for _ in range(point_count))
                  for _ in range(samples))

    report = FunctionCheckReport()
    best_key, best_ok = None, True
    for table, s, d, ok in _sweep(domain, codomain, arity, tables):
        if d:
            ratio_key = _squared_ratio(s, d, m)
            if best_key is None or ratio_key < best_key:
                best_key, best_ok = ratio_key, ok
                report.min_ratio = math.sqrt(ratio_key)
                report.min_ratio_table = table
        report.functions_checked += 1
        if not ok:
            report.violations += 1
            if len(report.violation_tables) < 10:
                report.violation_tables.append(table)
    if report.min_ratio_table is not None:
        _replay(FiniteFunction(domain, codomain, arity, report.min_ratio_table), best_key,
                best_ok)
    return report


def _replay(f: FiniteFunction, ratio_key: Fraction, ok: bool) -> None:
    """Check one table of a sweep again through the one-table public path
    that ``fn verify`` and ``fn restrict`` take: its squared ratio and
    its verdict must be the chunked sweep's."""
    bound = verify_sensitivity_bound(f)
    _, _, certified = boolean_restriction_witness(f).check(bound.sensitivity)
    key = _squared_ratio(bound.sensitivity, bound.degree, len(f.domain))
    verdict = bound.holds and certified
    if (key, verdict) != (ratio_key, ok):
        raise ContractViolationError(
            f"the one-table path reads squared ratio {key} and verdict {verdict} where the "
            f"sweep reads {ratio_key} and {ok}, on table {list(f.values)}")


def brute_force_metrics(
    part: Partition, cap: int = DEFAULT_ORACLE_METRICS_CAP
) -> PartitionMetrics:
    """Recompute partition metrics by scanning every pair of vertices in the
    same part; must agree with the fast path."""
    params = part.params
    check_enumeration(params.m, params.n, cap)
    count = params.vertex_count
    words = [unrank(r, params) for r in range(count)]
    groups: list[list[int]] = [[] for _ in range(params.m)]  # the ranks of each part
    for r, a in enumerate(part.assignment):
        groups[a].append(r)
    degrees = [0] * count
    for group in groups:
        for i, j in itertools.combinations(group, 2):
            differing = 0
            for a, b in zip(words[i], words[j]):
                if a != b:
                    differing += 1
                    if differing > 1:
                        break
            if differing == 1:
                degrees[i] += 1
                degrees[j] += 1
    sizes = [len(group) for group in groups]
    balanced = params.m ** (params.n - 1)
    max_degree = max(degrees)
    witness = words[degrees.index(max_degree)]
    return PartitionMetrics(
        max_degree,
        sum(abs(s - balanced) for s in sizes),
        tuple(sizes),
        witness,
    )
