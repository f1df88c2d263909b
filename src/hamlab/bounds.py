"""Evaluators for every degree/imbalance bound formula, plus consistency
checks of measured constructions against them.

Rational-valued bounds are computed exactly.  Irrational bounds (square
roots, logarithms) are floats with absolute error well under 1e-9 and are
compared conservatively: a lower bound is rounded down by that slack before
comparing against a measured degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .encoding import value_token
from .errors import BoundNotApplicableError, InvalidInputError
from .partitions import _theorem_base

FLOAT_SLACK = 1e-9

BoundValue = Union[Fraction, int, float]

REPORT_FIELDS = ("bound", "m", "n", "d_or_eps", "value", "measured", "verdict")


@dataclass(frozen=True)
class BoundsReport:
    """One evaluated bound, optionally checked against a measured quantity."""

    bound: str
    m: int
    n: int
    d_or_eps: str
    value: BoundValue
    measured: Optional[int] = None
    satisfied: Optional[bool] = None

    @property
    def verdict(self) -> str:
        if self.satisfied is None:
            return "NA"
        return "PASS" if self.satisfied else "FAIL"

    def to_record(self) -> dict:
        return {
            "bound": self.bound,
            "m": self.m,
            "n": self.n,
            "d_or_eps": self.d_or_eps,
            "value": value_token(self.value),
            "measured": self.measured,
            "verdict": self.verdict,
        }


def degree_one_imbalance(m: int, n: int) -> int:
    """Imbalance of the degree-1 partition on (m, n): m-2 for even m, m-1 for
    odd m; for n = 1 that partition is the complete-graph one with d = 1."""
    if m < 2 or n < 1:
        raise InvalidInputError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if n == 1:
        return complete_graph_imbalance(m, 1)
    return m - 2 if m % 2 == 0 else m - 1


def complete_graph_imbalance(m: int, d: int) -> int:
    """Imbalance 2*floor(d*m/(d+1)) of the complete-graph partition of K_m
    into blocks of size at most d+1."""
    if not 0 <= d <= m:
        raise InvalidInputError(f"need 0 <= d <= m, got d={d}, m={m}")
    return 2 * (d * m // (d + 1))


def lift_imbalance(m: int, n_base: int, n: int, base_imbalance: int) -> int:
    """Imbalance of a partition on n' = n_base coordinates lifted to n: every
    fiber of the block-sum map holds m^(n-n') vertices, so the imbalance
    scales by exactly that factor."""
    return base_imbalance * m ** (n - n_base)


def theorem_imbalance_bound(m: int, d: int, n: int) -> tuple[Fraction, int]:
    """The closed-form imbalance the main partition theorem promises for
    (m, d, n), alongside the value the construction actually achieves.

    The construction lifts the degree-1 partition on ceil(n/d) coordinates
    for d < n, a complete-graph partition on one coordinate for d >= n.  The
    two values coincide for d < n.  For d >= n the closed form 2 m^n q/(q+1)
    with q = floor(d/n) exceeds the construction whenever q+1 does not
    divide m; callers flag (not fail) that gap.
    """
    n_base, d_base, _ = _theorem_base(m, d, n)
    if n_base > 1:
        achieved = lift_imbalance(m, n_base, n, degree_one_imbalance(m, n_base))
        return Fraction(achieved), achieved
    q = d // n
    achieved = lift_imbalance(m, 1, n, complete_graph_imbalance(m, d_base))
    return Fraction(2 * m ** n * q, q + 1), achieved


def markov_degree_lower_bound(m: int, n: int, subgraph_size: int) -> Fraction:
    """Exact lower bound on the maximum degree of any induced subgraph of the
    given size, from the supersaturation / averaging argument.

    With eps = size/m^n - 1/m the bound is 2*eps*n / ((m-1)(1/m + eps));
    applicable only when the size exceeds the balanced size m^(n-1).
    """
    if m < 2 or n < 1:
        raise InvalidInputError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if not 0 <= subgraph_size <= m ** n:
        raise InvalidInputError(f"size {subgraph_size} outside 0..{m ** n}")
    eps = Fraction(subgraph_size, m ** n) - Fraction(1, m)
    if eps <= 0:
        raise BoundNotApplicableError(
            f"size {subgraph_size} does not exceed the balanced size {m ** (n - 1)}"
        )
    return 2 * eps * n / ((m - 1) * (Fraction(1, m) + eps))


def construction_degree_upper_bound(m: int, n: int, eps: Fraction) -> BoundValue:
    """Upper bound on the achievable maximum degree of a subgraph on at least
    (1/m + eps) m^n vertices: n / log_m(1/eps) below eps = 1/m, ceil(eps*m)*n
    from there up to (m-1)/m."""
    if m < 3 or n < 1:
        raise InvalidInputError(f"need m >= 3 and n >= 1, got m={m}, n={n}")
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(m - 1, m):
        raise InvalidInputError(f"need 0 < eps <= (m-1)/m, got {eps}")
    if eps < Fraction(1, m):
        # log_m(1/eps) from the exact numerator and denominator: 1/float(eps)
        # overflows, or eps rounds to 0, once eps falls below about 1e-308
        return n / (math.log(eps.denominator, m) - math.log(eps.numerator, m))
    return math.ceil(eps * m) * n


def cayley_degree_bound(m: int, n: int) -> float:
    """Lower bound sqrt((m-1) n / 2) on the maximum degree of any induced
    subgraph on more than half of the vertices."""
    if m < 3 or n < 1:
        raise InvalidInputError(f"need m >= 3 and n >= 1, got m={m}, n={n}")
    return math.sqrt((m - 1) * n / 2)


def domination_threshold(m: int, n: int) -> tuple[Fraction, int]:
    """Size threshold above which an induced subgraph must attain the full
    degree (m-1)*n, from covering-code domination numbers.

    For n = 1 the m^(n-1)/(n-1) term is undefined and only the second term
    applies.
    """
    if m < 2 or n < 1:
        raise InvalidInputError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    second = Fraction(m ** n, (m - 1) * n + 1)
    if n == 1:
        gamma_bound = second
    else:
        gamma_bound = max(Fraction(m ** (n - 1), n - 1), second)
    return m ** n - gamma_bound, (m - 1) * n


def sigma_closed_form(m: int, n: int) -> Optional[int]:
    """Graph sensitivity of the Hamming graph on (m, n), the value
    ``oracle sigma`` is checked against: ceil(sqrt(n)) for m = 2 (Huang's
    lower bound, met by the Chung-Furedi-Graham-Seymour construction), 1 for
    m >= 3; None where no closed form is known."""
    if m == 2:
        return math.isqrt(n - 1) + 1 if n > 0 else 0
    if m >= 3:
        return 1
    return None


def sigma_report(m: int, n: int, measured: int) -> BoundsReport:
    """The ``oracle sigma`` row: a measured sigma, the minimum max degree
    over subsets of size k = m^(n-1)+1, against its closed form; with no
    closed form the measured value stands in and the verdict is NA."""
    expected = sigma_closed_form(m, n)
    return BoundsReport(
        "sigma", m, n, f"k={m ** (n - 1) + 1}",
        measured if expected is None else expected, measured,
        None if expected is None else measured == expected,
    )


def tribes_degree_sensitivity(m: int, s: int) -> tuple[int, int]:
    """Degree (m-1)s^2 and sensitivity (m-1)s of the tribes function with s
    tribes lifted to an m-symbol alphabet (m = 2: plain tribes)."""
    return (m - 1) * s * s, (m - 1) * s


def sensitivity_floor(m: int, degree: int) -> float:
    """sqrt(deg/(m-1)): the sensitivity every function of that degree on an
    m-symbol grid reaches."""
    return math.sqrt(degree / (m - 1)) if degree else 0.0


def check_subgraph(m: int, n: int, size: int, max_degree: int) -> list[BoundsReport]:
    """Check every lower bound applicable at this size against the measured
    maximum degree of one induced subgraph of the graph on (m, n).
    Failures come back as report entries, never as exceptions."""
    reports = []
    if size > m ** (n - 1):
        value = markov_degree_lower_bound(m, n, size)
        reports.append(
            BoundsReport(
                "markov", m, n, f"size={size}", value, max_degree,
                Fraction(max_degree) >= value,
            )
        )
    if m >= 3 and 2 * size > m ** n:
        value = cayley_degree_bound(m, n)
        reports.append(
            BoundsReport(
                "cayley", m, n, f"size={size}", value, max_degree,
                max_degree >= value - FLOAT_SLACK,
            )
        )
    threshold, implied = domination_threshold(m, n)
    if size > threshold:
        reports.append(
            BoundsReport(
                "domination", m, n, f"size={size}", implied, max_degree,
                max_degree >= implied,
            )
        )
    return reports


def check_partition(
    m: int, n: int, part_sizes: Sequence[int], max_degree: int
) -> list[BoundsReport]:
    """Check that the parts cover the graph on (m, n), then check each part
    with ``check_subgraph`` at the partition-wide maximum degree."""
    total = sum(part_sizes)
    reports = [
        BoundsReport(
            "partition-total", m, n, f"parts={len(part_sizes)}", m ** n, total, total == m ** n
        )
    ]
    for size in part_sizes:
        reports.extend(check_subgraph(m, n, size, max_degree))
    return reports
