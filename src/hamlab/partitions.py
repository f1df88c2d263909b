"""Constructions of imbalanced low-degree partitions of Hamming graphs.

A partition assigns every vertex of the graph on (m, n) to one of m parts
(parts may be empty).  Its maximum degree is the largest induced degree over
the parts, and its imbalance is the total absolute deviation of the part
sizes from the balanced size m^(n-1).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Union

from .encoding import int_token, int_tokens
from .errors import (
    DEFAULT_VERTEX_CAP,
    ContractViolationError,
    InvalidInputError,
    check_enumeration,
)
from .graph import (
    Digits,
    GraphParams,
    VertexSet,
    _digit_table,
    _grid_labels,
    _indicator,
    _joined,
    _label_planes,
    _label_sizes,
    _same_label_degree_extremes,
    _take,
    unrank,
)


@dataclass(frozen=True)
class Partition:
    """Total assignment of every rank to a part index in 0..m-1.

    Any sequence of part indices is accepted; it is stored as ``bytes`` when
    m <= 256 and as an ``array`` of the narrowest fitting type otherwise.
    """

    params: GraphParams
    assignment: Union[bytes, array]

    def __post_init__(self) -> None:
        m, n = self.params.m, self.params.n
        labels = _grid_labels(self.assignment, m, n, m, ("assignment", "part index"))
        object.__setattr__(self, "assignment", labels)

    def to_doc(self) -> dict:
        # the label buffer itself: write_json lays it out as an int array
        return {"m": self.params.m, "n": self.params.n, "assignment": self.assignment}

    @classmethod
    def from_doc(cls, doc: dict) -> "Partition":
        try:
            params = GraphParams(int_token(doc["m"]), int_token(doc["n"]))
            assignment = int_tokens(doc["assignment"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed partition document: {exc}") from exc
        return cls(params, assignment)


@dataclass(frozen=True)
class PartitionMetrics:
    """Exact maximum degree, imbalance, and part sizes of a partition."""

    max_degree: int
    imbalance: int
    part_sizes: tuple[int, ...]
    witness: Optional[Digits] = None

    def to_doc(self) -> dict:
        return {
            "maxDegree": self.max_degree,
            "imbalance": self.imbalance,
            "partSizes": list(self.part_sizes),
            "witness": list(self.witness) if self.witness is not None else None,
        }


def degree_one_partition(m: int, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Partition:
    """Partition with maximum degree at most 1 and imbalance exactly m-2 for
    even m, m-1 for odd m.

    Every nonzero vertex decomposes uniquely as a prefix, its last nonzero
    digit b, and a run of trailing zeros; it joins the part congruent to
    (sum of prefix) + floor((b+1)/2) mod m.  The all-zeros vertex joins part 0.
    For n = 1 the construction degenerates to the complete-graph partition
    with per-part size cap 2.
    """
    if m < 2:
        raise InvalidInputError(f"need m >= 2, got {m}")
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    if n == 1:
        return complete_graph_partition(m, 1, cap=cap)
    params = GraphParams(m, n)
    check_enumeration(m, n, cap)
    halves = [(b + 1) // 2 for b in range(m)]
    parts, sums = [0], [0]  # part and digit sum of every word so far
    for _ in range(n):
        # an appended b != 0 is the last nonzero digit; an appended 0 keeps the part
        appended = [s % m for s in _digit_table([sums, halves])]
        appended[::m] = parts
        parts, sums = appended, _digit_table([sums, range(m)])
    return Partition(params, parts)


def complete_graph_partition(m: int, d: int, cap: int = DEFAULT_VERTEX_CAP) -> Partition:
    """Partition of the m-vertex complete graph into blocks of size at most
    d+1: full blocks first, then the remainder block, then empty parts.

    Achieves maximum degree at most d and imbalance exactly 2*floor(d*m/(d+1)).
    The m vertices are checked against ``cap`` before any is assigned.
    """
    if not 0 <= d <= m:
        raise InvalidInputError(f"need 0 <= d <= m, got d={d}, m={m}")
    params = GraphParams(m, 1)
    check_enumeration(m, 1, cap)
    assignment = tuple(v // (d + 1) for v in range(m))
    return Partition(params, assignment)


def coordinate_blocks(n: int, pieces: int) -> list[range]:
    """Split coordinates 0..n-1 into contiguous blocks of near-equal size,
    larger blocks first."""
    if not 1 <= pieces <= n:
        raise InvalidInputError(f"need 1 <= pieces <= n, got pieces={pieces}, n={n}")
    q, s = divmod(n, pieces)
    blocks = []
    start = 0
    for j in range(pieces):
        width = q + 1 if j < s else q
        blocks.append(range(start, start + width))
        start += width
    return blocks


def _block_pieces(n: int, n_lo: int, m: int) -> list[tuple[int, int]]:
    """(width, place value of its image digit) of each coordinate block of
    the block summation map from n coordinates to n_lo."""
    return [(len(blk), m ** (n_lo - 1 - j)) for j, blk in enumerate(coordinate_blocks(n, n_lo))]


def _block_sum_table(m: int, pieces: list[tuple[int, int]]) -> list[int]:
    """Entry r is the sum over ``pieces`` (width, place), which take the
    big-endian digits of r in turn, of the piece's digit sum mod m times its
    place."""
    return _digit_table(
        [[s % m * place for s in _digit_table([range(m)] * width)] for width, place in pieces]
    )


def block_sum_map(params_hi: GraphParams, params_lo: GraphParams) -> list[int]:
    """For each rank of the larger graph, the rank of its image under the
    coordinate-block summation map (block sums reduced mod m)."""
    # a rank of the larger graph concatenates its blocks' digits, so its
    # image is the sum of one contribution per block, taken in rank order
    m = params_hi.m
    return _block_sum_table(m, _block_pieces(params_hi.n, params_lo.n, m))


def lift_partition(
    base: Partition, n: int, degree_cap: int, cap: int = DEFAULT_VERTEX_CAP
) -> Partition:
    """Pull a partition back through the coordinate-block summation map.

    Every fiber of the map has size m^(n-n'), so the imbalance scales by
    exactly that factor, and the maximum degree grows by at most the largest
    block width ceil(n/n').  Raises if that worst case would exceed
    ``degree_cap``.
    """
    m = base.params.m
    n_base = base.params.n
    if n < n_base:
        raise InvalidInputError(f"cannot lift from n'={n_base} to smaller n={n}")
    target = GraphParams(m, n)
    check_enumeration(m, n, cap)
    widest = -(-n // n_base)
    base_degree = partition_metrics(base, cap=cap).max_degree
    if base_degree * widest > degree_cap:
        raise ContractViolationError(
            f"lift would only guarantee degree {base_degree * widest}, "
            f"above the cap {degree_cap}"
        )
    # A rank is a head (its first n//2 digits) followed by a tail (the
    # rest), and its image is the head's contribution plus the tail's, where
    # the block that straddles the cut adds its two digit sums mod m.  Each
    # distinct head contribution gets one row of labels over every tail, and
    # the rows are joined in head order.
    heads, tails, seen = [], [], 0
    for width, place in _block_pieces(n, n_base, m):
        cut = min(max(n // 2 - seen, 0), width)
        if cut:
            heads.append((cut, place))
        if cut < width:
            tails.append((width - cut, place))
        seen += width
    head_table = _block_sum_table(m, heads)
    tail_table = _block_sum_table(m, tails)
    # tail contributions lie below span, the place above the straddling
    # block's digit; a head fixes the digits above it and adds `shift` on
    # it, which rotates the head's window of base labels by `shift`
    span = m * tails[0][1]
    labels = base.assignment
    rows = {}
    for head in set(head_table):
        shift = head % span
        window = labels[head - shift:head - shift + span]
        rows[head] = _take(window[shift:] + window[:shift], tail_table)
    return Partition(target, _joined([rows[head] for head in head_table]))


def _theorem_base(m: int, d: int, n: int) -> tuple[int, int, int]:
    """The base partition the theorem construction lifts for (m, d, n): its
    coordinate count n', its degree, and the index of its largest part.

    For d < n it is the degree-1 partition on ceil(n/d) coordinates, whose
    part 1 is largest; for d >= n a complete-graph partition on one
    coordinate with degree min(d // n, m), whose first block is largest.
    A one-coordinate base is always the complete-graph one.
    """
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    if d < 1 or n < 1:
        raise InvalidInputError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if d < n:
        return -(-n // d), 1, 1
    # the complete-graph lemma needs its degree parameter <= m; beyond that
    # the single-part layout is already optimal for this family
    return 1, min(d // n, m), 0


def theorem_partition(m: int, d: int, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Partition:
    """Partition with maximum degree at most d and the largest imbalance the
    lifted constructions achieve: the lift of the base ``_theorem_base``
    picks.  The imbalance it achieves is
    ``bounds.theorem_imbalance_bound(m, d, n)[1]``.
    """
    n_base, d_base, _ = _theorem_base(m, d, n)
    if n_base > 1:
        base = degree_one_partition(m, n_base, cap=cap)
    else:
        base = complete_graph_partition(m, d_base, cap=cap)
    return lift_partition(base, n, degree_cap=d, cap=cap)


def partition_metrics(part: Partition, cap: int = DEFAULT_VERTEX_CAP) -> PartitionMetrics:
    """Exact maximum degree, imbalance, and part sizes, with a witness vertex
    attaining the maximum degree (first such vertex in rank order)."""
    params = part.params
    m, n = params.m, params.n
    check_enumeration(m, n, cap)
    planes = _label_planes(part.assignment, (m - 1).bit_length())
    ((best, first),) = _same_label_degree_extremes(planes, params)
    sizes = _label_sizes(part.assignment, planes, m)
    balanced = m ** (n - 1)
    imbalance = sum(abs(s - balanced) for s in sizes)
    return PartitionMetrics(best, imbalance, sizes, unrank(first, params))


def part_vertex_set(part: Partition, index: int) -> VertexSet:
    """The vertex set of one part."""
    if not 0 <= index < part.params.m:
        raise InvalidInputError(f"part index {index} outside 0..{part.params.m - 1}")
    return VertexSet(part.params, _indicator(part.assignment, index))


def low_degree_subgraph(m: int, n: int, d: int, cap: int = DEFAULT_VERTEX_CAP) -> VertexSet:
    """Large vertex set inducing a subgraph of maximum degree at most d: one
    part of the theorem partition.

    For d < n the lift of the largest degree-1 part, of size
    m^(n-1) + m^floor((d-1)n/d); for d >= n the lift of one full block of the
    complete-graph partition, of size ceil((d+1)/n) * m^(n-1).
    """
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    if not 1 <= d <= (m - 1) * n:
        raise InvalidInputError(f"need 1 <= d <= (m-1)n = {(m - 1) * n}, got d={d}")
    return part_vertex_set(theorem_partition(m, d, n, cap=cap), _theorem_base(m, d, n)[2])
