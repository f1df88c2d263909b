"""Hamming graph core: vertex encoding, adjacency, induced-subgraph degree.

The Hamming graph on parameters (m, n) has vertex set {0..m-1}^n with edges
between words that differ in exactly one coordinate.  Vertices are identified
with their big-endian mixed-radix rank, so rank((2,3,0)) = 2*16 + 3*4 + 0 = 44
for m=4, n=3; all file formats rely on this encoding.

A labelling of the vertices (a partition's parts, a vertex set's membership,
a function table's values) is a label buffer in rank order, built by
``_grid_labels``.  Apart from the JSON encoding, which reads and writes a
buffer as an int array, no other module reads the buffer's storage type:
they go through the ``_``-prefixed label-buffer helpers here.
"""

from __future__ import annotations

import collections
import itertools
import sys
from array import array
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence, Union

from .encoding import int_token, int_tokens
from .errors import DEFAULT_VERTEX_CAP, InvalidInputError, check_enumeration, power_exceeds

Digits = tuple[int, ...]


@dataclass(frozen=True)
class GraphParams:
    """Alphabet size m and word length n of a Hamming graph."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise InvalidInputError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")

    @property
    def vertex_count(self) -> int:
        return self.m ** self.n

    @property
    def regular_degree(self) -> int:
        return (self.m - 1) * self.n


def validate_vertex(digits: Digits, params: GraphParams) -> None:
    if len(digits) != params.n:
        raise InvalidInputError(f"vertex has {len(digits)} digits, expected {params.n}")
    for d in digits:
        if not 0 <= d < params.m:
            raise InvalidInputError(f"digit {d} outside the alphabet 0..{params.m - 1}")


def rank(digits: Digits, params: GraphParams) -> int:
    """Big-endian mixed-radix rank of a vertex."""
    validate_vertex(digits, params)
    value = 0
    for d in digits:
        value = value * params.m + d
    return value


def unrank(value: int, params: GraphParams) -> Digits:
    """Inverse of :func:`rank`."""
    if not 0 <= value < params.vertex_count:
        raise InvalidInputError(f"rank {value} outside 0..{params.vertex_count - 1}")
    digits = [0] * params.n
    for i in range(params.n - 1, -1, -1):
        value, digits[i] = divmod(value, params.m)
    return tuple(digits)


def iter_vertices(params: GraphParams) -> Iterator[Digits]:
    """All vertices in rank order."""
    return itertools.product(range(params.m), repeat=params.n)


def _digit_table(weights: Sequence[Sequence[int]]) -> list[int]:
    """Entry r is sum(weights[j][digit_j]) over the digits of r in the
    big-endian mixed radix whose axis j has len(weights[j]) values."""
    table = [0]
    for axis in weights:
        table = [a + w for a in table for w in axis]
    return table


def neighbors(digits: Digits, params: GraphParams) -> Iterator[Digits]:
    """The (m-1)*n vertices at Hamming distance 1, coordinate-major then value
    ascending."""
    validate_vertex(digits, params)
    for i in range(params.n):
        for b in range(params.m):
            if b != digits[i]:
                yield digits[:i] + (b,) + digits[i + 1:]


def hamming_distance(x: Digits, y: Digits) -> int:
    """Number of coordinates where two equal-length words differ."""
    if len(x) != len(y):
        raise InvalidInputError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a Hamming graph, carried as a membership
    buffer: ``members[r]`` is 1 when the vertex of rank r belongs to the
    set and 0 when it does not, for each rank r in 0..m^n-1.

    Any 0/1 sequence of length m^n is accepted and stored as ``bytes``;
    :meth:`from_ranks` builds the buffer from member ranks.
    """

    params: GraphParams
    members: bytes

    def __post_init__(self) -> None:
        m, n = self.params.m, self.params.n
        labels = _grid_labels(self.members, m, n, 2, ("members", "membership label"))
        object.__setattr__(self, "members", labels)

    @property
    def size(self) -> int:
        return self.members.count(1)

    def __contains__(self, r: int) -> bool:
        return 0 <= r < len(self.members) and self.members[r] == 1

    def to_doc(self) -> dict:
        # the buffer is in rank order, so the ranks come out sorted
        ranks = list(itertools.compress(range(len(self.members)), self.members))
        return {"m": self.params.m, "n": self.params.n, "ranks": ranks}

    @classmethod
    def from_ranks(
        cls, params: GraphParams, ranks: Collection[int], cap: int = DEFAULT_VERTEX_CAP
    ) -> "VertexSet":
        """The set of the vertices of the given ranks, in any order; a
        repeated rank counts once.

        Every rank must lie in 0..m^n-1, which is checked without computing
        a huge m^n.  Only then are the m^n vertices checked against ``cap``
        and the buffer filled.
        """
        m, n = params.m, params.n
        if ranks:
            low, high = min(ranks), max(ranks)
            if low < 0 or not power_exceeds(m, n, high):
                bad = low if low < 0 else high
                raise InvalidInputError(f"member rank {bad} outside the {m}^{n} vertex ranks")
        check_enumeration(m, n, cap)
        return cls(params, _membership(m ** n, ranks))

    @classmethod
    def from_doc(cls, doc: dict, cap: int = DEFAULT_VERTEX_CAP) -> "VertexSet":
        """A vertex-set document, its ranks checked as by :meth:`from_ranks`."""
        try:
            params = GraphParams(int_token(doc["m"]), int_token(doc["n"]))
            ranks = int_tokens(doc["ranks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed vertex-set document: {exc}") from exc
        return cls.from_ranks(params, ranks, cap)


# _BIT_CHARS[b] maps a byte to b"1" when its bit b is set, else to b"0"
_BIT_CHARS = tuple(
    bytes(0x31 if value >> bit & 1 else 0x30 for value in range(256)) for bit in range(8)
)
# _PACK_CODES[b] is the type code of the narrowest array whose items hold b bits
_PACK_CODES = tuple(next(c for c in "BHILQ" if array(c).itemsize * 8 >= b) for b in range(65))


def _grid_labels(
    labels: Sequence[int], m: int, n: int, count: int, names: tuple[str, str]
) -> Union[bytes, array]:
    """The labels of the m^n grid points in rank order, each in 0..count-1,
    stored compactly: ``bytes`` when count <= 256, else an ``array`` of the
    narrowest type code holding count - 1.

    ``names`` name the sequence and one label in the InvalidInputError
    raised when the length is not m^n or a label lies outside 0..count-1;
    a label that is not an integer raises TypeError.
    """
    length = len(labels)
    # a length equal to m^n is checked without ever computing a huge m^n
    if power_exceeds(m, n, length) or length != m ** n:
        raise InvalidInputError(f"{names[0]} length {length} != vertex count {m}^{n}")
    code = _PACK_CODES[(count - 1).bit_length()]
    # bytes() and array() copy the raw bytes of a buffer, not its items
    try:
        if code == "B":
            if not isinstance(labels, (bytes, bytearray, list, tuple)):
                labels = array(code, labels)
            packed = bytes(labels)
            valid = not packed.translate(None, bytes(range(count)))
        else:
            items = list(labels) if isinstance(labels, (bytes, bytearray)) else labels
            packed = array(code, items)
            valid = not packed or max(packed) < count
    except (OverflowError, ValueError):  # a negative label, or one too wide for the type
        valid = False
    if not valid:
        bad = next(a for a in labels if not 0 <= a < count)
        raise InvalidInputError(f"{names[1]} {bad} outside 0..{count - 1}")
    return packed


def _indicator(labels: Union[bytes, bytearray, array], value: int) -> Union[bytes, bytearray]:
    """The 0/1 labels of where a label buffer holds ``value``: ``bytes``, or
    a ``bytearray`` for a ``bytearray`` of labels."""
    if isinstance(labels, array):
        return bytes(map(value.__eq__, labels))
    return labels.translate(bytes(value) + b"\1" + bytes(255 - value))


def _membership(count: int, ranks: Iterable[int]) -> bytearray:
    """The 0/1 labels of ranks 0..count-1, 1 at each of ``ranks``."""
    members = bytearray(count)
    for r in ranks:
        members[r] = 1
    return members


def _take(labels: Union[bytes, bytearray, array], ranks: Iterable[int]) -> Union[bytes, array]:
    """labels[r] for each r of ``ranks``, in a buffer of the labels' type."""
    taken = map(labels.__getitem__, ranks)
    return array(labels.typecode, taken) if isinstance(labels, array) else bytes(taken)


def _joined(buffers: Sequence[Union[bytes, array]]) -> Union[bytes, array]:
    """Label buffers of one type laid end to end, in that type."""
    if len(buffers) == 1:
        return buffers[0]
    joined = b"".join(buffers)  # array buffers join as raw items
    return array(buffers[0].typecode, joined) if isinstance(buffers[0], array) else joined


def _interleaved(buffers: Sequence[Union[bytes, array]]) -> Union[bytes, bytearray, array]:
    """One label buffer of T equal label buffers of one type, interleaved:
    slot r*T + t holds buffers[t][r].  On a grid it is a table with one more
    axis, of size T, after the last."""
    count = len(buffers)
    if count == 1:
        return buffers[0]
    first = buffers[0]
    batch = first * count if isinstance(first, array) else bytearray(len(first) * count)
    for t, table in enumerate(buffers):
        batch[t::count] = table
    return batch


def _label_planes(labels: Union[bytes, bytearray, array], bits: int) -> list[int]:
    """Bit planes of a label buffer whose labels have at most ``bits`` bits:
    bit r of plane p is bit p of labels[r].  Byte labels are read in place."""
    raw, width = labels, 1
    if isinstance(labels, array):
        if sys.byteorder == "big":  # lowest byte of every item first
            labels = array(labels.typecode, labels)
            labels.byteswap()
        raw, width = labels.tobytes(), labels.itemsize
    # reversed so that the last character, the int's lowest bit, is rank 0
    return [
        int(raw[p // 8::width].translate(_BIT_CHARS[p % 8])[::-1], 2) for p in range(bits)
    ]


def _label_sizes(labels: Union[bytes, array], planes: list[int], count: int) -> tuple[int, ...]:
    """How many entries of a label buffer carry each label 0..count-1.

    Byte labels are counted from the buffer's bit planes (count <= 2 **
    len(planes)), by splitting one mask per bit pattern; an ``array``,
    which holds more than 256 labels, is counted item by item, since
    its one mask per pattern would take len(labels) bits each.
    """
    if isinstance(labels, array):
        counts = collections.Counter(labels)
        return tuple(map(counts.__getitem__, range(count)))
    masks = [(1 << len(labels)) - 1]
    for plane in reversed(planes):  # split every mask by the next lower bit
        split = []
        for mask in masks:
            high = mask & plane
            split += (mask ^ high, high)
        masks = split
    return tuple(mask.bit_count() for mask in masks[:count])


def _same_label_degree_extremes(
    planes: list[int],
    params: GraphParams,
    largest: bool = True,
    among: Optional[int] = None,
    blocks: int = 1,
) -> list[tuple[int, int]]:
    """Extreme same-label degree of each of ``blocks`` labellings, and the
    first rank attaining it.

    ``planes`` are the bit planes (see :func:`_label_planes`) of the
    labellings laid end to end: entry t*m^n + r is a non-negative integer
    label of the vertex of rank r in labelling t.  That is one grid with a
    further leading axis of ``blocks`` values and no edges along it, so one
    count serves every labelling.  A vertex's same-label degree counts its
    neighbours that carry its label.  For each labelling, returns the
    maximum (the minimum when ``largest`` is false) over all vertices, or
    over the vertices labelled ``among`` when it is given (it must label at
    least one), with the lowest rank attaining it.

    Bit-parallel and exact: vertex rank r is bit r of Python ints.  For each
    axis with stride s and each shift t in 1..m-1, the vertices whose digit
    on the axis is below m-t and whose label equals the label t*s ranks
    further on form one mask; the mask and its copy shifted up by t*s are
    added into a bit-sliced counter, whose plane j holds bit j of every
    vertex's degree.
    """
    m, n, size = params.m, params.n, params.vertex_count
    total = size * blocks
    full = (1 << total) - 1
    counter: list[int] = []
    for axis in range(n):
        stride = m ** (n - 1 - axis)
        # ranks whose digit on this axis is 0: one run per period, doubled
        zero, period = (1 << stride) - 1, m * stride
        while period < total:
            zero |= zero << period
            period <<= 1
        zero &= full
        below = 0
        for t in range(m - 1, 0, -1):
            below |= zero << (m - 1 - t) * stride  # digit below m - t
            shift = t * stride
            differ = 0
            for plane in planes:
                differ |= plane ^ (plane >> shift)
            same = below & ~differ
            for carry in (same, same << shift):  # ripple-carry add
                for j, bits in enumerate(counter):
                    counter[j] = bits ^ carry
                    carry &= bits
                    if not carry:
                        break
                if carry:
                    counter.append(carry)
    members = full
    if among is not None:
        for p, plane in enumerate(planes):
            members &= plane if among >> p & 1 else ~plane
    found = []
    for start in range(0, total, size):
        candidates = members & ((1 << size) - 1) << start
        # walk the counter planes from the top, keeping the vertices still tied
        value = 0
        for j in range(len(counter) - 1, -1, -1):
            keep = candidates & (counter[j] if largest else ~counter[j])
            if keep:
                candidates = keep
            if bool(keep) == largest:
                value |= 1 << j
        found.append((value, (candidates & -candidates).bit_length() - 1 - start))
    return found


def induced_max_degree(vset: VertexSet, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Maximum number of in-set neighbors over the members of the set.

    0 for empty or singleton sets.
    """
    params = vset.params
    check_enumeration(params.m, params.n, cap)
    if vset.size <= 1:
        return 0
    return _same_label_degree_extremes(_label_planes(vset.members, 1), params, among=1)[0][0]


def independence_number(params: GraphParams) -> int:
    """Size of a largest independent set: m^(n-1).

    Closed form; cross-validated against exhaustive search in the test suite
    for tiny instances.
    """
    return params.m ** (params.n - 1)
