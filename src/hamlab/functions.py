"""Exact degree and sensitivity of functions on finite grids.

A function maps length-``arity`` words over a finite rational alphabet into a
finite rational range.  Its degree is the total degree of the unique
interpolating polynomial with per-variable degree below the alphabet size;
its sensitivity counts value changes across Hamming-distance-1 neighbors.
The restriction pipeline shrinks every coordinate domain to two values while
preserving a monomial on at least ceil(degree/(m-1)) coordinates, producing a
Boolean function that certifies the sensitivity/degree inequality.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .encoding import int_token, int_tokens, rational_from_token, rational_to_token
from .errors import (
    DEFAULT_VERTEX_CAP,
    ContractViolationError,
    InvalidInputError,
    ResourceLimitError,
    check_enumeration,
    item_count,
)
from .graph import (
    GraphParams,
    _digit_table,
    _grid_labels,
    _indicator,
    _interleaved,
    _joined,
    _label_planes,
    _same_label_degree_extremes,
    _take,
    neighbors,
    rank,
    unrank,
)

Point = tuple[Fraction, ...]
Exponents = tuple[int, ...]
_ZERO_ONE = (Fraction(0), Fraction(1))  # the Boolean alphabet


def _as_rationals(values) -> tuple[Fraction, ...]:
    if type(values) is tuple and {*map(type, values)} == {Fraction}:
        return values
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"expected rational values: {exc}") from exc


def _alphabets(domain, codomain, arity: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The domain and codomain of functions on ``arity`` coordinates as
    rationals, checked: both nonempty and pairwise distinct, arity >= 1."""
    domain, codomain = _as_rationals(domain), _as_rationals(codomain)
    if arity < 1:
        raise InvalidInputError(f"need arity >= 1, got {arity}")
    if not domain or len(set(domain)) != len(domain):
        raise InvalidInputError("domain values must be nonempty and pairwise distinct")
    if not codomain or len(set(codomain)) != len(codomain):
        raise InvalidInputError("codomain values must be nonempty and pairwise distinct")
    return domain, codomain


def _value_labels(values: Sequence[int], domain, codomain, arity: int) -> Union[bytes, array]:
    """A value table checked and stored as the label buffer of its grid."""
    return _grid_labels(values, len(domain), arity, len(codomain), ("value table", "value index"))


@dataclass(frozen=True)
class FiniteFunction:
    """Value table of a function on words over a finite rational alphabet.

    ``domain`` is the per-coordinate value set (the function's full domain is
    its ``arity``-fold product) and ``codomain`` lists the possible outputs.
    ``values[i]`` is the codomain index of the output at the point of rank i,
    where points are ranked big-endian by per-coordinate domain index.  Any
    sequence of indices is stored like a partition's assignment, with the
    codomain size in place of m.
    """

    domain: tuple[Fraction, ...]
    codomain: tuple[Fraction, ...]
    arity: int
    values: Union[bytes, array]

    def __post_init__(self) -> None:
        domain, codomain = _alphabets(self.domain, self.codomain, self.arity)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "values", _value_labels(self.values, domain, codomain,
                                                         self.arity))

    @property
    def point_count(self) -> int:
        return len(self.values)

    def points(self) -> Iterator[Point]:
        """All domain points in rank order."""
        return itertools.product(self.domain, repeat=self.arity)

    def point_rank(self, point: Sequence) -> int:
        index_of = {v: i for i, v in enumerate(self.domain)}
        r = 0
        for x in point:
            try:
                r = r * len(self.domain) + index_of[Fraction(x)]
            except (KeyError, TypeError, ValueError):
                raise InvalidInputError(f"point coordinate {x!r} outside the domain")
        if len(point) != self.arity:
            raise InvalidInputError(f"point has {len(point)} coordinates, expected {self.arity}")
        return r

    def value_at(self, point: Sequence) -> Fraction:
        return self.codomain[self.values[self.point_rank(point)]]

    def to_doc(self) -> dict:
        return {
            "A": [rational_to_token(v) for v in self.domain],
            "B": [rational_to_token(v) for v in self.codomain],
            "n": self.arity,
            "values": self.values,  # the label buffer: write_json lays it out
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FiniteFunction":
        try:
            domain = tuple(rational_from_token(v) for v in doc["A"])
            codomain = tuple(rational_from_token(v) for v in doc["B"])
            arity = int_token(doc["n"])
            values = int_tokens(doc["values"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed function document: {exc}") from exc
        return cls(domain, codomain, arity, values)


@dataclass(frozen=True)
class GridPolynomial:
    """Multivariate polynomial with exact rational coefficients, stored as a
    map from exponent vectors to nonzero coefficients."""

    arity: int
    terms: dict[Exponents, Fraction]

    def __post_init__(self) -> None:
        cleaned = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.arity or any(e < 0 for e in exps):
                raise InvalidInputError(f"bad exponent vector {exps}")
            coeff = Fraction(coeff)
            if coeff:
                cleaned[exps] = coeff
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _exact(cls, arity: int, terms: dict[Exponents, Fraction]) -> "GridPolynomial":
        """Wrap int-tuple -> nonzero-Fraction terms without re-checking them."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "terms", terms)
        return poly

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise InvalidInputError(f"point has {len(point)} coordinates, expected {self.arity}")
        xs = _as_rationals(point)
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(xs, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms by total degree, then by exponent vector: a lexicographic
        sort, then a stable one by degree, so no key tuple is built per term."""
        return [(exps, self.terms[exps]) for exps in sorted(sorted(self.terms), key=sum)]

    def to_doc(self) -> list[dict]:
        return [
            {"exponents": list(exps), "coefficient": rational_to_token(coeff)}
            for exps, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_doc(cls, doc: list) -> "GridPolynomial":
        terms = {}
        try:
            for entry in doc:
                exps = tuple(int_tokens(entry["exponents"]))
                coeff = rational_from_token(entry["coefficient"])
                terms[exps] = terms.get(exps, Fraction(0)) + coeff
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed polynomial document: {exc}") from exc
        if not terms:
            raise InvalidInputError("cannot infer arity of an empty polynomial document")
        return cls(len(next(iter(terms))), terms)


def _integer_scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The rationals times the LCM of their denominators, and that LCM."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


class _Scales(NamedTuple):
    """A checked domain and codomain as integers (see ``_integer_scaled``),
    computed once for every table on them."""

    nodes: tuple[int, ...]  # each domain value times the stretch
    stretch: int
    lifted: tuple[int, ...]  # each codomain value times the scale
    scale: int
    top: int  # the largest absolute lifted value


def _scales(domain: tuple[Fraction, ...], codomain: tuple[Fraction, ...]) -> _Scales:
    nodes, stretch = _integer_scaled(domain)
    lifted, scale = _integer_scaled(codomain)
    return _Scales(nodes, stretch, lifted, scale, max(map(abs, lifted)))


@functools.lru_cache(maxsize=64)
def _scaled_lagrange(nodes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """The Lagrange matrix of the integer ``nodes``, its positive scale, and
    its largest absolute row sum (the growth ``_grid_tensor`` takes).

    Row k, column i holds scale times the x^k coefficient of the basis
    polynomial that is 1 at node i and 0 at the others.  That polynomial is
    prod(x - y_j) with the factor x - y_i divided out, over its value w_i at
    y_i, so the scale is the LCM of the w_i.
    """
    product = [1]  # prod(x - y_j), lowest degree first
    for y in nodes:
        product = [lo - y * hi for lo, hi in zip([0] + product, product + [0])]
    columns, weights = [], []
    for y in nodes:
        quotient = [product[-1]]  # synthetic division by x - y, highest degree first
        for c in reversed(product[1:-1]):
            quotient.append(c + y * quotient[-1])
        columns.append(quotient[::-1])
        weights.append(math.prod(y - other for other in nodes if other != y))
    scale = math.lcm(*weights)
    rows = tuple(zip(*([c * (scale // w) for c in column]
                       for column, w in zip(columns, weights))))
    return rows, scale, max(sum(map(abs, row)) for row in rows)


@functools.lru_cache(maxsize=64)
def _difference_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """The m x m matrix that keeps an axis's value at node 0 and replaces
    every other value by its difference from it."""
    return tuple(tuple(int(k == t) - int(k == 0 < t) for k in range(m)) for t in range(m))


# _WORD_CODES[b] is the type code of the unsigned array item of b bytes, b = 1, 2, 4, 8
_WORD_CODES = {array(c).itemsize: c for c in "BHILQ"}


def _slot_width(bound: int) -> int:
    """Bytes per tensor slot that hold every integer of absolute value at
    most ``bound``, a sign bit included: 1, 2, 4 or 8, or a multiple of 8."""
    need = (bound.bit_length() + 8) // 8
    return 1 << (need - 1).bit_length() if need <= 8 else -(-need // 8) * 8


def _bias_run(width: int, count: int) -> int:
    """``count`` slots of ``width`` bytes, each holding the bias
    2^(8*width - 1), read as one little-endian int."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * count, "little")


def _slot_values(tensor: bytes, width: int, flags: bytes) -> Iterator[int]:
    """The integers packed by ``_grid_tensor`` in the slots whose byte of
    ``flags`` is nonzero, in slot order."""
    if width in _WORD_CODES:
        slots = array(_WORD_CODES[width], tensor)
        if sys.byteorder == "big":
            slots.byteswap()
        kept = itertools.compress(slots, flags)
    else:
        starts = list(itertools.compress(range(0, len(tensor), width), flags))
        kept = map(int.from_bytes, map(tensor.__getitem__, map(slice, starts,
                                                                map(width.__add__, starts))),
                   itertools.repeat("little"))
    return map((-1 << 8 * width - 1).__add__, kept)


def _nonzero_slots(tensor: bytes, width: int) -> bytes:
    """One byte per slot of a packed tensor, nonzero exactly when the slot's
    integer is: with the bias xor-ed out, a slot is nonzero when adding its
    low bits to all-ones low bits carries into its top bit, or that bit is
    set."""
    bias = _bias_run(width, len(tensor) // width)
    low = bias - (bias >> 8 * width - 1)
    bits = int.from_bytes(tensor, "little") ^ bias
    return (((bits & low) + low | bits) & bias).to_bytes(len(tensor), "little")[width - 1::width]


def _block_maxima(weights: Sequence[int], tensor: bytes, width: int,
                  blocks: Iterable[int]) -> list[int]:
    """For each t in ``blocks``, the largest entry of ``weights`` at a
    nonzero slot of block t of the packed ``tensor``, its t-th run of
    len(weights) slots, or 0 when every slot of that block is zero."""
    flags, size = _nonzero_slots(tensor, width), len(weights)
    return [max(itertools.compress(weights, flags[t * size:(t + 1) * size]), default=0)
            for t in blocks]


def _transform_leading_axis(tensor: bytes, width: int, rows) -> bytearray:
    """Apply the integer matrix ``rows`` along the leading axis of a tensor
    packed in ``width``-byte slots (see ``_grid_tensor``) and move that axis
    last, so that n calls over an n-axis tensor bring the axes back into
    their original order.

    Each leading-axis fiber is one contiguous run of slots, read as one int;
    minus the bias run it is F_t = sum_j v_j 2^(8*width*j).  Output row k is
    sum_t rows[k][t] F_t plus the bias run, whose slots hold the row's
    entries plus the bias when ``width`` holds every entry (see
    ``_slot_width``).  The rows are then interleaved slot by slot with
    strided copies of whole words."""
    span = len(tensor) // len(rows[0])
    bias = _bias_run(width, span // width)
    fibers = [int.from_bytes(tensor[t:t + span], "little") - bias
              for t in range(0, len(tensor), span)]
    word = min(width & -width, 8)
    code, per = _WORD_CODES[word], width // word
    out = bytearray(span * len(rows))
    target, stride = (memoryview(out).cast(code) if word > 1 else out), per * len(rows)
    for k, row in enumerate(rows):
        line = sum(map(operator.mul, row, fibers), bias).to_bytes(span, "little")
        if word > 1:  # a byte string is already a run of 1-byte words
            line = memoryview(line).cast(code)
        if per == 1:
            target[k::stride] = line
        else:
            for q in range(per):
                target[k * per + q::stride] = line[q::per]
    return out


_PACK_RUN = 1024  # labels per join of the packer, which holds a buffer view per label
# labels per chunk of tables packed into one tensor (at least one table);
# chunks four times larger ran no faster and raised a sweep's peak memory
_CHUNK_SLOTS = 1024


def _chunks(tables: Iterable, point_count: int) -> Iterator[list]:
    """Consecutive lists of the value ``tables``, each of at most
    ``_CHUNK_SLOTS`` labels in all but never empty, drawn lazily."""
    tables, size = iter(tables), max(_CHUNK_SLOTS // max(point_count, 1), 1)
    while chunk := list(itertools.islice(tables, size)):
        yield chunk


class _Slots(dict):
    """The packed slot of each label, ``ints[label]`` plus the bias, built on
    the label's first use, so label values a table never takes cost nothing."""
    __slots__ = ("ints", "width", "bias")

    def __init__(self, ints: Sequence[int], width: int) -> None:
        self.ints, self.width, self.bias = ints, width, 1 << 8 * width - 1

    def __missing__(self, label: int) -> bytes:
        slot = self[label] = (self.bias + self.ints[label]).to_bytes(self.width, "little")
        return slot


def _grid_tensor(labels: Union[bytes, array], ints: Sequence[int], top: int, rows,
                 growth: int, arity: int) -> tuple[bytearray, int]:
    """The table ``ints[labels[i]]`` on a grid of ``arity`` axes, with the
    integer matrix ``rows`` applied along every axis (see
    ``_transform_leading_axis``), packed, and its slot width.

    Slot i holds entry i plus the bias 2^(8*width - 1) in ``width``
    little-endian bytes; the slots (see ``_Slots``) of each run of
    ``_PACK_RUN`` labels are joined straight into the tensor.
    ``top`` bounds the absolute values of ``ints`` and ``growth``, the
    largest absolute row sum of ``rows``, bounds how much one axis
    multiplies the largest entry, so ``top * growth ** arity`` bounds every
    entry of every stage and sets the width.  ``labels`` may hold T tables
    interleaved (see ``_interleaved``), a last axis of size T that the
    transforms leave leading."""
    width = _slot_width(top * growth ** arity)
    slots = _Slots(ints, width)
    tensor = bytearray(len(labels) * width)
    for i in range(0, len(labels), _PACK_RUN):
        tensor[i * width:(i + _PACK_RUN) * width] = b"".join(
            map(slots.__getitem__, labels[i:i + _PACK_RUN]))
    for _ in range(arity):
        tensor = _transform_leading_axis(tensor, width, rows)
    return tensor, width


def _scaled_tensor(scales: _Scales, arity: int,
                   labels: Union[bytes, bytearray, array]) -> tuple[bytearray, int, int, int]:
    """The coefficients of the interpolant of the value table ``labels`` (or
    of T tables interleaved, see ``_interleaved``) in the integer nodes
    y = stretch * x, packed (see ``_grid_tensor``), its slot width, the
    positive scale it carries, and the stretch: entry e belongs to the
    monomial whose exponent vector is the big-endian index e, and the x^e
    coefficient is that entry times stretch^|e| over the scale."""
    rows, lagrange_scale, growth = _scaled_lagrange(scales.nodes)
    tensor, width = _grid_tensor(labels, scales.lifted, scales.top, rows, growth, arity)
    return tensor, width, scales.scale * lagrange_scale ** arity, scales.stretch


def interpolant_terms(f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP
                      ) -> tuple[int, int, Iterator[tuple[Exponents, int, int]]]:
    """The degree, the term count and an iterator of the nonzero terms of
    the interpolant of f (see ``interpolate``), by total degree and then by
    exponent vector, as (exponents, numerator, denominator) triples of each
    coefficient in lowest terms, with no Fraction built.

    Tensor slot e holds the coefficient of the monomial whose exponent
    vector is the big-endian index e, so the nonzero slots list their
    vectors in lexicographic order, and a stable sort by degree gives the
    artifact order.  Each triple is built as it is drawn, so a writer that
    draws one at a time holds no list of them."""
    m, n = len(f.domain), f.arity
    check_enumeration(m, n, cap, "grid points")
    tensor, width, scale, stretch = _scaled_tensor(_scales(f.domain, f.codomain), n, f.values)
    flags = _nonzero_slots(tensor, width)
    exponents = list(itertools.compress(itertools.product(range(m), repeat=n), flags))
    degrees = list(map(sum, exponents))
    powers = [stretch ** k for k in range((m - 1) * n + 1)]
    slots = list(_slot_values(tensor, width, flags))
    order = sorted(range(len(slots)), key=degrees.__getitem__)

    def terms() -> Iterator[tuple[Exponents, int, int]]:
        for i in order:
            c = slots[i] * powers[degrees[i]]  # the x^e coefficient times the scale
            common = math.gcd(c, scale)
            yield exponents[i], c // common, scale // common

    return max(degrees, default=0), len(order), terms()


def interpolate(f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP) -> GridPolynomial:
    """The unique polynomial agreeing with f on every grid point, with
    per-variable degree at most len(domain)-1 and exact rational
    coefficients, built from ``interpolant_terms``."""
    _, _, terms = interpolant_terms(f, cap)
    return GridPolynomial._exact(f.arity, {exps: Fraction(num, den) for exps, num, den in terms})


def _degrees(scales: _Scales, arity: int, labels: Sequence[Union[bytes, array]]) -> list[int]:
    """Total degree of each checked value table in ``labels``, from one
    tensor of them all, interleaved: the largest exponent sum of a nonzero
    entry of each table's block, with no rational polynomial built."""
    if not labels:
        return []
    tensor, width, _, _ = _scaled_tensor(scales, arity, _interleaved(labels))
    return _block_maxima(_digit_table([range(len(scales.nodes))] * arity), tensor, width,
                         range(len(labels)))


def degree(f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Total degree of the interpolating polynomial; 0 for constants: the
    one-table case of ``_degrees``."""
    check_enumeration(len(f.domain), f.arity, cap, "grid points")
    return _degrees(_scales(f.domain, f.codomain), f.arity, (f.values,))[0]


def local_sensitivity(f: FiniteFunction, point: Sequence) -> int:
    """Number of Hamming-distance-1 neighbors on which f takes a different
    value."""
    params = GraphParams(len(f.domain), f.arity)
    base = f.point_rank(point)
    own = f.values[base]
    return sum(f.values[rank(v, params)] != own
               for v in neighbors(unrank(base, params), params))


def sensitivity(f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP) -> tuple[int, Point]:
    """Maximum local sensitivity and the first point (in rank order)
    attaining it.

    A point's local sensitivity is its (m-1)*n neighbours minus those with
    its own value, so the first point of least same-value degree attains it.
    """
    m = len(f.domain)
    check_enumeration(m, f.arity, cap, "grid points")
    ((value, first),) = _label_sensitivities((f.values,), m, f.arity, len(f.codomain))
    return value, tuple(f.domain[i] for i in unrank(first, GraphParams(m, f.arity)))


def _label_sensitivities(labels: Sequence[Union[bytes, array]], m: int, n: int,
                         count: int) -> list[tuple[int, int]]:
    """Sensitivity of each label buffer in ``labels`` on the m^n grid, with
    labels in 0..count-1, and the first rank attaining it (see
    ``sensitivity``), from one count over the buffers laid end to end."""
    if not labels:
        return []
    params = GraphParams(m, n)
    planes = _label_planes(_joined(labels), (count - 1).bit_length())
    return [(params.regular_degree - same, first) for same, first in
            _same_label_degree_extremes(planes, params, largest=False, blocks=len(labels))]


def indicator_decomposition(f: FiniteFunction,
                            cap: int = DEFAULT_VERTEX_CAP) -> list[FiniteFunction]:
    """The 0/1 indicator of each output value, in codomain order.

    The indicators sum to 1 pointwise, their codomain-weighted sum recovers f,
    and the largest indicator degree is at least deg(f).  Their |B| * m^n
    labels in all are checked against ``cap`` before any is built.
    """
    k, points = len(f.codomain), f.point_count
    if k * points > cap:
        raise ResourceLimitError(f"decomposing into {k} indicators of {points} points "
                                 f"exceeds the configured cap of {cap}")
    return [FiniteFunction(f.domain, _ZERO_ONE, f.arity, _indicator(f.values, b))
            for b in range(k)]


@dataclass(frozen=True)
class RestrictionWitness:
    """Certificate that a two-values-per-coordinate restriction of f keeps a
    monomial on at least ``target_support`` coordinates.

    ``boolean_function`` is the restricted function with every retained pair
    relabeled to {0, 1} in index order; its degree is at least
    ``target_support`` and its sensitivity is at most the sensitivity of f.
    """

    range_value: Fraction
    retained_pairs: tuple[tuple[Fraction, Fraction], ...]
    target_support: int
    boolean_function: FiniteFunction

    def to_doc(self) -> dict:
        return {
            "rangeValue": rational_to_token(self.range_value),
            "pairs": [
                [rational_to_token(a), rational_to_token(b)]
                for a, b in self.retained_pairs
            ],
            "targetSupport": self.target_support,
            "g": self.boolean_function.to_doc(),
        }

    def check(self, f_sensitivity: int, cap: int = DEFAULT_VERTEX_CAP) -> tuple[int, int, bool]:
        """Degree and sensitivity of the Boolean function, and whether the
        certificate holds: degree at least the target support, sensitivity at
        most ``f_sensitivity`` (that of the restricted function f), and
        sensitivity squared at least the target, as the Boolean sensitivity
        theorem demands."""
        g = self.boolean_function
        g_degree = degree(g, cap=cap)
        g_sensitivity, _ = sensitivity(g, cap=cap)
        return g_degree, g_sensitivity, _certified(self.target_support, g_degree, g_sensitivity,
                                                   f_sensitivity)


def _certified(target: int, g_degree: int, g_sensitivity: int, f_sensitivity: int) -> bool:
    """Whether a restriction certificate holds (see ``RestrictionWitness.check``)."""
    return (g_degree >= target and g_sensitivity <= f_sensitivity
            and g_sensitivity * g_sensitivity >= target)


def _squared_ratio(s: int, d: int, m: int) -> Fraction:
    """The square of the ratio of sensitivity s to the floor sqrt(d/(m-1))
    that degree d >= 1 on m domain values sets, exactly."""
    return Fraction(s * s * (m - 1), d)


def _bound_holds(s: int, d: int, m: int) -> bool:
    """Whether sensitivity s and degree d on m domain values meet the
    theorem's bound s^2 * (m-1) >= d, exactly."""
    return d == 0 or _squared_ratio(s, d, m) >= 1


class _Restriction(NamedTuple):
    """A value table's restriction witness as ``_restrictions`` finds it."""

    value: int  # the codomain index whose indicator is restricted
    kept: tuple[int, ...]  # p of each coordinate's retained pair (0, p)
    target: int  # the support target ceil(degree/(m-1))
    degree: int  # the table's degree, read off its indicators' combined sum
    table: bytes  # the Boolean table g, as 0/1 labels


def boolean_restriction_witness(
    f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP
) -> RestrictionWitness:
    """Reduce f to a Boolean function while certifying a degree floor: the
    one-table case of ``_restrictions``.

    Picks the output value whose indicator has the largest degree, sets the
    support target D = ceil(deg(f)/(m-1)), then walks the coordinates in
    order: for each coordinate the lexicographically first pair of domain
    values whose restriction keeps a monomial on at least D coordinates is
    retained.
    """
    m, n = len(f.domain), f.arity
    if m < 2:
        raise InvalidInputError("need at least two domain values to restrict")
    check_enumeration(m, n, cap, "grid points")
    (found,) = _restrictions(_scales(f.domain, f.codomain), n, (f.values,))
    return RestrictionWitness(
        f.codomain[found.value],
        tuple((f.domain[0], f.domain[t]) for t in found.kept),
        found.target,
        FiniteFunction(_ZERO_ONE, _ZERO_ONE, n, found.table),
    )


def _restrictions(scales: _Scales, arity: int,
                  labels: Sequence[Union[bytes, array]]) -> list[_Restriction]:
    """The restriction witness (see ``boolean_restriction_witness``) of each
    checked, non-constant value table in ``labels``, on at least two domain
    values, from tensors of all the tables interleaved (see ``_interleaved``).

    For each value the chunk takes, in codomain order, its indicator on
    every table is interpolated in one tensor, and each table keeps the
    first indicator of largest degree among the values it takes.  The
    indicators of absent values are zero.  An indicator is packed from 0/1
    labels, so its cost does not grow with the codomain.  The packed tensors
    share one scale and f's slot width, so their codomain-weighted sum, one
    big-int combination, is the chunk's tensor under a positive scale.

    The pairs are read off the chosen indicators' difference tensor, which
    along each axis keeps the value at node 0 and replaces every other value
    by its difference from it.  The largest number of nonzero indices of a
    nonzero entry is the same in that basis as in the monomial one (it is
    the order of the Efron-Stein decomposition), and restricting a
    coordinate to nodes 0 and t keeps exactly slices 0 and t of its axis.
    So an entry on at least D coordinates in slice t makes (0, t) work, one
    in slice 0 makes (0, 1) work, and the first pair that works is (0, t)
    for the first t whose two slices hold such an entry.  With two domain
    values every pair is (0, 1), and g is the chosen indicator itself.
    """
    m, n, count = len(scales.nodes), arity, len(labels)
    if not count:
        return []
    takers: dict[int, list[int]] = {}  # the tables that take each value
    for t, table in enumerate(labels):
        taken = set(table)
        if len(taken) < 2:
            raise InvalidInputError("constant functions admit no restriction certificate")
        for b in taken:
            takers.setdefault(b, []).append(t)
    rows, _, growth = _scaled_lagrange(scales.nodes)
    lifted, top = scales.lifted, scales.top  # every indicator gets f's width, so the sum fits
    sums = _digit_table([range(m)] * n)
    batch = _interleaved(labels)
    picks, pick_degrees = [0] * count, [-1] * count
    combined = 0  # sum of lifted[b] times b's tensor, unbiased
    for b in sorted(takers):
        indicator, width = _grid_tensor(_indicator(batch, b), (0, 1), top, rows, growth, n)
        bias = _bias_run(width, len(batch))
        combined += lifted[b] * (int.from_bytes(indicator, "little") - bias)
        for t, component in zip(takers[b], _block_maxima(sums, indicator, width, takers[b])):
            if component > pick_degrees[t]:
                picks[t], pick_degrees[t] = b, component
    totals = _block_maxima(sums, (combined + bias).to_bytes(len(indicator), "little"), width,
                           range(count))
    targets = [-(-total // (m - 1)) for total in totals]
    chosen = [_indicator(table, b) for table, b in zip(labels, picks)]
    if m == 2:
        return [_Restriction(b, (1,) * n, target, total, g)
                for b, target, total, g in zip(picks, targets, totals, chosen)]

    # each difference row has absolute sum 2
    tensor, width = _grid_tensor(_interleaved(chosen), (0, 1), 1, _difference_rows(m), 2, n)
    flags = _nonzero_slots(tensor, width)
    supports = _digit_table([[0] + [1] * (m - 1)] * n)  # nonzero indices per entry
    size, found = len(supports), []
    for t, (b, target, total, indicator) in enumerate(zip(picks, targets, totals, chosen)):
        good = bytes(map(operator.and_, map(bool, flags[t * size:(t + 1) * size]),
                         map(target.__le__, supports)))
        if 1 not in good:
            raise ContractViolationError("chosen indicator exposes no monomial on the "
                                         "target support")
        kept = []  # p of each coordinate's pair (0, p)
        for _ in range(n):  # keep slices 0 and p of the leading axis and move that axis last
            span = len(good) // m
            slices = [good[k * span:(k + 1) * span] for k in range(m)]
            pair = next(p for p in range(1, m) if 1 in slices[0] or 1 in slices[p])
            good = bytearray(2 * span)
            good[::2], good[1::2] = slices[0], slices[pair]
            kept.append(pair)
        ranks = _digit_table([(0, p * m ** (n - 1 - j)) for j, p in enumerate(kept)])
        found.append(_Restriction(b, tuple(kept), target, total, _take(indicator, ranks)))
    return found


def _sweep(domain: tuple[Fraction, ...], codomain: tuple[Fraction, ...], arity: int,
           tables: Iterable[Sequence[int]]) -> Iterator[tuple[Sequence[int], int, int, bool]]:
    """Each value table of ``tables`` on checked alphabets (see ``_alphabets``)
    with its sensitivity s, its degree d and its verdict, in order: whether s
    and d meet the bound and, for d >= 1, its restriction certificate holds.

    Each chunk of tables (see ``_chunks``) is packed into one tensor for its
    degrees, one per value it takes plus one for its restriction witnesses,
    and one for the degrees of their Boolean tables; one bit-sliced count
    gives the sensitivities of each set.  Each witness must read its table's
    degree as the degree kernel does.  The alphabets, f's and the Boolean
    one, are scaled to integers once for the whole sweep (see ``_scales``)."""
    m, k = len(domain), len(codomain)
    scales, boolean = _scales(domain, codomain), _scales(_ZERO_ONE, _ZERO_ONE)
    for chunk in _chunks(tables, m ** arity):
        labels = [_value_labels(table, domain, codomain, arity) for table in chunk]
        found = _degrees(scales, arity, labels)
        varied = [t for t, d in enumerate(found) if d]
        restricted = _restrictions(scales, arity, [labels[t] for t in varied])
        g_tables = [w.table for w in restricted]
        g_degrees = _degrees(boolean, arity, g_tables)
        g_sensitivities = _label_sensitivities(g_tables, 2, arity, 2)
        witnesses = dict(zip(varied, zip(restricted, g_degrees, g_sensitivities)))
        sensitivities = _label_sensitivities(labels, m, arity, k)
        for t, table in enumerate(chunk):
            d, s = found[t], sensitivities[t][0]
            ok = _bound_holds(s, d, m)
            if d:
                witness, g_degree, (g_sensitivity, _) = witnesses[t]
                if witness.degree != d:
                    raise ContractViolationError(
                        f"the restriction witness reads degree {witness.degree} where the "
                        f"degree kernel reads {d}, on table {list(table)}")
                ok = ok and _certified(witness.target, g_degree, g_sensitivity, s)
            yield table, s, d, ok


@dataclass(frozen=True)
class SensitivityBoundReport:
    """Both sides of the sensitivity/degree inequality for one function."""

    sensitivity: int
    degree: int
    alphabet_size: int
    holds: bool
    ratio: Optional[float]
    witness: Point

    def to_doc(self) -> dict:
        return {
            "sensitivity": self.sensitivity,
            "degree": self.degree,
            "alphabetSize": self.alphabet_size,
            "holds": self.holds,
            "ratio": self.ratio,
            "witness": [rational_to_token(x) for x in self.witness],
        }


def verify_sensitivity_bound(
    f: FiniteFunction, cap: int = DEFAULT_VERTEX_CAP
) -> SensitivityBoundReport:
    """Check s(f)^2 * (m-1) >= deg(f) in exact integers and report the ratio
    of s(f) to the degree-based floor."""
    s, witness = sensitivity(f, cap=cap)
    d = degree(f, cap=cap)
    m = len(f.domain)
    holds = _bound_holds(s, d, m)
    ratio = None if d == 0 else math.sqrt(_squared_ratio(s, d, m))
    return SensitivityBoundReport(s, d, m, holds, ratio, witness)


def tribes(tribe_count: int, cap: int = DEFAULT_VERTEX_CAP) -> FiniteFunction:
    """Boolean OR of ``tribe_count`` disjoint ANDs over consecutive blocks of
    ``tribe_count`` bits, with every input outside the first block
    complemented so the all-ones point carries the maximum local sensitivity.

    Degree tribe_count^2, sensitivity tribe_count.  This is
    :func:`lifted_tribes` on the domain {0, 1} with marked value 1, so the
    2^(tribe_count^2) points are checked against ``cap`` before any is built.
    """
    return lifted_tribes((0, 1), 1, tribe_count, cap=cap)


def lifted_tribes(
    domain, marked, tribe_count: int, cap: int = DEFAULT_VERTEX_CAP
) -> FiniteFunction:
    """Compose the tribes function with per-coordinate indicators of one
    marked alphabet value.

    For alphabet size m the result has degree (m-1)*tribe_count^2 and
    sensitivity (m-1)*tribe_count, meeting s = sqrt((m-1)*deg).  The grid
    is checked against ``cap`` before the alphabet is built.
    """
    check_enumeration(item_count(domain), max(tribe_count * tribe_count, 1), cap, "grid points")
    dom = _as_rationals(domain)
    if len(set(dom)) != len(dom) or len(dom) < 2:
        raise InvalidInputError("domain must hold at least two distinct values")
    marked = Fraction(marked)
    if marked not in dom:
        raise InvalidInputError(f"marked value {marked} outside the domain")
    if tribe_count < 1:
        raise InvalidInputError(f"need at least one tribe, got {tribe_count}")
    width = tribe_count * tribe_count
    # a point is 1 when some block is met: every coordinate of the first
    # block carries the marked value, or every one of a later block avoids it
    misses = [int(v != marked) for v in dom]
    first, later = (
        [int(not c) for c in _digit_table([axis] * tribe_count)]
        for axis in (misses, [1 - x for x in misses])
    )
    met = _digit_table([first] + [later] * (tribe_count - 1))
    return FiniteFunction(dom, _ZERO_ONE, width, bytes(map(bool, met)))
