"""Randomized invariants over the core operations."""

import functools
import io
import itertools
import json
import math
import operator
import random
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hamlab import (
    FiniteFunction,
    GraphParams,
    GridPolynomial,
    InvalidInputError,
    Partition,
    VertexSet,
    block_sum_map,
    boolean_restriction_witness,
    brute_force_metrics,
    complete_graph_partition,
    coordinate_blocks,
    degree,
    degree_one_partition,
    hamming_distance,
    induced_max_degree,
    interpolate,
    lift_partition,
    lifted_tribes,
    local_sensitivity,
    markov_degree_lower_bound,
    part_vertex_set,
    partition_metrics,
    rank,
    sensitivity,
    unrank,
    theorem_partition,
    tribes,
    verify_sensitivity_bound,
)
from hamlab import functions
from hamlab.cli import main
from hamlab.encoding import write_json
from hamlab.functions import (
    _alphabets,
    _block_maxima,
    _degrees,
    _difference_rows,
    _grid_tensor,
    _integer_scaled,
    _label_sensitivities,
    _nonzero_slots,
    _restrictions,
    _scaled_lagrange,
    _scales,
    _slot_values,
    _slot_width,
    _value_labels,
)
from hamlab.graph import _digit_table

params_strategy = st.builds(
    GraphParams,
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
)


@given(params=params_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank_unrank_roundtrip(params, data):
    r = data.draw(st.integers(min_value=0, max_value=params.vertex_count - 1))
    assert rank(unrank(r, params), params) == r
    digits = tuple(
        data.draw(st.integers(min_value=0, max_value=params.m - 1))
        for _ in range(params.n)
    )
    assert unrank(rank(digits, params), params) == digits


@given(
    m=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_markov_bound_below_regular_degree(m, n, data):
    size = data.draw(st.integers(min_value=m ** (n - 1) + 1, max_value=m ** n))
    value = markov_degree_lower_bound(m, n, size)
    assert 0 < value <= (m - 1) * n


table_strategy = st.lists(
    st.integers(min_value=0, max_value=1), min_size=9, max_size=9
).map(tuple)


@given(table=table_strategy)
@settings(max_examples=60, deadline=None)
def test_interpolation_reproduces_table(table):
    f = FiniteFunction((0, 1, 2), (0, 1), 2, table)
    poly = interpolate(f)
    for point in f.points():
        assert poly.evaluate(point) == f.value_at(point)
    assert poly.degree() <= 4


@given(table=table_strategy)
@settings(max_examples=60, deadline=None)
def test_sensitivity_bound_on_random_ternary_functions(table):
    f = FiniteFunction((0, 1, 2), (0, 1), 2, table)
    report = verify_sensitivity_bound(f)
    assert report.holds


@given(
    coeffs=st.lists(
        st.fractions(
            min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
        ),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_degree_invariant_under_reinterpolation(coeffs):
    # tabulate a bilinear polynomial on {0,1}^2, then re-derive it
    poly = GridPolynomial(
        2,
        {
            (0, 0): coeffs[0],
            (0, 1): coeffs[1],
            (1, 0): coeffs[2],
            (1, 1): coeffs[3],
        },
    )
    outputs = [poly.evaluate(p) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
    codomain = tuple(sorted(set(outputs)))
    table = tuple(codomain.index(v) for v in outputs)
    f = FiniteFunction((0, 1), codomain, 2, table)
    assert interpolate(f).terms == poly.terms
    assert degree(f) == poly.degree()


# neighbour-scan kernel against the per-vertex definitions; labellings come
# from a drawn seed so that 6^4-entry tables stay cheap to generate, and from
# a drawn number of labels so that few-label (high-degree) cases occur
scan_strategy = st.tuples(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2 ** 32),
)


def _labels(m, n, seed, size):
    rng = random.Random(seed)
    used = rng.randint(1, size)
    return [rng.randrange(used) for _ in range(m ** n)]


@given(case=scan_strategy)
@settings(max_examples=40, deadline=None)
def test_partition_metrics_matches_oracle(case):
    m, n, seed = case
    part = Partition(GraphParams(m, n), _labels(m, n, seed, m))
    assert partition_metrics(part) == brute_force_metrics(part)


@given(case=scan_strategy)
@settings(max_examples=40, deadline=None)
def test_induced_max_degree_matches_pairwise_count(case):
    m, n, seed = case
    params = GraphParams(m, n)
    flags = _labels(m, n, seed, 2)
    members = [unrank(r, params) for r, flag in enumerate(flags) if flag]
    vset = VertexSet(params, flags)
    expected = max(
        (sum(1 for v in members if hamming_distance(u, v) == 1) for u in members),
        default=0,
    )
    assert induced_max_degree(vset) == expected


@given(m=st.integers(min_value=1, max_value=4), n=st.integers(min_value=1, max_value=3),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_vertex_set_matches_a_rank_set(m, n, data):
    # the membership buffer against a frozenset of the same ranks, which
    # arrive with repeats and in any order
    params = GraphParams(m, n)
    size = m ** n
    rank_lists = st.lists(st.integers(0, size - 1), max_size=2 * size)
    ranks = data.draw(rank_lists)
    reference = frozenset(ranks)
    reordered = data.draw(st.permutations(ranks + ranks[:data.draw(st.integers(0, 3))]))
    other = data.draw(rank_lists)
    for vset in (VertexSet.from_ranks(params, ranks),
                 VertexSet.from_doc({"m": m, "n": n, "ranks": ranks})):
        assert vset.size == len(reference)
        assert vset.to_doc() == {"m": m, "n": n, "ranks": sorted(reference)}
        assert [r in vset for r in range(-1, size + 1)] == [
            r in reference for r in range(-1, size + 1)]
        twin = VertexSet.from_ranks(params, reordered)
        assert twin == vset and hash(twin) == hash(vset)
        assert (VertexSet.from_ranks(params, other) == vset) == (frozenset(other) == reference)
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    part = Partition(params, labels)
    for index in range(m):
        members = [r for r, label in enumerate(labels) if label == index]
        assert part_vertex_set(part, index) == VertexSet.from_ranks(params, members)


@given(case=scan_strategy, codomain_size=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_sensitivity_matches_local_maximum(case, codomain_size):
    m, n, seed = case
    f = FiniteFunction(
        tuple(range(m)), tuple(range(codomain_size)), n, _labels(m, n, seed, codomain_size)
    )
    points = list(f.points())
    local = [local_sensitivity(f, p) for p in points]
    best = max(local)
    assert sensitivity(f) == (best, points[local.index(best)])


@given(
    m=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_block_sum_map_matches_digit_sums(m, n, data):
    n_lo = data.draw(st.integers(min_value=1, max_value=n))
    hi, lo = GraphParams(m, n), GraphParams(m, n_lo)
    blocks = coordinate_blocks(n, n_lo)
    expected = [
        rank(tuple(sum(unrank(r, hi)[i] for i in blk) % m for blk in blocks), lo)
        for r in range(hi.vertex_count)
    ]
    assert block_sum_map(hi, lo) == expected


# exact algebra against independent references: sympy's univariate
# interpolation for the coefficients, and the Fraction re-interpolation of
# every candidate restriction for the witness
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# values of up to 10^40 make f's tensor slots wider than the witness's pair
# restrictions need, small ones narrower
outputs = rationals | st.integers(min_value=-10 ** 40, max_value=10 ** 40).map(Fraction)


def _random_function(data):
    m = data.draw(st.integers(min_value=2, max_value=5), label="m")
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    domain = data.draw(st.lists(rationals, min_size=m, max_size=m, unique=True))
    codomain = data.draw(st.lists(outputs, min_size=2, max_size=4, unique=True))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    values = [rng.randrange(len(codomain)) for _ in range(m ** n)]
    return FiniteFunction(domain, codomain, n, values)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_terms(sympy, f):
    xs = sympy.symbols(f"x0:{f.arity}")
    nodes = [sympy.Rational(a.numerator, a.denominator) for a in f.domain]
    bases = [
        [
            sympy.Poly(
                sympy.interpolate([(a, int(k == i)) for k, a in enumerate(nodes)], x),
                *xs, domain="QQ",
            )
            for i in range(len(nodes))
        ]
        for x in xs
    ]
    total = sympy.Poly(0, *xs, domain="QQ")
    grid = itertools.product(range(len(nodes)), repeat=f.arity)
    for idxs, v in zip(grid, f.values):
        value = f.codomain[v]
        if value:
            term = sympy.Poly(sympy.Rational(value.numerator, value.denominator), *xs,
                              domain="QQ")
            for j, i in enumerate(idxs):
                term *= bases[j][i]
            total += term
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in total.terms() if c}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_interpolate_matches_sympy(sympy, data):
    f = _random_function(data)
    assert interpolate(f).terms == _sympy_terms(sympy, f)


def _naive_terms(values, axes):
    # per-axis Lagrange transform of a Fraction value table: exponent
    # vector -> nonzero coefficient
    tensor = [Fraction(v) for v in values]
    stride = len(tensor)
    for nodes in axes:
        size = len(nodes)
        stride //= size
        basis = []
        for i, a in enumerate(nodes):
            coeffs = [Fraction(1)]
            for k, b in enumerate(nodes):
                if k != i:  # multiply by (x - b) / (a - b)
                    coeffs = [(hi - b * lo) / (a - b)
                              for hi, lo in zip([0] + coeffs, coeffs + [0])]
            basis.append(coeffs)
        for start in range(0, len(tensor), stride * size):
            for offset in range(stride):
                column = [tensor[start + offset + t * stride] for t in range(size)]
                for k in range(size):
                    tensor[start + offset + k * stride] = sum(
                        basis[t][k] * column[t] for t in range(size)
                    )
    grid = itertools.product(*(range(len(nodes)) for nodes in axes))
    return {exps: c for exps, c in zip(grid, tensor) if c}


@given(m=st.integers(min_value=2, max_value=8), n=st.integers(min_value=1, max_value=2),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_interpolate_matches_the_fraction_reference(m, n, data):
    # distinct rationals with mixed denominators, so the integer nodes of
    # the kernel are the domain stretched by the LCM of those denominators
    wide = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    domain = data.draw(st.lists(wide, min_size=m, max_size=m, unique=True), label="domain")
    codomain = data.draw(st.lists(wide, min_size=1, max_size=4, unique=True), label="codomain")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    f = FiniteFunction(domain, codomain, n, [rng.randrange(len(codomain))
                                             for _ in range(m ** n)])
    assert interpolate(f).terms == _naive_terms([codomain[v] for v in f.values],
                                                [domain] * n)


def test_interpolate_matches_the_fraction_reference_on_sixty_nodes():
    rng = random.Random(60)
    domain = rng.sample(sorted({Fraction(p, q) for q in range(1, 8) for p in range(-40, 41)}),
                        60)
    codomain = [Fraction(0), Fraction(1), Fraction(-5, 3)]
    f = FiniteFunction(domain, codomain, 1, [rng.randrange(3) for _ in domain])
    assert interpolate(f).terms == _naive_terms([codomain[v] for v in f.values], [domain])


def _list_transform_leading_axis(tensor, size, rows):
    """The list kernel the packed one replaced, kept as its reference: one
    lazy map per nonzero coefficient and fiber, summed row by row, with the
    leading axis moved last."""
    rest = len(tensor) // size
    fibers = [tensor[t * rest:(t + 1) * rest] for t in range(size)]
    out = []
    for row in rows:
        scaled = [map(c.__mul__, fiber) for c, fiber in zip(row, fibers) if c]
        out.append(functools.reduce(functools.partial(map, operator.add), scaled)
                   if scaled else itertools.repeat(0, rest))
    return list(itertools.chain.from_iterable(zip(*out)))


def _list_axes(table, matrices):
    tensor = list(table)
    for rows in matrices:
        tensor = _list_transform_leading_axis(tensor, len(rows[0]), rows)
    return tensor


def _unpacked(tensor, width):
    """The packed tensor's integers; its nonzero flags must agree with them,
    and the integers of the flagged slots must be the nonzero ones."""
    values = list(_slot_values(tensor, width, b"\1" * (len(tensor) // width)))
    assert len(values) * width == len(tensor)
    flags = _nonzero_slots(tensor, width)
    assert [bool(b) for b in flags] == [v != 0 for v in values]
    assert list(_slot_values(tensor, width, flags)) == [v for v in values if v]
    return values


@given(m=st.integers(min_value=2, max_value=6), n=st.integers(min_value=1, max_value=4),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_packed_axis_transform_matches_the_list_kernel(m, n, data):
    wide = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    domain = data.draw(st.lists(wide, min_size=m, max_size=m, unique=True), label="domain")
    negative = st.fractions(min_value=-50, max_value=1, max_denominator=9)
    codomain = data.draw(st.lists(negative, min_size=1, max_size=4, unique=True),
                         label="codomain")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    values = [rng.randrange(len(codomain)) for _ in range(m ** n)]
    nodes, lifted = _integer_scaled(domain)[0], _integer_scaled(codomain)[0]

    labels = bytes(values)
    rows, _, growth = _scaled_lagrange(nodes)
    tensor, width = _grid_tensor(labels, lifted, max(map(abs, lifted)), rows, growth, n)
    assert _unpacked(tensor, width) == _list_axes([lifted[v] for v in values], [rows] * n)

    # an indicator's difference tensor, built as the restriction witness
    # builds it, from 0/1 labels
    b = values[0]
    tensor, width = _grid_tensor(bytes(map(b.__eq__, values)), (0, 1), 1,
                                 _difference_rows(m), 2, n)
    assert _unpacked(tensor, width) == _list_axes(map(b.__eq__, values),
                                                  [_difference_rows(m)] * n)


@pytest.mark.parametrize("make_labels, count", [(bytes, 256), (lambda v: array("H", v), 300)],
                         ids=["bytes", "array"])
def test_packed_labels_read_back_their_ints(make_labels, count):
    # identity rows leave the table as packed; 3^7 = 2,187 labels span two
    # full runs of the packer and a partial third, in slots of 16 bytes
    rng = random.Random(count)
    ints = [rng.randrange(-2 ** 100, 2 ** 100 + 1) for _ in range(count)]
    ints[:2] = -2 ** 100, 2 ** 100
    labels = make_labels([rng.randrange(count) for _ in range(3 ** 7)])
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    tensor, width = _grid_tensor(labels, ints, 2 ** 100, identity, 1, 7)
    assert width == 16
    assert _unpacked(tensor, width) == [ints[label] for label in labels]


@pytest.mark.parametrize("width, nodes, kind, axes", [
    (1, (0, 1), "lagrange", 3),
    (1, (0, 1, 2), "difference", 6),
    (2, (-1, 0, 2), "lagrange", 3),
    (1, (0, 1, 2, 3, 4), "difference", 1),
    (4, (0, 1, 3, -2), "lagrange", 3),
    (2, (0, 1, 2, 3), "difference", 3),
    (8, (0, 1, 2, 3, 4, 5), "lagrange", 3),
    (2, (0, 1), "difference", 14),
    (16, (0, 5, -30, 14, 20), "lagrange", 4),
    (4, (0, 1, 2), "difference", 4),
    (24, (-6, -1, 0, 3, 4, 9), "lagrange", 4),
    (4, (0, 1, 2, 3, 4, 5), "difference", 2),
])
def test_packed_slots_hold_tables_that_attain_the_width_bound(width, nodes, kind, axes):
    # the row of largest absolute row sum sets the bound, and its sign
    # pattern, times the largest top the width allows, makes one entry
    # top * mass^axes exactly; difference rows have mass 2 at every m
    rows = _scaled_lagrange(nodes)[0] if kind == "lagrange" else _difference_rows(len(nodes))
    row = max(rows, key=lambda row: sum(map(abs, row)))
    mass = sum(map(abs, row))
    assert mass == (_scaled_lagrange(nodes)[2] if kind == "lagrange" else 2)
    top = ((1 << 8 * width - 1) - 1) // mass ** axes
    signs = [(c > 0) - (c < 0) for c in row]
    # labels 0, 1, 2 stand for -top, 0, top
    labels = bytes(math.prod(p) + 1 for p in itertools.product(signs, repeat=axes))
    expected = _list_axes([(label - 1) * top for label in labels], [rows] * axes)
    assert max(map(abs, expected)) == top * mass ** axes

    tensor, slot = _grid_tensor(labels, (-top, 0, top), top, rows, mass, axes)
    assert _unpacked(tensor, slot) == expected
    # the bound needs every byte of the slot: one byte less would overflow
    assert slot == width == _slot_width(top * mass ** axes)
    assert (top * mass ** axes).bit_length() == 8 * width - 1


def _boxed_values(f, data):
    """A value table on f's grid that depends on each point only through
    which of n drawn sub-boxes of the axes hold its coordinates."""
    m, n = len(f.domain), f.arity
    boxes = [data.draw(st.sets(st.integers(0, m - 1)), label="box") for _ in range(n)]
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    classes = {}
    return [classes.setdefault(tuple(x in box for x, box in zip(point, boxes)),
                               rng.randrange(len(f.codomain)))
            for point in itertools.product(range(m), repeat=n)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_difference_tensor_keeps_the_monomial_support(data):
    # the restriction witness picks its pairs from the difference tensor:
    # the most coordinates a nonzero coefficient depends on must not depend
    # on the basis
    f = _random_function(data)
    m, n = len(f.domain), f.arity
    if data.draw(st.booleans(), label="boxed"):
        f = FiniteFunction(f.domain, f.codomain, n, _boxed_values(f, data))
    monomial = max((sum(map(bool, exps)) for exps in interpolate(f).terms), default=0)

    lifted = _integer_scaled(f.codomain)[0]
    tensor, width = _grid_tensor(f.values, lifted, max(map(abs, lifted)), _difference_rows(m),
                                 2, n)
    assert _block_maxima(_digit_table([[0] + [1] * (m - 1)] * n), tensor, width,
                         [0]) == [monomial]


def _naive_witness(f):
    """The restriction walk, re-interpolating every candidate sub-table."""
    m, n = len(f.domain), f.arity
    axes = [list(f.domain)] * n
    total = max(map(sum, _naive_terms([f.codomain[v] for v in f.values], axes)), default=0)
    if total < 1:
        return None
    components = [[int(v == b) for v in f.values] for b in range(len(f.codomain))]
    degrees = [max(map(sum, _naive_terms(c, axes)), default=0) for c in components]
    pick = degrees.index(max(degrees))
    target = -(-total // (m - 1))
    values, pairs = components[pick], []
    for coord in range(n):
        if m == 2:
            pairs.append((f.domain[0], f.domain[1]))
            continue
        stride = m ** (n - 1 - coord)
        for s, t in itertools.combinations(range(m), 2):
            kept = [values[start + i * stride:start + (i + 1) * stride]
                    for start in range(0, len(values), m * stride) for i in (s, t)]
            candidate = list(itertools.chain.from_iterable(kept))
            trial = axes[:coord] + [[f.domain[s], f.domain[t]]] + axes[coord + 1:]
            support = max((sum(1 for e in exps if e) for exps in _naive_terms(candidate, trial)),
                          default=0)
            if support >= target:
                values, axes = candidate, trial
                pairs.append((f.domain[s], f.domain[t]))
                break
    return f.codomain[pick], tuple(pairs), target, tuple(values)


def _witness_summary(f):
    try:
        w = boolean_restriction_witness(f)
    except InvalidInputError:
        return None
    return w.range_value, w.retained_pairs, w.target_support, tuple(w.boolean_function.values)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_restriction_witness_matches_naive_walk(data):
    f = _random_function(data)
    assert _witness_summary(f) == _naive_witness(f)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_restriction_witness_ignores_codomain_values_the_table_never_takes(data):
    f = _random_function(data)
    extra = data.draw(st.lists(rationals.filter(lambda v: v not in f.codomain),
                               min_size=1, max_size=4, unique=True), label="extra")
    # the old values keep their order among the new slots; extras fill the rest
    size = len(f.codomain) + len(extra)
    slots = sorted(data.draw(st.permutations(range(size)), label="slots")[:len(f.codomain)])
    fill = iter(extra)
    codomain = [f.codomain[slots.index(i)] if i in slots else next(fill) for i in range(size)]
    g = FiniteFunction(f.domain, codomain, f.arity, [slots[v] for v in f.values])
    assert _witness_summary(g) == _witness_summary(f)


def test_restriction_witness_when_the_last_indicator_carries_the_top_degree():
    # value 1 on x1 = 0 (degree 2), 0 at (1, 1), 3 elsewhere: the indicators
    # of 0 and 3 share the top degree 4, and the zero weight leaves f's
    # degree to the last indicator alone
    f = FiniteFunction((0, 1, 2), (1, 0, 3), 2, (0, 0, 0, 2, 1, 2, 2, 2, 2))
    assert degree(f) == 4
    summary = _witness_summary(f)
    assert summary[0] == 0 and summary[2] == 2
    assert summary == _naive_witness(f)


def _random_space(data, min_m=1, max_m=4):
    """A rational domain, a codomain and an arity; now and then the codomain
    has more than 256 values, so its tables are stored as arrays."""
    m = data.draw(st.integers(min_value=min_m, max_value=max_m), label="m")
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    domain = data.draw(st.lists(rationals, min_size=m, max_size=m, unique=True), label="domain")
    if data.draw(st.booleans(), label="wide"):
        codomain = [Fraction(v, 3) for v in range(-150, 150)]
    else:
        codomain = data.draw(st.lists(outputs, min_size=2, max_size=4, unique=True),
                             label="codomain")
    return domain, codomain, n


def _random_tables(data, domain, codomain, n, count):
    """``count`` tables, each over one to three codomain values, so that
    constants and low degrees come up beside full ones."""
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    tables = []
    for _ in range(count):
        values = rng.sample(range(len(codomain)), rng.randint(1, min(3, len(codomain))))
        tables.append([rng.choice(values) for _ in range(len(domain) ** n)])
    return tables


def _chunked_degrees(domain, codomain, n, tables):
    """The degree of each of ``tables`` as a sweep reads it: chunk by chunk
    (see ``functions._chunks``), one tensor per chunk."""
    domain, codomain = _alphabets(domain, codomain, n)
    scales = _scales(domain, codomain)
    return [d for chunk in functions._chunks(tables, len(domain) ** n)
            for d in _degrees(scales, n, [_value_labels(t, domain, codomain, n) for t in chunk])]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_degrees_match_per_table_degree(data):
    domain, codomain, n = _random_space(data)
    points = len(domain) ** n
    tables = _random_tables(data, domain, codomain, n,
                            data.draw(st.integers(min_value=0, max_value=12), label="count"))
    # from one table per chunk (a budget below one table) to several, with
    # chunks cut in the middle of the table stream
    budget = data.draw(st.integers(min_value=1, max_value=4 * points), label="budget")
    with mock.patch.object(functions, "_CHUNK_SLOTS", budget):
        found = _chunked_degrees(domain, codomain, n, iter(tables))
    assert found == [degree(FiniteFunction(domain, codomain, n, t)) for t in tables]


def test_degrees_cross_the_default_slot_budget():
    # 1,000 tables of 3^2 points fill 9,000 slots: nine chunks
    domain, codomain = (Fraction(-1, 2), Fraction(1, 3), 2), (0, Fraction(3, 4), -2)
    rng = random.Random(18)
    tables = [[rng.randrange(3) for _ in range(9)] for _ in range(1000)]
    tables[500] = [1] * 9  # a constant
    assert [len(chunk) for chunk in functions._chunks(tables, 9)] == [113] * 8 + [96]
    found = _chunked_degrees(domain, codomain, 2, tables)
    assert found == [degree(FiniteFunction(domain, codomain, 2, t)) for t in tables]
    assert found[500] == 0 and max(found) == 4
    # a chunk of one table
    assert _chunked_degrees(domain, codomain, 2, tables[:1]) == found[:1]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_sensitivities_match_per_table_sensitivity(data):
    # one count over the tables laid end to end: no neighbour may reach
    # across two tables
    domain, codomain, n = _random_space(data)
    count = data.draw(st.integers(min_value=1, max_value=8), label="count")
    fs = [FiniteFunction(domain, codomain, n, t)
          for t in _random_tables(data, domain, codomain, n, count)]
    found = _label_sensitivities([f.values for f in fs], len(domain), n, len(codomain))
    params = GraphParams(len(domain), n)
    assert [(s, tuple(domain[i] for i in unrank(first, params))) for s, first in found] == [
        sensitivity(f) for f in fs]
    assert [s for s, _ in found] == [
        max(local_sensitivity(f, p) for p in f.points()) for f in fs]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_batched_restrictions_match_the_naive_walk(data):
    # one packed chunk of several tables against the walk that re-interpolates
    # every candidate sub-table of each, two-valued domains included
    domain, codomain, n = _random_space(data, min_m=2, max_m=4)
    count = data.draw(st.integers(min_value=1, max_value=5), label="count")
    fs = [FiniteFunction(domain, codomain, n, t)
          for t in _random_tables(data, domain, codomain, n, count)]
    fs = [f for f in fs if len(set(f.values)) > 1]
    found = (_restrictions(_scales(fs[0].domain, fs[0].codomain), n, [f.values for f in fs])
             if fs else [])
    assert len(found) == len(fs)
    for f, witness in zip(fs, found):
        pairs = tuple((f.domain[0], f.domain[p]) for p in witness.kept)
        assert (f.codomain[witness.value], pairs, witness.target,
                tuple(witness.table)) == _naive_witness(f)
        assert witness.degree == degree(f)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_degree_matches_interpolated_polynomial(data):
    f = _random_function(data)
    # the same table with the coordinates outside ``kept`` pinned to their
    # first value, so that degrees below (m-1)n and constants come up too
    m, n = len(f.domain), f.arity
    kept = data.draw(st.sets(st.integers(0, n - 1)), label="kept")
    ranks = [
        sum(d * m ** (n - 1 - j) for j, d in enumerate(digits) if j in kept)
        for digits in itertools.product(range(m), repeat=n)
    ]
    g = FiniteFunction(f.domain, f.codomain, n, [f.values[r] for r in ranks])
    for h in (f, g):
        poly = interpolate(h)
        assert degree(h) == poly.degree()
        # interpolate skips the re-wrapping of direct construction, so its
        # terms must already be exact and nonzero
        assert all(type(e) is int for exps in poly.terms for e in exps)
        assert all(type(c) is Fraction and c for c in poly.terms.values())
        assert poly == GridPolynomial(n, poly.terms)


# per-rank tables against per-point references: a product over digit
# tuples, and the per-vertex degree-1 rule and tribes loop the tables replace
@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=5), max_size=5))
@settings(max_examples=80, deadline=None)
def test_digit_table_matches_product_of_digits(weights):
    expected = [
        sum(w[d] for w, d in zip(weights, digits))
        for digits in itertools.product(*(range(len(w)) for w in weights))
    ]
    assert _digit_table(weights) == expected


def _naive_degree_one_assignment(m, n):
    if n == 1:
        return tuple(v // 2 for v in range(m))  # the complete-graph layout, d = 1
    assignment = []
    for digits in itertools.product(range(m), repeat=n):
        nonzero = [i for i, c in enumerate(digits) if c]
        if not nonzero:
            assignment.append(0)
            continue
        last = nonzero[-1]
        assignment.append((sum(digits[:last]) + (digits[last] + 1) // 2) % m)
    return tuple(assignment)


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("n", range(1, 5))
def test_degree_one_partition_matches_per_vertex_rule(m, n):
    assert tuple(degree_one_partition(m, n).assignment) == _naive_degree_one_assignment(m, n)


def _naive_lifted_tribes_values(domain, marked, s):
    flags = [1 if v == marked else 0 for v in domain]
    values = []
    for idxs in itertools.product(range(len(domain)), repeat=s * s):
        bits = [flags[i] for i in idxs]
        hit = False
        for block in range(s):
            chunk = bits[block * s:(block + 1) * s]
            if block:
                chunk = [1 - b for b in chunk]
            if all(chunk):
                hit = True
                break
        values.append(1 if hit else 0)
    return tuple(values)


@pytest.mark.parametrize("domain_size,s", [
    (m, s) for m in range(2, 5) for s in (1, 2, 3) if s < 3 or m <= 3
])
def test_lifted_tribes_matches_tribes_loop(domain_size, s):
    domain = (Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(7))[:domain_size]
    for marked in domain:
        f = lifted_tribes(domain, marked, s)
        assert f.domain == domain and f.arity == s * s
        assert tuple(f.values) == _naive_lifted_tribes_values(domain, marked, s)
    assert tuple(tribes(s).values) == _naive_lifted_tribes_values((0, 1), 1, s)


# compact labels: the row-join lift against the per-vertex block sums it
# replaced, and the bytes/array storage boundary at m = 256
def _naive_lift(base, n):
    m, lo = base.params.m, base.params
    blocks = coordinate_blocks(n, lo.n)
    return tuple(
        base.assignment[rank(tuple(sum(digits[i] for i in blk) % m for blk in blocks), lo)]
        for digits in itertools.product(range(m), repeat=n)
    )


# the cut after n//2 digits falls inside the first block (1, 4), inside a
# later one (3, 6), (4, 6), (4, 7), or between blocks (2, 4), (3, 5)
@pytest.mark.parametrize("m,n_base,n", [
    (m, n_base, n)
    for m in range(3, 8)
    for n_base, n in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (2, 5),
                      (3, 3), (3, 5), (3, 6), (4, 6), (4, 7)]
    if m ** n <= 20_000
])
def test_lift_matches_per_vertex_block_sums(m, n_base, n):
    rng = random.Random(f"{m}/{n_base}/{n}")
    base = Partition(GraphParams(m, n_base), [rng.randrange(m) for _ in range(m ** n_base)])
    lifted = lift_partition(base, n, degree_cap=10 ** 6)
    assert type(lifted.assignment) is bytes
    assert tuple(lifted.assignment) == _naive_lift(base, n)


@pytest.mark.parametrize("m", range(3, 8))
@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (2, 4), (3, 5), (3, 3), (4, 3), (9, 4)])
def test_theorem_partition_matches_per_vertex_lift(m, d, n):
    # d < n lifts the degree-1 base; d >= n lifts a one-coordinate base,
    # whose single block spans every coordinate and straddles the cut
    if d < n:
        base = degree_one_partition(m, -(-n // d))
    else:
        base = complete_graph_partition(m, min(d // n, m))
    assert tuple(theorem_partition(m, d, n).assignment) == _naive_lift(base, n)


def test_lift_beyond_one_byte_matches_per_vertex_block_sums():
    m = 300
    rng = random.Random(300)
    base = Partition(GraphParams(m, 1), [rng.randrange(m) for _ in range(m)])
    lifted = lift_partition(base, 2, degree_cap=10 ** 6)
    assert type(lifted.assignment) is array and lifted.assignment.typecode == "H"
    assert tuple(lifted.assignment) == _naive_lift(base, 2)


@pytest.mark.parametrize("m,itemsize", [(3, 1), (256, 1), (257, 2), (70_000, 4)])
def test_partition_storage_follows_m_and_round_trips(m, itemsize):
    # bytes up to m = 256, above it the narrowest array; labels 255 and 256
    # sit on either side of the byte boundary
    labels = list(range(m))[::-1]
    part = Partition(GraphParams(m, 1), labels)
    assert type(part.assignment) is (bytes if m <= 256 else array)
    assert memoryview(part.assignment).itemsize == itemsize
    assert part_vertex_set(part, m - 1).to_doc()["ranks"] == [0]
    doc = part.to_doc()
    assert list(doc["assignment"]) == labels
    stream = io.StringIO()
    write_json(doc, stream)
    assert Partition.from_doc(json.loads(stream.getvalue())) == part


@pytest.mark.parametrize("m,labels,bad", [
    (3, [0, -1, 2], -1),
    (3, [0, 3, 1], 3),
    (3, [0, 300, 1], 300),
    (3, [5, 300, 0], 5),
    (3, [0, 1, -300], -300),
    (257, [0] * 256 + [257], 257),
    (257, [0] * 256 + [-1], -1),
    (257, [0] * 256 + [70_000], 70_000),
])
def test_out_of_range_labels_keep_their_message(tmp_path, capsys, m, labels, bad):
    with pytest.raises(InvalidInputError, match=rf"^part index {bad} outside 0\.\.{m - 1}$"):
        Partition(GraphParams(m, 1), labels)
    path = tmp_path / "bad.part"
    path.write_text(json.dumps({"m": m, "n": 1, "assignment": labels}))
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err == f"error: part index {bad} outside 0..{m - 1}\n"
