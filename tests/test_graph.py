"""Vertex encoding, adjacency, and induced-degree checks."""

import itertools
import random
import time
from array import array

import pytest

from hamlab import (
    FiniteFunction,
    GraphParams,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    VertexSet,
    brute_force_metrics,
    degree,
    hamming_distance,
    independence_number,
    induced_max_degree,
    iter_vertices,
    lift_partition,
    neighbors,
    partition_metrics,
    rank,
    sensitivity,
    unrank,
)
from hamlab.errors import item_count, power_exceeds
from hamlab.graph import _indicator, _interleaved, _joined, _membership, _take


def test_rank_mixed_radix_example():
    assert rank((2, 3, 0), GraphParams(4, 3)) == 44


def test_unrank_zero():
    assert unrank(0, GraphParams(5, 4)) == (0, 0, 0, 0)


def test_rank_unrank_bijection_small():
    params = GraphParams(3, 3)
    seen = set()
    for digits in iter_vertices(params):
        r = rank(digits, params)
        assert unrank(r, params) == digits
        seen.add(r)
    assert seen == set(range(27))


def test_rank_rejects_bad_digits():
    with pytest.raises(InvalidInputError):
        rank((0, 3), GraphParams(3, 2))
    with pytest.raises(InvalidInputError):
        rank((0, 1, 2), GraphParams(3, 2))


def test_unrank_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        unrank(9, GraphParams(3, 2))
    with pytest.raises(InvalidInputError):
        unrank(-1, GraphParams(3, 2))


def test_neighbors_order_and_count():
    params = GraphParams(3, 2)
    assert list(neighbors((0, 0), params)) == [(1, 0), (2, 0), (0, 1), (0, 2)]
    for m, n in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        p = GraphParams(m, n)
        for v in iter_vertices(p):
            out = list(neighbors(v, p))
            assert len(out) == (m - 1) * n
            assert len(set(out)) == len(out)
            assert all(hamming_distance(v, u) == 1 for u in out)


def test_neighbors_hypercube_are_bit_flips():
    params = GraphParams(2, 4)
    v = (0, 1, 1, 0)
    flips = {tuple(1 - d if i == j else d for j, d in enumerate(v)) for i in range(4)}
    assert set(neighbors(v, params)) == flips


def test_adjacency_symmetry():
    params = GraphParams(3, 3)
    for v in iter_vertices(params):
        for u in neighbors(v, params):
            assert v in set(neighbors(u, params))


def test_hamming_distance():
    assert hamming_distance((0, 0), (1, 2)) == 2
    assert hamming_distance((1, 2, 0), (1, 2, 0)) == 0
    assert hamming_distance((2, 3, 0), (2, 1, 0)) == 1
    with pytest.raises(InvalidInputError):
        hamming_distance((0, 0), (0, 0, 0))


def test_induced_max_degree_full_graph_and_singleton():
    for m, n in [(2, 3), (3, 2), (4, 2)]:
        params = GraphParams(m, n)
        everything = VertexSet.from_ranks(params, range(params.vertex_count))
        assert induced_max_degree(everything) == (m - 1) * n
        assert induced_max_degree(VertexSet.from_ranks(params, [0])) == 0
        assert induced_max_degree(VertexSet.from_ranks(params, [])) == 0


def test_induced_max_degree_matches_naive_double_loop():
    params = GraphParams(3, 2)
    vertices = list(iter_vertices(params))
    for bits in range(0, 2 ** 9, 7):  # a spread of subsets of the 9 vertices
        members = [r for r in range(9) if (bits >> r) & 1]
        vset = VertexSet.from_ranks(params, members)
        naive = 0
        for r in members:
            deg = sum(
                1 for u in members
                if u != r and hamming_distance(vertices[r], vertices[u]) == 1
            )
            naive = max(naive, deg)
        assert induced_max_degree(vset) == naive


def test_induced_max_degree_respects_cap():
    params = GraphParams(3, 2)
    vset = VertexSet.from_ranks(params, [0, 1])
    with pytest.raises(ResourceLimitError):
        induced_max_degree(vset, cap=4)


def _brute_force_independence(params):
    vertices = list(iter_vertices(params))
    count = params.vertex_count
    adjacency = [
        {j for j in range(count) if hamming_distance(vertices[i], vertices[j]) == 1}
        for i in range(count)
    ]
    best = 0
    for bits in range(2 ** count):
        members = [i for i in range(count) if (bits >> i) & 1]
        if len(members) <= best:
            continue
        if all(j not in adjacency[i] for i in members for j in members):
            best = len(members)
    return best


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 1), (3, 1), (4, 1)])
def test_independence_number_matches_brute_force(m, n):
    params = GraphParams(m, n)
    assert independence_number(params) == m ** (n - 1)
    assert independence_number(params) == _brute_force_independence(params)


def test_independence_number_complete_graph():
    assert independence_number(GraphParams(7, 1)) == 1


def test_vertex_set_roundtrip():
    params = GraphParams(4, 3)
    vset = VertexSet.from_ranks(params, [0, 5, 44, 63])
    doc = vset.to_doc()
    assert doc == {"m": 4, "n": 3, "ranks": [0, 5, 44, 63]}
    assert VertexSet.from_doc(doc) == vset


def test_vertex_set_rejects_bad_ranks():
    with pytest.raises(InvalidInputError, match="member rank 4 outside"):
        VertexSet.from_ranks(GraphParams(2, 2), [4])
    with pytest.raises(InvalidInputError, match="member rank -1 outside"):
        VertexSet.from_ranks(GraphParams(2, 2), [0, -1, 4])
    # a membership buffer must hold m^n labels, each 0 or 1
    with pytest.raises(InvalidInputError, match="members length 3"):
        VertexSet(GraphParams(2, 2), b"\x01\x00\x01")
    with pytest.raises(InvalidInputError, match="membership label 2"):
        VertexSet(GraphParams(2, 2), [0, 1, 2, 0])


def test_huge_vertex_set_fails_the_cap_without_computing_m_to_the_n():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        VertexSet.from_ranks(GraphParams(3, 99_999_999), [0, 1, 10 ** 60], cap=100)
    assert time.perf_counter() - start < 1


def test_power_exceeds_small_and_negative_bases_without_exponentiating():
    start = time.perf_counter()
    assert power_exceeds(-3, 10 ** 8, 10 ** 7)
    assert not power_exceeds(-3, 10 ** 8 + 1, 10 ** 7)
    assert not power_exceeds(-3, 10 ** 8 + 1, -(10 ** 7))
    assert not power_exceeds(-1, 10 ** 8, 10 ** 7)
    assert not power_exceeds(0, 10 ** 8, 0)
    assert power_exceeds(1, 10 ** 8, 0)
    assert time.perf_counter() - start < 1
    for base, exponent, limit in itertools.product(range(-5, 6), range(7), range(-40, 41, 3)):
        assert power_exceeds(base, exponent, limit) == (base ** exponent > limit)


def test_item_count_counts_ranges_from_their_bounds():
    for start, stop, step in itertools.product(range(-7, 8), range(-7, 8), (-3, -2, -1, 1, 2, 3)):
        assert item_count(range(start, stop, step)) == len(range(start, stop, step))
    assert item_count(range(10 ** 20)) == 10 ** 20  # past sys.maxsize, where len() overflows
    assert item_count(range(0, -(10 ** 20), -3)) == -(-(10 ** 20) // 3)
    assert item_count([0, 1, 2]) == 3


def test_one_value_grids_fail_the_cap_on_their_word_length():
    # one point, but the work still grows with n
    n, cap = 10 ** 4, 1000
    f = FiniteFunction([0], [0], n, [0])
    part = Partition(GraphParams(1, n), [0])
    for call in (lambda: degree(f, cap=cap), lambda: sensitivity(f, cap=cap),
                 lambda: partition_metrics(part, cap=cap),
                 lambda: lift_partition(Partition(GraphParams(1, 1), [0]), n, 1, cap=cap),
                 lambda: brute_force_metrics(part, cap=cap)):
        with pytest.raises(ResourceLimitError):
            call()


def test_graph_params_validation():
    with pytest.raises(InvalidInputError):
        GraphParams(0, 2)
    with pytest.raises(InvalidInputError):
        GraphParams(2, 0)
    assert GraphParams(1, 3).vertex_count == 1


def test_byte_labels_given_in_a_wide_array_are_converted_by_value():
    # bytes(array("H", ...)) would copy two raw bytes per label
    rng = random.Random(7)
    assignment = [rng.randrange(5) for _ in range(5 ** 3)]
    params = GraphParams(5, 3)
    assert Partition(params, array("H", assignment)) == Partition(params, assignment)
    values = [rng.randrange(256) for _ in range(2 ** 8)]
    values[0] = 255
    wide, narrow = (FiniteFunction((0, 1), range(256), 8, table)
                    for table in (array("H", values), values))
    assert wide == narrow and type(wide.values) is bytes


def _storage(labels):
    """The storage of a label buffer: its array type code, or "bytes"."""
    return labels.typecode if isinstance(labels, array) else "bytes"


@pytest.mark.parametrize("make_labels, count", [(bytes, 256), (lambda v: array("H", v), 300)],
                         ids=["bytes", "array"])
def test_label_buffer_helpers_keep_the_storage_and_the_labels(make_labels, count):
    # each helper against a plain list of the same labels; labels 0 and
    # count - 1 sit at either end of the storage type's range
    rng = random.Random(count)
    lists = [[rng.randrange(count) for _ in range(40)] for _ in range(3)]
    lists[0][:2] = 0, count - 1
    buffers = [make_labels(labels) for labels in lists]
    ranks = [rng.randrange(40) for _ in range(60)]  # with repeats, in any order
    for found, reference in ((_joined(buffers), sum(lists, [])),
                             (_interleaved(buffers), [a for row in zip(*lists) for a in row]),
                             (_take(buffers[0], ranks), [lists[0][r] for r in ranks])):
        assert _storage(found) == _storage(buffers[0]) and list(found) == reference
    # one buffer is its own join and its own interleaving
    assert _joined(buffers[:1]) is buffers[0] and _interleaved(buffers[:1]) is buffers[0]
    for value in (0, count - 1, lists[0][5]):
        indicator = _indicator(buffers[0], value)
        assert type(indicator) is bytes and indicator == bytes(a == value for a in lists[0])
    assert _membership(40, ranks) == bytes(r in ranks for r in range(40))
