"""Partition constructions and their exact metrics."""

import pytest

from hamlab import (
    ContractViolationError,
    GraphParams,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    block_sum_map,
    complete_graph_partition,
    coordinate_blocks,
    degree_one_partition,
    induced_max_degree,
    iter_vertices,
    lift_partition,
    low_degree_subgraph,
    part_vertex_set,
    partition_metrics,
    rank,
    theorem_imbalance_bound,
    theorem_partition,
    unrank,
)
from hamlab.graph import hamming_distance


def _trailing_zeros(digits):
    count = 0
    for d in reversed(digits):
        if d != 0:
            break
        count += 1
    return count


def test_degree_one_figure_instance():
    metrics = partition_metrics(degree_one_partition(4, 3))
    assert metrics.part_sizes == (16, 17, 16, 15)
    assert metrics.imbalance == 2
    assert metrics.max_degree == 1


def test_degree_one_odd_instance():
    metrics = partition_metrics(degree_one_partition(3, 2))
    assert metrics.part_sizes == (3, 4, 2)
    assert metrics.imbalance == 2


def test_degree_one_membership_rule_hand_case():
    # (2,3,0): prefix (2), last nonzero 3, one trailing zero; 2 + 2 = 4 = 0 mod 4
    assignment = degree_one_partition(4, 3).assignment
    params = GraphParams(4, 3)
    assert assignment[rank((2, 3, 0), params)] == 0
    assert assignment[rank((0, 0, 0), params)] == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_degree_one_grid(m, n):
    partition = degree_one_partition(m, n)
    metrics = partition_metrics(partition)
    assert sum(metrics.part_sizes) == m ** n
    assert metrics.max_degree <= 1
    assert metrics.imbalance == (m - 2 if m % 2 == 0 else m - 1)


@pytest.mark.parametrize("m,n", [(5, 5), (10, 3), (31, 2)])
def test_degree_one_holds_at_scale(m, n):
    metrics = partition_metrics(degree_one_partition(m, n))
    assert metrics.max_degree <= 1
    assert metrics.imbalance == (m - 2 if m % 2 == 0 else m - 1)
    assert sum(metrics.part_sizes) == m ** n


def test_degree_one_same_part_neighbors_share_trailing_zero_count():
    # adjacent vertices inside one part always carry equal trailing-zero
    # runs, differ exactly at the last nonzero digit, and its two values
    # land in the same half-pair
    partition = degree_one_partition(4, 3)
    params = partition.params
    vertices = list(iter_vertices(params))
    for i, v in enumerate(vertices):
        for j, u in enumerate(vertices):
            if i < j and partition.assignment[i] == partition.assignment[j]:
                if hamming_distance(v, u) == 1:
                    assert _trailing_zeros(v) == _trailing_zeros(u)
                    position = params.n - 1 - _trailing_zeros(v)
                    assert [a != b for a, b in zip(v, u)].index(True) == position
                    assert (v[position] + 1) // 2 == (u[position] + 1) // 2


def test_degree_one_no_vertex_has_two_same_part_neighbors():
    partition = degree_one_partition(5, 2)
    params = partition.params
    vertices = list(iter_vertices(params))
    for i, v in enumerate(vertices):
        same = sum(
            1 for j, u in enumerate(vertices)
            if j != i
            and partition.assignment[i] == partition.assignment[j]
            and hamming_distance(v, u) == 1
        )
        assert same <= 1


def test_degree_one_zero_vertex_isolated_in_part_zero():
    partition = degree_one_partition(4, 3)
    part_zero = part_vertex_set(partition, 0)
    assert 0 in part_zero
    params = partition.params
    all_zero = (0,) * params.n
    for i, v in enumerate(iter_vertices(params)):
        if hamming_distance(all_zero, v) == 1:
            assert partition.assignment[i] != 0


def test_degree_one_part_one_induced_degree_exactly_one():
    partition = degree_one_partition(4, 3)
    assert induced_max_degree(part_vertex_set(partition, 1)) == 1


def test_degree_one_n1_delegates_to_complete():
    assert degree_one_partition(4, 1) == complete_graph_partition(4, 1)


def test_degree_one_rejects_small_m():
    with pytest.raises(InvalidInputError):
        degree_one_partition(1, 3)


def test_complete_graph_examples():
    m5 = partition_metrics(complete_graph_partition(5, 1))
    assert m5.part_sizes == (2, 2, 1, 0, 0)
    assert m5.imbalance == 4
    m4 = partition_metrics(complete_graph_partition(4, 2))
    assert m4.part_sizes == (3, 1, 0, 0)
    assert m4.imbalance == 4
    singletons = partition_metrics(complete_graph_partition(6, 0))
    assert singletons.imbalance == 0
    assert singletons.max_degree == 0


@pytest.mark.parametrize("m", range(1, 21))
def test_complete_graph_lemma_formula(m):
    for d in range(0, m + 1):
        metrics = partition_metrics(complete_graph_partition(m, d))
        assert metrics.imbalance == 2 * (d * m // (d + 1))
        assert metrics.max_degree <= d
        assert sum(metrics.part_sizes) == m


def test_complete_graph_rejects_bad_degree():
    with pytest.raises(InvalidInputError):
        complete_graph_partition(4, 5)
    with pytest.raises(InvalidInputError):
        complete_graph_partition(4, -1)


def test_complete_graph_checks_cap_before_assigning():
    with pytest.raises(ResourceLimitError):
        complete_graph_partition(300_000_000, 1)
    with pytest.raises(ResourceLimitError):
        complete_graph_partition(9, 2, cap=8)
    assert complete_graph_partition(9, 2, cap=9).params.vertex_count == 9


def test_coordinate_blocks_near_equal_larger_first():
    blocks = coordinate_blocks(7, 3)
    assert [len(b) for b in blocks] == [3, 2, 2]
    assert [list(b) for b in blocks] == [[0, 1, 2], [3, 4], [5, 6]]


def test_block_sum_map_fiber_sizes():
    hi, lo = GraphParams(3, 4), GraphParams(3, 2)
    image = block_sum_map(hi, lo)
    fibers = {}
    for target in image:
        fibers[target] = fibers.get(target, 0) + 1
    assert set(fibers) == set(range(9))
    assert all(count == 9 for count in fibers.values())


def test_block_sum_map_sends_neighbors_to_neighbors():
    hi, lo = GraphParams(3, 4), GraphParams(3, 2)
    image = block_sum_map(hi, lo)
    from hamlab.graph import neighbors, rank

    for r, v in enumerate(iter_vertices(hi)):
        for u in neighbors(v, hi):
            image_v = unrank(image[r], lo)
            image_u = unrank(image[rank(u, hi)], lo)
            assert hamming_distance(image_v, image_u) == 1


def test_block_sum_map_back_degree_is_block_width():
    # each neighbor of the image pulls back to exactly |block| adjacent fiber points
    hi, lo = GraphParams(3, 4), GraphParams(3, 2)
    image = block_sum_map(hi, lo)
    from hamlab.graph import neighbors, rank

    blocks = coordinate_blocks(4, 2)
    x = (1, 2, 0, 1)
    x_rank = rank(x, hi)
    for y_lo in neighbors(unrank(image[x_rank], lo), lo):
        y_lo_rank = rank(y_lo, lo)
        differing = [
            j for j in range(2)
            if unrank(image[x_rank], lo)[j] != y_lo[j]
        ]
        assert len(differing) == 1
        pulled = sum(
            1 for u in neighbors(x, hi) if image[rank(u, hi)] == y_lo_rank
        )
        assert pulled == len(blocks[differing[0]])


def test_lift_example_metrics():
    base = degree_one_partition(3, 2)
    lifted = lift_partition(base, 4, degree_cap=2)
    metrics = partition_metrics(lifted)
    assert metrics.part_sizes == (27, 36, 18)
    assert metrics.imbalance == 18
    assert metrics.max_degree <= 2


def test_lift_identity():
    base = degree_one_partition(3, 2)
    assert lift_partition(base, 2, degree_cap=1) == base


@pytest.mark.parametrize("m", [3, 4])
def test_lift_imbalance_multiplicativity_grid(m):
    for n_base in (2, 3):
        base = degree_one_partition(m, n_base)
        base_metrics = partition_metrics(base)
        for n in range(n_base, 6):
            widest = -(-n // n_base)
            lifted = lift_partition(base, n, degree_cap=widest)
            metrics = partition_metrics(lifted)
            assert metrics.imbalance == m ** (n - n_base) * base_metrics.imbalance
            assert metrics.max_degree <= base_metrics.max_degree * widest


def test_lift_rejects_degree_cap_violation():
    base = degree_one_partition(3, 2)
    with pytest.raises(ContractViolationError):
        lift_partition(base, 5, degree_cap=1)  # would only guarantee 3


def test_lift_rejects_shrinking():
    base = degree_one_partition(3, 3)
    with pytest.raises(InvalidInputError):
        lift_partition(base, 2, degree_cap=5)


def test_theorem_partition_low_degree_cases():
    metrics = partition_metrics(theorem_partition(3, 2, 4))
    assert metrics.imbalance == theorem_imbalance_bound(3, 2, 4)[1] == 18
    assert metrics.max_degree <= 2

    metrics = partition_metrics(theorem_partition(4, 1, 3))
    assert metrics.imbalance == theorem_imbalance_bound(4, 1, 3)[1] == 2
    assert metrics.max_degree <= 1


def test_theorem_partition_high_degree_case_with_gap():
    metrics = partition_metrics(theorem_partition(4, 5, 2))
    assert metrics.imbalance == theorem_imbalance_bound(4, 5, 2)[1] == 16
    assert metrics.max_degree <= 5


def test_theorem_partition_huge_degree_clamps():
    metrics = partition_metrics(theorem_partition(3, 50, 2))
    assert metrics.imbalance == theorem_imbalance_bound(3, 50, 2)[1] == 3 * 2 * (3 * 25 // 26)
    assert metrics.max_degree <= 50


def test_theorem_partition_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        theorem_partition(2, 1, 3)
    with pytest.raises(InvalidInputError):
        theorem_partition(3, 0, 3)


def test_partition_metrics_first_digit_partition():
    # fixing the first digit splits the graph into m sub-Hamming-graphs
    params = GraphParams(3, 2)
    assignment = tuple(r // 3 for r in range(9))
    metrics = partition_metrics(Partition(params, assignment))
    assert metrics.max_degree == 2  # (m-1)(n-1)
    assert metrics.imbalance == 0


def test_partition_metrics_single_part_extreme():
    params = GraphParams(3, 2)
    metrics = partition_metrics(Partition(params, (0,) * 9))
    assert metrics.imbalance == 2 * 2 * 3  # 2(m-1)m^(n-1)
    assert metrics.max_degree == 4  # (m-1)n
    assert metrics.witness == (0, 0)


def test_partition_metrics_labels_beyond_one_byte():
    # a 300 x 300 Latin square gives every vertex degree 0; vertex (150, 150)
    # then takes label 270, shared with its neighbours (150, 120) and
    # (120, 150), and 270 is above what a byte holds
    m = 300
    assignment = [(a + b) % m for a in range(m) for b in range(m)]
    assignment[150 * m + 150] = 270
    metrics = partition_metrics(Partition(GraphParams(m, 2), assignment))
    assert metrics.max_degree == 2
    assert metrics.witness == (150, 150)
    assert metrics.part_sizes[0] == 299 and metrics.part_sizes[270] == 301
    assert metrics.imbalance == 2


def test_partition_rejects_huge_n_without_computing_m_to_the_n():
    with pytest.raises(InvalidInputError):
        Partition(GraphParams(3, 99_999_999), (0, 1))


def test_partition_roundtrip_and_validation():
    partition = degree_one_partition(3, 2)
    doc = partition.to_doc()
    assert Partition.from_doc(doc) == partition
    with pytest.raises(InvalidInputError):
        Partition(GraphParams(3, 2), (0,) * 8)
    with pytest.raises(InvalidInputError):
        Partition(GraphParams(3, 2), (0,) * 8 + (3,))


def test_low_degree_subgraph_sizes_and_degrees():
    small = low_degree_subgraph(4, 3, 1)
    assert small.size == 17 == 4 ** 2 + 4 ** 0
    assert induced_max_degree(small) <= 1

    wide = low_degree_subgraph(3, 2, 3)
    assert wide.size == 6 == -(-(3 + 1) // 2) * 3
    assert induced_max_degree(wide) <= 2

    clique = low_degree_subgraph(3, 1, 2)
    assert clique.size == 3
    assert induced_max_degree(clique) == 2


def test_low_degree_subgraph_closed_form_grid():
    for m in (3, 4):
        for n in (2, 3):
            for d in range(1, (m - 1) * n + 1):
                vset = low_degree_subgraph(m, n, d)
                if d < n:
                    n_base = -(-n // d)
                    assert vset.size == m ** (n - 1) + m ** (n - n_base)
                else:
                    assert vset.size == -(-(d + 1) // n) * m ** (n - 1)
                assert induced_max_degree(vset) <= d


def test_low_degree_subgraph_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        low_degree_subgraph(3, 2, 0)
    with pytest.raises(InvalidInputError):
        low_degree_subgraph(3, 2, 5)
    with pytest.raises(InvalidInputError, match=r"^need m >= 3, got 2$"):
        low_degree_subgraph(2, 3, 1)
    with pytest.raises(InvalidInputError, match=r"^part index 3 outside 0\.\.2$"):
        part_vertex_set(degree_one_partition(3, 2), 3)
