"""Brute-force oracle checks and agreement with the fast paths."""

from collections.abc import Sequence

import pytest

from hamlab import (
    GraphParams,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    SearchBudget,
    brute_force_metrics,
    complete_graph_partition,
    degree_one_partition,
    exhaustive_function_check,
    independence_number,
    lift_partition,
    lifted_tribes,
    min_max_degree_subsets,
    partition_metrics,
    sigma_exact,
)


def test_min_max_degree_known_values():
    assert min_max_degree_subsets(2, 2, 3)[0] == 2  # any 3 vertices of a 4-cycle
    assert min_max_degree_subsets(3, 2, 4)[0] == 1


def test_min_max_degree_independent_sets_are_free():
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        alpha = independence_number(GraphParams(m, n))
        for k in range(alpha + 1):
            value, witness = min_max_degree_subsets(m, n, k)
            assert value == 0
            assert witness.size == k


def test_min_max_degree_monotone_in_k():
    previous = 0
    for k in range(0, 10):
        value = min_max_degree_subsets(3, 2, k)[0]
        assert value >= previous
        previous = value


def test_min_max_degree_witness_attains_minimum():
    from hamlab import induced_max_degree

    value, witness = min_max_degree_subsets(2, 3, 5)
    assert induced_max_degree(witness) == value


def test_pruned_search_matches_unpruned():
    for m, n, k in [(2, 2, 3), (3, 2, 4), (2, 3, 5)]:
        full = min_max_degree_subsets(m, n, k)[0]
        pruned = min_max_degree_subsets(m, n, k, fix_first_vertex=True)[0]
        assert full == pruned


def test_budget_enforced_before_enumeration():
    with pytest.raises(ResourceLimitError):
        min_max_degree_subsets(3, 2, 4, budget=SearchBudget(max_vertices=8))
    with pytest.raises(ResourceLimitError):
        min_max_degree_subsets(3, 2, 4, budget=SearchBudget(max_subsets=10))


def test_budgets_checked_before_exponentiating():
    huge = 99_999_999
    with pytest.raises(ResourceLimitError):
        sigma_exact(3, huge)
    with pytest.raises(ResourceLimitError):
        min_max_degree_subsets(3, huge, 2)
    with pytest.raises(ResourceLimitError):
        exhaustive_function_check((0, 1, 2), huge, (0, 1), samples=1, seed=1)
    with pytest.raises(ResourceLimitError, match="grid points"):  # len() would overflow
        exhaustive_function_check(range(10 ** 20), 2, (0, 1))
    with pytest.raises(ResourceLimitError, match="codomain values"):
        exhaustive_function_check((0, 1), 2, range(10 ** 20), samples=1, seed=1)
    with pytest.raises(ResourceLimitError):  # 3^(3^17) functions
        exhaustive_function_check(
            (0, 1, 2), 17, (0, 1, 2), budget=SearchBudget(max_vertices=200_000_000)
        )
    with pytest.raises(InvalidInputError):
        exhaustive_function_check((0, 1, 2), -1, (0, 1), samples=1, seed=1)


class _Unbuilt(Sequence):
    """Two million values that fail the test if any of them is read."""

    def __len__(self):
        return 2 * 10 ** 6

    def __getitem__(self, index):
        raise AssertionError("values read before their cap was checked")


@pytest.mark.parametrize("build", [
    lambda: lifted_tribes(_Unbuilt(), 0, 1, cap=1000),
    lambda: exhaustive_function_check(_Unbuilt(), 1, range(2),
                                      budget=SearchBudget(max_vertices=1000)),
    lambda: exhaustive_function_check(range(2), 1, _Unbuilt(),
                                      budget=SearchBudget(max_functions=1000),
                                      samples=1, seed=1),
], ids=["lifted-tribes-domain", "sweep-domain", "sweep-codomain"])
def test_alphabets_are_checked_against_their_caps_before_they_are_built(build):
    with pytest.raises(ResourceLimitError):
        build()


def test_sigma_exact_values():
    assert sigma_exact(2, 2) == 2
    assert sigma_exact(2, 3) == 2
    assert sigma_exact(3, 2) == 1


def test_sigma_hypercube_matches_ceil_sqrt():
    import math

    for n in (1, 2, 3, 4):
        assert sigma_exact(2, n) == math.ceil(math.sqrt(n))


def test_majority_subsets_respect_cayley_bound():
    # 5 of the 9 vertices is a majority, so the degree must reach
    # ceil(sqrt((m-1)n/2)) = 2 even though sigma itself is 1
    from hamlab import cayley_degree_bound

    value = min_max_degree_subsets(3, 2, 5)[0]
    assert value >= cayley_degree_bound(3, 2)
    assert value == 2
    assert sigma_exact(3, 2) == 1


def test_exhaustive_boolean_square():
    report = exhaustive_function_check((0, 1), 2, (0, 1))
    assert report.functions_checked == 16
    assert report.violations == 0
    assert report.min_ratio == pytest.approx(1.0)


def test_exhaustive_requires_budget_or_sampling():
    tight = SearchBudget(max_functions=100)
    with pytest.raises(ResourceLimitError):
        exhaustive_function_check((0, 1, 2), 2, (0, 1), budget=tight)


@pytest.mark.parametrize("codomain", [(), (1, 1)])
@pytest.mark.parametrize("samples,seed", [(None, None), (3, 1)])
def test_function_sweep_rejects_a_bad_codomain(codomain, samples, seed):
    with pytest.raises(InvalidInputError, match="codomain values must be nonempty"):
        exhaustive_function_check((0, 1), 2, codomain, samples=samples, seed=seed)


def test_sampling_requires_seed():
    with pytest.raises(InvalidInputError):
        exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=10)


def test_sampling_reproducible():
    first = exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=25, seed=11)
    second = exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=25, seed=11)
    assert first.to_doc() == second.to_doc()
    assert first.violations == 0


def test_brute_force_metrics_agrees_with_fast_path():
    cases = [
        degree_one_partition(3, 2),
        degree_one_partition(4, 3),
        complete_graph_partition(7, 2),
        lift_partition(degree_one_partition(3, 2), 4, degree_cap=2),
    ]
    for partition in cases:
        assert brute_force_metrics(partition) == partition_metrics(partition)


def test_brute_force_metrics_single_part_square():
    partition = Partition(GraphParams(2, 2), (0, 0, 0, 0))
    metrics = brute_force_metrics(partition)
    assert metrics.max_degree == 2
    assert metrics.imbalance == 4
    assert metrics.part_sizes == (4, 0)


def test_brute_force_metrics_cap():
    partition = degree_one_partition(3, 2)
    with pytest.raises(ResourceLimitError):
        brute_force_metrics(partition, cap=8)


def test_budget_validation():
    with pytest.raises(InvalidInputError):
        SearchBudget(max_vertices=0)
