"""Brute-force oracle checks and agreement with the fast paths."""

import itertools
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest

from hamlab import (
    ContractViolationError,
    FiniteFunction,
    FunctionCheckReport,
    GraphParams,
    InvalidInputError,
    Partition,
    PartitionMetrics,
    ResourceLimitError,
    SearchBudget,
    boolean_restriction_witness,
    brute_force_metrics,
    complete_graph_partition,
    degree_one_partition,
    hamming_distance,
    exhaustive_function_check,
    independence_number,
    lift_partition,
    lifted_tribes,
    min_max_degree_subsets,
    partition_metrics,
    sigma_exact,
    unrank,
    verify_sensitivity_bound,
)
from hamlab import functions, graph, partitions
from hamlab.cli import main


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
        full, pruned = (min_max_degree_subsets(m, n, k, fix_first_vertex=prune)
                        for prune in (False, True))
        assert (full[0], full[1].to_doc()["ranks"]) == (pruned[0], pruned[1].to_doc()["ranks"])


def _reference_min_max_degree(m, n, k, fix_first_vertex):
    """The first k-subset of least induced maximum degree in
    ``itertools.combinations`` order, rank 0 kept when ``fix_first_vertex``,
    with neighbours counted pair by pair."""
    params = GraphParams(m, n)
    count = params.vertex_count
    if k == 0:
        return 0, ()
    words = [unrank(r, params) for r in range(count)]
    adjacent = [[hamming_distance(x, y) == 1 for y in words] for x in words]
    if fix_first_vertex:
        candidates = ((0,) + rest for rest in itertools.combinations(range(1, count), k - 1))
    else:
        candidates = itertools.combinations(range(count), k)
    best, witness = None, None
    for subset in candidates:
        top = max(sum(adjacent[i][j] for j in subset) for i in subset)
        if best is None or top < best:
            best, witness = top, subset
    return best, witness


def _pair_scan_metrics(part):
    """Partition metrics from every pair of vertices in the same part, with
    the pair's distance taken by ``hamming_distance``; the witness is the
    first vertex of maximum degree in rank order."""
    params = part.params
    words = [unrank(r, params) for r in range(params.vertex_count)]
    groups = [[] for _ in range(params.m)]
    for r, a in enumerate(part.assignment):
        groups[a].append(r)
    degrees = [0] * len(words)
    for group in groups:
        for i, j in itertools.combinations(group, 2):
            if hamming_distance(words[i], words[j]) == 1:
                degrees[i] += 1
                degrees[j] += 1
    sizes = tuple(map(len, groups))
    balanced = params.m ** (params.n - 1)
    top = max(degrees)
    return PartitionMetrics(top, sum(abs(s - balanced) for s in sizes), sizes,
                            words[degrees.index(top)])


# every graph of at most 9 vertices, each k; and the 4-cube up to k = 9
SUBSET_SEARCHES = [pytest.param(m, n, m ** n, id=f"{m}^{n}")
                   for n in (1, 2, 3) for m in range(2, 10) if m ** n <= 9]
SUBSET_SEARCHES.append(pytest.param(2, 4, 9, id="2^4"))


@pytest.mark.parametrize("fix_first_vertex", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("m, n, top", SUBSET_SEARCHES)
def test_subset_search_keeps_the_first_optimum_in_combinations_order(m, n, top,
                                                                     fix_first_vertex):
    for k in range(top + 1):
        value, witness = min_max_degree_subsets(m, n, k, fix_first_vertex=fix_first_vertex)
        expected = _reference_min_max_degree(m, n, k, fix_first_vertex)
        assert (value, tuple(witness.to_doc()["ranks"])) == expected, k


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
    for m in (1, 0):  # one vertex or none: no subset above the independence number
        with pytest.raises(InvalidInputError, match=f"need m >= 2 and n >= 1, got m={m}, n=2"):
            sigma_exact(m, 2)


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


@pytest.mark.parametrize("domain, codomain", [(["x"], (0, 1)), ((0, 1), (0, None))],
                         ids=["bad-domain", "bad-codomain"])
def test_function_sweep_rejects_non_rational_alphabets(domain, codomain):
    with pytest.raises(InvalidInputError, match="expected rational values"):
        exhaustive_function_check(domain, 1, codomain)


def test_sampling_requires_seed():
    with pytest.raises(InvalidInputError):
        exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=10)


def test_sampling_reproducible():
    first = exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=25, seed=11)
    second = exhaustive_function_check((0, 1, 2, 3), 2, (0, 1), samples=25, seed=11)
    assert first.to_doc() == second.to_doc()
    assert first.violations == 0


def _per_table_sweep(domain, arity, codomain, samples=None, seed=None):
    """The function sweep one table at a time: a FiniteFunction per table
    through the one-table bound and witness calls."""
    m, k = len(domain), len(codomain)
    if samples is None:
        tables = itertools.product(range(k), repeat=m ** arity)
    else:
        rng = random.Random(seed)
        tables = (tuple(rng.randrange(k) for _ in range(m ** arity)) for _ in range(samples))
    report, best_key = FunctionCheckReport(), None
    for table in tables:
        f = FiniteFunction(domain, codomain, arity, table)
        bound = verify_sensitivity_bound(f)
        ok = bound.holds
        if bound.degree >= 1:
            ok = ok and boolean_restriction_witness(f).check(bound.sensitivity)[2]
            ratio_key = Fraction(bound.sensitivity ** 2 * (m - 1), bound.degree)
            if best_key is None or ratio_key < best_key:
                best_key = ratio_key
                report.min_ratio = math.sqrt(ratio_key)
                report.min_ratio_table = table
        report.functions_checked += 1
        if not ok:
            report.violations += 1
            if len(report.violation_tables) < 10:
                report.violation_tables.append(table)
    return report


SWEEPS = [
    ((0, 1), 2, (0, 1), None, None),
    ((0, 1, 2), 2, (0, 1), None, None),  # 512 tables of 9 points: two chunks
    ((0, 1), 3, (0, 1, 2), 600, 2),  # 600 tables of 8 points: two chunks
    ((Fraction(-1, 2), Fraction(1, 3), 2), 2, (0, Fraction(3, 4), -2), 150, 5),
    ((0, 1, 2, 3), 2, (0, 1), 120, 11),
    ((0, 1), 4, (0, 1), 200, 3),
    ((0, 1), 2, tuple(range(300)), 40, 7),  # labels past 255: array tables
    ((0,), 3, (0, 1), None, None),  # one domain value: every table constant
]


@pytest.mark.parametrize("slots", [None, 10], ids=["default-chunks", "tiny-chunks"])
@pytest.mark.parametrize("domain, arity, codomain, samples, seed", SWEEPS)
def test_chunked_sweep_reports_as_the_per_table_loop(monkeypatch, slots, domain, arity,
                                                     codomain, samples, seed):
    if slots is not None:
        monkeypatch.setattr(functions, "_CHUNK_SLOTS", slots)
    report = exhaustive_function_check(domain, arity, codomain, samples=samples, seed=seed)
    expected = _per_table_sweep(domain, arity, codomain, samples, seed)
    assert report.to_doc() == expected.to_doc()


def test_a_sweep_scales_its_alphabets_once_not_per_chunk(monkeypatch):
    # 2,000 samples fill more chunks than 200; the 10^5-value codomain makes
    # each rescaling cost more than the chunk it would serve
    real = functions._integer_scaled
    calls = []

    def counted(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(functions, "_integer_scaled", counted)
    counts, docs = [], []
    for samples in (200, 2000):
        calls.clear()
        report = exhaustive_function_check(range(2), 1, range(100_000), samples=samples, seed=1)
        counts.append(len(calls))
        docs.append(report.to_doc())
    assert counts[0] == counts[1]
    assert docs == [{"functionsChecked": samples, "violations": 0, "violationTables": [],
                     "minRatio": 1.0, "minRatioTable": [17611, 74606]}
                    for samples in (200, 2000)]


def test_a_degree_the_witness_reads_otherwise_fails_the_sweep(monkeypatch):
    # the degree kernel misreads one table in the middle of the first chunk
    real = functions._degrees

    def misread(scales, arity, labels):
        found = real(scales, arity, labels)
        if len(scales.nodes) == 3 and len(found) > 100:  # f's tables, not the Boolean g tables
            found[next(t for t in range(100, len(found)) if found[t])] += 1
        return found

    monkeypatch.setattr(functions, "_degrees", misread)
    with pytest.raises(ContractViolationError, match="the degree kernel reads"):
        exhaustive_function_check((0, 1, 2), 2, (0, 1))


def test_a_restriction_that_misses_its_target_is_a_violation(monkeypatch):
    # a constant Boolean table certifies nothing: every non-constant table fails
    real = functions._restrictions

    def flattened(scales, arity, labels):
        return [w._replace(table=bytes(len(w.table))) for w in real(scales, arity, labels)]

    # in the sweep and in the one-table path that replays its least-ratio table
    monkeypatch.setattr(functions, "_restrictions", flattened)
    report = exhaustive_function_check((0, 1, 2), 2, (0, 1))
    assert (report.functions_checked, report.violations) == (512, 510)
    assert report.violation_tables[0] == (0,) * 8 + (1,)


def test_the_one_table_path_replays_the_least_ratio_table(monkeypatch):
    # a sweep-only fault: the chunked witnesses miss their targets, the
    # one-table path that replays the least-ratio table does not
    real = functions._restrictions

    def flattened(scales, arity, labels):
        found = real(scales, arity, labels)
        if len(labels) == 1:  # the replay's one table
            return found
        return [w._replace(table=bytes(len(w.table))) for w in found]

    monkeypatch.setattr(functions, "_restrictions", flattened)
    with pytest.raises(ContractViolationError, match="the one-table path reads squared "
                                                     "ratio 2 and verdict True where the "
                                                     "sweep reads 2 and False"):
        exhaustive_function_check((0, 1, 2), 2, (0, 1))


def test_a_witness_failure_in_one_table_of_a_chunk_propagates(monkeypatch, capsys):
    # zero the difference tensor of the fourth table of each chunk only
    real = functions._grid_tensor

    def blanked(labels, ints, top, rows, growth, arity):
        tensor, width = real(labels, ints, top, rows, growth, arity)
        block = 9 * width
        if rows == functions._difference_rows(3) and len(tensor) >= 4 * block:
            tensor[3 * block:4 * block] = (1 << 8 * width - 1).to_bytes(width, "little") * 9
        return tensor, width

    monkeypatch.setattr(functions, "_grid_tensor", blanked)
    with pytest.raises(ContractViolationError, match="exposes no monomial"):
        exhaustive_function_check((0, 1, 2), 2, (0, 1))
    assert main(["oracle", "functions", "--m", "3", "--b", "2", "--n", "2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("exposes no monomial on the "
                                                            "target support")


def test_brute_force_metrics_agrees_with_fast_path():
    cases = [
        degree_one_partition(3, 2),
        degree_one_partition(4, 3),
        complete_graph_partition(7, 2),
        lift_partition(degree_one_partition(3, 2), 4, degree_cap=2),
        Partition(GraphParams(3, 2), (0, 2, 0, 2, 2, 0, 0, 0, 2)),  # part 1 is empty
        Partition(GraphParams(3, 3), (1,) * 27),  # every vertex in one part
        Partition(GraphParams(6, 2), [(7 * r * r + r // 6) % 6 for r in range(36)]),
        # more than 256 parts: labels in an array, some parts empty
        Partition(GraphParams(300, 1), [r * r % 300 for r in range(300)]),
        complete_graph_partition(1000, 2),
    ]
    for partition in cases:
        assert brute_force_metrics(partition) == partition_metrics(partition)


def _random_partitions(seed, count):
    """Seeded labellings of grids of 16 to 343 vertices, drawn from all m
    labels or from only a few, so that parts are large and degrees high."""
    rng = random.Random(seed)
    grids = [(m, n) for m in range(2, 8) for n in range(1, 9) if 16 <= m ** n <= 343]
    for _ in range(count):
        m, n = rng.choice(grids)
        labels = rng.sample(range(m), rng.randint(1, m))
        yield Partition(GraphParams(m, n), [rng.choice(labels) for _ in range(m ** n)])


METRICS_CASES = {
    "labellings": [Partition(GraphParams(m, n), labels) for m, n in ((2, 2), (2, 3), (3, 1))
                   for labels in itertools.product(range(m), repeat=m ** n)],
    "random": list(_random_partitions(2028, 24)),
    "empty part": [Partition(GraphParams(4, 3), [r % 3 for r in range(64)])],
    # labels in an array: most parts of one vertex and some empty, or seven
    # parts of 142 or 143 vertices and 993 empty ones
    "300 parts": [Partition(GraphParams(300, 1), [r * r % 300 for r in range(300)]),
                  Partition(GraphParams(1000, 1), [r % 7 * 150 for r in range(1000)])],
}


@pytest.mark.parametrize("cases", METRICS_CASES.values(), ids=METRICS_CASES.keys())
def test_brute_force_metrics_is_the_pair_scan(cases):
    for partition in cases:
        assert brute_force_metrics(partition) == _pair_scan_metrics(partition), partition


def test_brute_force_metrics_reads_no_fast_path_kernel(monkeypatch):
    cases = [*METRICS_CASES["random"][:4], *METRICS_CASES["300 parts"]]
    expected = [partition_metrics(partition) for partition in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a fast-path kernel")

    for module in (graph, partitions):
        for name in ("_label_planes", "_same_label_degree_extremes", "_label_sizes"):
            monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        partition_metrics(cases[0])
    assert [brute_force_metrics(partition) for partition in cases] == expected
    # the cap's largest input, all 10^4 vertices of 10^4 in one part
    one_part = brute_force_metrics(Partition(GraphParams(10, 4), bytes(10 ** 4)))
    assert one_part == PartitionMetrics(36, 18_000, (10 ** 4,) + (0,) * 9, (0, 0, 0, 0))


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
