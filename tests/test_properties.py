"""Randomized invariants over the core operations."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hamlab import (
    FiniteFunction,
    GraphParams,
    Partition,
    VertexSet,
    block_sum_map,
    brute_force_metrics,
    coordinate_blocks,
    degree,
    hamming_distance,
    induced_max_degree,
    interpolate,
    local_sensitivity,
    markov_degree_lower_bound,
    partition_metrics,
    rank,
    sensitivity,
    unrank,
    verify_sensitivity_bound,
)

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
    from hamlab import GridPolynomial

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
    vset = VertexSet(params, frozenset(r for r, flag in enumerate(flags) if flag))
    expected = max(
        (sum(1 for v in members if hamming_distance(u, v) == 1) for u in members),
        default=0,
    )
    assert induced_max_degree(vset) == expected


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
