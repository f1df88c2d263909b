"""Bound formula evaluators and consistency checks."""

import math
from fractions import Fraction
from io import StringIO

import pytest

from hamlab import (
    BoundNotApplicableError,
    GraphParams,
    InvalidInputError,
    VertexSet,
    cayley_degree_bound,
    check_partition,
    check_subgraph,
    complete_graph_imbalance,
    complete_graph_partition,
    construction_degree_upper_bound,
    degree_one_imbalance,
    degree_one_partition,
    domination_threshold,
    induced_max_degree,
    lift_imbalance,
    lift_partition,
    low_degree_subgraph,
    markov_degree_lower_bound,
    partition_metrics,
    sensitivity_floor,
    sigma_closed_form,
    sigma_report,
    theorem_imbalance_bound,
    tribes_degree_sensitivity,
)
from hamlab.bounds import REPORT_FIELDS
from hamlab.encoding import write_csv, write_records


def test_theorem_bound_cases():
    paper, achieved = theorem_imbalance_bound(3, 2, 4)
    assert paper == 18 and achieved == 18
    paper, achieved = theorem_imbalance_bound(4, 1, 3)
    assert paper == 2 and achieved == 2
    paper, achieved = theorem_imbalance_bound(4, 5, 2)
    assert paper == Fraction(64, 3) and achieved == 16


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("n", range(1, 4))
def test_degree_one_imbalance_matches_the_partition(m, n):
    assert degree_one_imbalance(m, n) == partition_metrics(degree_one_partition(m, n)).imbalance


@pytest.mark.parametrize("m", range(2, 8))
def test_complete_graph_imbalance_matches_the_partition(m):
    for d in range(m + 1):
        measured = partition_metrics(complete_graph_partition(m, d)).imbalance
        assert complete_graph_imbalance(m, d) == measured, (m, d)


def test_lift_imbalance_matches_the_lifted_partition():
    for m, n_base, n in [(3, 2, 4), (4, 2, 3), (5, 1, 3), (3, 3, 5)]:
        base = degree_one_partition(m, n_base)
        lifted = lift_partition(base, n, degree_cap=n)
        expected = lift_imbalance(m, n_base, n, partition_metrics(base).imbalance)
        assert partition_metrics(lifted).imbalance == expected, (m, n_base, n)


def test_construction_imbalances_reject_bad_input():
    with pytest.raises(InvalidInputError):
        degree_one_imbalance(1, 3)
    with pytest.raises(InvalidInputError):
        degree_one_imbalance(3, 0)
    with pytest.raises(InvalidInputError):
        complete_graph_imbalance(3, 4)
    with pytest.raises(InvalidInputError):
        complete_graph_imbalance(3, -1)


def test_tribes_values_and_sensitivity_floor():
    assert tribes_degree_sensitivity(2, 3) == (9, 3)
    assert tribes_degree_sensitivity(3, 2) == (8, 4)
    assert sensitivity_floor(3, 8) == 2.0
    assert sensitivity_floor(2, 0) == 0.0


def test_theorem_bound_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        theorem_imbalance_bound(2, 1, 3)


def test_markov_full_graph_simplifies():
    # size m^n gives eps = (m-1)/m and the bound collapses to 2n/m
    for m, n in [(2, 5), (3, 4), (4, 8)]:
        assert markov_degree_lower_bound(m, n, m ** n) == Fraction(2 * n, m)
    assert markov_degree_lower_bound(2, 5, 2 ** 5) == 5  # Q^n regular degree


def test_markov_direct_example():
    assert markov_degree_lower_bound(4, 8, 2 * 4 ** 7) == Fraction(8, 3)


def test_markov_not_applicable_at_balanced_size():
    with pytest.raises(BoundNotApplicableError):
        markov_degree_lower_bound(3, 3, 9)


def test_markov_monotone_in_size():
    previous = Fraction(0)
    for size in range(28, 82):
        value = markov_degree_lower_bound(3, 4, size)
        assert value > previous
        previous = value


def test_construction_upper_bound():
    assert construction_degree_upper_bound(3, 9, Fraction(1, 9)) == pytest.approx(4.5, abs=1e-9)
    assert construction_degree_upper_bound(3, 7, Fraction(1, 3)) == 7
    assert construction_degree_upper_bound(3, 4, Fraction(1, 9)) == 2.0
    with pytest.raises(InvalidInputError):
        construction_degree_upper_bound(3, 5, Fraction(3, 4))  # above (m-1)/m
    with pytest.raises(InvalidInputError):
        construction_degree_upper_bound(3, 5, Fraction(0))


@pytest.mark.parametrize("exponent", [310, 400])
def test_construction_upper_bound_at_tiny_eps(exponent):
    # 1/eps past the float range: log_m(1/eps) = exponent * log_m(10)
    value = construction_degree_upper_bound(3, 4, Fraction(1, 10 ** exponent))
    assert value == pytest.approx(4 / (exponent * math.log(10, 3)), rel=1e-12)


def test_cayley_bound_values():
    assert cayley_degree_bound(3, 8) == pytest.approx(math.sqrt(8), abs=1e-9)
    assert cayley_degree_bound(5, 10) == pytest.approx(math.sqrt(20), abs=1e-9)
    assert cayley_degree_bound(3, 2) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_domination_thresholds():
    assert domination_threshold(2, 3) == (6, 3)
    assert domination_threshold(3, 2) == (6, 4)
    assert domination_threshold(5, 1) == (4, 4)


def _brute_force_domination_number(m, n):
    from hamlab.graph import hamming_distance, iter_vertices
    import itertools

    vertices = list(iter_vertices(GraphParams(m, n)))
    count = len(vertices)
    for size in range(1, count + 1):
        for subset in itertools.combinations(range(count), size):
            if all(
                any(
                    i == j or hamming_distance(vertices[i], vertices[j]) == 1
                    for j in subset
                )
                for i in range(count)
            ):
                return size
    return count


@pytest.mark.parametrize("m,n,gamma", [(2, 3, 2), (3, 2, 3), (4, 1, 1)])
def test_domination_threshold_consistent_with_true_domination_number(m, n, gamma):
    assert _brute_force_domination_number(m, n) == gamma
    threshold, implied = domination_threshold(m, n)
    # any set larger than |V| - gamma forces the full degree; the formula's
    # threshold must never fall below that sound value, and is tight here
    assert threshold >= m ** n - gamma
    assert threshold == m ** n - gamma
    assert implied == (m - 1) * n


def test_consistency_check_subgraph_pass():
    vset = low_degree_subgraph(4, 3, 1)
    assert vset.size == 17
    reports = check_subgraph(4, 3, vset.size, induced_max_degree(vset))
    markov = [r for r in reports if r.bound == "markov"]
    assert len(markov) == 1
    assert markov[0].value == Fraction(2, 17)
    assert all(r.satisfied for r in reports)


def test_consistency_check_full_vertex_set():
    params = GraphParams(3, 2)
    everything = VertexSet.from_ranks(params, range(9))
    reports = check_subgraph(3, 2, everything.size, induced_max_degree(everything))
    assert {r.bound for r in reports} == {"markov", "cayley", "domination"}
    assert all(r.satisfied for r in reports)


def test_consistency_check_flags_understated_degree():
    # a corrupted record claiming degree 0 for the full graph must fail
    reports = check_subgraph(3, 2, 9, 0)
    assert any(r.satisfied is False for r in reports)
    assert any(r.verdict == "FAIL" for r in reports)


def test_consistency_check_partition_metrics():
    reports = check_partition(4, 3, (16, 17, 16, 15), 1)
    assert reports[0].bound == "partition-total" and reports[0].satisfied
    assert all(r.satisfied for r in reports)


def test_report_emission_formats():
    rows = [r.to_record() for r in check_subgraph(3, 2, 9, 4)]
    records = StringIO()
    write_records(rows, records)
    assert len(records.getvalue().strip().splitlines()) == len(rows)
    csv_out = StringIO()
    write_csv(rows, REPORT_FIELDS, csv_out)
    header = csv_out.getvalue().splitlines()[0]
    assert header == "bound,m,n,d_or_eps,value,measured,verdict"


def test_sigma_closed_form():
    assert [sigma_closed_form(2, n) for n in range(1, 11)] == [
        math.ceil(math.sqrt(n)) for n in range(1, 11)
    ]
    assert sigma_closed_form(3, 4) == sigma_closed_form(7, 1) == 1
    assert sigma_closed_form(1, 3) is None


def test_sigma_report_labels_the_subset_size_and_checks_the_closed_form():
    assert sigma_report(2, 3, 2).to_record() == {
        "bound": "sigma", "m": 2, "n": 3, "d_or_eps": "k=5", "value": 2,
        "measured": 2, "verdict": "PASS",
    }
    assert sigma_report(3, 2, 2).verdict == "FAIL"
    assert sigma_report(3, 2, 2).value == 1
    # no closed form: the measured value stands in, with no verdict
    assert sigma_report(1, 3, 0).to_record()["value"] == 0
    assert sigma_report(1, 3, 0).verdict == "NA"
