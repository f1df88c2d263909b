"""Acceptance suite: every release criterion, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  All comparisons are exact integer or rational equalities
except where a criterion states a runtime budget.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from hamlab import (
    FiniteFunction,
    GraphParams,
    boolean_restriction_witness,
    brute_force_metrics,
    complete_graph_partition,
    degree,
    degree_one_partition,
    independence_number,
    induced_max_degree,
    interpolate,
    lifted_tribes,
    lift_partition,
    low_degree_subgraph,
    markov_degree_lower_bound,
    min_max_degree_subsets,
    part_vertex_set,
    partition_metrics,
    sensitivity,
    sigma_exact,
    theorem_imbalance_bound,
    theorem_partition,
    tribes,
)
from hamlab.cli import main as cli_main


def _report(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _collect_measured_parts():
    """Constructed parts and subgraphs from criteria 1-6 with their own
    measured induced degrees, for the bound-consistency sweep."""
    measured = []
    for m, n in itertools.product(range(3, 7), range(2, 5)):
        if m ** n > 1296:
            continue
        partition = degree_one_partition(m, n)
        for index in range(m):
            part = part_vertex_set(partition, index)
            measured.append((m, n, part.size, induced_max_degree(part)))
    for m in (3, 4, 5):
        for n in (2, 3, 4):
            for d in range(1, n):
                partition = theorem_partition(m, d, n)
                for index in range(m):
                    part = part_vertex_set(partition, index)
                    measured.append((m, n, part.size, induced_max_degree(part)))
    for m, n, d in [(4, 3, 1), (3, 2, 3)]:
        vset = low_degree_subgraph(m, n, d)
        measured.append((m, n, vset.size, induced_max_degree(vset)))
    return measured


def test_criterion_01_degree_one_grid():
    started = time.time()
    for m, n in itertools.product(range(3, 7), range(2, 5)):
        if m ** n > 1296:
            continue
        partition = degree_one_partition(m, n)
        metrics = partition_metrics(partition)
        assert sum(metrics.part_sizes) == m ** n
        for index in range(m):
            assert induced_max_degree(part_vertex_set(partition, index)) <= 1
        expected = m - 2 if m % 2 == 0 else m - 1
        assert metrics.imbalance == expected
    elapsed = time.time() - started
    _report("criterion 1: degree-1 grid", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_figure_instance():
    partition = degree_one_partition(4, 3)
    fast = partition_metrics(partition)
    brute = brute_force_metrics(partition)
    ok = (
        fast.part_sizes == (16, 17, 16, 15)
        and fast.imbalance == 2
        and fast.max_degree == 1
        and brute == fast
    )
    _report("criterion 2: (4,3) instance", ok, str(fast.part_sizes))


def test_criterion_03_complete_graph_lemma():
    for m in range(1, 21):
        for d in range(0, m + 1):
            metrics = partition_metrics(complete_graph_partition(m, d))
            assert metrics.imbalance == 2 * (d * m // (d + 1)), (m, d)
            assert metrics.max_degree <= d, (m, d)
    _report("criterion 3: complete-graph lemma grid", True, "0<=d<=m<=20")


def test_criterion_04_lifting():
    base = degree_one_partition(3, 2)
    base_metrics = partition_metrics(base)
    lifted = lift_partition(base, 4, degree_cap=2)
    from hamlab.partitions import block_sum_map

    fibers = {}
    image = block_sum_map(lifted.params, base.params)
    for target in image:
        fibers[target] = fibers.get(target, 0) + 1
    metrics = partition_metrics(lifted)
    assert set(fibers.values()) == {9}
    assert len(fibers) == 9
    assert base_metrics.imbalance == 2 and metrics.imbalance == 18
    assert metrics.max_degree <= 2

    for m in (3, 4):
        for n_base in (2, 3):
            inner = degree_one_partition(m, n_base)
            inner_metrics = partition_metrics(inner)
            for n in range(n_base, 6):
                widest = -(-n // n_base)
                outer = lift_partition(inner, n, degree_cap=widest)
                outer_metrics = partition_metrics(outer)
                assert outer_metrics.imbalance == m ** (n - n_base) * inner_metrics.imbalance
                assert outer_metrics.max_degree <= inner_metrics.max_degree * widest
    _report("criterion 4: lifting", True, "fibers 9x9, imbalance 2 -> 18")


def test_criterion_05_theorem_sweep():
    flagged = []
    for m in (3, 4, 5):
        for n in (2, 3, 4):
            for d in range(1, n):
                metrics = partition_metrics(theorem_partition(m, d, n))
                _, achieved = theorem_imbalance_bound(m, d, n)
                parity = m - 2 if m % 2 == 0 else m - 1
                closed_form = parity * m ** (n * (d - 1) // d)
                assert metrics.max_degree <= d, (m, n, d)
                assert achieved == closed_form == metrics.imbalance, (m, n, d)
            for d in range(n, 2 * n + 2):
                metrics = partition_metrics(theorem_partition(m, d, n))
                paper, achieved = theorem_imbalance_bound(m, d, n)
                q = d // n
                assert metrics.max_degree <= d
                assert achieved == m ** (n - 1) * 2 * (m * q // (q + 1))
                assert achieved == metrics.imbalance
                if Fraction(achieved) < paper:
                    flagged.append((m, n, d))
    achieved = partition_metrics(theorem_partition(4, 5, 2)).imbalance
    paper, _ = theorem_imbalance_bound(4, 5, 2)
    assert achieved == 16 and paper == Fraction(64, 3)
    assert (4, 2, 5) in [(m, n, d) for (m, n, d) in flagged] or Fraction(16) < paper
    _report("criterion 5: theorem sweep", True, f"{len(flagged)} flagged gap cells")


def test_criterion_06_large_subgraphs():
    small = low_degree_subgraph(4, 3, 1)
    wide = low_degree_subgraph(3, 2, 3)
    ok = (
        small.size == 17
        and induced_max_degree(small) <= 1
        and wide.size == 6
        and induced_max_degree(wide) <= 2
    )
    _report("criterion 6: large low-degree subgraphs", ok,
            f"sizes {small.size}, {wide.size}")


def test_criterion_07_markov_consistency():
    violations = []
    for m, n, size, measured in _collect_measured_parts():
        if size <= m ** (n - 1):
            continue
        bound = markov_degree_lower_bound(m, n, size)
        if Fraction(measured) < bound:
            violations.append((m, n, size, measured, bound))
    _report("criterion 7: markov consistency", not violations,
            f"{len(violations)} violations")


def test_criterion_08_sensitivity_exhaustive():
    started = time.time()
    checked = 0
    for domain, width in (((0, 1, 2), 9), ((0, 1), 4)):
        m = len(domain)
        for table in itertools.product((0, 1), repeat=width):
            f = FiniteFunction(domain, (0, 1), 2, table)
            s, _ = sensitivity(f)
            d = degree(f)
            assert s * s * (m - 1) >= d
            if d >= 1:
                witness = boolean_restriction_witness(f)
                g = witness.boolean_function
                assert degree(g) >= -(-d // 2)
                assert degree(g) >= witness.target_support
                assert sensitivity(g)[0] <= s
            checked += 1
    elapsed = time.time() - started
    _report("criterion 8: exhaustive sensitivity theorem",
            checked == 512 + 16 and elapsed < 60.0,
            f"{checked} functions in {elapsed:.1f}s")


def test_criterion_09_tightness():
    lifted = lifted_tribes((0, 1, 2), 0, 2)
    lifted_degree = degree(lifted)
    lifted_sensitivity, _ = sensitivity(lifted)
    ok = lifted_degree == 8 and lifted_sensitivity == 4
    ok = ok and lifted_sensitivity == math.isqrt((3 - 1) * lifted_degree)
    for s in (1, 2, 3):
        f = tribes(s)
        ok = ok and degree(f) == s * s and sensitivity(f)[0] == s
    _report("criterion 9: tribes tightness", ok,
            f"lifted deg {lifted_degree}, s {lifted_sensitivity}")


def test_criterion_10_graph_sensitivity():
    started = time.time()
    values = (sigma_exact(2, 2), sigma_exact(2, 3), sigma_exact(3, 2))
    elapsed = time.time() - started
    ok = values == (2, 2, 1)
    ok = ok and values[0] == math.ceil(math.sqrt(2))
    ok = ok and values[1] == math.ceil(math.sqrt(3))
    _report("criterion 10: graph sensitivity oracle",
            ok and elapsed < 120.0, f"{values} in {elapsed:.1f}s")


def test_criterion_11_oracle_equivalence():
    partitions = [
        degree_one_partition(3, 2),
        degree_one_partition(4, 3),
        degree_one_partition(3, 4),
        complete_graph_partition(9, 3),
        lift_partition(degree_one_partition(3, 2), 4, degree_cap=2),
    ]
    for partition in partitions:
        assert partition.params.vertex_count <= 100
        assert brute_force_metrics(partition) == partition_metrics(partition)

    functions = [
        FiniteFunction((0, 1, 2), (0, 1), 2, t)
        for t in [(0, 1, 1, 1, 0, 0, 1, 0, 1), (1, 1, 0, 0, 1, 0, 0, 0, 0)]
    ] + [
        FiniteFunction((0, 1), (0, 1, 2), 3, (0, 1, 2, 1, 0, 2, 2, 1)),
        lifted_tribes((0, 1, 2), 0, 2),
    ]
    for f in functions:
        assert f.point_count <= 100
        poly = interpolate(f)
        for point in f.points():
            assert poly.evaluate(point) == f.value_at(point)

    from hamlab import hamming_distance, iter_vertices

    for m, n in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        params = GraphParams(m, n)
        assert params.vertex_count <= 12
        vertices = list(iter_vertices(params))
        count = params.vertex_count
        best = 0
        for bits in range(2 ** count):
            members = [i for i in range(count) if (bits >> i) & 1]
            if len(members) <= best:
                continue
            independent = all(
                hamming_distance(vertices[i], vertices[j]) != 1
                for i in members for j in members if i < j
            )
            if independent:
                best = len(members)
        assert independence_number(params) == best, (m, n)

    _report("criterion 11: oracle equivalence", True)


def test_criterion_12_cli_determinism(tmp_path):
    fn_file = tmp_path / "fn.json"
    base_file = tmp_path / "base.part"
    commands = [
        ["construct", "degree1", "--m", "4", "--n", "3", "--out", "OUT"],
        ["construct", "complete", "--m", "5", "--d", "1", "--out", "OUT"],
        ["construct", "theorem1", "--m", "3", "--d", "2", "--n", "4", "--out", "OUT"],
        ["construct", "subgraph", "--m", "4", "--n", "3", "--d", "1", "--out", "OUT"],
        ["metrics", None, "--out", "OUT"],
        ["bounds", "theorem1", "--m", "4", "--d", "5", "--n", "2", "--out", "OUT"],
        ["bounds", "markov", "--m", "4", "--n", "8", "--k", "32768",
         "--format", "csv", "--out", "OUT"],
        ["bounds", "upper", "--m", "3", "--n", "9", "--eps", "1/9", "--out", "OUT"],
        ["bounds", "cayley", "--m", "3", "--n", "8", "--out", "OUT"],
        ["bounds", "domination", "--m", "3", "--n", "2", "--out", "OUT"],
        ["bounds", "check", None, "--format", "csv", "--out", "OUT"],
        ["fn", "tribes", "--s", "2", "--out", "OUT"],
        ["fn", "lifted-tribes", "--m", "3", "--a", "0", "--s", "2", "--out", "OUT"],
        ["fn", "interpolate", str(fn_file), "--out", "OUT"],
        ["fn", "degree", str(fn_file), "--out", "OUT"],
        ["fn", "sensitivity", str(fn_file), "--out", "OUT"],
        ["fn", "decompose", str(fn_file), "--out", "OUT"],
        ["fn", "restrict", str(fn_file), "--out", "OUT"],
        ["fn", "verify", str(fn_file), "--out", "OUT"],
        ["oracle", "sigma", "--m", "3", "--n", "2", "--out", "OUT"],
        ["oracle", "subsets", "--m", "2", "--n", "2", "--k", "3", "--out", "OUT"],
        ["oracle", "functions", "--m", "3", "--b", "2", "--n", "2",
         "--samples", "20", "--seed", "5", "--out", "OUT"],
        ["oracle", "metrics", None, "--out", "OUT"],
        ["report", "grid", "--m-range", "3:4", "--n-range", "2:3",
         "--d-range", "1:2", "--format", "csv", "--out", "OUT"],
    ]
    assert cli_main(["construct", "degree1", "--m", "3", "--n", "2",
                     "--out", str(base_file)]) == 0
    assert cli_main(["fn", "lifted-tribes", "--m", "3", "--a", "0", "--s", "2",
                     "--out", str(fn_file)]) == 0

    for index, template in enumerate(commands):
        outputs = []
        for attempt in (0, 1):
            out_file = tmp_path / f"artifact_{index}_{attempt}"
            argv = [
                str(base_file) if token is None else
                str(out_file) if token == "OUT" else token
                for token in template
            ]
            assert cli_main(argv) == 0, template
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1], template
    _report("criterion 12: CLI determinism", True, f"{len(commands)} commands")
