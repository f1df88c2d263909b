"""The prefix-cut subset search against the flat enumeration in ``oracle``:
the same values, the same witnesses and the same refusals."""

import ast
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamlab
from hamlab import InvalidInputError, ResourceLimitError, SearchBudget, oracle, search
from hamlab.cli import main
from hamlab.errors import DEFAULT_SUBSET_CAP

from test_oracle import _reference_min_max_degree

SRC = Path(hamlab.__file__).resolve().parent.parent


def _ranks(found):
    value, witness = found
    return value, tuple(witness.to_doc()["ranks"])


# every k within the default budget on each graph of at most 16 vertices,
# and the benchmark's own input
_CASES = [(m, n, k) for m, n in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
          for k in range(m ** n + 1) if math.comb(m ** n, k) <= DEFAULT_SUBSET_CAP]
_CASES.append((5, 2, 6))


@pytest.mark.parametrize("fix_first_vertex", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("m, n, k", _CASES)
def test_values_and_witnesses_match_the_flat_enumeration_and_the_pairwise_reference(
        m, n, k, fix_first_vertex):
    found = _ranks(search.min_max_degree_subsets(m, n, k, fix_first_vertex=fix_first_vertex))
    assert found == _ranks(oracle.min_max_degree_subsets(m, n, k,
                                                         fix_first_vertex=fix_first_vertex))
    assert found == _reference_min_max_degree(m, n, k, fix_first_vertex)


@pytest.mark.parametrize("fix_first_vertex", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("m, n, k", [(32, 2, 1024), (32, 2, 1023), (2, 10, 1023)])
def test_subsets_deeper_than_the_recursion_limit_match_the_flat_enumeration(
        m, n, k, fix_first_vertex):
    assert k > sys.getrecursionlimit()
    budget = SearchBudget(max_vertices=1024)
    found = _ranks(search.min_max_degree_subsets(m, n, k, budget, fix_first_vertex))
    assert found == _ranks(oracle.min_max_degree_subsets(m, n, k, budget, fix_first_vertex))


@pytest.mark.parametrize("k, value", [(1024, 62), (1023, 62)])
def test_the_cli_runs_a_subset_search_deeper_than_the_recursion_limit(capsys, k, value):
    argv = ["oracle", "subsets", "--m", "32", "--n", "2", "--k", str(k), "--cap-vertices", "1024"]
    assert main(argv) == 0
    assert f"min max degree over size-{k} subsets = {value}\n" in capsys.readouterr().out


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
def test_sigma_matches_the_flat_enumeration(m, n):
    assert search.sigma(m, n) == oracle.sigma_exact(m, n)


_HUGE = 99_999_999
# (name, arguments, budget) for both modules; each must be refused
_REFUSED = [
    ("min_max_degree_subsets", (3, 2, 4), SearchBudget(max_vertices=8)),
    ("min_max_degree_subsets", (3, 2, 4), SearchBudget(max_subsets=10)),
    ("min_max_degree_subsets", (3, _HUGE, 2), SearchBudget()),
    ("min_max_degree_subsets", (3, 2, -1), SearchBudget()),
    ("min_max_degree_subsets", (3, 2, 10), SearchBudget()),
    ("min_max_degree_subsets", (0, 2, 1), SearchBudget()),
    ("sigma", (3, _HUGE), SearchBudget()),
    ("sigma", (1, 2), SearchBudget()),
    ("sigma", (0, 2), SearchBudget()),
]
_ORACLE_NAMES = {"min_max_degree_subsets": "min_max_degree_subsets", "sigma": "sigma_exact"}


def _refusal(function, args, budget):
    with pytest.raises((InvalidInputError, ResourceLimitError)) as info:
        function(*args, budget=budget)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name, args, budget", _REFUSED,
                         ids=[f"{name}{args}" for name, args, _ in _REFUSED])
def test_refusals_match_the_flat_enumeration(name, args, budget):
    expected = _refusal(getattr(oracle, _ORACLE_NAMES[name]), args, budget)
    assert _refusal(getattr(search, name), args, budget) == expected


def test_the_budget_counts_every_subset_through_rank_zero_when_pruned():
    # comb(9, 4) = 126 subsets, of which comb(8, 3) = 56 hold rank 0
    for prune, limit in ((False, 126), (True, 56)):
        refused = [_refusal(functools.partial(module.min_max_degree_subsets,
                                              fix_first_vertex=prune),
                            (3, 2, 4), SearchBudget(max_subsets=limit - 1))
                   for module in (oracle, search)]
        assert refused[0] == refused[1]
        assert search.min_max_degree_subsets(3, 2, 4, SearchBudget(max_subsets=limit),
                                             prune)[0] == 1


def test_search_module_stands_apart_from_the_oracle():
    tree = ast.parse(Path(search.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None) or "")
    assert not any("oracle" in name for name in imported), imported


def test_only_the_oracle_command_loads_the_search():
    code = (
        "import sys, hamlab, hamlab.cli; "
        "hamlab.cli.main(['construct', 'degree1', '--m', '3', '--n', '2']); "
        "print('loaded', 'hamlab.search' in sys.modules); "
        "hamlab.cli.main(['oracle', 'sigma', '--m', '2', '--n', '2']); "
        "print('loaded', 'hamlab.search' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded False", "loaded True"], done.stdout
