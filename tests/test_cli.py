"""Command-line behavior: exit codes, artifacts, headers, caps."""

import argparse
import builtins
import dataclasses
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hamlab
from hamlab import cli
from hamlab.cli import UsageError, _print_header, build_parser, main
from hamlab.encoding import write_json

SRC = Path(hamlab.__file__).resolve().parent.parent


def run(argv):
    return main([str(a) for a in argv])


def test_construct_theorem1_then_metrics(tmp_path, capsys):
    part_path = tmp_path / "p.part"
    assert run(["construct", "theorem1", "--m", 3, "--d", 2, "--n", 4,
                "--out", part_path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "# hamlab construct theorem1" in out
    assert "achieved imbalance: 18" in out

    metrics_path = tmp_path / "m.json"
    assert run(["metrics", part_path, "--out", metrics_path]) == 0
    doc = json.loads(metrics_path.read_text())
    assert doc["maxDegree"] == 2
    assert doc["imbalance"] == 18
    assert doc["partSizes"] == [27, 36, 18]


def test_construct_subgraph_and_check(tmp_path):
    vset_path = tmp_path / "s.vset"
    assert run(["construct", "subgraph", "--m", 4, "--n", 3, "--d", 1,
                "--out", vset_path, "--verify"]) == 0
    doc = json.loads(vset_path.read_text())
    assert len(doc["ranks"]) == 17

    report_path = tmp_path / "r.csv"
    assert run(["bounds", "check", vset_path, "--format", "csv",
                "--out", report_path]) == 0
    lines = report_path.read_text().splitlines()
    assert lines[0] == "bound,m,n,d_or_eps,value,measured,verdict"
    assert any("markov" in line and "PASS" in line for line in lines[1:])


def test_construct_lift_roundtrip(tmp_path):
    base_path = tmp_path / "base.part"
    assert run(["construct", "degree1", "--m", 3, "--n", 2, "--out", base_path]) == 0
    lifted_path = tmp_path / "lifted.part"
    assert run(["construct", "lift", "--base", base_path, "--n", 4, "--d", 2,
                "--out", lifted_path, "--verify"]) == 0
    doc = json.loads(lifted_path.read_text())
    assert len(doc["assignment"]) == 81


def test_fn_pipeline_files(tmp_path, capsys):
    fn_path = tmp_path / "f.json"
    assert run(["fn", "lifted-tribes", "--m", 3, "--a", 0, "--s", 2,
                "--out", fn_path, "--verify"]) == 0
    assert "verdict PASS" in capsys.readouterr().out

    poly_path = tmp_path / "poly.json"
    assert run(["fn", "interpolate", fn_path, "--out", poly_path]) == 0
    poly = json.loads(poly_path.read_text())
    assert max(sum(entry["exponents"]) for entry in poly) == 8

    verify_path = tmp_path / "verify.json"
    assert run(["fn", "verify", fn_path, "--out", verify_path]) == 0
    doc = json.loads(verify_path.read_text())
    assert doc["holds"] is True and doc["sensitivity"] == 4

    witness_path = tmp_path / "w.json"
    assert run(["fn", "restrict", fn_path, "--out", witness_path]) == 0
    witness = json.loads(witness_path.read_text())
    assert witness["targetSupport"] == 4
    assert witness["degree"] >= 4

    decomposed_path = tmp_path / "d.json"
    assert run(["fn", "decompose", fn_path, "--out", decomposed_path]) == 0
    assert len(json.loads(decomposed_path.read_text())) == 2


def test_oracle_commands(tmp_path, capsys):
    assert run(["oracle", "sigma", "--m", 3, "--n", 2]) == 0
    assert "sigma = 1" in capsys.readouterr().out

    assert run(["oracle", "subsets", "--m", 2, "--n", 2, "--k", 3]) == 0
    assert "= 2" in capsys.readouterr().out

    part_path = tmp_path / "p.part"
    run(["construct", "degree1", "--m", 4, "--n", 3, "--out", part_path])
    capsys.readouterr()
    assert run(["oracle", "metrics", part_path, "--verify",
                "--cap-vertices", 100]) == 0
    assert "fast path agrees" in capsys.readouterr().out

    out_path = tmp_path / "fns.json"
    assert run(["oracle", "functions", "--m", 2, "--b", 2, "--n", 2,
                "--out", out_path]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["functionsChecked"] == 16 and doc["violations"] == 0


def test_oracle_sampling_needs_seed(capsys):
    assert run(["oracle", "functions", "--m", 3, "--b", 2, "--n", 2,
                "--samples", 5]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("b", [0, -3])
@pytest.mark.parametrize("sampling", [(), ("--samples", 3, "--seed", 1)])
def test_oracle_functions_rejects_an_empty_codomain(capsys, b, sampling):
    assert run(["oracle", "functions", "--m", 2, "--b", b, "--n", 2, *sampling]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: codomain values must be nonempty and pairwise distinct\n"
    assert "checked" not in captured.out


@pytest.mark.parametrize("argv", [
    ["metrics", "DEEP"],
    ["bounds", "check", "DEEP"],
    *(["fn", name, "DEEP"] for name in
      ("interpolate", "degree", "sensitivity", "decompose", "restrict", "verify")),
    ["construct", "lift", "--base", "DEEP", "--n", 3, "--d", 1],
    ["oracle", "metrics", "DEEP"],
    ["bounds", "cayley", "--m", 3, "--n", 2, "--config", "DEEP"],
])
@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_files_exit_one(tmp_path, capsys, argv, opener):
    deep = tmp_path / "deep.json"
    deep.write_text(opener * 100_000)
    assert run([deep if a == "DEEP" else a for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {deep} is nested too deeply\n"


def test_repeated_calls_in_one_process_carry_no_options_over(tmp_path, capsys):
    # main() builds its parser once per process, so every call must start
    # from the defaults again
    theorem = ["construct", "theorem1", "--m", 3, "--d", 2, "--n", 3,
               "--out", tmp_path / "t.part"]
    assert run(theorem + ["--verify", "--verbose"]) == 0
    assert "measured:" in capsys.readouterr().out
    assert run(theorem) == 0
    assert "measured:" not in capsys.readouterr().out

    sweep = ["oracle", "functions", "--m", 2, "--b", 2, "--n", 2]
    assert run(sweep + ["--samples", 5, "--seed", 1, "--format", "csv"]) == 0
    assert "checked 5 functions" in capsys.readouterr().out
    assert run(sweep) == 0
    out = capsys.readouterr().out
    assert "checked 16 functions" in out
    assert "# seed: none" in out and "samples" not in out and "bound," not in out


def test_report_grid_flags_divisibility_gap(tmp_path):
    grid_path = tmp_path / "grid.csv"
    assert run(["report", "grid", "--m-range", "4", "--n-range", "2",
                "--d-range", "5", "--format", "csv", "--out", grid_path]) == 0
    lines = grid_path.read_text().splitlines()
    assert lines[1].startswith("4,2,5,64/3,16,16,")
    assert lines[1].endswith("FLAG")


def test_report_grid_skips_cells_over_cap(tmp_path):
    grid_path = tmp_path / "grid.csv"
    assert run(["report", "grid", "--m-range", "3:6", "--n-range", "4",
                "--d-range", "1", "--cap-vertices", 700,
                "--format", "csv", "--out", grid_path]) == 0
    lines = grid_path.read_text().splitlines()
    assert any(line.startswith("6,4,1") and line.endswith("SKIPPED") for line in lines)
    assert any(line.startswith("3,4,1") and line.endswith("PASS") for line in lines)


def test_oracle_report_rows(tmp_path):
    sigma_path = tmp_path / "sigma.jsonl"
    assert run(["oracle", "sigma", "--m", 2, "--n", 3, "--format", "records",
                "--out", sigma_path]) == 0
    record = json.loads(sigma_path.read_text().strip())
    assert record["bound"] == "sigma"
    assert record["measured"] == 2 and record["value"] == 2
    assert record["verdict"] == "PASS"

    fns_path = tmp_path / "fns.csv"
    assert run(["oracle", "functions", "--m", 2, "--b", 2, "--n", 2,
                "--format", "csv", "--out", fns_path]) == 0
    lines = fns_path.read_text().splitlines()
    assert lines[1].startswith("sensitivity-theorem,2,2,functions=16,")
    assert lines[1].endswith("PASS")


def test_report_grid_empty_ranges(tmp_path):
    grid_path = tmp_path / "grid.csv"
    assert run(["report", "grid", "--m-range", "5:3", "--n-range", "2",
                "--d-range", "1", "--format", "csv", "--out", grid_path]) == 0
    assert grid_path.read_text().splitlines() == [
        "m,n,d,paper_bound,achieved_imbalance,measured_imbalance,"
        "measured_max_degree,verdict"
    ]


def test_report_grid_writes_rows_as_it_goes(tmp_path):
    # 20,000 SKIPPED cells make a 0.5 MB file; no copy of it is held
    grid_path = tmp_path / "g.csv"
    tracemalloc.start()
    try:
        assert run(["report", "grid", "--m-range", "3:20002", "--n-range", 30,
                    "--d-range", 1, "--format", "csv", "--out", grid_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert len(grid_path.read_text().splitlines()) == 20_001


@pytest.mark.parametrize("ranges", [
    ["--m-range", "3", "--n-range", "1:1000000000000", "--d-range", "5:3"],
    ["--m-range", "3:1000000000000", "--n-range", "5:3", "--d-range", "1"],
])
def test_report_grid_without_cells_exits_at_once(ranges):
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hamlab", "report", "grid", *ranges],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert time.perf_counter() - start < 2
    assert done.returncode == 0 and done.stderr == ""


def test_report_grid_rejects_a_bad_d_before_any_row(tmp_path, capsys):
    grid_path = tmp_path / "bad.jsonl"
    assert run(["report", "grid", "--m-range", 3, "--n-range", 2, "--d-range", "1,0",
                "--out", grid_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need d >= 1, got 0\n"
    assert all(line.startswith("# ") for line in captured.out.splitlines())
    assert not grid_path.exists()
    assert run(["report", "grid", "--m-range", 3, "--n-range", 2, "--d-range", "1,0"]) == 1
    assert all(line.startswith("# ") for line in capsys.readouterr().out.splitlines())


def test_report_header_shows_a_colon_range_as_given(capsys):
    args = build_parser().parse_args(["report", "grid", "--m-range", "3:1000000",
                                      "--n-range", "5:3", "--d-range", "1,4"])
    _print_header(args, {"vertices": 1, "subsets": 1, "functions": 1})
    params = capsys.readouterr().out.splitlines()[1]
    assert params == "# params: d-range=[1, 4] m-range=3:1000000 n-range=5:3"


# a value of each argument type, for command lines built from the parser's rows
_ARGUMENT_VALUES = {None: "p.json", int: "5", cli._rational: "1/2", cli._int_range: "3:4"}
# a valid value of each option a row may declare
_OPTION_VALUES = {"cap-subsets": ["7"], "cap-functions": ["7"], "seed": ["1"], "verbose": [],
                  "format": ["csv"], "verify": []}


def _row_argv(row) -> list[str]:
    """A valid command line of a row of ``_SUBCOMMANDS``, every option it
    declares given."""
    command, subcommand, flags, extras, options, _ = row
    argv = [command] + ([subcommand] if subcommand else [])
    for flag in flags.split():
        argv += [f"--{flag}", "3"]
    for name, spec in extras:
        value = [] if spec.get("action") == "store_true" else [_ARGUMENT_VALUES[spec.get("type")]]
        argv += [name, *value] if name.startswith("--") else value
    argv += ["--cap-vertices", "9", "--config", "c.json", "--out", "o.json"]
    for option in options.split():
        argv += [f"--{option}", *_OPTION_VALUES[option]]
    return argv


@pytest.mark.parametrize("row", cli._SUBCOMMANDS, ids=lambda row: " ".join(filter(None, row[:2])))
def test_branch_parser_reads_its_row_as_the_full_parser_does(row):
    key, argv = row[:2], _row_argv(row)
    branch, full = build_parser(key), build_parser()
    assert cli._parser_key(argv) == key
    assert branch.parse_args(argv) == full.parse_args(argv)
    words = argv[:1 + (key[1] is not None)]
    undeclared = [argv + [f"--{option}", *values] for option, values in _OPTION_VALUES.items()
                  if option not in row[4].split()]
    unread = [argv + ["--cap-v", "9"], *undeclared]  # an abbreviation is an unknown option
    malformed = [words, argv + ["--bogus"], argv + ["extra"], argv + ["--seed", "x"],
                 argv + ["--format", "xml"], *unread]
    for bad in malformed:
        with pytest.raises(UsageError) as from_branch:
            branch.parse_args(bad)
        with pytest.raises(UsageError) as from_full:
            full.parse_args(bad)
        assert str(from_branch.value) == str(from_full.value), bad
    for bad in unread:
        with pytest.raises(UsageError, match="^unrecognized arguments: "):
            branch.parse_args(bad)


# the options each subparser takes beside its own arguments: those it reads,
# and --cap-vertices, --config and --out, which every subparser takes
_TAKES = {
    **{("construct", name): {"--verbose", "--verify"}
       for name in ("degree1", "complete", "lift", "theorem1")},
    ("construct", "subgraph"): {"--verify"},
    ("metrics",): {"--verbose"},
    **{("bounds", name): {"--format"}
       for name in ("theorem1", "markov", "upper", "cayley", "domination", "check")},
    **{("fn", name): set()
       for name in ("interpolate", "degree", "sensitivity", "decompose", "restrict", "verify")},
    ("fn", "tribes"): {"--verify"},
    ("fn", "lifted-tribes"): {"--verify"},
    ("oracle", "sigma"): {"--cap-subsets", "--format"},
    ("oracle", "subsets"): {"--cap-subsets", "--format"},
    ("oracle", "functions"): {"--cap-functions", "--seed", "--format"},
    ("oracle", "metrics"): {"--verify"},
    ("report", "grid"): {"--format"},
}


def _leaf_parsers(parser, words=()) -> dict:
    """Each parser of the tree that takes no subcommand, by its command words."""
    forks = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not forks:
        return {words: parser}
    return {key: leaf for name, sub in forks[0].choices.items()
            for key, leaf in _leaf_parsers(sub, words + (name,)).items()}


def test_each_subparser_takes_only_the_options_its_row_declares():
    leaves = _leaf_parsers(build_parser())
    assert leaves.keys() == _TAKES.keys()
    total = 0
    for command, subcommand, flags, extras, options, _ in cli._SUBCOMMANDS:
        key = (command, subcommand) if subcommand else (command,)
        taken = {flag for action in leaves[key]._actions
                 if not isinstance(action, argparse._HelpAction)
                 for flag in action.option_strings}
        own = {f"--{flag}" for flag in flags.split()} | {
            name for name, _ in extras if name.startswith("--")}
        assert taken - own == {"--cap-vertices", "--config", "--out"} | _TAKES[key], key
        assert {f"--{option}" for option in options.split()} == _TAKES[key], key
        total += len(taken)
    assert total == 145


@pytest.mark.parametrize("argv", [[], ["--help"], ["construct"], ["construct", "--help"],
                                  ["constr", "theorem1"], ["construct", "theorem"],
                                  ["--seed", "1", "metrics", "p.part"], ["theorem1"]])
def test_other_command_lines_go_to_the_full_parser(argv):
    assert cli._parser_key(argv) is None


def test_usage_errors_exit_one(tmp_path, capsys):
    one_value = tmp_path / "one-value.part"
    one_value.write_text(json.dumps({"m": 1, "n": 25, "assignment": [0]}))
    errors = {}
    for argv in (["construct", "degree1", "--m", 1, "--n", 3],
                 ["nonsense"],
                 ["metrics", "/definitely/not/a/file.json"],
                 ["report", "grid", "--m-range", "abc", "--n-range", 2, "--d-range", 1],
                 ["construct", "degree1", "--m", 3, "--n", 2, "--cap-vertices", 0],
                 ["oracle", "subsets", "--m", 2, "--n", 2, "--k", 1, "--cap-subsets", -1],
                 ["fn", "tribes", "--s", 0],
                 ["fn", "lifted-tribes", "--m", 1, "--a", 0, "--s", 1],
                 ["fn", "lifted-tribes", "--m", 3, "--a", 5, "--s", 1],
                 ["oracle", "functions", "--m", 2, "--b", 2, "--n", 1, "--samples", 0,
                  "--seed", 1],
                 ["oracle", "subsets", "--m", 2, "--n", 2, "--k", 5],
                 ["oracle", "sigma", "--m", 1, "--n", 2],
                 ["fn", "degree", "f.fn", "--seed", 1],
                 ["metrics", one_value]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        errors[" ".join(map(str, argv[:2]))] = err
    assert errors["oracle subsets"] == "error: need 0 <= k <= 4, got k=5\n"
    assert errors["oracle sigma"] == "error: need m >= 2 and n >= 1, got m=1, n=2\n"
    assert errors["fn degree"] == "error: unrecognized arguments: --seed 1\n"
    assert errors[f"metrics {one_value}"] == (
        "error: enumerating vertices of 25 coordinates exceeds the limit of 24 that the "
        "configured cap of 10000000 sets\n")
    # abbreviations of --cap-vertices, --verify and --prune are not read as them
    for argv, unread in ((["construct", "degree1", "--m", 3, "--n", 2, "--cap", 5], "--cap 5"),
                         (["fn", "tribes", "--s", 2, "--ver"], "--ver"),
                         (["oracle", "subsets", "--m", 5, "--n", 2, "--k", 6, "--pr"], "--pr")):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {unread}\n", argv


def test_cap_violation_exits_one(tmp_path, capsys):
    assert run(["construct", "degree1", "--m", 6, "--n", 4,
                "--cap-vertices", 100]) == 1
    assert "cap" in capsys.readouterr().err
    # files of 81 points, refused as they load
    part, fn = tmp_path / "p.part", tmp_path / "t.fn"
    assert run(["construct", "theorem1", "--m", 3, "--d", 2, "--n", 4, "--out", part]) == 0
    assert run(["fn", "lifted-tribes", "--m", 3, "--a", 0, "--s", 2, "--out", fn]) == 0
    capsys.readouterr()
    for argv, what in ((["metrics", part], "vertices"),
                       (["bounds", "check", part], "vertices"),
                       (["construct", "lift", "--base", part, "--n", 4, "--d", 2], "vertices"),
                       (["oracle", "metrics", part], "vertices"),
                       (["fn", "degree", fn], "grid points"),
                       (["fn", "restrict", fn], "grid points")):
        assert run([*argv, "--cap-vertices", 80]) == 1
        assert capsys.readouterr().err == (
            f"error: enumerating 3^4 {what} exceeds the configured cap of 80\n"), argv


def test_env_cap_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HAMLAB_CAP_VERTICES", "100")
    assert run(["construct", "degree1", "--m", 6, "--n", 4]) == 1
    monkeypatch.setenv("HAMLAB_CAP_VERTICES", "2000")
    capsys.readouterr()
    assert run(["construct", "degree1", "--m", 6, "--n", 4]) == 0
    # the variable reaches the header of construct, which has no --cap-subsets
    monkeypatch.setenv("HAMLAB_CAP_SUBSETS", "7")
    capsys.readouterr()
    assert run(["construct", "theorem1", "--m", 3, "--d", 2, "--n", 2]) == 0
    assert "# caps: vertices=2000 subsets=7 functions=1000000\n" in capsys.readouterr().out
    monkeypatch.setenv("HAMLAB_CAP_VERTICES", "x")
    capsys.readouterr()
    assert run(["construct", "degree1", "--m", 6, "--n", 4]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_defaults(tmp_path, capsys):
    config_path = tmp_path / "caps.json"
    config_path.write_text(json.dumps({"capVertices": 100}))
    assert run(["construct", "degree1", "--m", 6, "--n", 4,
                "--config", config_path]) == 1
    assert run(["construct", "degree1", "--m", 6, "--n", 4,
                "--config", config_path, "--cap-vertices", 2000]) == 0
    # capFunctions and seed reach the header of fn degree, which takes neither flag
    fn_path = tmp_path / "f.fn"
    fn_path.write_text(json.dumps({"A": [0, 1], "B": [0, 1], "n": 1, "values": [0, 1]}))
    config_path.write_text(json.dumps({"capFunctions": 5, "seed": 4}))
    capsys.readouterr()
    assert run(["fn", "degree", fn_path, "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "# caps: vertices=10000000 subsets=1000000 functions=5\n# seed: 4\n" in out


def test_malformed_config_exits_one(tmp_path, capsys):
    config_path = tmp_path / "caps.json"
    for doc in ({"capVertices": "abc"}, {"seed": [1]}, [100], {"seed": 1.5},
                {"capVertices": True}, {"capSubsets": 1e3}, {"format": "xml"}):
        config_path.write_text(json.dumps(doc))
        assert run(["construct", "degree1", "--m", 3, "--n", 2,
                    "--config", config_path]) == 1
        assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("doc,argv", [
    ({"m": 3, "n": 99_999_999, "ranks": [0, 1]}, ["metrics"]),
    ({"m": 3, "n": 99_999_999, "assignment": [0, 1]}, ["metrics"]),
    ({"A": [0, 1, 2], "B": [0, 1], "n": 99_999_999, "values": [0, 1]},
     ["fn", "sensitivity"]),
])
def test_huge_inputs_exit_one_before_exponentiating(tmp_path, capsys, doc, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(argv + [path, "--cap-vertices", 100]) == 1
    assert time.perf_counter() - start < 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("size", [10 ** 18, 10 ** 30])
@pytest.mark.parametrize("argv", [
    ["oracle", "functions", "--m", "SIZE", "--b", 2, "--n", 2],
    ["oracle", "functions", "--m", "SIZE", "--b", 2, "--n", 0],
    ["oracle", "functions", "--m", 2, "--b", "SIZE", "--n", 2],
    ["oracle", "functions", "--m", 2, "--b", "SIZE", "--n", 2, "--samples", 3, "--seed", 1],
    ["fn", "lifted-tribes", "--m", "SIZE", "--a", 0, "--s", 2],
    ["fn", "lifted-tribes", "--m", "SIZE", "--a", 0, "--s", 0],
])
def test_huge_alphabets_exit_one_before_they_are_built(capsys, argv, size):
    start = time.perf_counter()
    assert run([size if a == "SIZE" else a for a in argv]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_wide_codomains_restrict_in_their_own_process(tmp_path):
    # 10^5 codomain values: a sum of that many indicator tensors through
    # nested lazy maps would overflow the C stack and kill the process
    path = tmp_path / "wide.fn"
    path.write_text(json.dumps({"A": [0, 1], "B": list(range(100_000)), "n": 1,
                                "values": [0, 99_999]}))
    for argv in (["fn", "restrict", path],
                 ["oracle", "functions", "--m", 2, "--b", 100_000, "--n", 1,
                  "--samples", 1, "--seed", 1]):
        done = subprocess.run([sys.executable, "-m", "hamlab", *map(str, argv)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("domain", [[0, 10, 20], list(range(8))])
def test_restrict_rejects_a_table_of_zeros_in_one_line(tmp_path, domain):
    path = tmp_path / "zeros.fn"
    path.write_text(json.dumps({"A": domain, "B": [0], "n": 1, "values": [0] * len(domain)}))
    done = subprocess.run([sys.executable, "-m", "hamlab", "fn", "restrict", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "error: constant functions admit no restriction certificate"
    ]


def test_degree_on_two_hundred_domain_values_is_quick(tmp_path, capsys):
    # the integer Lagrange build is quadratic in the domain size; one built
    # from Fraction polynomial products took about a minute on a 2-vCPU VM
    rng = random.Random(200)
    path = tmp_path / "wide_domain.fn"
    path.write_text(json.dumps({"A": [f"{k}/{1 + k % 3}" for k in range(200)],
                                "B": [0, "1/2", 2], "n": 1,
                                "values": [rng.randrange(3) for _ in range(200)]}))
    start = time.perf_counter()
    assert run(["fn", "degree", path]) == 0
    assert time.perf_counter() - start < 5
    assert "degree 199" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["oracle", "sigma", "--m", 3, "--n", 99_999_999],
    ["oracle", "subsets", "--m", 3, "--n", 99_999_999, "--k", 2],
    ["oracle", "functions", "--m", 3, "--b", 2, "--n", 99_999_999],
    ["oracle", "functions", "--m", 3, "--b", 2, "--n", 99_999_999,
     "--samples", 1, "--seed", 1],
    ["oracle", "functions", "--m", 3, "--b", 3, "--n", 17, "--cap-vertices", 200_000_000],
    ["construct", "complete", "--m", 300_000_000, "--d", 1],
])
def test_huge_oracle_and_complete_graph_runs_exit_one(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 2
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "theorem1", "--m", 3, "--d", 2, "--n"],
    ["bounds", "markov", "--m", 3, "--k", 12, "--n"],
    ["bounds", "domination", "--m", 3, "--n"],
])
def test_bounds_respect_the_vertex_cap(capsys, argv):
    start = time.perf_counter()
    assert run(argv + [99_999_999]) == 1
    assert time.perf_counter() - start < 2
    assert "exceeds the configured cap" in capsys.readouterr().err
    assert run(argv + [3, "--cap-vertices", 26]) == 1
    assert "3^3 vertices exceeds the configured cap of 26" in capsys.readouterr().err
    assert run(argv + [3, "--cap-vertices", 27]) == 0


def test_exponent_tokens_exit_one(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"A": [0, "1e999999999"], "B": [0, 1], "n": 1,
                                "values": [0, 1]}))
    start = time.perf_counter()
    assert run(["fn", "degree", path]) == 1
    assert "bad rational token" in capsys.readouterr().err
    assert run(["bounds", "upper", "--m", 3, "--n", 4, "--eps", "1e999999999"]) == 1
    assert "bad rational token" in capsys.readouterr().err
    assert time.perf_counter() - start < 2
    assert run(["bounds", "upper", "--m", 3, "--n", 4, "--eps", "0.1"]) == 0
    assert "eps=1/10" in capsys.readouterr().out
    for token, problem in (("1/0", "bad rational token '1/0': Fraction(1, 0)"),
                           (0.5, "expected integer or 'p/q' string, got 0.5"),
                           (True, "expected a rational token, got True")):
        path.write_text(json.dumps({"A": [0, token], "B": [0, 1], "n": 1, "values": [0, 1]}))
        assert run(["fn", "degree", path]) == 1
        assert capsys.readouterr().err == f"error: malformed function document: {problem}\n"


def test_bounds_upper_at_an_eps_below_the_float_range(capsys):
    # 1/eps = 10^400 overflows a float; log_3(10^400) is about 728
    assert run(["bounds", "upper", "--m", 3, "--n", 4, "--eps", "1/1" + "0" * 400]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"value": 0.0047712125471966' in captured.out


def test_tribes_and_grid_respect_the_vertex_cap(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["fn", "tribes", "--s", 6, "--cap-vertices", 1000]) == 1
    assert "cap" in capsys.readouterr().err
    grid_path = tmp_path / "grid.csv"
    assert run(["report", "grid", "--m-range", "3", "--n-range", 99_999_999,
                "--d-range", "1", "--format", "csv", "--out", grid_path]) == 0
    assert grid_path.read_text().splitlines()[1].endswith("SKIPPED")
    assert time.perf_counter() - start < 2


def test_decompose_checks_its_output_against_the_vertex_cap(tmp_path, capsys):
    # 20 indicators of 10 points each: 200 labels, over a cap of 100
    path = tmp_path / "wide.fn"
    path.write_text(json.dumps({"A": list(range(10)), "B": list(range(20)), "n": 1,
                                "values": list(range(10))}))
    assert run(["fn", "decompose", path, "--cap-vertices", 100]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: decomposing into 20 indicators of 10 points exceeds the configured cap of 100"
    ]
    assert run(["fn", "decompose", path, "--cap-vertices", 200]) == 0


def test_report_grid_rejects_small_m_before_the_cap_check(capsys):
    start = time.perf_counter()
    assert run(["report", "grid", "--m-range=-3", "--n-range", 99_999_999,
                "--d-range", 1]) == 1
    assert time.perf_counter() - start < 2
    assert "need m >= 3, got -3" in capsys.readouterr().err
    assert run(["report", "grid", "--m-range", "3,2", "--n-range", 99_999_999,
                "--d-range", 1]) == 1
    assert "need m >= 3, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--m-range", "--n-range", "--d-range"])
@pytest.mark.parametrize("huge", ["3:1000000000000000000", "3:100000000000000000000"])
def test_report_grid_rejects_ranges_too_large_to_list(flag, huge):
    # 10^18 values cannot be listed in memory, and len() of a range of
    # 10^20 overflows sys.maxsize
    ranges = {"--m-range": "3", "--n-range": "2", "--d-range": "1", flag: huge}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hamlab", "report", "grid",
                           *(item for pair in ranges.items() for item in pair),
                           "--cap-vertices", "1000"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert time.perf_counter() - start < 2
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        f"error: sweeping {int(huge[2:]) - 2} grid cells exceeds the configured cap of 1000"
    ]


def test_construct_lift_verify_reads_the_base_once(tmp_path, monkeypatch):
    base_path = tmp_path / "base.part"
    assert run(["construct", "degree1", "--m", 3, "--n", 2, "--out", base_path]) == 0
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run(["construct", "lift", "--base", base_path, "--n", 4, "--d", 2,
                "--verify"]) == 0
    assert opened.count(str(base_path)) == 1


def test_runtime_imports_only_the_standard_library():
    third_party = ("numpy", "scipy", "sympy", "networkx")
    code = (
        "import sys, hamlab, hamlab.cli; "
        f"print(sorted(set({third_party!r}) & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_corrupted_partition_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.part"
    bad.write_text(json.dumps({"m": 3, "n": 2, "assignment": [0] * 5}))
    assert run(["metrics", bad]) == 1
    bad.write_text("not json at all")
    assert run(["metrics", bad]) == 1


def test_running_out_of_memory_exits_one_in_one_line(tmp_path, monkeypatch, capsys):
    # an input inside the caps may still need more memory than there is
    fn, poly = tmp_path / "t.fn", tmp_path / "t.poly.json"
    assert run(["fn", "lifted-tribes", "--m", 3, "--a", 0, "--s", 2, "--out", fn]) == 0

    def exhausted(arity, terms):
        raise MemoryError

    monkeypatch.setattr("hamlab.encoding.polynomial_text", exhausted)
    capsys.readouterr()
    assert run(["fn", "interpolate", fn, "--out", poly]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not poly.exists()


def test_verification_failure_exits_two(tmp_path, capsys):
    # a hand-built partition that badly violates the degree-1 guarantee
    # cannot be produced by the library, so exercise exit 2 via fn verify on
    # a corrupted report path instead: craft a function file and tamper with
    # the expected tribes values through construct --verify on a lift whose
    # cap is too tight
    base_path = tmp_path / "base.part"
    run(["construct", "degree1", "--m", 3, "--n", 2, "--out", base_path])
    capsys.readouterr()
    assert run(["construct", "lift", "--base", base_path, "--n", 5,
                "--d", 1]) == 2
    assert "verification failure" in capsys.readouterr().err


def _replace(**changes):
    return lambda result: dataclasses.replace(result, **changes)


# every site that exits 2, each reached by tampering with one of the two
# values it compares: the command, the function that computes that value, and
# how its result is changed
_TAMPERED_RUNS = {
    "construct subgraph": (["construct", "subgraph", "--m", 4, "--n", 3, "--d", 1, "--verify"],
                           "hamlab.cli.induced_max_degree", lambda degree: degree + 1),
    "construct degree1": (["construct", "degree1", "--m", 3, "--n", 2, "--verify"],
                          "hamlab.partitions.partition_metrics", _replace(imbalance=0)),
    "bounds check partition": (["bounds", "check", "p.part"],
                               "hamlab.partitions.partition_metrics", _replace(max_degree=0)),
    "bounds check vertex set": (["bounds", "check", "s.vset"],
                                "hamlab.cli.induced_max_degree", lambda degree: 0),
    "fn lifted-tribes": (["fn", "lifted-tribes", "--m", 3, "--a", 0, "--s", 2, "--verify"],
                         "hamlab.functions.sensitivity", lambda found: (0, found[1])),
    "fn restrict": (["fn", "restrict", "t.fn"], "hamlab.functions.RestrictionWitness.check",
                    lambda checked: (*checked[:2], False)),
    "fn verify": (["fn", "verify", "t.fn"], "hamlab.functions.sensitivity",
                  lambda found: (0, found[1])),
    "oracle sigma": (["oracle", "sigma", "--m", 3, "--n", 2], "hamlab.search.sigma",
                     lambda sigma: sigma + 1),
    "oracle functions": (["oracle", "functions", "--m", 2, "--b", 2, "--n", 1],
                         "hamlab.oracle.exhaustive_function_check", _replace(violations=1)),
    "oracle metrics": (["oracle", "metrics", "p.part", "--verify"],
                       "hamlab.oracle.brute_force_metrics", _replace(imbalance=0)),
    # the lift measures its base with partition_metrics too, so the grid's
    # promise is changed instead
    "report grid": (["report", "grid", "--m-range", 3, "--n-range", 2, "--d-range", 1],
                    "hamlab.bounds.theorem_imbalance_bound",
                    lambda bound: (bound[0], bound[1] + 1)),
}


@pytest.mark.parametrize("name", _TAMPERED_RUNS)
def test_every_failed_claim_exits_two(tmp_path, monkeypatch, capsys, name):
    argv, target, tamper = _TAMPERED_RUNS[name]
    monkeypatch.chdir(tmp_path)
    for path, doc in (("p.part", hamlab.degree_one_partition(3, 2).to_doc()),
                      ("s.vset", hamlab.low_degree_subgraph(4, 3, 1).to_doc()),
                      ("t.fn", hamlab.tribes(2).to_doc())):
        write_json(doc, str(tmp_path / path))
    measure = pkgutil.resolve_name(target)
    monkeypatch.setattr(target, lambda *args, **kwargs: tamper(measure(*args, **kwargs)))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and err.count("\n") == 1


def test_header_reports_seed_and_caps(capsys):
    run(["oracle", "functions", "--m", 2, "--b", 2, "--n", 2, "--seed", 9,
         "--samples", 3])
    out = capsys.readouterr().out
    assert "# seed: 9" in out
    assert "# caps: vertices=32" in out


@pytest.mark.parametrize("command,doc", [
    (["metrics"], {"m": 3, "n": 1, "assignment": [0.9, 1.5, True]}),
    (["metrics"], {"m": 3, "n": 1, "assignment": [0, 1, "2"]}),
    (["metrics"], {"m": 3.0, "n": 1, "assignment": [0, 1, 2]}),
    (["metrics"], {"m": 3, "n": True, "assignment": [0, 1, 2]}),
    (["metrics"], {"m": 3, "n": 2, "ranks": [0.5, "3", True]}),
    (["metrics"], {"m": 3, "n": "2", "ranks": [0, 3]}),
    (["fn", "degree"], {"A": [0, 1], "B": [0, 1], "n": 1, "values": [0, 1.0]}),
    (["fn", "degree"], {"A": [0, 1], "B": [0, 1], "n": 1, "values": [False, True]}),
    (["fn", "degree"], {"A": [0, 1], "B": [0, 1], "n": "1", "values": [0, 1]}),
    (["fn", "degree"], {"A": [0, 1], "B": [0, 1], "n": 1.0, "values": [0, 1]}),
])
def test_integer_fields_reject_floats_bools_and_strings(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(command + [path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"assignment"'])
def test_non_object_documents_exit_one(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    for command in (["metrics"], ["bounds", "check"]):
        assert run(command + [path]) == 1
        assert "neither a partition nor a vertex-set" in capsys.readouterr().err


# Python's limit on int/str conversion, pinned at its default so the
# caller's environment cannot lift it
_DIGIT_LIMIT = {"PYTHONINTMAXSTRDIGITS": "4300"}
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no int/str digit limit")


def _run_subprocess(argv, cwd):
    return subprocess.run([sys.executable, "-m", "hamlab", *map(str, argv)], cwd=cwd,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, **_DIGIT_LIMIT, "PYTHONPATH": str(SRC)})


@needs_digit_limit
@pytest.mark.parametrize("argv, culprit", [(["metrics", "big.part"], "big.part"),
                                           (["metrics", "--config", "big.json", "p.part"],
                                            "big.json")])
def test_integers_past_the_digit_limit_fail_to_load_in_one_line(tmp_path, argv, culprit):
    # Python refuses to convert an integer of more than 4,300 digits
    digits = "7" * 5000
    (tmp_path / "big.part").write_text('{"m": 2, "n": 1, "assignment": [0, ' + digits + ']}')
    (tmp_path / "big.json").write_text('{"vertices": ' + digits + '}')
    (tmp_path / "p.part").write_text('{"m": 2, "n": 1, "assignment": [0, 1]}')
    done = _run_subprocess(argv, tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: cannot read {culprit}: ")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.endswith(
        "; set the PYTHONINTMAXSTRDIGITS environment variable to increase the limit\n")


@needs_digit_limit
@pytest.mark.parametrize("out", [[], ["--out", "poly.json"]])
def test_coefficients_past_the_digit_limit_fail_to_write_in_one_line(tmp_path, out):
    # parity on 6 bits over the codomain {0, 10^4299 - 1}: its top
    # coefficient is (-2)^5 times 10^4299 - 1, past 4,300 digits
    (tmp_path / "big.fn").write_text(json.dumps({
        "A": [0, 1], "B": [0, "9" * 4299], "n": 6,
        "values": [bin(r).count("1") % 2 for r in range(64)]}))
    done = _run_subprocess(["fn", "interpolate", "big.fn", *out], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: cannot write the result: ")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.endswith(
        "; set the PYTHONINTMAXSTRDIGITS environment variable to increase the limit\n")
    assert not (tmp_path / "poly.json").exists()  # the document is encoded before --out opens
