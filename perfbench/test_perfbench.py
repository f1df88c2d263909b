"""Tests of the benchmark itself.  Run from the checkout root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, Artifacts, CheckFailed, Output, check_doc, check_theorem1

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"


@pytest.fixture
def workdir(request):
    path = WORK / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    if not any(WORK.iterdir()):
        WORK.rmdir()


def run_worker(workload: str, seed: int, trace: bool, directory: Path) -> dict:
    directory.mkdir()
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), workload, str(seed),
         "1" if trace else "0", str(directory)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    ready, result = proc.stdout.splitlines()
    assert ready == "ready"
    return json.loads(result)


def artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "trace.json"}


def test_traced_session_matches_untraced_and_reaches_oracle_calls(workdir):
    plain = run_worker("desk-sweep", 7, False, workdir / "plain")
    traced = run_worker("desk-sweep", 7, True, workdir / "traced")
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert artifacts(workdir / "traced") == artifacts(workdir / "plain")

    spans = json.loads((workdir / "traced" / "trace.json").read_text())["spans"]
    under_sweep = {s[0] for s in spans
                   if s[3] >= 0 and spans[s[3]][0] == "oracle.exhaustive_function_check"}
    # oracle from-imports these, so they are traced only if its namespace was rebound
    assert {"functions.sensitivity", "functions.verify_sensitivity_bound",
            "functions.boolean_restriction_witness", "functions.degree"} <= under_sweep
    names = {s[0] for s in spans}
    assert "encoding.write_csv" in names  # from-imported by cli
    assert not any(n.startswith("graph.") for n in names)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name, workdir):
    def inputs(seed: int, tag: str):
        directory = workdir / tag
        directory.mkdir()
        argv = [c.argv for c in WORKLOADS[name](seed, directory)]
        return argv, {p.name: p.read_bytes() for p in directory.iterdir()}

    first = inputs(11, "a")
    assert inputs(11, "b") == first
    assert inputs(12, "c") != first


def test_errors_count_exceptions_leaving_a_layer(workdir):
    bad = workdir / "bad.fn"
    bad.write_text(json.dumps({"A": [0, 0], "B": [0], "n": 1, "values": [0, 0]}))
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / "src")!r}]
from tracer import Tracer, summarize
tracer = Tracer()
tracer.install()
import hamlab.cli
code = hamlab.cli.main(["fn", "interpolate", {str(bad)!r}])
dump = {{"spans": tracer.spans, "counters": tracer.counters, "errors": tracer.errors}}
print(json.dumps([code, summarize(dump, {{}})]))
"""
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    code, metrics = json.loads(proc.stdout.splitlines()[-1])
    assert code == 1  # the CLI reports the malformed file as an input problem
    assert metrics["functions.errors"] == 1 and metrics["cli.errors"] == 0
    assert metrics["cli.calls"] == 1 and metrics["functions.calls"] == 1


def test_checks_reject_wrong_outputs(workdir):
    (workdir / "p.part").write_text(json.dumps({"m": 3, "n": 2, "assignment": [0] * 9}))
    check = check_theorem1(Artifacts(), 3, 1, 2, "p.part", verified=False)
    with pytest.raises(CheckFailed):
        check(Output(0, "achieved imbalance: 6\n", workdir))
    (workdir / "s.json").write_text(json.dumps({"sigma": 2}))
    with pytest.raises(CheckFailed):
        check_doc("s.json", sigma=1)(Output(0, "", workdir))
