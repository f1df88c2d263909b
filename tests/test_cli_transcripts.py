"""Recorded CLI transcripts: one small run of every subcommand, compared byte
for byte (exit status, stdout, stderr and the ``--out`` artifact) with
``cli_transcripts.json``.

The cases run in order in one directory, so later cases read the artifacts
of earlier ones.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_cli_transcripts.py --record`` from the
repository root.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hamlab import FiniteFunction
from hamlab.cli import main
from hamlab.functions import _scaled_tensor, _scales

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")

# the 3 x 3 partition of ``construct degree1 --m 3 --n 2`` and its labels as
# text, for the hand-written layouts below
_BASE = {"m": 3, "n": 2, "assignment": [0, 1, 1, 1, 2, 2, 1, 0, 0]}
_BASE_LABELS = "0, 1, 1, 1, 2, 2, 1, 0, 0"

# input files written before the first case: a document is written as its
# compact ``json.dumps``, a string as it stands
INPUTS = {
    "rational.fn": {"A": ["-1/2", "0.5", 2], "B": [0, "3/4"], "n": 2,
                    "values": [0, 1, 1, 0, 0, 1, 1, 1, 0]},
    "config.json": {"capVertices": 1000, "format": "csv", "seed": 4},
    # codomain indices 10 and 11 (two-digit labels), and indices past 255
    "wide.fn": {"A": [0, 1, 2, 3], "B": list(range(12)), "n": 2,
                "values": [11, 0, 10, 3, 0, 11, 11, 2, 10, 10, 1, 0, 5, 11, 9, 10]},
    "huge.fn": {"A": [0, 1, "1/2"], "B": [*range(299), "-1/3"], "n": 2,
                "values": [299, 0, 256, 257, 299, 1, 0, 12, 299]},
    # a domain of stretch 10 (denominators 2 and 5); codomain value "-2/3" unused
    "stretch.fn": {"A": [0, "1/2", -3, "7/5", 2], "B": [0, 1, "-2/3", 5], "n": 2,
                   "values": [3, 0, 1, 1, 3, 0, 0, 1, 1, 1, 3, 0, 0, 3, 1, 1, 0, 0, 3, 1,
                              0, 1, 0, 3, 1]},
    # the same domain at n = 3, every codomain value taken: 16-byte tensor slots
    "stretch3.fn": {"A": [0, "1/2", -3, "7/5", 2], "B": [0, 1, "-2/3", 5], "n": 3,
                    "values": [(7 * i * i + 3 * i + i // 5) % 4 for i in range(125)]},
    # one coordinate over 0..59: 48-byte tensor slots
    "sixty.fn": {"A": list(range(60)), "B": [0, 1, 2], "n": 1,
                 "values": [(i * i + i // 3) % 3 for i in range(60)]},
    # a 134-bit codomain value: f's tensor slots are wider than the pair
    # restrictions need
    "bigvalue.fn": {"A": [0, 1, 2], "B": [0, 10 ** 40, -3], "n": 3,
                    "values": [(i * i + 2 * i + i // 4) % 3 for i in range(27)]},
    # two-valued at n = 6: the pair restrictions need wider slots than
    # interpolation does
    "twovalued6.fn": {"A": [0, 1, 2], "B": [0, 1], "n": 6,
                      "values": [(i * i // 7 + i // 5) % 2 for i in range(729)]},
    # 1 where the last coordinate is 3: the pair restrictions of this
    # indicator overflow its 2-byte interpolation slots
    "lastisthree.fn": {"A": [-4, 0, 3], "B": [0, 1], "n": 2,
                       "values": [0, 0, 1, 0, 0, 1, 0, 0, 1]},
    # a step in every coordinate, at a different domain index each: the
    # witness keeps the pairs (0, 4), (0, 3) and (0, 2)
    "steps.fn": {"A": [0, "1/2", -3, "7/5", 2], "B": [0, 1, "-2/3"], "n": 3,
                 "values": [((i // 25 >= 4) + 2 * (i // 5 % 5 >= 3) + (i % 5 >= 2)) % 3
                            for i in range(125)]},
    # one domain value: no pair to restrict to
    "onevalue.fn": {"A": [5], "B": [0, 1], "n": 2, "values": [1]},
    # a table that is zero everywhere: the empty polynomial
    "zero.fn": {"A": [0, 1, 2], "B": [0, 1], "n": 2, "values": [0] * 9},
    # one coordinate whose polynomial has negative "p/q" coefficients
    "negative.fn": {"A": [0, "1/2", -3, 2], "B": [0, 1, "-2/3"], "n": 1,
                    "values": [2, 0, 1, 2]},
    # one partition in the layouts a hand or another tool may write (a
    # trailing comma is left to test_encoding: its json error text differs
    # on Python 3.13)
    "compact.part": _BASE,
    "indent4.part": json.dumps(_BASE, indent=4),
    # json keeps the last of two equal keys
    "dupassignment.part": '{"m": 3, "n": 2, "assignment": [0, 0, 0, 0, 0, 0, 0, 0, 0], '
                          f'"assignment": [{_BASE_LABELS}]}}',
    "dupm.part": f'{{"m": "[0]", "n": 2, "assignment": [{_BASE_LABELS}], "m": 3}}',
    "bom.part": "\ufeff" + json.dumps(_BASE),
    "leadingzero.part": '{"m": 3, "n": 2, "assignment": [0, 1, 01, 1, 2, 2, 1, 0, 0]}',
    # labels 10 and 11 in a compact file
    "twodigit.part": {"m": 12, "n": 1, "assignment": [11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]},
    "compact.fn": {"A": [0, 1, 2], "B": [0, 1, "1/2"], "n": 2,
                   "values": [0, 2, 1, 1, 0, 0, 2, 2, 1]},
    # vertex sets a hand may write: duplicates collapse, order does not
    # matter, and every rank lies in 0..m^n-1
    "dupranks.vset": {"m": 3, "n": 2, "ranks": [0, 4, 4, 8, 0, 5]},
    "unsorted.vset": {"m": 3, "n": 2, "ranks": [8, 0, 5, 4, 1]},
    "empty.vset": {"m": 3, "n": 2, "ranks": []},
    "negative.vset": {"m": 3, "n": 2, "ranks": [0, -1, 4]},
    "pastend.vset": {"m": 3, "n": 2, "ranks": [0, 9, 4]},
    # a graph past the vertex cap, and the same set with the rank 10^60,
    # which lies below 3^99999999: the ranks are checked without computing
    # that power, and only then the cap
    "hugegraph.vset": {"m": 3, "n": 99999999, "ranks": [0, 1]},
    "hugerank.vset": {"m": 3, "n": 99999999, "ranks": [0, 1, 10 ** 60]},
}

CASES = [
    ["construct", "degree1", "--m", "3", "--n", "2", "--out", "base.part", "--verify",
     "--verbose"],
    ["construct", "degree1", "--m", "4", "--n", "1", "--verify"],
    ["construct", "complete", "--m", "5", "--d", "2", "--out", "complete.part", "--verify",
     "--verbose"],
    # labels 10 and 11 in a byte buffer, and labels past 255 in an array
    ["construct", "complete", "--m", "12", "--d", "0", "--out", "wide.part", "--verify"],
    ["construct", "complete", "--m", "300", "--d", "0", "--out", "huge.part"],
    ["construct", "lift", "--base", "base.part", "--n", "4", "--d", "2", "--out",
     "lifted.part", "--verify", "--verbose"],
    ["construct", "lift", "--base", "base.part", "--n", "5", "--d", "1"],
    ["construct", "theorem1", "--m", "3", "--d", "2", "--n", "4", "--out", "theorem.part",
     "--verify", "--verbose"],
    ["construct", "theorem1", "--m", "4", "--d", "5", "--n", "2", "--verify"],
    # a --verbose that subgraph, tribes, fn degree and oracle metrics do not
    # read exits 1 and writes nothing; each such line is followed by the same
    # run without it
    ["construct", "subgraph", "--m", "4", "--n", "3", "--d", "1", "--out", "sub.vset",
     "--verify", "--verbose"],
    ["construct", "subgraph", "--m", "4", "--n", "3", "--d", "1", "--out", "sub.vset",
     "--verify"],
    ["construct", "subgraph", "--m", "3", "--n", "2", "--d", "3"],
    # 756 member ranks across the ends of blocks of 1,000 ranks, and exactly
    # 1,000 vertices written to stdout
    ["construct", "subgraph", "--m", "3", "--n", "7", "--d", "2", "--out", "s7.vset"],
    ["construct", "subgraph", "--m", "10", "--n", "3", "--d", "1"],
    ["metrics", "theorem.part", "--out", "theorem.metrics.json", "--verbose"],
    ["metrics", "sub.vset"],
    ["metrics", "wide.part", "--out", "wide.metrics.json"],
    ["metrics", "huge.part"],
    ["bounds", "theorem1", "--m", "4", "--d", "5", "--n", "2"],
    ["bounds", "theorem1", "--m", "3", "--d", "2", "--n", "4", "--format", "csv", "--out",
     "theorem1.csv"],
    ["bounds", "markov", "--m", "3", "--n", "3", "--k", "12"],
    ["bounds", "markov", "--m", "3", "--n", "3", "--k", "9"],
    ["bounds", "upper", "--m", "3", "--n", "4", "--eps", "1/9"],
    ["bounds", "upper", "--m", "3", "--n", "4", "--eps", "0.5", "--format", "csv"],
    ["bounds", "cayley", "--m", "3", "--n", "4", "--config", "config.json"],
    ["bounds", "domination", "--m", "3", "--n", "3", "--format", "csv"],
    ["bounds", "check", "theorem.part", "--out", "check.jsonl"],
    ["bounds", "check", "sub.vset", "--format", "csv"],
    ["fn", "tribes", "--s", "2", "--out", "tribes.fn", "--verify", "--verbose"],
    ["fn", "tribes", "--s", "2", "--out", "tribes.fn", "--verify"],
    ["fn", "lifted-tribes", "--m", "3", "--a", "0", "--s", "2", "--out", "lifted.fn",
     "--verify"],
    ["fn", "interpolate", "lifted.fn", "--out", "lifted.poly.json"],
    ["fn", "interpolate", "rational.fn"],
    ["fn", "degree", "lifted.fn", "--verbose"],
    ["fn", "degree", "lifted.fn"],
    ["fn", "sensitivity", "rational.fn", "--out", "rational.sensitivity.json"],
    ["fn", "decompose", "tribes.fn"],
    ["fn", "restrict", "lifted.fn", "--out", "lifted.restrict.json"],
    ["fn", "verify", "rational.fn"],
    ["fn", "sensitivity", "wide.fn", "--out", "wide.sensitivity.json"],
    ["fn", "interpolate", "wide.fn"],
    ["fn", "decompose", "wide.fn", "--out", "wide.decompose.json"],
    ["fn", "restrict", "wide.fn"],
    ["fn", "sensitivity", "huge.fn"],
    ["fn", "degree", "huge.fn"],
    ["fn", "restrict", "huge.fn", "--out", "huge.restrict.json"],
    ["fn", "verify", "huge.fn", "--out", "huge.verify.json"],
    ["fn", "restrict", "rational.fn"],
    ["fn", "interpolate", "stretch.fn"],
    ["fn", "restrict", "stretch.fn", "--out", "stretch.restrict.json"],
    ["fn", "interpolate", "stretch3.fn"],
    ["fn", "restrict", "stretch3.fn", "--out", "stretch3.restrict.json"],
    ["fn", "degree", "sixty.fn"],
    ["fn", "interpolate", "zero.fn", "--out", "zero.poly.json"],
    ["fn", "interpolate", "negative.fn", "--out", "negative.poly.json"],
    ["fn", "restrict", "bigvalue.fn"],
    ["fn", "restrict", "twovalued6.fn", "--out", "twovalued6.restrict.json"],
    ["fn", "restrict", "lastisthree.fn"],
    ["fn", "restrict", "steps.fn", "--out", "steps.restrict.json"],
    ["fn", "restrict", "onevalue.fn", "--out", "onevalue.restrict.json"],
    ["oracle", "sigma", "--m", "2", "--n", "3"],
    ["oracle", "sigma", "--m", "3", "--n", "2", "--format", "records", "--out",
     "sigma.jsonl"],
    ["oracle", "sigma", "--m", "2", "--n", "2", "--out", "sigma.json"],
    ["oracle", "subsets", "--m", "2", "--n", "2", "--k", "3", "--prune", "--out",
     "subsets.json"],
    ["oracle", "subsets", "--m", "2", "--n", "2", "--k", "3", "--format", "csv"],
    # the first optimal 6-subset of K5 x K5 in enumeration order, unpruned and
    # pruned: pins the witness ranks
    ["oracle", "subsets", "--m", "5", "--n", "2", "--k", "6", "--out", "subsets-k6.json"],
    ["oracle", "subsets", "--m", "5", "--n", "2", "--k", "6", "--prune", "--out",
     "subsets-k6-pruned.json"],
    ["oracle", "functions", "--m", "2", "--b", "2", "--n", "2", "--format", "csv"],
    ["oracle", "functions", "--m", "3", "--b", "2", "--n", "2", "--samples", "5",
     "--seed", "3", "--out", "functions.json"],
    ["oracle", "functions", "--m", "2", "--b", "2", "--n", "2", "--config", "config.json"],
    # a Boolean domain, sampled: 1,500 tables of 8 points, more than one packed chunk
    ["oracle", "functions", "--m", "2", "--b", "3", "--n", "3", "--samples", "1500",
     "--seed", "2", "--out", "functions-boolean.json"],
    # every table on 3^2 points: 4,608 labels, more than one packed chunk
    ["oracle", "functions", "--m", "3", "--b", "2", "--n", "2", "--out",
     "functions-chunks.json"],
    ["oracle", "metrics", "base.part", "--verify", "--verbose", "--out",
     "oracle.metrics.json"],
    ["oracle", "metrics", "base.part", "--verify", "--out", "oracle.metrics.json"],
    # part sizes 16, 17, 16, 15: the all-pairs oracle on an imbalanced partition
    ["construct", "theorem1", "--m", "4", "--d", "1", "--n", "3", "--out",
     "imbalanced.part"],
    ["oracle", "metrics", "imbalanced.part", "--verify", "--out", "imbalanced.oracle.json"],
    # the hand-written layouts of INPUTS, one run each
    ["metrics", "compact.part", "--out", "compact.metrics.json"],
    ["metrics", "indent4.part", "--out", "indent4.metrics.json"],
    ["metrics", "dupassignment.part", "--out", "dupassignment.metrics.json"],
    ["metrics", "dupm.part", "--out", "dupm.metrics.json"],
    ["metrics", "bom.part"],
    ["metrics", "leadingzero.part"],
    ["metrics", "twodigit.part", "--out", "twodigit.metrics.json"],
    ["fn", "verify", "compact.fn", "--out", "compact.verify.json"],
    # the hand-written vertex sets of INPUTS, measured and checked
    ["metrics", "dupranks.vset", "--out", "dupranks.metrics.json"],
    ["bounds", "check", "dupranks.vset"],
    ["metrics", "unsorted.vset", "--out", "unsorted.metrics.json"],
    ["bounds", "check", "unsorted.vset", "--format", "csv"],
    ["metrics", "empty.vset", "--out", "empty.metrics.json"],
    ["bounds", "check", "empty.vset"],
    ["metrics", "negative.vset"],
    ["bounds", "check", "negative.vset"],
    ["metrics", "pastend.vset"],
    ["bounds", "check", "pastend.vset"],
    ["metrics", "hugegraph.vset"],
    ["bounds", "check", "hugegraph.vset"],
    ["metrics", "hugerank.vset"],
    ["bounds", "check", "hugerank.vset"],
    ["metrics", "unsorted.vset", "--cap-vertices", "8"],
    ["bounds", "check", "unsorted.vset", "--cap-vertices", "8"],
    ["report", "grid", "--m-range", "3:4", "--n-range", "2", "--d-range", "1:5",
     "--format", "csv"],
    ["report", "grid", "--m-range", "3,5", "--n-range", "3", "--d-range", "1",
     "--cap-vertices", "100", "--out", "grid.jsonl"],
]


def run_case(argv: list[str]) -> dict:
    """Exit status, stdout, stderr and ``--out`` artifact text of one run in
    the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    artifact = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        artifact = path.read_text(encoding="utf-8") if path.exists() else None
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "artifact": artifact}


def run_all() -> list[dict]:
    for name, doc in INPUTS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        Path(name).write_text(text, encoding="utf-8")
    return [run_case(argv) for argv in CASES]


def test_every_subcommand_reproduces_its_transcript(tmp_path, monkeypatch):
    for var in ("HAMLAB_CAP_VERTICES", "HAMLAB_CAP_SUBSETS", "HAMLAB_CAP_FUNCTIONS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == CASES
    for want, got in zip(expected, run_all()):
        assert got == want, want["argv"]


def test_transcripts_cover_every_subcommand_and_exit_status():
    expected = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
    commands = {tuple(case["argv"][:1 if case["argv"][0] == "metrics" else 2])
                for case in expected}
    assert len(commands) == 25
    assert {case["code"] for case in expected} == {0, 1, 2}


def test_wide_slot_inputs_keep_their_slot_widths():
    # so the transcripts of these inputs keep exercising the kernel's wide
    # slot runs
    for name, width in (("sixty.fn", 48), ("stretch3.fn", 16)):
        f = FiniteFunction.from_doc(INPUTS[name])
        assert _scaled_tensor(_scales(f.domain, f.codomain), f.arity, f.values)[1] == width, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_transcripts.py --record")
    for var in ("HAMLAB_CAP_VERTICES", "HAMLAB_CAP_SUBSETS", "HAMLAB_CAP_FUNCTIONS"):
        os.environ.pop(var, None)
    target = TRANSCRIPTS.resolve()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        target.write_text(json.dumps(run_all(), indent=1) + "\n", encoding="utf-8")
