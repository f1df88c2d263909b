"""The benchmark workloads: seeded inputs, the CLI command sequence of one
verification session, and an independent check of every command's output.

A workload's ``build(seed, workdir)`` writes the seeded input files into
``workdir`` and returns the commands in session order.  Each command carries
the artifact paths it reads and writes (relative to ``workdir``, which is the
working directory while the session runs) and a check that raises
``CheckFailed`` when the output is wrong; ``Command.verify`` turns exit codes
and failed checks into a one-line reason.  Checks recompute the expected
values here, from closed forms or by direct counting, rather than trusting
one hamlab command to vouch for another.

This module must not import hamlab: the runner imports it before the
program's source has been located.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Output:
    """What one CLI command produced."""

    code: Optional[int]  # None when main() raised instead of returning
    stdout: str
    workdir: Path

    def doc(self, name: str):
        return json.loads((self.workdir / name).read_text(encoding="utf-8"))

    def records(self, name: str) -> list[dict]:
        text = (self.workdir / name).read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines() if line]

    def number(self, pattern: str) -> int:
        found = re.search(pattern, self.stdout)
        if found is None:
            raise CheckFailed(f"stdout lacks {pattern!r}")
        return int(found.group(1))


class CheckFailed(Exception):
    """An output differs from what the benchmark computed."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Output], None]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()

    def verify(self, out: Output) -> Optional[str]:
        """None when the command exited 0 and its check holds, else why not."""
        if out.code != 0:
            return f"exit code {out.code}"
        try:
            self.check(out)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, LookupError, TypeError, ValueError) as exc:  # missing or malformed output
            return f"{type(exc).__name__}: {exc}"
        return None


# ---------------------------------------------------------------- reference


def theorem1_imbalance(m: int, d: int, n: int) -> int:
    """Imbalance the theorem-1 construction achieves, from the closed form."""
    if d < n:
        return (m - 2 if m % 2 == 0 else m - 1) * m ** (n * (d - 1) // d)
    q = d // n
    return m ** (n - 1) * 2 * (m * q // (q + 1))


def theorem1_paper_bound(m: int, d: int, n: int) -> Fraction:
    if d < n:
        return Fraction(theorem1_imbalance(m, d, n))
    q = d // n
    return Fraction(2 * m ** n * q, q + 1)


def part_sizes(m: int, assignment: list[int]) -> list[int]:
    counts = Counter(assignment)
    return [counts.get(i, 0) for i in range(m)]


def imbalance(m: int, n: int, sizes: list[int]) -> int:
    return sum(abs(s - m ** (n - 1)) for s in sizes)


def grid_sensitivity(values: list[int], m: int, n: int) -> int:
    """Maximum over grid points of the neighbours with a different value."""
    strides = [m ** (n - 1 - j) for j in range(n)]
    best = 0
    for flat, idxs in enumerate(itertools.product(range(m), repeat=n)):
        own = values[flat]
        count = 0
        for j, i in enumerate(idxs):
            start = flat - i * strides[j]
            for t in range(m):
                if values[start + t * strides[j]] != own:
                    count += 1
        best = max(best, count)
    return best


def boolean_degree(values: list[int], n: int) -> int:
    """Degree of a function on {0,1}^n (big-endian table) by Moebius
    inversion; 0 for constants."""
    coeffs = list(values)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        for r in range(len(coeffs)):
            if r & bit:
                coeffs[r] -= coeffs[r ^ bit]
    return max((bin(r).count("1") for r, c in enumerate(coeffs) if c), default=0)


def induced_max_degree(m: int, n: int, ranks: list[int]) -> int:
    words = [_digits(r, m, n) for r in ranks]
    return max(
        sum(1 for v in words if sum(a != b for a, b in zip(u, v)) == 1) for u in words
    )


def _digits(r: int, m: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        r, digit = divmod(r, m)
        out.append(digit)
    return out[::-1]


def evaluate_terms(terms: list[tuple[Fraction, list[int]]], point) -> Fraction:
    total = Fraction(0)
    for coefficient, exponents in terms:
        for x, e in zip(point, exponents):
            if e:
                coefficient *= x ** e
        total += coefficient
    return total


def _rationals(tokens) -> list[Fraction]:
    return [Fraction(t) for t in tokens]


def _point(domain: list[Fraction], n: int, rank: int) -> tuple[Fraction, ...]:
    return tuple(domain[i] for i in _digits(rank, len(domain), n))


# ------------------------------------------------------------------- checks


class Artifacts:
    """Per-session cache of the benchmark's own counts over input artifacts."""

    def __init__(self) -> None:
        self._sizes: dict[str, tuple[int, int, list[int]]] = {}

    def partition(self, out: Output, name: str) -> tuple[int, int, list[int]]:
        """(m, n, part sizes) of a partition file, counted here."""
        if name not in self._sizes:
            doc = out.doc(name)
            m, n = doc["m"], doc["n"]
            expect(len(doc["assignment"]) == m ** n, f"{name}: assignment is not m^n long")
            self._sizes[name] = (m, n, part_sizes(m, doc["assignment"]))
        return self._sizes[name]


def check_theorem1(artifacts: Artifacts, m: int, d: int, n: int, path: str, verified: bool):
    want = theorem1_imbalance(m, d, n)

    def check(out: Output) -> None:
        expect(out.number(r"achieved imbalance: (\d+)") == want, "achieved imbalance")
        if verified:
            expect(out.number(r"measured: max degree (\d+)") <= d, "max degree above d")
            expect(out.number(r"measured: max degree \d+, imbalance (\d+)") == want,
                   "measured imbalance")
        pm, pn, sizes = artifacts.partition(out, path)
        expect((pm, pn) == (m, n), "artifact parameters")
        expect(imbalance(m, n, sizes) == want, "artifact imbalance")

    return check


def check_metrics(artifacts: Artifacts, path: str, out_name: str,
                  d: Optional[int], want: Optional[int]):
    def check(out: Output) -> None:
        m, n, sizes = artifacts.partition(out, path)
        doc = out.doc(out_name)
        expect(doc["partSizes"] == sizes, "part sizes differ from the count")
        expect(doc["imbalance"] == imbalance(m, n, sizes), "imbalance differs from the count")
        if want is not None:
            expect(doc["imbalance"] == want, "imbalance differs from the closed form")
        cap = d if d is not None else (m - 1) * n
        expect(0 <= doc["maxDegree"] <= cap, f"max degree {doc['maxDegree']} above {cap}")

    return check


def check_bounds(artifacts: Artifacts, path: str, out_name: str):
    def check(out: Output) -> None:
        m, n, _ = artifacts.partition(out, path)
        rows = out.records(out_name)
        expect(any(r["bound"] == "partition-total" and r["measured"] == m ** n
                   and r["verdict"] == "PASS" for r in rows), "partition-total row")
        expect(all(r["verdict"] in ("PASS", "NA") for r in rows), "a bound row failed")

    return check


def check_interpolation(fn_name: str, poly_name: str, samples: list[int]):
    """The polynomial, evaluated exactly at seeded points, equals the table."""

    def check(out: Output) -> None:
        f = out.doc(fn_name)
        terms = [(Fraction(t["coefficient"]), t["exponents"]) for t in out.doc(poly_name)]
        domain, codomain, n = _rationals(f["A"]), _rationals(f["B"]), f["n"]
        degree = max((sum(exponents) for _, exponents in terms), default=0)
        expect(out.number(r"degree (\d+), \d+ terms") == degree, "printed degree")
        expect(out.number(r"degree \d+, (\d+) terms") == len(terms), "printed term count")
        for rank in samples:
            point = _point(domain, n, rank)
            expect(evaluate_terms(terms, point) == codomain[f["values"][rank]],
                   f"polynomial differs from the table at rank {rank}")

    return check


def check_sensitivity_report(fn_name: str, poly_name: str, report_name: str):
    def check(out: Output) -> None:
        f = out.doc(fn_name)
        m, n = len(f["A"]), f["n"]
        degree = max(sum(t["exponents"]) for t in out.doc(poly_name))
        doc = out.doc(report_name)
        s = grid_sensitivity(f["values"], m, n)
        expect(doc["sensitivity"] == s, "sensitivity differs from the count")
        expect(doc["degree"] == degree, "degree differs from the interpolation")
        expect(doc["holds"] is (s * s * (m - 1) >= degree), "verdict")

    return check


def check_restriction(fn_name: str, witness_name: str):
    """The Boolean function is f restricted to the retained pairs, and it
    keeps the degree and sensitivity the certificate claims."""

    def check(out: Output) -> None:
        f = out.doc(fn_name)
        domain, codomain, n = _rationals(f["A"]), _rationals(f["B"]), f["n"]
        m = len(domain)
        doc = out.doc(witness_name)
        pairs = [_rationals(p) for p in doc["pairs"]]
        range_value = Fraction(doc["rangeValue"])
        expect(len(pairs) == n, "one pair per coordinate")
        for a, b in pairs:
            expect(domain.index(a) < domain.index(b), f"pair {a}, {b} out of domain order")
        index_of = {v: i for i, v in enumerate(domain)}
        table = []
        for bits in itertools.product((0, 1), repeat=n):
            rank = 0
            for j, bit in enumerate(bits):
                rank = rank * m + index_of[pairs[j][bit]]
            table.append(1 if codomain[f["values"][rank]] == range_value else 0)
        g = doc["g"]
        expect(g["values"] == table, "g is not the restriction of f")
        g_degree = boolean_degree(table, n)
        g_sensitivity = grid_sensitivity(table, 2, n)
        expect(doc["degree"] == g_degree, "restricted degree differs from the count")
        expect(doc["sensitivity"] == g_sensitivity, "restricted sensitivity differs")
        target = doc["targetSupport"]
        expect(1 <= target <= g_degree, "degree below the target support")
        expect(g_sensitivity ** 2 >= target, "Boolean sensitivity bound")
        expect(g_sensitivity <= grid_sensitivity(f["values"], m, n), "s(g) above s(f)")

    return check


def check_doc(name: str, **want):
    def check(out: Output) -> None:
        doc = out.doc(name)
        for key, value in want.items():
            expect(doc[key] == value, f"{key} is {doc[key]!r}, expected {value!r}")

    return check


# ---------------------------------------------------------------- workloads

THEOREM1_LARGE = ((3, 2, 11), (5, 3, 7), (4, 9, 8))


def _write(workdir: Path, name: str, doc) -> None:
    (workdir / name).write_text(json.dumps(doc), encoding="utf-8")


def build_partition_large(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"partition-large/{seed}")
    _write(workdir, "random.part",
           {"m": 4, "n": 8, "assignment": [rng.randrange(4) for _ in range(4 ** 8)]})
    art = Artifacts()
    cmds = []
    for m, d, n in THEOREM1_LARGE:
        path = f"theorem1-{m}-{d}-{n}.part"
        cmds.append(Command(
            ["construct", "theorem1", "--m", str(m), "--d", str(d), "--n", str(n),
             "--verify", "--out", path],
            check_theorem1(art, m, d, n, path, verified=True), writes=(path,)))
    big, want = "theorem1-3-2-11.part", theorem1_imbalance(3, 2, 11)
    cmds += [
        Command(["metrics", big, "--out", "big.metrics.json"],
                check_metrics(art, big, "big.metrics.json", 2, want),
                (big,), ("big.metrics.json",)),
        Command(["bounds", "check", big, "--out", "big.bounds.jsonl"],
                check_bounds(art, big, "big.bounds.jsonl"), (big,), ("big.bounds.jsonl",)),
    ]
    subgraph_size = 3 ** 10 + 3 ** 5

    def check_subgraph(out: Output) -> None:
        expect(out.number(r"subgraph size: (\d+)") == subgraph_size, "subgraph size")
        expect(out.number(r"measured max degree: (\d+)") <= 2, "subgraph degree above 2")
        ranks = out.doc("subgraph.vset")["ranks"]
        expect(len(set(ranks)) == subgraph_size and 0 <= min(ranks)
               and max(ranks) < 3 ** 11, "vertex-set artifact")

    def check_subgraph_metrics(out: Output) -> None:
        doc = out.doc("subgraph.metrics.json")
        expect(doc["size"] == subgraph_size, "size")
        expect(doc["maxDegree"] <= 2, "max degree above 2")

    cmds += [
        Command(["construct", "subgraph", "--m", "3", "--n", "11", "--d", "2", "--verify",
                 "--out", "subgraph.vset"], check_subgraph, writes=("subgraph.vset",)),
        Command(["metrics", "subgraph.vset", "--out", "subgraph.metrics.json"],
                check_subgraph_metrics, ("subgraph.vset",), ("subgraph.metrics.json",)),
        Command(["metrics", "random.part", "--out", "random.metrics.json"],
                check_metrics(art, "random.part", "random.metrics.json", None, None),
                ("random.part",), ("random.metrics.json",)),
        Command(["bounds", "check", "random.part", "--out", "random.bounds.jsonl"],
                check_bounds(art, "random.part", "random.bounds.jsonl"),
                ("random.part",), ("random.bounds.jsonl",)),
    ]
    return cmds


def build_function_certify(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"function-certify/{seed}")
    _write(workdir, "random4.fn", {"A": [0, 1, 2, 3], "B": [0, 1, 2], "n": 6,
                                  "values": [rng.randrange(3) for _ in range(4 ** 6)]})
    _write(workdir, "rational.fn", {"A": [0, "1/2", -3, "7/5", 2], "B": [0, 1], "n": 5,
                                   "values": [rng.randrange(2) for _ in range(5 ** 5)]})
    tribes_samples = sorted(rng.sample(range(3 ** 9), 8))
    random_samples = sorted(rng.sample(range(4 ** 6), 8))

    def check_tribes(out: Output) -> None:
        expect(out.number(r"degree (\d+) \(expected") == 18, "lifted tribes degree")
        expect(out.number(r"sensitivity (\d+) \(expected") == 6, "lifted tribes sensitivity")
        f = out.doc("tribes.fn")
        expect(f["n"] == 9 and len(f["values"]) == 3 ** 9, "lifted tribes table size")

    return [
        Command(["fn", "lifted-tribes", "--m", "3", "--a", "0", "--s", "3", "--verify",
                 "--out", "tribes.fn"], check_tribes, writes=("tribes.fn",)),
        Command(["fn", "interpolate", "tribes.fn", "--out", "tribes.poly.json"],
                check_interpolation("tribes.fn", "tribes.poly.json", tribes_samples),
                ("tribes.fn",), ("tribes.poly.json",)),
        Command(["fn", "interpolate", "random4.fn", "--out", "random4.poly.json"],
                check_interpolation("random4.fn", "random4.poly.json", random_samples),
                ("random4.fn",), ("random4.poly.json",)),
        Command(["fn", "verify", "random4.fn", "--out", "random4.verify.json"],
                check_sensitivity_report("random4.fn", "random4.poly.json",
                                         "random4.verify.json"),
                ("random4.fn",), ("random4.verify.json",)),
        Command(["fn", "restrict", "random4.fn", "--out", "random4.restrict.json"],
                check_restriction("random4.fn", "random4.restrict.json"),
                ("random4.fn",), ("random4.restrict.json",)),
        Command(["fn", "restrict", "rational.fn", "--out", "rational.restrict.json"],
                check_restriction("rational.fn", "rational.restrict.json"),
                ("rational.fn",), ("rational.restrict.json",)),
    ]


GRID = (range(3, 6), range(2, 5), range(1, 5))


def check_grid(out: Output) -> None:
    with open(out.workdir / "grid.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    cells = [(m, n, d) for m in GRID[0] for n in GRID[1] for d in GRID[2]]
    expect([(int(r["m"]), int(r["n"]), int(r["d"])) for r in rows] == cells, "grid cells")
    for r in rows:
        m, n, d = int(r["m"]), int(r["n"]), int(r["d"])
        want = theorem1_imbalance(m, d, n)
        expect(r["verdict"] != "FAIL", f"FAIL row at m={m} n={n} d={d}")
        expect(int(r["achieved_imbalance"]) == want == int(r["measured_imbalance"]),
               f"imbalance at m={m} n={n} d={d}")
        expect(int(r["measured_max_degree"]) <= d, f"max degree at m={m} n={n} d={d}")
        verdict = "PASS" if want >= theorem1_paper_bound(m, d, n) else "FLAG"
        expect(r["verdict"] == verdict, f"verdict at m={m} n={n} d={d}")


def build_desk_sweep(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"desk-sweep/{seed}")
    # the all-pairs oracle is quadratic: keep its partition at 4^5 = 1,024 vertices
    m, n, d = 4, 5, rng.randint(1, 4)
    art = Artifacts()

    def check_subsets(out: Output) -> None:
        doc = out.doc("subsets.json")
        expect(doc["minMaxDegree"] == 1, "subset minimum")
        ranks = doc["witness"]["ranks"]
        expect(len(set(ranks)) == 6, "witness size")
        expect(induced_max_degree(5, 2, ranks) == 1, "witness degree differs from the count")

    def check_oracle_metrics(out: Output) -> None:
        expect("fast path agrees with the oracle" in out.stdout, "oracle disagreement")
        check_metrics(art, "small.part", "small.oracle.json", d,
                      theorem1_imbalance(m, d, n))(out)

    cmds = [Command(["report", "grid", "--m-range", "3:5", "--n-range", "2:4",
                     "--d-range", "1:4", "--format", "csv", "--out", "grid.csv"],
                    check_grid, writes=("grid.csv",))]
    for fm, fb, fn, samples in ((3, 2, 2, None), (2, 3, 2, None), (3, 3, 2, 500)):
        name = f"functions-{fm}-{fb}-{fn}.json"
        argv = ["oracle", "functions", "--m", str(fm), "--b", str(fb), "--n", str(fn)]
        if samples is not None:
            argv += ["--samples", str(samples), "--seed", str(seed)]
        count = samples if samples is not None else fb ** (fm ** fn)
        cmds.append(Command(argv + ["--out", name],
                            check_doc(name, functionsChecked=count, violations=0),
                            writes=(name,)))
    for sm, sn, sigma in ((2, 4, 2), (4, 2, 1)):
        name = f"sigma-{sm}-{sn}.json"
        cmds.append(Command(["oracle", "sigma", "--m", str(sm), "--n", str(sn), "--out", name],
                            check_doc(name, sigma=sigma), writes=(name,)))
    cmds += [
        Command(["oracle", "subsets", "--m", "5", "--n", "2", "--k", "6",
                 "--out", "subsets.json"], check_subsets, writes=("subsets.json",)),
        Command(["construct", "theorem1", "--m", str(m), "--d", str(d), "--n", str(n),
                 "--out", "small.part"],
                check_theorem1(art, m, d, n, "small.part", verified=False),
                writes=("small.part",)),
        Command(["oracle", "metrics", "small.part", "--verify", "--out", "small.oracle.json"],
                check_oracle_metrics, ("small.part",), ("small.oracle.json",)),
    ]
    return cmds


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "partition-large": build_partition_large,
    "function-certify": build_function_certify,
    "desk-sweep": build_desk_sweep,
}
