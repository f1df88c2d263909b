"""Command-line surface: constructions, metrics, bound evaluation, function
analysis, and brute-force oracles, wired into reproducible file-backed runs.

Exit status 0 on success, 1 on usage or input problems, 2 when a checked
mathematical claim fails to hold.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import bounds as bounds_mod
from . import functions as fn_mod
from . import oracle as oracle_mod
from . import partitions as part_mod
from .encoding import (
    int_token,
    labelled_doc,
    rational_from_token,
    rational_to_token,
    value_token,
    write_csv,
    write_json,
    write_records,
    write_terms,
    write_vertex_set,
)
from .errors import (
    DEFAULT_FUNCTION_CAP,
    DEFAULT_ORACLE_METRICS_CAP,
    DEFAULT_ORACLE_VERTEX_CAP,
    DEFAULT_SUBSET_CAP,
    DEFAULT_VERTEX_CAP,
    BoundNotApplicableError,
    ContractViolationError,
    InvalidInputError,
    ResourceLimitError,
    SearchBudget,
    item_count,
    power_exceeds,
)
from .graph import VertexSet, induced_max_degree

ENV_CAP_VERTICES = "HAMLAB_CAP_VERTICES"
ENV_CAP_SUBSETS = "HAMLAB_CAP_SUBSETS"
ENV_CAP_FUNCTIONS = "HAMLAB_CAP_FUNCTIONS"

FORMATS = ("records", "csv")

GRID_FIELDS = (
    "m", "n", "d", "paper_bound", "achieved_imbalance",
    "measured_imbalance", "measured_max_degree", "verdict",
)


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # every parser, subparsers too: no abbreviated options
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # route usage problems to exit status 1
        raise UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return rational_from_token(text)
    except InvalidInputError as exc:
        raise UsageError(str(exc))


def _int_range(text: str) -> Sequence[int]:
    """Parse "3", "3:5" (inclusive, possibly empty, and kept as a lazy
    range), or "3,4,6"."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return range(int(lo), int(hi) + 1)
        if "," in text:
            return [int(p) for p in text.split(",") if p.strip()]
        return [int(text)]
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}")


def _message(exc: ValueError) -> str:
    """The error's text, with Python's advice on the int/str digit limit
    replaced by the setting a command-line user can change."""
    return str(exc).replace("use sys.set_int_max_str_digits()",
                            "set the PYTHONINTMAXSTRDIGITS environment variable")


def _load_json(path: str, labels: Optional[str] = None):
    """The JSON document in the file at ``path``, read once: by
    ``labelled_doc`` with the array under the key ``labels``, else decoded
    as a text-mode ``open`` decodes it and parsed by ``json.loads``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        doc = labelled_doc(raw, labels) if labels else None
        if doc is None:
            doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
        return doc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:  # text that is not UTF-8, or an integer past the digit limit
        raise UsageError(f"cannot read {path}: {_message(exc)}")
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply")


def _write_json(doc, path: Optional[str], write=write_json) -> None:
    try:
        write(doc, sys.stdout if path is None else path)
    except ValueError as exc:  # an integer past the int/str digit limit
        raise UsageError(f"cannot write the result: {_message(exc)}")


def _emit_rows(
    rows: Iterable[dict], fieldnames: Sequence[str], fmt: str, path: Optional[str]
) -> None:
    """Write each row as it is produced, to stdout or to the file at ``path``."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as stream:
        if fmt == "csv":
            write_csv(rows, fieldnames, stream)
        else:
            write_records(rows, stream)


def _env_default(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name}={raw!r} is not an integer")


def _config_int(config: dict, key: str) -> int:
    try:
        return int_token(config[key])
    except InvalidInputError:
        raise UsageError(f"config key {key} = {config[key]!r} is not an integer")


def _resolve_caps(args) -> dict:
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise UsageError(f"config {args.config} is not a JSON object")

    def pick(flag_value, config_key, env_name, fallback):
        if flag_value is not None:
            return flag_value
        if config_key in config:
            return _config_int(config, config_key)
        return _env_default(env_name, fallback)

    caps = {
        "vertices": pick(args.cap_vertices, "capVertices", ENV_CAP_VERTICES,
                         _VERTEX_CAPS[args.command, args.subcommand]),
        "subsets": pick(getattr(args, "cap_subsets", None), "capSubsets",
                        ENV_CAP_SUBSETS, DEFAULT_SUBSET_CAP),
        "functions": pick(getattr(args, "cap_functions", None), "capFunctions",
                          ENV_CAP_FUNCTIONS, DEFAULT_FUNCTION_CAP),
    }
    if getattr(args, "seed", None) is None and "seed" in config:
        args.seed = _config_int(config, "seed")
    if getattr(args, "format", None) is None:
        args.format = config.get("format")
        if args.format not in (None, *FORMATS):
            raise UsageError(f"config key format = {args.format!r} is not one of {FORMATS}")
    for name, value in caps.items():
        if value <= 0:
            raise UsageError(f"cap {name} must be positive, got {value}")
    return caps


def _print_header(args, caps) -> None:
    skip = {
        "command", "subcommand", "out", "config", "format", "verify",
        "verbose", "cap_vertices", "cap_subsets", "cap_functions", "seed",
    }
    shown = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, range):  # in the flag's own inclusive syntax
            value = f"{value.start}:{value.stop - 1}"
        shown.append(f"{key.replace('_', '-')}={value}")
    name = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    print(f"# hamlab {name}")
    if shown:
        print("# params: " + " ".join(shown))
    print(
        f"# caps: vertices={caps['vertices']} subsets={caps['subsets']} "
        f"functions={caps['functions']}"
    )
    print(f"# seed: {args.seed if getattr(args, 'seed', None) is not None else 'none'}")


def _load_partition(path: str, cap: int) -> part_mod.Partition:
    """The partition file at ``path``, checked against the vertex ``cap``."""
    return part_mod.Partition.from_doc(_load_json(path, "assignment"), cap)


def _load_function(path: str, cap: int) -> fn_mod.FiniteFunction:
    """The function file at ``path``, checked against the vertex ``cap``."""
    return fn_mod.FiniteFunction.from_doc(_load_json(path, "values"), cap)


def _load_measured(path: str, cap: int):
    """A partition or a vertex-set file, told apart by its keys, its graph
    checked against the vertex ``cap`` as it loads."""
    doc = _load_json(path, "assignment")
    if isinstance(doc, dict) and "assignment" in doc:
        return part_mod.Partition.from_doc(doc, cap)
    if isinstance(doc, dict) and "ranks" in doc:
        return VertexSet.from_doc(doc, cap)
    raise UsageError(f"{path} is neither a partition nor a vertex-set document")


# ---------------------------------------------------------------- construct

def _cmd_construct(args, caps) -> int:
    cap = caps["vertices"]
    base = None
    if args.subcommand == "degree1":
        partition = part_mod.degree_one_partition(args.m, args.n, cap=cap)
    elif args.subcommand == "complete":
        partition = part_mod.complete_graph_partition(args.m, args.d, cap=cap)
    elif args.subcommand == "lift":
        base = _load_partition(args.base, cap)
        partition = part_mod.lift_partition(base, args.n, degree_cap=args.d, cap=cap)
    elif args.subcommand == "theorem1":
        partition = part_mod.theorem_partition(args.m, args.d, args.n, cap=cap)
        print(f"achieved imbalance: {_promise(args, partition, base)[1]}")
    else:  # subgraph
        vset = part_mod.low_degree_subgraph(args.m, args.n, args.d, cap=cap)
        print(f"subgraph size: {vset.size}")
        if args.verify:
            measured = induced_max_degree(vset)
            print(f"measured max degree: {measured}")
            if measured > args.d:
                raise VerificationFailure(
                    f"subgraph degree {measured} exceeds the requested cap {args.d}"
                )
        _write_json(vset.members, args.out,
                    functools.partial(write_vertex_set, vset.params.m, vset.params.n))
        return 0

    if args.verify or args.verbose:
        metrics = part_mod.partition_metrics(partition)
        print(
            f"measured: max degree {metrics.max_degree}, imbalance {metrics.imbalance}"
        )
        if args.verbose:
            print(f"part sizes: {list(metrics.part_sizes)}")
        if args.verify:
            degree_cap, expected = _promise(args, partition, base)
            if metrics.max_degree > degree_cap or metrics.imbalance != expected:
                raise VerificationFailure(
                    f"{args.subcommand} construction measured (delta={metrics.max_degree}, "
                    f"iota={metrics.imbalance}), expected (<= {degree_cap}, {expected})"
                )
    _write_json(partition.to_doc(), args.out)
    return 0


def _promise(args, partition, base) -> tuple[int, int]:
    """The degree cap and the imbalance a construct subcommand promises."""
    m, n = partition.params.m, partition.params.n
    if args.subcommand == "degree1":
        return 1, bounds_mod.degree_one_imbalance(m, n)
    if args.subcommand == "complete":
        return args.d, bounds_mod.complete_graph_imbalance(m, args.d)
    if args.subcommand == "lift":
        base_imbalance = part_mod.partition_metrics(base).imbalance
        return args.d, bounds_mod.lift_imbalance(m, base.params.n, n, base_imbalance)
    return args.d, bounds_mod.theorem_imbalance_bound(m, args.d, n)[1]


# ------------------------------------------------------------------ metrics

def _cmd_metrics(args, caps) -> int:
    loaded = _load_measured(args.path, caps["vertices"])
    if isinstance(loaded, part_mod.Partition):
        metrics = part_mod.partition_metrics(loaded)
        print(
            f"max degree {metrics.max_degree}, imbalance {metrics.imbalance}, "
            f"part sizes {list(metrics.part_sizes)}"
        )
        if args.verbose and metrics.witness is not None:
            print(f"degree witness: {list(metrics.witness)}")
        _write_json(metrics.to_doc(), args.out)
    else:
        measured = induced_max_degree(loaded)
        print(f"size {loaded.size}, max degree {measured}")
        _write_json({"size": loaded.size, "maxDegree": measured}, args.out)
    return 0


# ------------------------------------------------------------------- bounds

def _cmd_bounds(args, caps) -> int:
    cap = caps["vertices"]
    if args.subcommand == "check":
        loaded = _load_measured(args.path, cap)
        m, n = loaded.params.m, loaded.params.n
        if isinstance(loaded, part_mod.Partition):
            metrics = part_mod.partition_metrics(loaded)
            reports = bounds_mod.check_partition(m, n, metrics.part_sizes, metrics.max_degree)
        else:
            max_degree = induced_max_degree(loaded)
            reports = bounds_mod.check_subgraph(m, n, loaded.size, max_degree)
        return _emit_bound_reports(args, reports)

    m, n = args.m, args.n
    # the closed forms compute m^n; their own checks reject m < 2 and n < 1
    if m > 1 and n > 0 and power_exceeds(m, n, cap):
        raise ResourceLimitError(
            f"the graph on {m}^{n} vertices exceeds the configured cap of {cap}"
        )
    if args.subcommand == "theorem1":
        paper, achieved = bounds_mod.theorem_imbalance_bound(m, args.d, n)
        values = [("theorem1-paper", f"d={args.d}", paper),
                  ("theorem1-construction", f"d={args.d}", achieved)]
    elif args.subcommand == "markov":
        values = [("markov", f"size={args.k}",
                   bounds_mod.markov_degree_lower_bound(m, n, args.k))]
    elif args.subcommand == "upper":
        values = [("construction-upper", f"eps={args.eps}",
                   bounds_mod.construction_degree_upper_bound(m, n, args.eps))]
    elif args.subcommand == "cayley":
        values = [("cayley", "half", bounds_mod.cayley_degree_bound(m, n))]
    else:  # domination
        threshold, implied = bounds_mod.domination_threshold(m, n)
        values = [("domination-threshold", "full-degree", threshold),
                  ("domination-degree", "full-degree", implied)]
    reports = [bounds_mod.BoundsReport(name, m, n, label, value) for name, label, value in values]
    return _emit_bound_reports(args, reports)


def _emit_bound_reports(args, reports: list[bounds_mod.BoundsReport]) -> int:
    rows = [r.to_record() for r in reports]
    _emit_rows(rows, bounds_mod.REPORT_FIELDS, args.format or "records", args.out)
    if any(r.satisfied is False for r in reports):
        raise VerificationFailure("a measured quantity violates a proven bound")
    return 0


# ----------------------------------------------------------------- functions

def _cmd_fn(args, caps) -> int:
    cap = caps["vertices"]
    if args.subcommand in ("tribes", "lifted-tribes"):
        if args.subcommand == "tribes":
            f = fn_mod.tribes(args.s, cap=cap)
        else:
            f = fn_mod.lifted_tribes(range(args.m), args.a, args.s, cap=cap)
        _write_json(f.to_doc(), args.out)
        if not args.verify:
            return 0
        m = len(f.domain)
        expected_degree, expected_sensitivity = bounds_mod.tribes_degree_sensitivity(m, args.s)
        measured_degree = fn_mod.degree(f)
        measured_sensitivity, _ = fn_mod.sensitivity(f)
        ok = (measured_degree, measured_sensitivity) == (expected_degree, expected_sensitivity)
        print(
            f"degree {measured_degree} (expected {expected_degree}), "
            f"sensitivity {measured_sensitivity} (expected {expected_sensitivity}), "
            f"bound {bounds_mod.sensitivity_floor(m, measured_degree):g}, "
            f"verdict {'PASS' if ok else 'FAIL'}"
        )
        if not ok:
            raise VerificationFailure("tribes construction missed its guaranteed values")
        return 0

    f = _load_function(args.path, cap)
    if args.subcommand == "interpolate":
        degree, count, terms = fn_mod.interpolant_terms(f)
        print(f"degree {degree}, {count} terms")
        _write_json(terms, args.out, functools.partial(write_terms, f.arity))
    elif args.subcommand == "degree":
        value = fn_mod.degree(f)
        print(f"degree {value}")
        _write_json({"degree": value}, args.out)
    elif args.subcommand == "sensitivity":
        value, witness = fn_mod.sensitivity(f)
        print(f"sensitivity {value} at {tuple(map(str, witness))}")
        _write_json(
            {"sensitivity": value, "witness": [rational_to_token(x) for x in witness]},
            args.out,
        )
    elif args.subcommand == "decompose":
        components = fn_mod.indicator_decomposition(f, cap=cap)
        doc = [
            {"value": rational_to_token(f.codomain[i]), "indicator": comp.to_doc()}
            for i, comp in enumerate(components)
        ]
        print(f"{len(components)} indicator components")
        _write_json(doc, args.out)
    elif args.subcommand == "restrict":
        witness = fn_mod.boolean_restriction_witness(f)
        f_sensitivity, _ = fn_mod.sensitivity(f)
        g_degree, g_sensitivity, holds = witness.check(f_sensitivity)
        doc = witness.to_doc()
        doc["degree"] = g_degree
        doc["sensitivity"] = g_sensitivity
        print(
            f"target support {witness.target_support}, restricted degree {g_degree}, "
            f"restricted sensitivity {g_sensitivity}"
        )
        _write_json(doc, args.out)
        if not holds:
            raise VerificationFailure("restriction certificate failed its guarantees")
    else:  # verify
        report = fn_mod.verify_sensitivity_bound(f)
        verdict = "PASS" if report.holds else "FAIL"
        print(
            f"sensitivity {report.sensitivity}, degree {report.degree}, "
            f"verdict {verdict}"
        )
        _write_json(report.to_doc(), args.out)
        if not report.holds:
            raise VerificationFailure("sensitivity bound violated")
    return 0


# ------------------------------------------------------------------- oracle

def _emit_oracle(args, report: bounds_mod.BoundsReport, doc: dict) -> None:
    """One report row when a format is chosen, else the JSON artifact (only
    with ``--out``)."""
    if args.format:
        _emit_rows([report.to_record()], bounds_mod.REPORT_FIELDS, args.format, args.out)
    elif args.out:
        _write_json(doc, args.out)


def _cmd_oracle(args, caps) -> int:
    # imported here so that no other command loads the search
    from . import search

    budget = SearchBudget(
        max_vertices=caps["vertices"],
        max_subsets=caps["subsets"],
        max_functions=caps["functions"],
    )
    if args.subcommand == "sigma":
        value = search.sigma(args.m, args.n, budget=budget)
        print(f"sigma = {value}")
        report = bounds_mod.sigma_report(args.m, args.n, value)
        _emit_oracle(args, report, {"m": args.m, "n": args.n, "sigma": value})
        if report.satisfied is False:
            raise VerificationFailure(f"measured sigma {value} != closed form {report.value}")
        return 0
    if args.subcommand == "subsets":
        value, witness = search.min_max_degree_subsets(
            args.m, args.n, args.k, budget=budget, fix_first_vertex=args.prune
        )
        print(f"min max degree over size-{args.k} subsets = {value}")
        report = bounds_mod.BoundsReport("min-max-degree", args.m, args.n, f"k={args.k}", value)
        _emit_oracle(args, report, {"m": args.m, "n": args.n, "k": args.k,
                                    "minMaxDegree": value, "witness": witness.to_doc()})
        return 0
    if args.subcommand == "functions":
        report = oracle_mod.exhaustive_function_check(
            range(args.m), args.n, range(args.b), budget=budget,
            samples=args.samples, seed=args.seed,
        )
        print(
            f"checked {report.functions_checked} functions, "
            f"{report.violations} violations, min ratio "
            f"{report.min_ratio if report.min_ratio is not None else 'n/a'}"
        )
        row = bounds_mod.BoundsReport(
            "sensitivity-theorem", args.m, args.n,
            f"functions={report.functions_checked}",
            report.min_ratio if report.min_ratio is not None else 0,
            report.violations, report.violations == 0,
        )
        _emit_oracle(args, row, report.to_doc())
        if report.violations:
            raise VerificationFailure(f"{report.violations} functions violated a bound")
        return 0
    # metrics
    partition = _load_partition(args.path, caps["vertices"])
    metrics = oracle_mod.brute_force_metrics(partition, cap=caps["vertices"])
    print(
        f"max degree {metrics.max_degree}, imbalance {metrics.imbalance}, "
        f"part sizes {list(metrics.part_sizes)}"
    )
    if args.out:
        _write_json(metrics.to_doc(), args.out)
    if args.verify:
        fast = part_mod.partition_metrics(partition)
        if fast != metrics:
            raise VerificationFailure("fast-path metrics disagree with the brute-force oracle")
        print("fast path agrees with the oracle")
    return 0


# ------------------------------------------------------------------- report

def _check_grid_size(args, cap: int) -> None:
    """Reject a sweep of more cells than the vertex cap before anything
    lists its ranges."""
    cells = 1
    for values in (args.m_range, args.n_range, args.d_range):
        cells *= item_count(values)
    if cells > cap:
        raise ResourceLimitError(
            f"sweeping {cells} grid cells exceeds the configured cap of {cap}"
        )


def _cmd_report(args, caps) -> int:
    cap = caps["vertices"]
    ranges = (args.m_range, args.n_range, args.d_range)
    # before any cell, so no cap check sees such an m and no row precedes the
    # error; a colon range ascends, so its first value is its least
    for name, values, least in zip("mnd", ranges, (3, 1, 1)):
        for value in values[:1] if isinstance(values, range) else values:
            if value < least:
                raise InvalidInputError(f"need {name} >= {least}, got {value}")
    any_fail = False

    def rows():  # one cell at a time, so no list of every row is held
        nonlocal any_fail
        if not all(ranges):  # no cells: walk no range
            return
        for m, n, d in ((m, n, d) for m in args.m_range for n in args.n_range
                        for d in args.d_range):
            if power_exceeds(m, n, cap):
                yield {"m": m, "n": n, "d": d, **dict.fromkeys(GRID_FIELDS[3:-1]),
                       "verdict": "SKIPPED"}
                continue
            paper, achieved = bounds_mod.theorem_imbalance_bound(m, d, n)
            partition = part_mod.theorem_partition(m, d, n, cap=cap)
            metrics = part_mod.partition_metrics(partition)
            if metrics.max_degree > d or metrics.imbalance != achieved:
                verdict = "FAIL"
            elif Fraction(achieved) >= paper:
                verdict = "PASS"
            else:
                verdict = "FLAG" if d >= n else "FAIL"
            any_fail = any_fail or verdict == "FAIL"
            yield {
                "m": m, "n": n, "d": d, "paper_bound": value_token(paper),
                "achieved_imbalance": achieved, "measured_imbalance": metrics.imbalance,
                "measured_max_degree": metrics.max_degree, "verdict": verdict,
            }

    _emit_rows(rows(), GRID_FIELDS, args.format or "records", args.out)
    if any_fail:
        raise VerificationFailure("a grid cell failed its construction guarantee")
    return 0


# -------------------------------------------------------------------- parser

# arguments beyond the required integer flags
_PATH = ("path", {})
_BASE = ("--base", {"required": True, "help": "base partition file"})
_EPS = ("--eps", {"type": _rational, "required": True})
_PRUNE = ("--prune", {"action": "store_true",
                      "help": "fix vertex 0 in every subset (vertex-transitive pruning)"})
_SAMPLES = ("--samples", {"type": int, "default": None})
_RANGES = tuple((f"--{axis}-range", {"type": _int_range, "required": True}) for axis in "mnd")
_FLAG_HELP = {"m": "alphabet size (domain 0..m-1)", "b": "range size (outputs 0..b-1)"}

# the options a row may declare; every row takes --cap-vertices, --config
# and --out
_OPTIONS = {
    "cap-subsets": {"type": int},
    "cap-functions": {"type": int},
    "seed": {"type": int},
    "verbose": {"action": "store_true", "help": "print extra detail lines"},
    "format": {"choices": FORMATS},
    "verify": {"action": "store_true"},
}

# command, subcommand (None for a command without one), its required integer
# flags, its other arguments, the options of _OPTIONS it reads, and its
# default vertex cap
_SUBCOMMANDS = (
    ("construct", "degree1", "m n", (), "verbose verify", DEFAULT_VERTEX_CAP),
    ("construct", "complete", "m d", (), "verbose verify", DEFAULT_VERTEX_CAP),
    ("construct", "lift", "n d", (_BASE,), "verbose verify", DEFAULT_VERTEX_CAP),
    ("construct", "theorem1", "m d n", (), "verbose verify", DEFAULT_VERTEX_CAP),
    ("construct", "subgraph", "m n d", (), "verify", DEFAULT_VERTEX_CAP),
    ("metrics", None, "", (_PATH,), "verbose", DEFAULT_VERTEX_CAP),
    ("bounds", "theorem1", "m d n", (), "format", DEFAULT_VERTEX_CAP),
    ("bounds", "markov", "m n k", (), "format", DEFAULT_VERTEX_CAP),
    ("bounds", "upper", "m n", (_EPS,), "format", DEFAULT_VERTEX_CAP),
    ("bounds", "cayley", "m n", (), "format", DEFAULT_VERTEX_CAP),
    ("bounds", "domination", "m n", (), "format", DEFAULT_VERTEX_CAP),
    ("bounds", "check", "", (_PATH,), "format", DEFAULT_VERTEX_CAP),
    *(("fn", name, "", (_PATH,), "", DEFAULT_VERTEX_CAP)
      for name in ("interpolate", "degree", "sensitivity", "decompose", "restrict", "verify")),
    ("fn", "tribes", "s", (), "verify", DEFAULT_VERTEX_CAP),
    ("fn", "lifted-tribes", "m a s", (), "verify", DEFAULT_VERTEX_CAP),
    ("oracle", "sigma", "m n", (), "cap-subsets format", DEFAULT_ORACLE_VERTEX_CAP),
    ("oracle", "subsets", "m n k", (_PRUNE,), "cap-subsets format", DEFAULT_ORACLE_VERTEX_CAP),
    ("oracle", "functions", "m b n", (_SAMPLES,), "cap-functions seed format",
     DEFAULT_ORACLE_VERTEX_CAP),
    ("oracle", "metrics", "", (_PATH,), "verify", DEFAULT_ORACLE_METRICS_CAP),
    ("report", "grid", "", _RANGES, "format", DEFAULT_VERTEX_CAP),
)

_COMMANDS = {
    "construct": (_cmd_construct, "build partitions and subgraphs"),
    "metrics": (_cmd_metrics, "measure a partition or vertex-set file"),
    "bounds": (_cmd_bounds, "evaluate bound formulas"),
    "fn": (_cmd_fn, "analyze functions on finite grids"),
    "oracle": (_cmd_oracle, "brute-force ground truth"),
    "report": (_cmd_report, "sweep the construction grid"),
}


def _add_common(parser, options: str) -> None:
    parser.add_argument("--cap-vertices", type=int)
    parser.add_argument("--config", help="JSON file with default caps/seed/format")
    parser.add_argument("--out", help="artifact output path")
    for option in options.split():
        parser.add_argument(f"--{option}", **_OPTIONS[option])


# each row's default vertex cap, by (command, subcommand)
_VERTEX_CAPS = {row[:2]: row[5] for row in _SUBCOMMANDS}


@functools.cache
def build_parser(key: Optional[tuple[str, Optional[str]]] = None) -> _Parser:
    """The argument parser, built on first use and shared by later calls
    with the same ``key``: parsing leaves it unchanged.

    A (command, subcommand) ``key`` of ``_SUBCOMMANDS`` builds that one
    branch, which reads the command lines that name it as the full tree
    does, in 7 to 13 ``add_argument`` calls; without one the full tree
    takes 185, 4 to 5 ms on a 2-vCPU VM."""
    parser = _Parser(prog="hamlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, subcommand, flags, extras, options, _ in _SUBCOMMANDS:
        if key is not None and (command, subcommand) != key:
            continue
        if subcommand is None:
            sub = commands.add_parser(command, help=_COMMANDS[command][1])
            sub.set_defaults(subcommand=None)
        else:
            if command not in groups:
                group = commands.add_parser(command, help=_COMMANDS[command][1])
                groups[command] = group.add_subparsers(dest="subcommand", required=True)
            sub = groups[command].add_parser(subcommand)
        for flag in flags.split():
            sub.add_argument(f"--{flag}", type=int, required=True, help=_FLAG_HELP.get(flag))
        for name, spec in extras:
            sub.add_argument(name, **spec)
        _add_common(sub, options)
    return parser


def _parser_key(argv: Sequence[str]) -> Optional[tuple[str, Optional[str]]]:
    """The row of ``_SUBCOMMANDS`` that the first two words of ``argv``
    name, or the first word for a command without subcommands; ``None``
    for any other command line (help, unknown or abbreviated names, options
    before the command), which the full tree reads."""
    words = tuple(argv[:2])
    return next((key for key in (words, words[:1] + (None,)) if key in _VERTEX_CAPS), None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_parser_key(argv))
    try:
        args = parser.parse_args(argv)
        caps = _resolve_caps(args)
        if args.command == "report":  # a refused sweep prints no header
            _check_grid_size(args, caps["vertices"])
        _print_header(args, caps)
        return _COMMANDS[args.command][0](args, caps)
    except (
        UsageError, InvalidInputError, BoundNotApplicableError, ResourceLimitError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationFailure, ContractViolationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
