"""Span tracing of hamlab's layers, installed from outside the program.

Each layer is one module of ``src/hamlab``.  ``Tracer.install`` wraps every
public function of those modules, and the public classmethods of their
classes, in a wrapper that records a span: name, start, end, parent span and
command index.  A module that from-imports a function holds its own reference
to it (``oracle`` holds ``sensitivity``, ``cli`` holds ``write_csv``), so the
wrapper is bound into every ``hamlab`` namespace that holds the original;
patching only the defining module would lose those spans silently.

Spans stay in memory until ``dump`` writes them; ``summarize`` turns a dump
into the per-layer metrics.  A span's self time is its duration minus its
child spans' durations, which is the time its children cover because the
program runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from typing import Callable

LAYERS = ("cli", "partitions", "graph", "functions", "oracle", "bounds", "encoding")

# Called once per vertex inside other layers' loops; a span each would cost
# more than their work, which stays in the caller's self time.
PER_ELEMENT = {
    "graph": {"rank", "unrank", "neighbors", "iter_vertices", "hamming_distance",
              "validate_vertex"},
    "partitions": {"degree_one_part_index"},
}


def _vertices(part) -> int:
    return part.params.vertex_count


def _subsets(args) -> int:
    count = args["m"] ** args["n"]
    k = args["k"]
    if k == 0:
        return 0
    if args["fix_first_vertex"]:
        return math.comb(count - 1, k - 1)
    return math.comb(count, k)


# span name -> (counter, work done by one successful call, from its bound
# arguments and result)
COUNTERS: dict[str, tuple[str, Callable]] = {
    "partitions.degree_one_partition": ("partitions.vertices_built", lambda a, r: _vertices(r)),
    "partitions.complete_graph_partition": ("partitions.vertices_built",
                                            lambda a, r: _vertices(r)),
    "partitions.lift_partition": ("partitions.vertices_built", lambda a, r: _vertices(r)),
    "partitions.partition_metrics": ("partitions.vertices_scanned",
                                     lambda a, r: _vertices(a["part"])),
    "graph.induced_max_degree": ("graph.vertices_scanned",
                                 lambda a, r: a["vset"].size if a["vset"].size > 1 else 0),
    "functions.interpolate": ("functions.points_interpolated", lambda a, r: a["f"].point_count),
    "functions.sensitivity": ("functions.points_scanned", lambda a, r: a["f"].point_count),
    "functions.local_sensitivity": ("functions.points_scanned", lambda a, r: 1),
    "oracle.min_max_degree_subsets": ("oracle.subsets_budgeted", lambda a, r: _subsets(a)),
    "oracle.exhaustive_function_check": ("oracle.functions_checked",
                                         lambda a, r: r.functions_checked),
    "oracle.brute_force_metrics": ("oracle.pairs_scanned",
                                   lambda a, r: _vertices(a["part"]) * (_vertices(a["part"]) - 1)
                                   // 2),
}

# per-function self times reported beside each layer's total
FUNCTION_SELF = (
    "partitions.partition_metrics", "partitions.block_sum_map",
    "partitions.degree_one_partition", "partitions.lift_partition", "partitions.from_doc",
    "graph.induced_max_degree",
    "functions.boolean_restriction_witness", "functions.interpolate",
    "functions.sensitivity", "functions.lifted_tribes", "functions.from_doc",
    "oracle.min_max_degree_subsets", "oracle.exhaustive_function_check",
    "oracle.brute_force_metrics",
)


class Tracer:
    """Records spans of wrapped hamlab functions in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, command index]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self.originals: list[Callable] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        span_name = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [span_name, time.perf_counter(), 0.0, parent, self.command]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or layer_of(spans[parent][0]) != layer:
                    self.errors[layer] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[counter[0]] += counter[1](bound.arguments, result)
            return result

        self.originals.append(fn)
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind the wrappers in
        every loaded hamlab namespace."""
        modules = {layer: importlib.import_module(f"hamlab.{layer}") for layer in LAYERS}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "hamlab" or key.startswith("hamlab.")]
        for layer, module in modules.items():
            skip = PER_ELEMENT.get(layer, set())
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in skip:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self.wrap(layer, name, obj)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                setattr(namespace, key, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            setattr(obj, attr, classmethod(self.wrap(layer, attr, raw.__func__)))
        missed = self.unpatched()
        if missed:
            raise RuntimeError(f"untraced references remain: {missed}")

    def unpatched(self) -> list[str]:
        """Names in hamlab namespaces that still hold an unwrapped original."""
        originals = {id(fn) for fn in self.originals}
        return [f"{key}.{name}" for key, mod in sys.modules.items()
                if key == "hamlab" or key.startswith("hamlab.")
                for name, value in vars(mod).items() if id(value) in originals]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "errors": self.errors}, handle)


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(dump: dict, extra: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced session.

    ``extra`` holds counts measured outside the spans (artifact bytes).
    """
    spans = dump["spans"]
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = dump["errors"].get(layer, 0)
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = 0.0
    for counter, _ in COUNTERS.values():
        out[counter] = dump["counters"].get(counter, 0)
    out["functions.interpolate.calls"] = 0
    for (name, _, _, parent, _), own in zip(spans, selfs):
        layer = layer_of(name)
        out[f"{layer}.self_s"] += own
        if name in FUNCTION_SELF:
            out[f"{name}.self_s"] += own
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            out[f"{layer}.calls"] += 1
        if name == "functions.interpolate":
            out["functions.interpolate.calls"] += 1
    out.update(extra)
    return out

