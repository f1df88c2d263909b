"""Hostile inputs: every file loader and the CLI entry point either succeed or
fail cleanly (InvalidInputError from a loader, or ResourceLimitError from the
vertex-set loader, which checks the graph against the vertex cap as it
builds its membership buffer; exit status 0, 1 or 2 from ``main``), never
with another exception, and within a bounded time."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from hamlab import (
    FiniteFunction,
    GridPolynomial,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    VertexSet,
)
from hamlab.cli import main

# tokens that may stand where a file expects an integer or a rational
tokens = st.one_of(
    st.integers(-3, 6), st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(max_size=4), st.sampled_from(["1/2", "-3/4", "1/0", "2", "x/y"]),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=2),
                                                             st.integers(), max_size=2),
)
json_trees = st.recursive(
    tokens, lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4), max_leaves=12,
)


@st.composite
def mutated(draw, doc: dict) -> dict:
    """The document, or it with one field dropped or replaced, or one item of
    an array field replaced, by an arbitrary token."""
    doc = dict(doc)
    key = draw(st.sampled_from(sorted(doc)))
    action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "replace", "item"]))
    if action == "drop":
        del doc[key]
    elif action == "replace":
        doc[key] = draw(tokens)
    elif action == "item" and isinstance(doc[key], list) and doc[key]:
        items = list(doc[key])
        items[draw(st.integers(0, len(items) - 1))] = draw(tokens)
        doc[key] = items
    return doc


@st.composite
def partition_docs(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    size = m ** n
    assignment = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    return draw(mutated({"m": m, "n": n, "assignment": assignment}))


@st.composite
def vertex_set_docs(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ranks = sorted(draw(st.sets(st.integers(0, m ** n - 1))))
    return draw(mutated({"m": m, "n": n, "ranks": ranks}))


# integers up to 30 in magnitude make Lagrange entries wider than their
# table's slots
rationals = st.one_of(st.integers(-4, 4), st.sampled_from(["1/2", "-3/2", "7/5"]),
                      st.integers(-30, 30))


@st.composite
def function_docs(draw):
    domain = draw(st.lists(rationals, min_size=1, max_size=3, unique_by=str))
    codomain = draw(st.lists(rationals, min_size=1, max_size=3, unique_by=str))
    n = draw(st.integers(1, 3))
    size = len(domain) ** n
    values = draw(st.lists(st.integers(0, len(codomain) - 1), min_size=size, max_size=size))
    return draw(mutated({"A": domain, "B": codomain, "n": n, "values": values}))


@st.composite
def polynomial_docs(draw):
    arity = draw(st.integers(1, 3))
    terms = draw(st.lists(st.fixed_dictionaries({
        "exponents": st.lists(st.integers(0, 3), min_size=arity, max_size=arity),
        "coefficient": rationals,
    }), max_size=4))
    if terms and draw(st.booleans()):
        terms[0] = draw(mutated(terms[0]))
    return terms


def loads_or_rejects(loader, doc, rejections=(InvalidInputError,)) -> None:
    try:
        loader(doc)
    except rejections:
        pass


@given(doc=st.one_of(partition_docs(), json_trees))
@settings(max_examples=150, deadline=None)
def test_partition_loader_fuzz(doc):
    loads_or_rejects(Partition.from_doc, doc)


@given(doc=st.one_of(vertex_set_docs(), json_trees))
@settings(max_examples=150, deadline=None)
def test_vertex_set_loader_fuzz(doc):
    loads_or_rejects(VertexSet.from_doc, doc, (InvalidInputError, ResourceLimitError))


@given(doc=st.one_of(function_docs(), json_trees))
@settings(max_examples=150, deadline=None)
def test_function_loader_fuzz(doc):
    loads_or_rejects(FiniteFunction.from_doc, doc)


@given(doc=st.one_of(polynomial_docs(), json_trees))
@settings(max_examples=150, deadline=None)
def test_polynomial_loader_fuzz(doc):
    loads_or_rejects(GridPolynomial.from_doc, doc)


PATH = object()  # stands for the fuzzed input file
OUT = object()  # stands for an artifact path in the same directory

# each command with its required arguments
COMMANDS = {
    ("construct", "degree1"): ("--m", "--n"),
    ("construct", "complete"): ("--m", "--d"),
    ("construct", "lift"): ("--base", "--n", "--d"),
    ("construct", "theorem1"): ("--m", "--d", "--n"),
    ("construct", "subgraph"): ("--m", "--n", "--d"),
    ("metrics",): (PATH,),
    ("bounds", "theorem1"): ("--m", "--d", "--n"),
    ("bounds", "markov"): ("--m", "--n", "--k"),
    ("bounds", "upper"): ("--m", "--n", "--eps"),
    ("bounds", "cayley"): ("--m", "--n"),
    ("bounds", "domination"): ("--m", "--n"),
    ("bounds", "check"): (PATH,),
    **{("fn", name): (PATH,) for name in
       ("interpolate", "degree", "sensitivity", "decompose", "restrict", "verify")},
    ("fn", "tribes"): ("--s",),
    ("fn", "lifted-tribes"): ("--m", "--a", "--s"),
    ("oracle", "sigma"): ("--m", "--n"),
    ("oracle", "subsets"): ("--m", "--n", "--k"),
    ("oracle", "functions"): ("--m", "--b", "--n"),
    ("oracle", "metrics"): (PATH,),
    ("report", "grid"): ("--m-range", "--n-range", "--d-range"),
}
values = st.one_of(
    st.integers(2, 4).map(str), st.integers(-1, 5).map(str),
    st.sampled_from(["1/2", "2/3", "0", "x", "", "1:3", "3:1", "2,3", "csv", "records"]),
)
extras = st.one_of(
    st.sampled_from([("--verbose",), ("--verify",), ("--out", OUT), ("--config", PATH)]),
    st.tuples(st.sampled_from(["--format", "--seed", "--samples", "--prune", "--bogus"]), values),
)
# tight caps keep every run small; they are checked before any work starts,
# and a command takes only the caps it reads
CAPS = {("oracle", "sigma"): ("--cap-subsets", "500"),
        ("oracle", "subsets"): ("--cap-subsets", "500"),
        ("oracle", "functions"): ("--cap-functions", "50")}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag in COMMANDS[command]:
        if draw(st.integers(0, 9)) == 0:
            continue  # now and then leave a required argument out
        if flag is PATH:
            argv.append(PATH)
        elif flag == "--base":
            argv += [flag, PATH]
        elif flag == "--b":  # an empty or negative codomain size now and then
            argv += [flag, draw(values | st.integers(-3, 0).map(str))]
        else:
            argv += [flag, draw(values)]
    for _ in range(draw(st.integers(0, 2))):
        argv += draw(extras)
    return argv + ["--cap-vertices", "256", *CAPS.get(command, ())]


file_texts = st.one_of(
    st.one_of(partition_docs(), vertex_set_docs(), function_docs(), json_trees).map(json.dumps),
    st.sampled_from(["", "not json", "{", "[1, 2", "null"]),
    # nested past the parser's recursion limit
    st.tuples(st.sampled_from(["[", '{"a": ', '[{"m": ']), st.integers(1_000, 100_000))
    .map(lambda nest: nest[0] * nest[1]),
)


@given(argv=argvs(), text=file_texts)
@settings(max_examples=300, deadline=None)
def test_main_exit_status_fuzz(argv, text):
    with tempfile.TemporaryDirectory() as workdir:
        path, out = os.path.join(workdir, "in.json"), os.path.join(workdir, "out.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [path if a is PATH else out if a is OUT else a for a in argv]
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        assert time.perf_counter() - start < 5
