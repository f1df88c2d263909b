"""The JSON artifact writer, byte-identical to the stdlib's indented dump,
and the label-array loader, which gives what ``json.load`` gives."""

import io
import json
import os
import tempfile
import types
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hamlab import (DEFAULT_VERTEX_CAP, FiniteFunction, GraphParams, GridPolynomial,
                    InvalidInputError, Partition, VertexSet, interpolate)
from hamlab import cli
from hamlab.cli import main
from hamlab import encoding
from hamlab.encoding import (labelled_doc, polynomial_text, write_json, write_terms,
                             write_vertex_set)
from hamlab.functions import interpolant_terms


def encoded(doc) -> str:
    stream = io.StringIO()
    write_json(doc, stream)
    return stream.getvalue()


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
)
flat_int_lists = st.lists(st.integers(-5, 10 ** 6), min_size=40, max_size=200)
json_trees = st.recursive(
    scalars | flat_int_lists,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
        st.lists(st.dictionaries(st.text(max_size=3), children, max_size=3), max_size=4),
    ),
    max_leaves=25,
)


@given(doc=json_trees)
@settings(max_examples=100, deadline=None)
def test_writer_matches_indented_dumps(doc):
    assert encoded(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}, [[]]]},
    (1, (2, 3), [()]), [True, False, None], [float("inf"), float("-inf"), -0.0, 1e300],
    [float("nan")], "é \"quoted\" \\ \n ☃", {"ü": ["ß", "\U0001f600"]},
    {"b": 1, "a": {"d": [1, "x"], "c": None}}, [1, "two", 3.0, None, [4]],
    {1: "int", 2: "keys"}, {1.5: 0}, {True: 0}, {None: 0}, 7, -0.0, None, "",
])
def test_writer_edge_cases(doc):
    assert encoded(doc) == reference(doc)


# label buffers: bytes of single digits, bytes of any width, and arrays
_DIGITS_ONLY = bytes(i % 10 for i in range(256))
label_buffers = st.one_of(
    st.binary(max_size=60).map(lambda raw: raw.translate(_DIGITS_ONLY)),
    st.binary(max_size=60),
    st.lists(st.integers(0, 2 ** 16 - 1), max_size=40).map(lambda v: array("H", v)),
    st.lists(st.integers(0, 2 ** 32 - 1), max_size=40).map(lambda v: array("L", v)),
)
buffer_trees = st.recursive(
    scalars | label_buffers,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


def as_lists(doc):
    """The document with every label buffer replaced by the list of its ints."""
    if isinstance(doc, (bytes, array)):
        return list(doc)
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [as_lists(item) for item in doc]
    return doc


@given(doc=buffer_trees)
@settings(max_examples=200, deadline=None)
def test_label_buffers_encode_as_their_int_lists(doc):
    assert encoded(doc) == reference(as_lists(doc))


@pytest.mark.parametrize("buffer", [
    b"", b"\x00", b"\x09", b"\x0a", bytes(range(10)), bytes(range(12)), b"\x00\xff\x07",
    array("H"), array("H", [0, 9, 10, 65535]), array("L", [2 ** 32 - 1, 5]),
])
def test_label_buffer_edge_cases(buffer):
    for doc in (buffer, {"m": 3, "assignment": buffer}, [[buffer], {"a": [buffer, 1]}]):
        assert encoded(doc) == reference(as_lists(doc))


def test_writer_rejects_what_the_stdlib_rejects():
    with pytest.raises(TypeError):
        encoded({"a": object()})
    with pytest.raises(TypeError):
        encoded({(1, 2): 0})
    with pytest.raises(TypeError):
        encoded([bytearray(b"\x01")])
    # json's own message, as json.dumps raises it
    with pytest.raises(TypeError, match="^Object of type bytearray is not JSON serializable$"):
        encoded({"a": bytearray(b"\x01")})


# the string a label buffer stands in for while the stdlib encodes the document
_HOLE = "\0labels\0"


@pytest.mark.parametrize("doc", [
    {"a": _HOLE, "b": b"\x01\x02", "c": array("H", [300])},
    {_HOLE: b"\x03", "z": [b"\x04", _HOLE]},
    [_HOLE, b"\x05\x06", _HOLE, array("L", [7, 70000]), _HOLE],
    _HOLE,
    [b"\x01", {_HOLE: _HOLE}, [[_HOLE, b"\x0c"]]],
    # empty buffers two levels down
    {"a": {"b": b""}, "c": [[b"", array("H")]], "d": [{"e": array("L")}]},
])
def test_buffers_beside_the_placeholder_string(doc):
    assert encoded(doc) == reference(as_lists(doc))


def test_an_unspliced_buffer_raises_and_leaves_the_target(tmp_path, monkeypatch):
    target = tmp_path / "a.part"
    target.write_text("old", encoding="utf-8")
    monkeypatch.setattr(encoding, "_HOLE_TEXT", '"no chunk is this"')
    with pytest.raises(ValueError):
        write_json({"m": 3, "assignment": b"\x00\x01\x02"}, str(target))
    assert target.read_text(encoding="utf-8") == "old"


def test_cli_artifacts_reencode_to_their_own_bytes(tmp_path, capsys):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    part, vset, fn = tmp_path / "t.part", tmp_path / "s.vset", tmp_path / "f.json"
    run("construct", "theorem1", "--m", 3, "--d", 2, "--n", 5, "--out", part)
    run("construct", "subgraph", "--m", 3, "--n", 4, "--d", 2, "--out", vset)
    run("fn", "lifted-tribes", "--m", 3, "--a", 0, "--s", 2, "--out", fn)
    artifacts = [part, vset, fn]
    for source, argv in ((part, ["metrics"]), (vset, ["metrics"]),
                         (fn, ["fn", "interpolate"]), (fn, ["fn", "restrict"])):
        out = tmp_path / f"{len(artifacts)}.json"
        run(*argv, source, "--out", out)
        artifacts.append(out)
    for path in artifacts:
        text = path.read_text(encoding="utf-8")
        assert reference(json.loads(text)) == text, path.name

    # stdout carries the same bytes as the --out file, after the header lines
    capsys.readouterr()
    run("metrics", part)
    assert capsys.readouterr().out.endswith(artifacts[3].read_text(encoding="utf-8"))


# polynomial artifacts: the layout writer against the indented dump of to_doc
def triples(poly: GridPolynomial) -> list:
    return [(exps, c.numerator, c.denominator) for exps, c in poly.sorted_terms()]


big_ints = st.one_of(st.integers(), st.integers(2 ** 63, 2 ** 200), st.integers(-2 ** 200, -2 ** 63))
coefficients = st.one_of(
    big_ints.map(Fraction),
    st.fractions(),
    st.builds(Fraction, big_ints, st.integers(2, 2 ** 80)),
)


@st.composite
def polynomials(draw):
    arity = draw(st.integers(0, 4))
    exponents = st.tuples(*[st.integers(0, 12)] * arity)
    return GridPolynomial(arity, draw(st.dictionaries(exponents, coefficients, max_size=12)))


@st.composite
def grid_functions(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    domain = draw(st.lists(st.fractions(max_denominator=9), min_size=m, max_size=m,
                           unique=True))
    codomain = draw(st.lists(coefficients, min_size=1, max_size=3, unique=True))
    values = draw(st.lists(st.integers(0, len(codomain) - 1), min_size=m ** n,
                           max_size=m ** n))
    return FiniteFunction(domain, codomain, n, values)


def interpolated():
    return grid_functions().map(interpolate)


@given(poly=st.one_of(polynomials(), interpolated()))
@settings(max_examples=200, deadline=None)
def test_polynomial_layout_matches_indented_dumps(poly):
    assert polynomial_text(poly.arity, triples(poly)) == reference(poly.to_doc())


@given(f=grid_functions())
@settings(max_examples=100, deadline=None)
def test_interpolant_terms_are_the_sorted_terms_of_interpolate(f):
    poly = interpolate(f)
    degree, count, terms = interpolant_terms(f)
    assert (degree, count, list(terms)) == (poly.degree(), len(poly.terms), triples(poly))


@pytest.mark.parametrize("arity, terms", [
    (0, {}), (3, {}), (0, {(): Fraction(-7, 3)}), (1, {(0,): 1}),
    (1, {(2,): Fraction(-2, 7), (0,): Fraction(-2, 3), (1,): Fraction(94, 63)}),
    (2, {(0, 1): 2 ** 63, (1, 0): -2 ** 63 - 1, (0, 0): Fraction(-2 ** 70, 3 ** 50)}),
    (2, {(3, 0): 1, (0, 3): 1, (1, 2): 1, (2, 1): 1, (1, 1): 5}),
])
def test_polynomial_layout_edge_cases(arity, terms):
    poly = GridPolynomial(arity, terms)
    stream = io.StringIO()
    write_terms(poly.arity, triples(poly), stream)
    assert stream.getvalue() == polynomial_text(arity, triples(poly)) == reference(poly.to_doc())


def test_fn_interpolate_writes_the_same_bytes_with_and_without_out(tmp_path, capsys,
                                                                 monkeypatch):
    # the generic writer's encoder stays out of the polynomial path
    class Encoder:
        def __init__(self, *args, **kwargs):
            raise AssertionError("fn interpolate went through the generic JSON writer")

    fn, poly = tmp_path / "f.json", tmp_path / "p.json"
    fn.write_text(json.dumps({"A": [0, "1/2", -3, 2], "B": [0, 1, "-2/3"], "n": 2,
                              "values": [2, 0, 1, 2, 1, 1, 0, 2, 0, 2, 2, 1, 0, 0, 1, 2]}))
    monkeypatch.setattr(encoding, "json", types.SimpleNamespace(JSONEncoder=Encoder,
                                                               loads=json.loads))
    assert main(["fn", "interpolate", str(fn), "--out", str(poly)]) == 0
    header = capsys.readouterr().out
    assert main(["fn", "interpolate", str(fn)]) == 0
    text = poly.read_text(encoding="utf-8")
    assert capsys.readouterr().out == header + text
    assert text == reference(json.loads(text)) and '"-' in text and "/" in text
    # the command writes the artifact of the library's polynomial
    f = FiniteFunction.from_doc(json.loads(fn.read_text(encoding="utf-8")))
    assert text == polynomial_text(f.arity, triples(interpolate(f)))


# vertex-set artifacts: the rank-block writer against the indented dump of to_doc;
# graphs of m^n below, equal to and above the 1,000 ranks of a block
_VSET_GRIDS = ((3, 2), (31, 2), (10, 3), (11, 3), (3, 7))


def vset_text(vset: VertexSet) -> tuple[str, str]:
    """The artifact written to a stream and to a path."""
    stream = io.StringIO()
    write_vertex_set(vset.params.m, vset.params.n, vset.members, stream)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "s.vset")
        write_vertex_set(vset.params.m, vset.params.n, vset.members, path)
        with open(path, encoding="utf-8") as handle:
            return stream.getvalue(), handle.read()


@st.composite
def vertex_sets(draw):
    m, n = draw(st.sampled_from(_VSET_GRIDS))
    count = m ** n
    edges = [r for r in (0, 1, 998, 999, 1000, 1001, 1999, 2000, count - 1) if r < count]
    ranks = draw(st.one_of(st.sets(st.integers(0, count - 1)), st.sets(st.sampled_from(edges)),
                           st.just(range(count))))
    return VertexSet.from_ranks(GraphParams(m, n), ranks)


@given(vset=vertex_sets())
@settings(max_examples=150, deadline=None)
def test_vertex_set_layout_matches_indented_dumps(vset):
    assert vset_text(vset) == (reference(vset.to_doc()),) * 2


@pytest.mark.parametrize("m, n", _VSET_GRIDS)
@pytest.mark.parametrize("pick", ["empty", "full", "zero", "block ends"])
def test_vertex_set_layout_edge_cases(m, n, pick):
    count = m ** n
    ranks = {"empty": [], "full": range(count), "zero": [0],
             "block ends": [r for r in (999, 1000, 1001) if r < count]}[pick]
    vset = VertexSet.from_ranks(GraphParams(m, n), ranks)
    assert vset_text(vset) == (reference(vset.to_doc()),) * 2


# the label-array loader
_BASE = {"m": 3, "n": 2, "assignment": [0, 1, 1, 1, 2, 2, 1, 0, 0]}


@pytest.mark.parametrize("text", [
    encoded(_BASE), json.dumps(_BASE), json.dumps(_BASE, indent=4),
    json.dumps(_BASE, indent="\t"), json.dumps(_BASE, separators=(",", ":")),
    json.dumps(_BASE).replace(", ", ",\r\n "),
    '{"assignment": [7], "m": 1}', '{"assignment":[ 3,\n4 ]}',
    # strings that hold brackets or the key itself
    '{"note": "\\"assignment\\": [1, 2] []", "assignment": [0, 1], "x": ["[", "]"]}',
    '{"x": {"values": [1, 2]}, "values": [0, 1], "assignment": [5, 6]}',
])
def test_label_arrays_load_by_stride(text):
    expected = json.loads(text)
    expected["assignment"] = bytes(expected["assignment"])
    assert labelled_doc(text.encode("utf-8"), "assignment") == expected


@pytest.mark.parametrize("raw", [
    b'{"assignment": [0, 0], "assignment": [0, 1]}',  # json keeps the last
    b'{"m": "[0]", "assignment": [0, 1], "m": 3}',
    b'{"x": {"k": 1, "k": 2}, "assignment": [0, 1]}',
    "\ufeff{\"assignment\": [0, 1]}".encode("utf-8"),
    b'{"assignment": [0, 1], "s": "\xff"}', b'{"assignment": [0, 1]} x',
    b'{"assignment": [0, 01]}', b'{"assignment": [0, 1,]}', b'{"assignment": [0, 10]}',
    b'{"assignment": [10, 1]}', b'{"assignment": [12]}', b'{"assignment": [-1, 1]}',
    b'{"assignment": [0 , 1]}', b'{"assignment": [0,1, 2]}', b'{"assignment": [0, 1.0]}',
    b'{"assignment": [0, true]}', b'{"assignment": []}', b'{"assignment": [ ]}',
    b'{"assignment": [0, 1}', b'{"assignment": [[0], 1]}', b'{"assignment": "[0, 1]"}',
    # the first array under the key is not the top-level object's
    b'{"x": {"assignment": [0, 1]}, "assignment": [2]}',
    b'{"x": {"assignment": [0, 1]}, "assignment": []}',
    b'{"x": [{"assignment": [0, 1]}]}', b'[{"assignment": [0, 1]}]',
    b'{"x": {"assignment": [[1, 2]]}, "assignment": [5, 6]}',
    # a key that only ends in the name
    b'{"\\"assignment": [0, 1], "assignment": []}',
    b'{"assign\\u006dent": [0, 1]}',
])
def test_other_layouts_are_left_to_json_load(raw):
    assert labelled_doc(raw, "assignment") is None


def json_load_path(path: str):
    """The CLI's loader before ``labelled_doc``: a text-mode open, then
    ``json.load``, with the same messages."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise cli.UsageError(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:
        raise cli.UsageError(f"cannot read {path}: {cli._message(exc)}")


_EXTRA_VALUES = st.one_of(
    st.sampled_from(["[]", "[0]", "]", "[", "x[]y", '"assignment": [1]', '"values": [0, 1]', "\\",
                     0, None, [], [[]], [0, 1]]),
    # the key again, in nested objects
    st.sampled_from([{"assignment": [0, 1]}, {"values": []}, [{"values": [1]}],
                     {"assignment": []}, {"values": [0, 1, 1]}]),
)
# bytes to put in a file, or to put in place of one of its bytes
_STRAY = st.sampled_from([
    b" ", b"\t", b"\r", b"\n", b",", b"[", b"]", b"[]", b"0", b"01", b"-", b".", b'"', b"\\",
    b"\xff", b"\xef\xbb\xbf", b"x", b"",
])


def render(pairs, indent, item_sep, key_sep) -> str:
    """A JSON object in ``json.dumps``'s layout, from its (key, value)
    pairs; a repeated key is written twice."""
    newline = "" if indent is None else "\n" + indent
    members = [json.dumps(key) + key_sep
               + json.dumps(value, indent=indent, separators=(item_sep, key_sep))
               .replace("\n", newline)
               for key, value in pairs]
    closing = "" if indent is None else "\n"
    return "{" + newline + (item_sep + newline).join(members) + closing + "}"


@st.composite
def label_files(draw):
    """The key of a partition's or a function's label array, and the bytes
    of a file holding it: random layout and key order, extra and duplicate
    keys, strings holding brackets, and stray bytes."""
    if draw(st.booleans()):
        key, m = "assignment", draw(st.sampled_from([2, 3, 4, 11, 12]))
        n = draw(st.integers(1, 2 if m < 5 else 1))
        fields = [("m", m), ("n", n)]
        count, size = m ** n, m
    else:
        key, domain = "values", draw(st.sampled_from([[0, 1], [0, 1, 2], [0, "1/2", 2]]))
        codomain = list(range(draw(st.sampled_from([1, 2, 3, 11]))))
        n = draw(st.integers(1, 3))
        fields = [("A", domain), ("B", codomain), ("n", n)]
        count, size = len(domain) ** n, len(codomain)
    labels = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))
    flaw = draw(st.sampled_from(["none", "none", "none", "label", "length", "empty"]))
    if flaw == "label":
        labels[draw(st.integers(0, count - 1))] = size
    elif flaw == "length":
        labels.pop()
    elif flaw == "empty":
        labels = []
    # extra keys: new ones, ones that end in the key, and duplicates
    names = ["note", '"' + key, "\\" + key, key, fields[0][0]]
    extras = draw(st.lists(st.tuples(st.sampled_from(names), _EXTRA_VALUES), max_size=2))
    pairs = draw(st.permutations([*fields, (key, labels), *extras]))
    layout = (draw(st.sampled_from([None, "", " ", "    ", "\t"])),
              draw(st.sampled_from([",", ", ", " ,", ",  "])),
              draw(st.sampled_from([":", ": ", " : "])))
    raw = render(pairs, *layout).encode("utf-8")
    if draw(st.booleans()):
        raw = raw.replace(b"\n", b"\r\n")
    edits = draw(st.lists(st.tuples(st.integers(0, len(raw)), _STRAY, st.booleans()),
                          max_size=2))
    for at, stray, replace in sorted(edits, key=lambda edit: edit[0], reverse=True):
        raw = raw[:at] + stray + raw[at + replace:]
    return key, raw


def outcome(load, path):
    try:
        return "loaded", load(path)
    except (cli.UsageError, InvalidInputError) as exc:
        return type(exc).__name__, str(exc)


@given(case=label_files())
@settings(max_examples=400, deadline=None)
def test_label_files_load_as_json_load_loads_them(case):
    key, raw = case
    if key == "assignment":
        load, build = cli._load_partition, Partition.from_doc
    else:
        load, build = cli._load_function, FiniteFunction.from_doc
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "labels.json")
        with open(path, "wb") as handle:
            handle.write(raw)
        assert (outcome(lambda p: load(p, DEFAULT_VERTEX_CAP), path)
                == outcome(lambda p: build(json_load_path(p)), path))


@pytest.mark.parametrize("text", [
    # a trailing comma, whose json error text differs on Python 3.13
    '{"m": 3, "n": 2, "assignment": [0, 1, 1, 1, 2, 2, 1, 0, 0,]}',
    '{"m": 3, "n": 2, "assignment": [0, 1, 1, 1, 2, 2, 1, 0, 0],}',
    '{"m": 3, "n": 2, "assignment": [0, 1, 01, 1, 2, 2, 1, 0, 0]}',
    "\ufeff" + json.dumps(_BASE),
])
def test_refused_layouts_fail_as_json_load_fails(tmp_path, text):
    path = tmp_path / "refused.part"
    path.write_text(text, encoding="utf-8")
    assert labelled_doc(path.read_bytes(), "assignment") is None
    expected = outcome(lambda p: Partition.from_doc(json_load_path(p)), str(path))
    assert expected[0] == "UsageError"
    assert outcome(lambda p: cli._load_partition(p, DEFAULT_VERTEX_CAP), str(path)) == expected
