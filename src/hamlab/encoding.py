"""Rational and integer value tokens, JSON artifacts and report emission
shared by the file formats."""

from __future__ import annotations

import csv
import functools
import itertools
import json
import re
from array import array
from fractions import Fraction
from typing import Iterable, Optional, Sequence, TextIO, Union

from .errors import InvalidInputError


def rational_to_token(value: Fraction) -> int | str:
    """Plain integer when integral, otherwise a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# an integer, "p/q" or a plain decimal; Fraction alone also takes exponents,
# and "1e999999999" would expand to a billion-digit integer
_RATIONAL_TEXT = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def rational_from_token(token) -> Fraction:
    """A rational field of a file or flag: an int, or a string holding an
    integer, "p/q" or a plain decimal."""
    if isinstance(token, bool):
        raise InvalidInputError(f"expected a rational token, got {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        if not _RATIONAL_TEXT.fullmatch(token):
            raise InvalidInputError(
                f"bad rational token {token!r}: expected an integer, 'p/q' or a plain decimal"
            )
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational token {token!r}: {exc}") from exc
    raise InvalidInputError(f"expected integer or 'p/q' string, got {token!r}")


def int_token(token) -> int:
    """An integer field of a file: an exact int, never a bool, float or
    string."""
    if type(token) is not int:
        raise InvalidInputError(f"expected an integer, got {token!r}")
    return token


def int_tokens(tokens) -> Sequence[int]:
    """An array of integers from a file, checked by one scan of its item
    types and returned as given, without a copy.  A ``bytes`` buffer, which
    ``labelled_doc`` reads and which holds only ints, needs no scan."""
    if type(tokens) is not bytes and not set(map(type, tokens)) <= {int}:
        bad = next(t for t in tokens if type(t) is not int)
        raise InvalidInputError(f"expected integers, got {bad!r}")
    return tokens


def value_token(value):
    """Serialize ints, Fractions, and floats for records and CSV cells."""
    if isinstance(value, Fraction):
        return rational_to_token(value)
    if isinstance(value, float):
        return value
    if value is None or isinstance(value, (int, str)):
        return value
    raise InvalidInputError(f"cannot serialize value {value!r}")


def write_records(rows: Iterable[dict], stream: TextIO) -> None:
    """Line-delimited JSON records with sorted keys."""
    for row in rows:
        stream.write(json.dumps(row, sort_keys=True))
        stream.write("\n")


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """C encoder whose item separator starts a new line at ``depth``
    indentation steps; without ``indent`` the stdlib keeps its C encoder."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


# label bytes 0..9, and the table that turns each into its ASCII digit
_DIGIT_BYTES = bytes(range(10))
_DIGIT_TEXT = bytes.maketrans(_DIGIT_BYTES, b"0123456789")


def _digit_lines(labels: bytes, sep: str) -> str:
    """The digits of ``labels``, all below 10, joined by the ASCII ``sep``
    that starts with "," and a line break and then holds only spaces.

    A buffer of spaces takes the digits, commas and line breaks by three
    strided slice assignments; joining the characters of the decoded digits
    would first list them, one pointer each.
    """
    width = 1 + len(sep)
    text = bytearray(b" ") * (len(labels) * width - len(sep))
    text[::width] = labels.translate(_DIGIT_TEXT)
    text[1::width] = b"," * (len(labels) - 1)
    text[2::width] = b"\n" * (len(labels) - 1)
    return text.decode("ascii")


# label bytes from their ASCII digits: the inverse of _DIGIT_TEXT
_DIGIT_LABELS = bytes.maketrans(b"0123456789", _DIGIT_BYTES)
_JSON_SPACE = b" \t\n\r"


def labelled_doc(raw: bytes, key: str) -> Optional[dict]:
    """The JSON object in ``raw`` with the array under its ``key`` as a
    ``bytes`` buffer of labels, when that array holds single digits with
    one uniform separator, a comma plus JSON whitespace; else ``None``.

    Strided slices check the separators and take the digits, the inverse of
    ``_digit_lines``.  ``json.loads`` parses the rest, with the array
    replaced by ``[]``; any duplicate key, a remainder that does not decode
    or parse, or a cut that is not the top-level object's own ``key`` gives
    ``None``, so every file not returned can go to ``json.load`` unchanged.
    """
    # the quoted key, its colon, the array's "[" (group 1) and the space after it
    found = re.search(rb'"%s"[ \t\n\r]*:[ \t\n\r]*(\[)[ \t\n\r]*' % key.encode(), raw)
    # after a backslash the quote is escaped, and the key only ends in the name;
    # any other match starts a key, since a raw quote cannot sit inside a string
    if found is None or raw[found.start() - 1:found.start()] == b"\\":
        return None
    # the labels lie in raw[start:end], sliced from raw itself: a copy of the
    # body would cost more than the slices
    start = found.end()
    stop = end = raw.find(b"]", start)
    while end > start and raw[end - 1] in _JSON_SPACE:
        end -= 1
    if end <= start:  # no closing bracket, or an empty array
        return None
    separator = re.compile(rb",[ \t\n\r]*").match(raw, start + 1, end)
    # a label and its separator; a lone label is the whole body
    width = (separator.end() if separator else end) - start
    count, short = divmod(end - start + width - 1, width)
    if short or any(raw[start + j:end:width].count(raw[start + j]) != count - 1
                    for j in range(1, width)):
        return None
    digits = raw[start:end:width]
    if digits.translate(None, b"0123456789"):
        return None

    emptied = []  # every object parsed with ``key`` holding []: only the top-level one

    def unique_pairs(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            raise ValueError("duplicate key")
        if obj.get(key) == []:
            emptied.append(obj)
        return obj

    remainder = raw[:found.start(1)] + b"[]" + raw[stop + 1:]
    try:
        doc = json.loads(remainder.decode("utf-8"), object_pairs_hook=unique_pairs)
    except (ValueError, RecursionError):
        return None
    if len(emptied) != 1 or emptied[0] is not doc:
        return None
    doc[key] = digits.translate(_DIGIT_LABELS)
    return doc


def _write_chunks(chunks: list[str], stream: Union[TextIO, str]) -> None:
    """Write encoded text to ``stream``, or to a file opened only now when
    ``stream`` is a path."""
    if isinstance(stream, str):
        with open(stream, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        stream.writelines(chunks)


# the string a label buffer is encoded as, and its JSON text, in whose place
# the buffer's own layout is spliced
_HOLE = "\0labels\0"
_HOLE_TEXT = json.dumps(_HOLE)


def _label_array(labels: Union[bytes, array], pad: str) -> tuple[str, ...]:
    """The chunks of a flat array of the ints of ``labels``, whose opening
    line is indented by ``pad``."""
    if not labels:
        return ("[]",)
    inner = "\n" + pad + "  "
    if type(labels) is bytes and not labels.translate(None, _DIGIT_BYTES):
        body = _digit_lines(labels, "," + inner)
    else:  # one C-encoder call lays out every item on its own line
        body = _flat_encoder(len(pad) // 2 + 1).encode(list(labels))[1:-1]
    return ("[", inner, body, "\n" + pad + "]")


def write_json(doc, stream: Union[TextIO, str]) -> None:
    """One JSON artifact: sorted keys, 2-space indentation and one scalar per
    line, byte for byte ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
    newline.

    A ``bytes`` or ``array`` value, which the stdlib rejects, is written as
    the array of its ints.  The stdlib's encoder lays out everything else;
    its ``default`` hook holds each buffer back and returns a placeholder
    string, whose text the encoder yields as a chunk of its own right after
    the hook call, and that chunk is replaced by the buffer's array, laid
    out by ``_label_array`` at the indentation of the line it opens on.
    The whole document is encoded before anything is written, and a
    ``stream`` given as a path is opened only then, so a document that
    cannot be encoded leaves that file as it was.
    """
    pending = []  # the buffer whose placeholder the encoder yields next

    def hold(value):
        if not isinstance(value, (bytes, array)):
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
        pending.append(value)
        return _HOLE

    out: list[str] = []
    pad = ""  # the text after the last line break: at a placeholder, its indentation
    for chunk in json.JSONEncoder(sort_keys=True, indent=2, default=hold).iterencode(doc):
        if pending and chunk == _HOLE_TEXT:
            out += _label_array(pending.pop(), pad)
            continue
        if "\n" in chunk:
            pad = chunk[chunk.rindex("\n") + 1:]
        out.append(chunk)
    if pending:
        raise ValueError("a label buffer was not spliced into its JSON artifact")
    out.append("\n")
    _write_chunks(out, stream)


def polynomial_text(arity: int, terms: Iterable[tuple[Sequence[int], int, int]]) -> str:
    """The artifact of a polynomial on ``arity`` variables, byte for byte
    ``json.dumps(poly.to_doc(), sort_keys=True, indent=2)`` plus a newline.

    ``terms`` are its nonzero terms in artifact order, by total degree and
    then by exponent vector, as (exponents, numerator, denominator) triples
    of coefficients in lowest terms with a positive denominator.  Each term
    fills one template, its coefficient followed by one exponent per line,
    where the generic writer would build and walk two dicts and a list per
    term.  A coefficient is an integer, or a "p/q" string.
    """
    exponents = ",\n      ".join(["%d"] * arity)
    tail = (',\n    "exponents": ' + (f"[\n      {exponents}\n    ]" if exponents else "[]")
            + "\n  }")
    whole = '  {\n    "coefficient": %d' + tail
    ratio = '  {\n    "coefficient": "%d/%d"' + tail
    out = [whole % (num, *exps) if den == 1 else ratio % (num, den, *exps)
           for exps, num, den in terms]
    return "[\n" + ",\n".join(out) + "\n]\n" if out else "[]\n"


def write_terms(arity: int, terms: Iterable[tuple[Sequence[int], int, int]],
                stream: Union[TextIO, str]) -> None:
    """A polynomial artifact of the terms (see ``polynomial_text``); like
    ``write_json``, the whole text is built before a path is opened."""
    _write_chunks([polynomial_text(arity, terms)], stream)


# ranks per block of a vertex-set artifact: a block's ranks share their
# leading digits and differ in their last three
_RANK_BLOCK = 1000


@functools.cache
def _rank_suffixes(padded: bool) -> tuple[str, ...]:
    """The text of 0..999, zero-padded to three digits when ``padded``: the
    last three digits of a rank in a block after the first."""
    return tuple(f"{r:03d}" if padded else str(r) for r in range(_RANK_BLOCK))


def write_vertex_set(m: int, n: int, members: bytes, stream: Union[TextIO, str]) -> None:
    """The artifact of the vertex set of the m^n-vertex graph whose 0/1
    ``members`` are in rank order, byte for byte ``write_json`` of
    ``VertexSet.to_doc``.

    Each block q of 1,000 ranks is laid out by ``itertools.compress`` of
    its members over ready-made rank suffixes, each joined after the block's
    leading digits str(q) (none for q = 0), so no int is built per rank.
    Like ``write_json``, the whole text is built before a path is opened.
    """
    sep = ",\n    "
    out = ['{\n  "m": %d,\n  "n": %d,\n  "ranks": ' % (m, n)]
    for q, block in enumerate(range(0, len(members), _RANK_BLOCK)):
        head = str(q) if q else ""
        ranks = (sep + head).join(itertools.compress(_rank_suffixes(q > 0),
                                                     members[block:block + _RANK_BLOCK]))
        if ranks:
            out += (sep if len(out) > 1 else "[\n    ", head, ranks)
    out.append("\n  ]\n}\n" if len(out) > 1 else "[]\n}\n")
    _write_chunks(out, stream)


def write_csv(rows: Iterable[dict], fieldnames: Sequence[str], stream: TextIO) -> None:
    writer = csv.DictWriter(stream, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
