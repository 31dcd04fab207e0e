"""JSON document formats for matrices and standard representations.

A matrix document is an object with exactly the keys ``field`` ("gf2" or
"rational"), ``rows`` and ``cols`` (label lists), and ``data`` (a grid
of entry strings).  A standard representation document has exactly the
keys ``field``, ``X``, ``Y``, and ``B``, where ``B`` is the grid for the
X-by-Y matrix.  GF(2) entries are "0" or "1"; a rational entry is any
string ``fractions.Fraction`` reads that has no exponent (an integer,
"p/q" or a decimal, with optional sign, underscores and surrounding
whitespace), written back in canonical form ("2/4" as "1/2", " 5 " as
"5", "1.5" as "3/2").  Both kinds are read by one reader,
which checks every rule on a document once: keys (no object repeats
one), field, labels (nonempty, distinct strings), grid shape and
entries, and a standard representation's disjoint X and Y; nothing
built from it re-checks them.  A grid row is decoded by lookups in a
cache seeded with "0" and "1" (and "-1" over Q, as the shared sign
Fractions); a row with a string not seen yet or a non-string entry is
read entry by entry, which caches each new string and reports the first
bad entry.  Rendering is deterministic, so parse and render round-trip
byte for byte: a rendered document is
``json.dumps(doc, indent=2) + "\n"``, written out directly rather than
through the pure-Python encoder that ``indent`` selects.
"""

from __future__ import annotations

import json

from .errors import ShapeError, _shown
from .exactmat import GF2, RATIONAL, ExactMatrix, _SIGNS, _coerce_rational, _exact
from .matroid import LabeledMatrix, _labeled
from .stdrepr import StandardRepr

__all__ = [
    "DocumentError",
    "parse_matrix_document",
    "render_matrix_document",
    "parse_standard_repr_document",
    "render_standard_repr_document",
    "parse_document",
]


class DocumentError(ValueError):
    """The text is not a well-formed document."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises instead of keeping its last value."""
    obj, seen = dict(pairs), set()
    if len(obj) < len(pairs):
        raise DocumentError(f"repeated key {_shown(next(k for k, _ in pairs if k in seen or seen.add(k)))}")
    return obj


# built once: ``json.loads`` builds a decoder on every call that passes a hook
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_object(text: str) -> dict:
    try:
        if text.startswith("\ufeff"):  # refused as ``json.loads`` refuses it; the decoder does not check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # ValueError: also a number past the int digit limit
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def _check_keys(obj: dict, keys: set[str]) -> None:
    got = set(obj)
    if got != keys:
        parts = (("missing", sorted(keys - got)), ("unexpected", sorted(got - keys)))
        raise DocumentError("; ".join(f"{what} keys {_shown(names)}" for what, names in parts if names))


def _parse_field(value) -> str:
    if value not in (GF2, RATIONAL):
        raise DocumentError(f'field must be "gf2" or "rational", got {_shown(value)}')
    return value


def _parse_labels(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) and x for x in value):
        raise DocumentError(f"{what} must be a list of nonempty strings")
    if len(set(value)) != len(value):
        raise DocumentError(f"duplicate labels in {what}")
    return value


def _parse_entry(kind: str, s) -> object:
    if not isinstance(s, str):
        raise DocumentError(f"entries must be strings, got {_shown(s)}")
    if kind == GF2:
        if s not in ("0", "1"):
            raise DocumentError(f'GF(2) entries must be "0" or "1", got {_shown(s)}')
        return int(s)
    try:
        return _coerce_rational(s)
    except ShapeError:
        raise DocumentError(f"malformed rational entry {_shown(s)}") from None


_KNOWN = {GF2: {"0": 0, "1": 1}, RATIONAL: {"0": _SIGNS[0], "1": _SIGNS[1], "-1": _SIGNS[-1]}}


def _parse_grid(kind: str, value, n_rows: int, n_cols: int) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != n_rows:
        raise DocumentError(f"data must be a list of {n_rows} rows")
    decoded = dict(_KNOWN[kind])  # entry string -> its value, only strings go in
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != n_cols:
            raise DocumentError(f"each data row must be a list of {n_cols} entries")
        try:
            rows.append(tuple(map(decoded.__getitem__, row)))
        except (KeyError, TypeError):  # a string not seen yet, or an unhashable entry
            values = []
            for s in row:
                v = decoded.get(s) if type(s) is str else None
                if v is None:
                    v = decoded[s] = _parse_entry(kind, s)
                values.append(v)
            rows.append(values)
    return _exact(kind, rows, n_cols)


_MATRIX_KEYS = ("rows", "cols", "data")
_STANDARD_REPR_KEYS = ("X", "Y", "B")

_GF2_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _render(names: tuple[str, str, str], m: LabeledMatrix) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` for the document of ``m`` with keys ``field`` and ``names``."""
    enc = json.encoder.encode_basestring_ascii

    def block(items: list[str], pad: str) -> str:
        if not items:
            return "[]"
        return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[2:] + "]"

    # entry strings are digits, "-" and "/", which JSON writes as they are;
    # a GF(2) row becomes one string of its digits, which join takes apart
    gf2, sep = m.kind == GF2, '",\n      "'
    grid = [
        '[\n      "' + sep.join(bytes(row).translate(_GF2_DIGITS).decode() if gf2 else map(str, row))
        + '"\n    ]' if row else "[]"
        for row in m.body.rows
    ]
    h, t, d = names
    return (
        '{\n  "field": ' + enc(m.kind)
        + ',\n  "' + h + '": ' + block([enc(x) for x in m.row_labels], "    ")
        + ',\n  "' + t + '": ' + block([enc(x) for x in m.col_labels], "    ")
        + ',\n  "' + d + '": ' + block(grid, "    ")
        + "\n}\n"
    )


def _read(obj: dict, names: tuple[str, str, str]):
    """The document of ``obj`` keyed by ``names``: a ``LabeledMatrix`` or a ``StandardRepr``."""
    h, t, d = names
    _check_keys(obj, {"field", *names})
    kind = _parse_field(obj["field"])
    head, tail = _parse_labels(obj[h], h), _parse_labels(obj[t], t)
    body = _labeled(head, tail, _parse_grid(kind, obj[d], len(head), len(tail)))
    if names == _MATRIX_KEYS:
        return body
    try:
        return StandardRepr(body)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def parse_matrix_document(text: str) -> LabeledMatrix:
    return _read(_load_object(text), _MATRIX_KEYS)


def render_matrix_document(m: LabeledMatrix) -> str:
    return _render(_MATRIX_KEYS, m)


def parse_standard_repr_document(text: str) -> StandardRepr:
    return _read(_load_object(text), _STANDARD_REPR_KEYS)


def render_standard_repr_document(s: StandardRepr) -> str:
    return _render(_STANDARD_REPR_KEYS, s.B)


def parse_document(text: str):
    """Parse either document type, telling them apart by their keys."""
    obj = _load_object(text)
    for names in (_MATRIX_KEYS, _STANDARD_REPR_KEYS):
        if set(obj) == {"field", *names}:
            return _read(obj, names)
    raise DocumentError(
        "expected a matrix document (field/rows/cols/data) "
        "or a standard representation document (field/X/Y/B)"
    )
