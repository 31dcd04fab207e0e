"""JSON document formats for matrices and standard representations.

A matrix document is an object with exactly the keys ``field`` ("gf2" or
"rational"), ``rows`` and ``cols`` (label lists), and ``data`` (a grid
of entry strings).  A standard representation document has exactly the
keys ``field``, ``X``, ``Y``, and ``B``, where ``B`` is the grid for the
X-by-Y matrix.  GF(2) entries are "0" or "1"; rational entries are
integers or reduced "p/q" strings.  Rendering is deterministic, so
parse and render round-trip byte for byte: a rendered document is
``json.dumps(doc, indent=2) + "\n"``, written out directly rather than
through the pure-Python encoder that ``indent`` selects.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, ExactMatrix, _exact
from .matroid import LabeledMatrix
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


def _load_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def _check_keys(obj: dict, keys: set[str]) -> None:
    got = set(obj)
    if got != keys:
        missing = sorted(keys - got)
        extra = sorted(got - keys)
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unexpected keys {extra}")
        raise DocumentError("; ".join(parts))


def _parse_field(value) -> str:
    if value not in (GF2, RATIONAL):
        raise DocumentError(f'field must be "gf2" or "rational", got {value!r}')
    return value


def _parse_labels(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) and x for x in value):
        raise DocumentError(f"{what} must be a list of nonempty strings")
    if len(set(value)) != len(value):
        raise DocumentError(f"duplicate labels in {what}")
    return value


def _parse_entry(kind: str, s) -> object:
    if not isinstance(s, str):
        raise DocumentError(f"entries must be strings, got {s!r}")
    if kind == GF2:
        if s not in ("0", "1"):
            raise DocumentError(f'GF(2) entries must be "0" or "1", got {s!r}')
        return int(s)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"malformed rational entry {s!r}") from None


def _parse_grid(kind: str, value, n_rows: int, n_cols: int) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != n_rows:
        raise DocumentError(f"data must be a list of {n_rows} rows")
    decoded: dict[str, object] = {}  # entry string -> its value, only strings go in
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != n_cols:
            raise DocumentError(f"each data row must be a list of {n_cols} entries")
        values = []
        for s in row:
            v = decoded.get(s) if type(s) is str else None
            if v is None:
                v = decoded[s] = _parse_entry(kind, s)
            values.append(v)
        rows.append(values)
    return _exact(kind, rows, n_cols)


_GF2_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _render(field: str, names: tuple[str, str, str], head, tail, body: ExactMatrix) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` for the document with keys ``field`` and ``names``."""
    enc = json.encoder.encode_basestring_ascii

    def block(items: list[str], pad: str) -> str:
        if not items:
            return "[]"
        return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[2:] + "]"

    # entry strings are digits, "-" and "/", which JSON writes as they are;
    # a GF(2) row becomes one string of its digits, which join takes apart
    gf2, sep = body.kind == GF2, '",\n      "'
    grid = [
        '[\n      "' + sep.join(bytes(row).translate(_GF2_DIGITS).decode() if gf2 else map(str, row))
        + '"\n    ]' if row else "[]"
        for row in body.rows
    ]
    h, t, d = names
    return (
        '{\n  "field": ' + enc(field)
        + ',\n  "' + h + '": ' + block([enc(x) for x in head], "    ")
        + ',\n  "' + t + '": ' + block([enc(x) for x in tail], "    ")
        + ',\n  "' + d + '": ' + block(grid, "    ")
        + "\n}\n"
    )


def _matrix_from(obj: dict) -> LabeledMatrix:
    _check_keys(obj, {"field", "rows", "cols", "data"})
    kind = _parse_field(obj["field"])
    rows = _parse_labels(obj["rows"], "rows")
    cols = _parse_labels(obj["cols"], "cols")
    body = _parse_grid(kind, obj["data"], len(rows), len(cols))
    try:
        return LabeledMatrix(rows, cols, body)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def parse_matrix_document(text: str) -> LabeledMatrix:
    return _matrix_from(_load_object(text))


def render_matrix_document(m: LabeledMatrix) -> str:
    return _render(m.kind, ("rows", "cols", "data"), m.row_labels, m.col_labels, m.body)


def _standard_repr_from(obj: dict) -> StandardRepr:
    _check_keys(obj, {"field", "X", "Y", "B"})
    kind = _parse_field(obj["field"])
    x = _parse_labels(obj["X"], "X")
    y = _parse_labels(obj["Y"], "Y")
    body = _parse_grid(kind, obj["B"], len(x), len(y))
    try:
        return StandardRepr(x, y, LabeledMatrix(x, y, body))
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def parse_standard_repr_document(text: str) -> StandardRepr:
    return _standard_repr_from(_load_object(text))


def render_standard_repr_document(s: StandardRepr) -> str:
    return _render(s.kind, ("X", "Y", "B"), s.X, s.Y, s.B.body)


def parse_document(text: str):
    """Parse either document type, telling them apart by their keys."""
    obj = _load_object(text)
    if set(obj) == {"field", "rows", "cols", "data"}:
        return _matrix_from(obj)
    if set(obj) == {"field", "X", "Y", "B"}:
        return _standard_repr_from(obj)
    raise DocumentError(
        "expected a matrix document (field/rows/cols/data) "
        "or a standard representation document (field/X/Y/B)"
    )
