"""JSON document formats for matrices and standard representations.

A matrix document is an object with exactly the keys ``field`` ("gf2" or
"rational"), ``rows`` and ``cols`` (label lists), and ``data`` (a grid
of entry strings).  A standard representation document has exactly the
keys ``field``, ``X``, ``Y``, and ``B``, where ``B`` is the grid for the
X-by-Y matrix.  GF(2) entries are "0" or "1"; rational entries are
integers or reduced "p/q" strings.  Rendering is deterministic, so
parse and render round-trip byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, ExactMatrix
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
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != n_cols:
            raise DocumentError(f"each data row must be a list of {n_cols} entries")
        rows.append([_parse_entry(kind, s) for s in row])
    return ExactMatrix(kind, rows, n_cols=n_cols)


def _grid(m: ExactMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in m.rows]


def parse_matrix_document(text: str) -> LabeledMatrix:
    obj = _load_object(text)
    _check_keys(obj, {"field", "rows", "cols", "data"})
    kind = _parse_field(obj["field"])
    rows = _parse_labels(obj["rows"], "rows")
    cols = _parse_labels(obj["cols"], "cols")
    body = _parse_grid(kind, obj["data"], len(rows), len(cols))
    try:
        return LabeledMatrix(rows, cols, body)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def render_matrix_document(m: LabeledMatrix) -> str:
    doc = {
        "field": m.kind,
        "rows": list(m.row_labels),
        "cols": list(m.col_labels),
        "data": _grid(m.body),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_standard_repr_document(text: str) -> StandardRepr:
    obj = _load_object(text)
    _check_keys(obj, {"field", "X", "Y", "B"})
    kind = _parse_field(obj["field"])
    x = _parse_labels(obj["X"], "X")
    y = _parse_labels(obj["Y"], "Y")
    body = _parse_grid(kind, obj["B"], len(x), len(y))
    try:
        return StandardRepr(x, y, LabeledMatrix(x, y, body))
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def render_standard_repr_document(s: StandardRepr) -> str:
    doc = {
        "field": s.kind,
        "X": list(s.X),
        "Y": list(s.Y),
        "B": _grid(s.B.body),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_document(text: str):
    """Parse either document type, telling them apart by their keys."""
    obj = _load_object(text)
    if set(obj) == {"field", "rows", "cols", "data"}:
        return parse_matrix_document(text)
    if set(obj) == {"field", "X", "Y", "B"}:
        return parse_standard_repr_document(text)
    raise DocumentError(
        "expected a matrix document (field/rows/cols/data) "
        "or a standard representation document (field/X/Y/B)"
    )
