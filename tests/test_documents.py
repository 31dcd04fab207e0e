import json
import random
from fractions import Fraction

import pytest

from helpers import plain_parse_grid
from tumat import (
    GF2,
    RATIONAL,
    DocumentError,
    ExactMatrix,
    LabeledMatrix,
    StandardRepr,
    parse_document,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
)
from tumat.documents import _load_object, _parse_grid, _unique_keys

MATRIX_DOC = {
    "field": "rational",
    "rows": ["u", "v"],
    "cols": ["a", "b", "c"],
    "data": [["1", "-1", "0"], ["0", "1/2", "-3/2"]],
}

REPR_DOC = {
    "field": "gf2",
    "X": ["x1", "x2"],
    "Y": ["y1", "y2", "y3"],
    "B": [["1", "1", "0"], ["0", "1", "1"]],
}


def test_matrix_round_trip():
    text = json.dumps(MATRIX_DOC, indent=2) + "\n"
    m = parse_matrix_document(text)
    assert m.row_labels == ("u", "v")
    assert m.col_labels == ("a", "b", "c")
    assert m.kind == RATIONAL
    assert m.entry("v", "b") == 0.5
    assert render_matrix_document(m) == text


def test_standard_repr_round_trip():
    text = json.dumps(REPR_DOC, indent=2) + "\n"
    s = parse_standard_repr_document(text)
    assert s.X == ("x1", "x2") and s.Y == ("y1", "y2", "y3")
    assert s.kind == GF2
    assert render_standard_repr_document(s) == text


def test_render_is_deterministic():
    m = LabeledMatrix(["r"], ["c"], ExactMatrix(RATIONAL, [["2/4"]]))
    text = render_matrix_document(m)
    assert '"1/2"' in text
    assert render_matrix_document(parse_matrix_document(text)) == text


def test_parse_document_sniffs_type():
    assert isinstance(parse_document(json.dumps(MATRIX_DOC)), LabeledMatrix)
    assert isinstance(parse_document(json.dumps(REPR_DOC)), StandardRepr)
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"field": "gf2", "rows": ["r"], "Y": ["c"], "data": [["1"]]}))


def test_non_json_and_non_object():
    with pytest.raises(DocumentError):
        parse_matrix_document("not json")
    with pytest.raises(DocumentError):
        parse_matrix_document("[1, 2]")


# a key given twice, which json.loads would read with its last value
REPEATED_KEYS = [
    ('{"field": "gf2", "field": "rational", "rows": ["a"], "cols": ["b"], "data": [["2"]]}', "'field'"),
    ('{"field": "gf2", "rows": ["a"], "cols": ["b"], "data": [["1"]], "data": [["0"]]}', "'data'"),
    ('{"field": "gf2", "X": ["a"], "Y": ["b"], "B": [["1"]], "Y": ["c"]}', "'Y'"),
    ('{"field": "gf2", "X": ["a"], "X": ["a"], "Y": ["b"], "B": [["1"]]}', "'X'"),
    # in any object of the text, and a long key quoted by a bounded prefix
    ('{"field": "gf2", "rows": [{"a": 1, "a": 2}], "cols": [], "data": [[]]}', "'a'"),
    ('{"field": "gf2", "%s": 1, "%s": 2}' % ("k" * 50, "k" * 50), "'%s'... (50 characters)" % ("k" * 40)),
]


@pytest.mark.parametrize("text, key", REPEATED_KEYS)
def test_repeated_keys_are_refused(text, key):
    parsers = [parse_document, parse_standard_repr_document if '"X"' in text else parse_matrix_document]
    for parse in parsers:
        with pytest.raises(DocumentError) as exc:
            parse(text)
        assert str(exc.value) == f"repeated key {key}"


def json_loads_object(text):
    """The reference for ``_load_object``: ``json.loads`` with the repeated-key hook, which
    builds a decoder per call and refuses a leading BOM itself."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


@pytest.mark.parametrize("text", [
    "\ufeff" + json.dumps(MATRIX_DOC),
    '{"field": "gf2", "field": "gf2"}',
    json.dumps(MATRIX_DOC)[:-7],
    '{"data": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"field": ' + "7" * 5000 + "}",
], ids=["bom", "repeated-key", "truncated", "deep-nesting", "int-digit-limit"])
def test_one_decoder_reads_as_json_loads(text):
    # _load_object decodes every document through one module-level decoder;
    # its messages are json.loads' own, the BOM refusal included
    with pytest.raises(DocumentError) as expected:
        json_loads_object(text)
    with pytest.raises(DocumentError) as got:
        _load_object(text)
    assert str(got.value) == str(expected.value)
    assert json_loads_object(json.dumps(MATRIX_DOC)) == _load_object(json.dumps(MATRIX_DOC)) == MATRIX_DOC


def test_key_set_errors():
    doc = dict(MATRIX_DOC)
    del doc["data"]
    with pytest.raises(DocumentError, match="missing keys"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, note="hi")
    with pytest.raises(DocumentError, match="unexpected keys"):
        parse_matrix_document(json.dumps(doc))


def test_field_errors():
    doc = dict(MATRIX_DOC, field="real")
    with pytest.raises(DocumentError, match="field"):
        parse_matrix_document(json.dumps(doc))


def test_label_errors():
    doc = dict(MATRIX_DOC, rows=["u", "u"])
    with pytest.raises(DocumentError, match="duplicate"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, rows=["u", 2])
    with pytest.raises(DocumentError, match="nonempty strings"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, rows=["u", ""])
    with pytest.raises(DocumentError, match="nonempty strings"):
        parse_matrix_document(json.dumps(doc))


def test_grid_shape_errors():
    doc = dict(MATRIX_DOC, data=[["1", "0", "0"]])
    with pytest.raises(DocumentError, match="2 rows"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, data=[["1", "0"], ["0", "1"]])
    with pytest.raises(DocumentError, match="3 entries"):
        parse_matrix_document(json.dumps(doc))


def test_entry_errors():
    doc = dict(REPR_DOC, B=[["1", "2", "0"], ["0", "1", "1"]])
    with pytest.raises(DocumentError, match="GF\\(2\\)"):
        parse_standard_repr_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, data=[["1", "-1", "0"], ["0", "1/0", "1"]])
    with pytest.raises(DocumentError, match="malformed"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, data=[["1", "-1", "0"], ["0", "pi", "1"]])
    with pytest.raises(DocumentError, match="malformed"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, data=[["1", "-1", "0"], ["0", 1, "1"]])
    with pytest.raises(DocumentError, match="strings"):
        parse_matrix_document(json.dumps(doc))


def test_shape_errors_become_document_errors():
    doc = dict(REPR_DOC, X=["x1", "y1"], Y=["y1", "y2", "y3"])
    with pytest.raises(DocumentError):
        parse_standard_repr_document(json.dumps(doc))


LABEL_CHARS = ['a', 'b', 'Z', '0', '"', '\\', '\t', '\n', '/', ' ', 'é', 'Ω', '☃', '\U0001f600', '\x00', '\x7f']


def random_labels(rng, n, avoid=()):
    out = []
    while len(out) < n:
        label = "".join(rng.choice(LABEL_CHARS) for _ in range(rng.randint(1, 4)))
        if label not in out and label not in avoid:
            out.append(label)
    return out


def random_body(rng, kind, m, n):
    if kind == GF2:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    else:
        rows = [[Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)] for _ in range(m)]
    return ExactMatrix(kind, rows, n_cols=n)


def test_render_equals_json_dumps_indent_2():
    # the oracle is the encoder the renderer replaces: json.dumps(doc, indent=2) + "\n"
    rng = random.Random(7)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    for case in range(1200):
        m, n = shapes[case] if case < len(shapes) else (rng.randint(0, 6), rng.randint(0, 6))
        kind = rng.choice((GF2, RATIONAL))
        body = random_body(rng, kind, m, n)
        grid = [[str(v) for v in row] for row in body.rows]
        rows = random_labels(rng, m)
        cols = random_labels(rng, n, avoid=rows)
        lm = LabeledMatrix(rows, cols, body)
        text = render_matrix_document(lm)
        assert text == json.dumps({"field": kind, "rows": rows, "cols": cols, "data": grid}, indent=2) + "\n"
        assert parse_matrix_document(text) == lm
        s = StandardRepr(lm)
        text = render_standard_repr_document(s)
        assert text == json.dumps({"field": kind, "X": rows, "Y": cols, "B": grid}, indent=2) + "\n"
        assert render_standard_repr_document(parse_standard_repr_document(text)) == text


@pytest.mark.parametrize("entry, canonical", [
    ("01", "1"), ("-0", "0"), ("+3", "3"), ("2/4", "1/2"), ("-6/3", "-2"), (" 5 ", "5"), ("1.5", "3/2"),
])
def test_parse_render_canonicalises_rational_entries(entry, canonical):
    doc = dict(MATRIX_DOC, data=[["1", entry, "0"], [entry, "1/2", entry]])
    out = render_matrix_document(parse_matrix_document(json.dumps(doc)))
    assert out == json.dumps(dict(doc, data=[["1", canonical, "0"], [canonical, "1/2", canonical]]), indent=2) + "\n"


@pytest.mark.parametrize("bad, shown", [
    (["x"], "['x']"), ({}, "{}"), (True, "True"), (False, "False"), (1, "1"), (0, "0"), (None, "None"), (1.0, "1.0"),
])
@pytest.mark.parametrize("doc", [MATRIX_DOC, REPR_DOC], ids=["rational", "gf2"])
def test_non_string_entries_are_rejected_wherever_they_sit(doc, bad, shown):
    key = "data" if "data" in doc else "B"
    # before any string, after an equal-looking string in the same row, and in a later row
    for grid in ([[bad, "1", "0"], ["0", "1", "1"]],
                 [["1", bad, "0"], ["0", "1", "1"]],
                 [["1", "0", "1"], ["0", "1", bad]]):
        with pytest.raises(DocumentError) as exc:
            parse_document(json.dumps(dict(doc, **{key: grid})))
        assert str(exc.value) == f"entries must be strings, got {shown}"


def test_first_bad_entry_in_row_order_is_reported():
    doc = dict(MATRIX_DOC, data=[["1", "7/0", {}], [1, "x", "0"]])
    with pytest.raises(DocumentError, match="^malformed rational entry '7/0'$"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(MATRIX_DOC, data=[["1", "5", ["x"]], ["pi", "0", "0"]])
    with pytest.raises(DocumentError, match=r"^entries must be strings, got \['x'\]$"):
        parse_matrix_document(json.dumps(doc))
    doc = dict(REPR_DOC, B=[["1", "1", "0"], ["0", "1", "01"]])
    with pytest.raises(DocumentError, match="""^GF\\(2\\) entries must be "0" or "1", got '01'$"""):
        parse_standard_repr_document(json.dumps(doc))


_GRID_FAULTS = [7, ["1"], None, {}, "2", "1e5", "", "1/0", "x" * 100]
_LATE_RATIONALS = ["2/4", "01", "-0"]


def _grid_cases(seed: int):
    """Seeded grids up to 40x40, some with a fault or new rational strings planted in a late row."""
    rng = random.Random(seed)
    for _ in range(60):
        kind = rng.choice((GF2, RATIONAL))
        n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
        pool = ["0", "1"] if kind == GF2 else ["0", "1", "-1", "0", "1", "3", "-1/2"]
        grid = [[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)]
        late = rng.randrange(n_rows // 2, n_rows)
        plant = rng.choice(("fault", "new", "fault and new", "none"))
        if "new" in plant and kind == RATIONAL:
            for s in _LATE_RATIONALS:
                grid[rng.randrange(late, n_rows)][rng.randrange(n_cols)] = s
        if "fault" in plant:
            grid[late][rng.randrange(n_cols)] = rng.choice(_GRID_FAULTS)
        yield kind, grid, n_rows, n_cols


def _decoded(kind, grid, n_rows, n_cols, parse):
    try:
        rows = parse(kind, grid, n_rows, n_cols).rows
    except DocumentError as exc:
        return "error", str(exc)
    return rows, [[type(v) for v in row] for row in rows]


@pytest.mark.parametrize("seed", range(5))
def test_grid_decoder_matches_the_per_entry_loop(seed):
    outcomes = set()
    for kind, grid, n_rows, n_cols in _grid_cases(seed):
        want = _decoded(kind, grid, n_rows, n_cols, plain_parse_grid)
        assert _decoded(kind, grid, n_rows, n_cols, _parse_grid) == want
        if want[0] != "error":
            assert {t for row in want[1] for t in row} <= {int if kind == GF2 else Fraction}
        outcomes.add((kind, want[0] == "error"))
    assert len(outcomes) == 4  # both fields, decoded and refused
