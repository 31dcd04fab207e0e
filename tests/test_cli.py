import contextlib
import errno
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from tumat import (
    GF2,
    RATIONAL,
    DocumentError,
    ExactMatrix,
    LabeledMatrix,
    StandardRepr,
    is_signing_of,
    is_totally_unimodular,
    is_tu_signing_of,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
)
from tumat import cli, exactmat, matroid, stdrepr, sums, tu
from tumat.cli import main
from tumat.fixtures import incidence_matrix

from helpers import is_regular_witness, labels, make_repr, random_standard_repr, support

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURES = ROOT / "fixtures"

K3_FLAGS = [
    "--x0", "x0", "--x1", "x1", "--x2", "x2",
    "--y0", "y0", "--y1", "y1", "--y2", "y2",
]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (DATA / name).read_text()


def test_tu_check_positive(capsys):
    code, out, err = run(capsys, "tu", "check", FIXTURES / "network_uv.json")
    assert (code, out, err) == (0, "TU\n", "")
    for name in ("network_path4.json", "network_cycle5.json"):
        code, out, _ = run(capsys, "tu", "check", FIXTURES / name)
        assert (code, out) == (0, "TU\n")


def test_tu_check_negative_names_witness(capsys):
    code, out, _ = run(capsys, "tu", "check", DATA / "not_tu.json")
    assert code == 1
    assert out == "not TU: rows [u, v] cols [a, b] det 2\n"


def test_tu_check_reads_standard_repr_as_full_matrix(capsys):
    code, out, _ = run(capsys, "tu", "check", DATA / "repr_rational.json")
    assert (code, out) == (0, "TU\n")


def identity9(tmp_path, kind):
    """The 9x9 identity over ``kind`` as a matrix document: one line past the default TU guard of 8."""
    path = tmp_path / f"identity9_{kind}.json"
    body = ExactMatrix.identity(9, kind)
    path.write_text(render_matrix_document(LabeledMatrix(labels("r", 9), labels("c", 9), body)))
    return path


def identity9_repr(tmp_path):
    """[I | I] over GF(2) as a standard representation document, rows x10..x18
    and columns y10..y18: its B is one line past the default TU guard."""
    path = tmp_path / "identity9_repr.json"
    body = ExactMatrix.identity(9, GF2)
    path.write_text(render_standard_repr_document(make_repr(labels("x", 9, 10), labels("y", 9, 10), body)))
    return path


TU_GUARD_9X9 = (
    "size guard: TU check on a 9x9 matrix exceeds the size guard (min dim > 8); "
    "pass --force to run anyway\n"
)


def test_tu_check_guard_and_force(capsys, tmp_path):
    doc = identity9(tmp_path, RATIONAL)
    code, _, err = run(capsys, "tu", "check", doc)
    assert code == 3
    assert err == TU_GUARD_9X9
    code, out, _ = run(capsys, "tu", "check", doc, "--force")
    assert (code, out) == (0, "TU\n")


def test_tu_sign_and_regular_check_guard_and_force(capsys, tmp_path):
    doc = identity9(tmp_path, GF2)
    assert run(capsys, "tu", "sign", doc) == (3, "", TU_GUARD_9X9)
    code, out, err = run(capsys, "tu", "sign", doc, "--force")
    assert (code, err) == (0, "")
    assert parse_matrix_document(out).body == ExactMatrix.identity(9, RATIONAL)
    rep = identity9_repr(tmp_path)
    assert run(capsys, "regular", "check", rep) == (3, "", TU_GUARD_9X9)
    assert run(capsys, "regular", "check", rep, "--force") == (0, "regular\n", "")


@pytest.mark.parametrize("doc, message", [
    ({"field": "gf2", "rows": ["u", "u"], "cols": ["a"], "data": [["1"], ["0"]]},
     "duplicate labels in rows"),
    ({"field": "gf2", "rows": ["u"], "cols": ["a", "a"], "data": [["1", "0"]]},
     "duplicate labels in cols"),
    ({"field": "gf2", "rows": ["u", ""], "cols": ["a"], "data": [["1"], ["0"]]},
     "rows must be a list of nonempty strings"),
    ({"field": "gf2", "rows": ["u", 3], "cols": ["a"], "data": [["1"], ["0"]]},
     "rows must be a list of nonempty strings"),
    ({"field": "gf2", "X": ["u", "u"], "Y": ["a"], "B": [["1"], ["1"]]},
     "duplicate labels in X"),
    ({"field": "gf2", "X": ["u"], "Y": ["u"], "B": [["1"]]},
     "X and Y must be disjoint"),
])
def test_malformed_label_documents_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "tu", "check", path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, text, key", [
    (["tu", "check"], '{"field":"gf2","field":"rational","rows":["a"],"cols":["b"],"data":[["2"]]}', "'field'"),
    (["regular", "check"], '{"field":"gf2","X":["a"],"Y":["b"],"B":[["1"]],"Y":["c"]}', "'Y'"),
])
def test_repeated_key_documents_exit_2(capsys, tmp_path, argv, text, key):
    # read with its last value, the first document's "2" would be a rational
    # entry and tu check would answer "not TU" with exit 1; both kinds are refused
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert run(capsys, *argv, path) == (2, "", f"error: repeated key {key}\n")
    assert _fresh_process([*argv, str(path)]) == (2, "", f"error: repeated key {key}\n")


@pytest.mark.parametrize("field, entry", [
    ("rational", "1" + "0" * 5000),  # too many digits for int
    ("gf2", "1" * 5000),
], ids=["rational", "gf2"])
def test_overlong_entry_is_quoted_by_a_bounded_prefix(capsys, tmp_path, field, entry):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": field, "rows": ["u"], "cols": ["a", "b"], "data": [["1", entry]]}))
    code, out, err = run(capsys, "tu", "check", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120
    assert err.endswith(f"'{entry[:40]}'... ({len(entry)} characters)\n")


def test_tu_sign_r10_golden(capsys):
    code, out, _ = run(capsys, "tu", "sign", FIXTURES / "r10.json")
    assert code == 0
    assert out == golden("golden_r10_signing.json")
    witness = parse_matrix_document(out)
    full = parse_standard_repr_document((FIXTURES / "r10.json").read_text()).to_full()
    assert is_tu_signing_of(witness.body, full.body)


def test_tu_sign_fano_negative(capsys):
    code, out, err = run(capsys, "tu", "sign", FIXTURES / "fano.json")
    assert code == 1
    assert out == ""
    assert err == "no TU signing\n"


def test_tu_sign_rational_document_exits_2(capsys):
    code, out, err = run(capsys, "tu", "sign", FIXTURES / "network_uv.json")
    assert (code, out, err) == (2, "", "error: tu sign takes a GF(2) document\n")


def test_tu_sign_output_file(capsys, tmp_path):
    target = tmp_path / "w.json"
    code, out, _ = run(capsys, "tu", "sign", FIXTURES / "r10.json", "-o", target)
    assert code == 0 and out == ""
    assert target.read_text() == golden("golden_r10_signing.json")


def test_tu_sign_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "w.json"
    code, out, err = run(capsys, "tu", "sign", FIXTURES / "r10.json", "-o", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_sum_k1_golden_round_trips(capsys):
    code, out, _ = run(capsys, "sum", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert code == 0
    assert out == golden("golden_sum_k1.json")
    s = parse_standard_repr_document(out)
    assert s.X == ("x1", "x2", "x3")


def test_sum_k2_golden(capsys):
    code, out, _ = run(capsys, "sum", "-k", "2", "--x", "x2", "--y", "y2",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert code == 0
    assert out == golden("golden_sum_k2.json")
    assert parse_standard_repr_document(out).B.body.to_lists() == [
        [1, 1, 0], [0, 1, 0], [0, 1, 1]]


def test_sum_k3_golden(capsys):
    code, out, _ = run(capsys, "sum", "-k", "3", *K3_FLAGS,
                       FIXTURES / "sum3/d0-1001-left.json",
                       FIXTURES / "sum3/d0-1001-right.json")
    assert code == 0
    assert out == golden("golden_sum_k3.json")


def test_sum_invalid_reports_reason(capsys):
    code, out, err = run(capsys, "sum", "-k", "2", "--x", "x2", "--y", "y2",
                         DATA / "sum2_left_zero.json", FIXTURES / "sum2_right.json")
    assert code == 1 and out == ""
    assert err.startswith("invalid 2-sum [zero-row-r]:")
    code, _, err = run(capsys, "sum", "-k", "1",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert code == 1
    assert err.startswith("invalid 1-sum [x-overlap]:")


def test_sum_missing_glue_flags(capsys):
    code, _, err = run(capsys, "sum", "-k", "2",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert code == 2
    assert "--x" in err
    code, _, err = run(capsys, "sum", "-k", "3",
                       FIXTURES / "sum3/d0-1001-left.json",
                       FIXTURES / "sum3/d0-1001-right.json")
    assert code == 2
    assert "--x0" in err


@pytest.mark.parametrize("words", [["sum"], ["verify", "composition"]])
@pytest.mark.parametrize("flags, named", [
    (["-k", "2", "--x", "zz", "--x", "x2", "--y", "y2"], "--x"),
    (["-k", "2", "--x", "x2", "--y", "y2", "--y", "y2"], "--y"),
    (["-k", "3", "--k", "2", "--x", "x2", "--y", "y2"], "--k"),
])
def test_a_repeated_sum_flag_is_a_usage_error(capsys, words, flags, named):
    # a second -k or glue flag would silently replace the first
    with pytest.raises(SystemExit) as exc:
        main([*words, *flags, str(FIXTURES / "sum2_left.json"), str(FIXTURES / "sum2_right.json")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and captured.err.startswith("usage: tumat " + " ".join(words))
    assert captured.err.endswith(f": error: argument {named}: given more than once\n")


def test_sum_shape_error_exit_2(capsys):
    code, _, err = run(capsys, "sum", "-k", "2", "--x", "x9", "--y", "y2",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert code == 2
    assert err.startswith("error:")


def test_regular_check(capsys, tmp_path):
    code, out, _ = run(capsys, "regular", "check", FIXTURES / "r10.json")
    assert (code, out) == (0, "regular\n")
    code, out, _ = run(capsys, "regular", "check", FIXTURES / "fano.json")
    assert (code, out) == (1, "not regular\n")
    target = tmp_path / "w.json"
    code, _, _ = run(capsys, "regular", "check", FIXTURES / "r10.json", "-o", target)
    assert code == 0
    witness = parse_matrix_document(target.read_text())
    rep = parse_standard_repr_document((FIXTURES / "r10.json").read_text())
    assert witness.row_labels == rep.X and witness.col_labels == rep.Y
    assert is_tu_signing_of(witness.body, rep.B.body)


def test_regular_check_unwritable_output_exits_2(capsys, tmp_path):
    # the witness is written before the verdict is printed, so a failed
    # write leaves stdout empty
    target = tmp_path / "missing" / "w.json"
    code, out, err = run(capsys, "regular", "check", FIXTURES / "r10.json", "-o", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["tu", "check", FIXTURES / "network_uv.json"],
    ["tu", "check", DATA / "not_tu.json"],
    ["tu", "sign", FIXTURES / "r10.json"],
    ["sum", "-k", "1", FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"],
    ["regular", "check", FIXTURES / "r10.json"],
    ["regular", "check", FIXTURES / "fano.json"],
    ["matroid", "info", FIXTURES / "fano.json"],
    ["matroid", "eq", FIXTURES / "fano.json", FIXTURES / "r10.json"],
    ["verify", "composition", "-k", "1", FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"],
])
def test_a_stdout_write_error_exits_2_with_one_line(argv):
    # a failed write to stdout is reported as a failed -o write is, not
    # raised out of main, where its exit code 1 would read as a negative
    # verdict
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStdout()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert (code, err.getvalue()) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [
    ["tu", "check", FIXTURES / "missing.json"],  # an error message
    ["tu", "sign", FIXTURES / "fano.json"],  # a negative verdict, written to stderr
    ["tu", "check", None],  # a size guard trip
])
def test_a_stderr_write_error_exits_2(argv, tmp_path):
    # when stderr cannot take the message, nothing is reported, and the
    # exit code is the write error's: nothing escapes main, whose exit code
    # 1 would read as a negative verdict
    argv = [identity9(tmp_path, GF2) if a is None else a for a in argv]
    out, err = io.StringIO(), _FullStdout()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert (code, out.getvalue()) == (2, "")


def test_glue_flags_that_k_does_not_read_are_refused(capsys):
    # -k 1 reads no glue flag, -k 2 only --x and --y, -k 3 only --x0 ... --y2;
    # any other is refused by name, after a missing flag
    for words in (["sum"], ["verify", "composition"]):
        for k, extra in ((1, "--x"), (1, "--y2"), (2, "--x0"), (2, "--y1"), (3, "--x"), (3, "--y")):
            flags, left, right = FUZZ_SUMS[k]
            code, out, err = run(capsys, *words, "-k", k, *flags, extra, "g", FIXTURES / left, FIXTURES / right)
            assert (code, out, err) == (2, "", f"error: --k {k} takes no {extra}\n")
        flags, left, right = FUZZ_SUMS[2]
        code, out, err = run(capsys, *words, "-k", 2, "--x", "x2", "--x0", "g", FIXTURES / left, FIXTURES / right)
        assert (code, out, err) == (2, "", "error: --k 2 needs --x and --y\n")


def test_matroid_info_golden(capsys):
    code, out, _ = run(capsys, "matroid", "info", FIXTURES / "fano.json")
    assert code == 0
    assert out == golden("golden_matroid_info_fano.txt")


def test_matroid_info_max_bases(capsys):
    code, out, _ = run(capsys, "matroid", "info", FIXTURES / "fano.json",
                       "--max-bases", "5")
    assert code == 0
    assert out == "elements: 7\nrank: 3\nbases: 28\n"


@pytest.mark.parametrize("max_bases, listed", [(28, True), (27, False), (0, False), (-1, False)])
def test_matroid_info_lists_bases_up_to_max_bases(capsys, max_bases, listed):
    # the Fano matroid has 28 bases
    code, out, _ = run(capsys, "matroid", "info", FIXTURES / "fano.json", "--max-bases", max_bases)
    assert code == 0
    assert out == (golden("golden_matroid_info_fano.txt") if listed else "elements: 7\nrank: 3\nbases: 28\n")


@pytest.mark.parametrize("kind, n_rows", [(GF2, 2), (RATIONAL, 3), (GF2, 0)])
def test_matroid_info_rank_zero_has_the_empty_base(capsys, tmp_path, kind, n_rows):
    doc = tmp_path / "zero.json"
    doc.write_text(render_matrix_document(
        LabeledMatrix(labels("r", n_rows), ["a", "b", "c"], ExactMatrix.zeros(n_rows, 3, kind))))
    code, out, _ = run(capsys, "matroid", "info", doc)
    assert (code, out) == (0, "elements: 3\nrank: 0\nbases: 1\n  \n")


def test_matroid_info_makes_no_independence_queries(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("matroid info called FiniteMatroid.indep")

    monkeypatch.setattr(matroid.FiniteMatroid, "indep", refuse)
    arcs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    doc = tmp_path / "k4.json"
    rep = LabeledMatrix(labels("v", 4), labels("a", 6), incidence_matrix(4, arcs))
    doc.write_text(render_matrix_document(rep))
    for path in (FIXTURES / "fano.json", doc):
        code, out, _ = run(capsys, "matroid", "info", path)
        assert code == 0
    assert out.splitlines()[2] == "bases: 16"  # Cayley: K4 has 4^2 spanning trees


def test_matroid_info_and_eq_reduce_each_document_once(capsys, monkeypatch, tmp_path):
    # to_matroid reduces a document once; rank, bases, counts and equality read that form
    calls = []
    echelon = matroid._echelon

    def counted(*args):
        calls.append(args[0])
        return echelon(*args)

    monkeypatch.setattr(matroid, "_echelon", counted)
    fano_q = tmp_path / "fano_q.json"
    fano_q.write_text((FIXTURES / "fano.json").read_text().replace('"gf2"', '"rational"'))
    for path in (FIXTURES / "fano.json", FIXTURES / "network_uv.json", fano_q):
        calls.clear()
        assert run(capsys, "matroid", "info", path)[0] == 0
        assert len(calls) == 1
    for left, right in ((FIXTURES / "fano.json",) * 2, (FIXTURES / "network_uv.json",) * 2,
                        (fano_q, FIXTURES / "fano.json")):
        calls.clear()
        assert run(capsys, "matroid", "eq", left, right)[0] in (0, 1)
        assert len(calls) == 2


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_matroid_info_counts_the_spanning_trees_of_k7(capsys, tmp_path, kind):
    arcs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    body = incidence_matrix(7, arcs)
    if kind == GF2:
        body = ExactMatrix(GF2, [[abs(x) for x in row] for row in body.rows])
    doc = tmp_path / "k7.json"
    doc.write_text(render_matrix_document(LabeledMatrix(labels("v", 7), labels("a", 21), body)))
    code, out, _ = run(capsys, "matroid", "info", doc)
    assert (code, out) == (0, "elements: 21\nrank: 6\nbases: 16807\n")  # Cayley: 7^5


def test_matroid_info_search_takes_no_stack_frame_per_element(capsys, tmp_path):
    # the identity has one base, of all 400 elements; under a recursion limit
    # of 250 a search that recursed once per element would raise RecursionError
    n = 400
    cols = [f"e{j}" for j in range(n)]
    rows = ",".join("[" + ",".join('"1"' if i == j else '"0"' for j in range(n)) + "]" for i in range(n))
    doc = tmp_path / "identity.json"
    doc.write_text(f'{{"field": "gf2", "rows": {json.dumps(labels("r", n))}, "cols": {json.dumps(cols)}, '
                   f'"data": [{rows}]}}')
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, _ = run(capsys, "matroid", "info", doc)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (0, f"elements: {n}\nrank: {n}\nbases: 1\n  {' '.join(sorted(cols))}\n")


def test_matroid_eq(capsys):
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "r10.json")
    assert (code, out) == (1, "not equal\n")


def test_matroid_eq_guard(capsys, tmp_path):
    # GF(2) sides compare at a shared base, so the guard does not apply;
    # U(2,19) over Q (columns (1, k)) is not binary, its greedy bases agree,
    # and it takes the guarded comparison of bases, past the guard of 18.
    u219_gf2, u219_q = (tmp_path / "u219_gf2.json", tmp_path / "u219_q.json")
    columns = [(1, k) for k in range(1, 20)]
    for path, kind in ((u219_gf2, GF2), (u219_q, RATIONAL)):
        rows = [[c[i] % 2 if kind == GF2 else c[i] for c in columns] for i in range(2)]
        body = ExactMatrix(kind, rows, n_cols=19)
        path.write_text(render_matrix_document(LabeledMatrix(["r", "s"], labels("e", 19), body)))
    code, out, _ = run(capsys, "matroid", "eq", u219_gf2, u219_gf2)
    assert (code, out) == (0, "equal\n")
    code, out, err = run(capsys, "matroid", "eq", u219_q, u219_q)
    assert (code, out) == (3, "")
    assert err == (
        "size guard: exhaustive matroid comparison over 19 elements exceeds the guard (18); "
        "pass --force to run anyway\n"
    )
    code, out, _ = run(capsys, "matroid", "eq", u219_q, u219_q, "--force")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "matroid", "eq", u219_q, u219_gf2, "--force")
    assert (code, out) == (1, "not equal\n")


def _gf2_row_mixed(rng, rep):
    """``rep`` over GF(2) after row additions, a row shuffle and a column
    shuffle: the same column matroid."""
    rows = [[1 if v else 0 for v in row] for row in rep.body.rows]
    for _ in range(3 * len(rows)):
        i, k = rng.sample(range(len(rows)), 2)
        rows[i] = [x ^ y for x, y in zip(rows[i], rows[k])]
    rng.shuffle(rows)
    order = list(range(len(rep.col_labels)))
    rng.shuffle(order)
    body = ExactMatrix(GF2, [[row[j] for j in order] for row in rows], n_cols=len(order))
    return LabeledMatrix(labels("r", len(rows)), [rep.col_labels[j] for j in order], body)


def _eq(capsys, tmp_path, left, right):
    paths = [tmp_path / "left.json", tmp_path / "right.json"]
    for path, rep in zip(paths, (left, right)):
        render = render_standard_repr_document if isinstance(rep, StandardRepr) else render_matrix_document
        path.write_text(render(rep))
    return run(capsys, "matroid", "eq", *paths)[:2]


@pytest.mark.parametrize("n_rows, n_cols", [(6, 13), (10, 30)])
def test_matroid_eq_gf2_past_the_exhaustive_size(capsys, tmp_path, n_rows, n_cols):
    # 19 and 40 elements, past the subset loop's default guard of 18
    rng = random.Random(n_rows + n_cols)
    s = random_standard_repr(rng, n_rows, n_cols)
    assert _eq(capsys, tmp_path, s, _gf2_row_mixed(rng, s.to_full())) == (0, "equal\n")
    # Toggling B[x][y] toggles whether X - x + y is a base: a different matroid.
    x, y = s.X[0], s.Y[0]
    rows = [list(row) for row in s.B.body.rows]
    rows[0][0] ^= 1
    flipped = make_repr(s.X, s.Y, ExactMatrix(GF2, rows, n_cols=n_cols))
    swap = set(s.X) - {x} | {y}
    assert s.to_matroid().indep(swap) != flipped.to_matroid().indep(swap)
    assert _eq(capsys, tmp_path, s, _gf2_row_mixed(rng, flipped.to_full())) == (1, "not equal\n")


@pytest.mark.parametrize("n_nodes, n_arcs", [(7, 19), (8, 40)])
def test_matroid_eq_tu_rational_against_gf2_past_the_exhaustive_size(
        capsys, tmp_path, n_nodes, n_arcs):
    # An incidence matrix (a path plus arcs out of node 0) less one row is
    # TU, and a TU matrix has the same matroid as its reduction mod 2.
    arcs = [(v, v + 1) for v in range(n_nodes - 1)]
    arcs += [(0, 1 + k % (n_nodes - 1)) for k in range(n_arcs - len(arcs))]
    body = incidence_matrix(n_nodes, arcs).submatrix(range(n_nodes - 1), range(n_arcs))
    rep = LabeledMatrix(labels("v", n_nodes - 1), labels("a", n_arcs), body)
    rng = random.Random(n_arcs)
    assert _eq(capsys, tmp_path, rep, _gf2_row_mixed(rng, rep)) == (0, "equal\n")


def test_matroid_eq_different_greedy_bases_answer_past_the_guard(capsys, tmp_path):
    # Two rank-2 matroids over Q on 20 elements, neither binary, with columns
    # (1, k) for e03..e20.  e02 is parallel to e01 on the left only, so the
    # greedy bases {e01, e03} and {e01, e02} differ and no subset is compared.
    ground = [f"e{i:02d}" for i in range(1, 21)]
    tail = [(1, k) for k in range(3, 21)]
    left, right = (
        LabeledMatrix(["r", "s"], ground, ExactMatrix(RATIONAL, list(zip(*head, *tail)), n_cols=20))
        for head in ([(1, 1), (2, 2)], [(1, 1), (1, 2)])
    )
    assert not matroid.matroids_equal(matroid.to_matroid(left), matroid.to_matroid(right))
    assert _eq(capsys, tmp_path, left, right) == (1, "not equal\n")


def test_matroid_eq_force_lifts_the_tu_guard_before_comparing_bases(capsys, monkeypatch, tmp_path):
    # [I | N] over Q and over GF(2), N a 22-arc network matrix on 11 nodes
    # less one row: B at the shared base is N, 10x22, past the default TU
    # guard.  Without --force the base comparison of 32 elements is refused;
    # with it, the forced TU check decides the pair and no subset is visited.
    rng = random.Random(11)
    arcs = [(v, v + 1) for v in range(10)]
    while len(arcs) < 22:
        arcs.append(tuple(rng.sample(range(11), 2)))
    n = incidence_matrix(11, arcs).to_lists()[1:]
    rows = [[int(i == j) for j in range(10)] + row for i, row in enumerate(n)]
    paths = [tmp_path / "q.json", tmp_path / "gf2.json"]
    for path, kind in zip(paths, (RATIONAL, GF2)):
        body = ExactMatrix(kind, rows, n_cols=32)
        path.write_text(render_matrix_document(LabeledMatrix(labels("r", 10), labels("e", 32, 10), body)))
    assert run(capsys, "matroid", "eq", *paths) == (
        3, "", "size guard: exhaustive matroid comparison over 32 elements exceeds the guard (18); "
               "pass --force to run anyway\n")

    def no_base_comparison(*args):
        raise AssertionError("compared bases although the TU check was allowed to run")

    monkeypatch.setattr(matroid, "_bases_equal", no_base_comparison)
    assert run(capsys, "matroid", "eq", *paths, "--force") == (0, "equal\n", "")


def test_verify_composition_k1(capsys):
    code, out, _ = run(capsys, "verify", "composition", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")


def test_verify_composition_unwritable_out_dir_exits_2_and_prints_no_verdict(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    blocked_file = tmp_path / "d" / "sum.json"
    blocked_file.mkdir(parents=True)
    for out_dir, path in ((blocker, blocker), (blocked_file.parent, blocked_file)):
        code, out, err = run(capsys, "verify", "composition", "-k", "1", "--out-dir", out_dir,
                             FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")


def test_verify_composition_out_dir_writes_nothing_when_one_file_fails(capsys, tmp_path):
    (tmp_path / "witness.json").mkdir()
    code, out, err = run(capsys, "verify", "composition", "-k", "1", "--out-dir", tmp_path,
                         FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path / 'witness.json'}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["witness.json"]
    assert not any((tmp_path / "witness.json").iterdir())


def test_verify_composition_k2_artifacts(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "composition", "-k", "2",
                       "--x", "x2", "--y", "y2", "--out-dir", tmp_path,
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert (code, out) == (0, "verified 2-sum composition: regular\n")
    s = parse_standard_repr_document((tmp_path / "sum.json").read_text())
    witness = parse_matrix_document((tmp_path / "witness.json").read_text())
    assert is_tu_signing_of(witness.body, s.B.body)


def assert_witness_represents_sum(out_dir):
    # independent of is_tu_signing_of: [I | W] over Q and [I | B] over GF(2)
    # are compared as matroids, subset by subset
    s = parse_standard_repr_document((out_dir / "sum.json").read_text())
    w = parse_matrix_document((out_dir / "witness.json").read_text())
    assert len(s.ground) <= 10
    assert (w.row_labels, w.col_labels) == (s.X, s.Y)
    assert is_regular_witness(StandardRepr(w).to_full(), s.to_matroid())


def test_verify_composition_k3_golden(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "composition", "-k", "3", *K3_FLAGS,
                       "--out-dir", tmp_path,
                       FIXTURES / "sum3/d0-1101-left.json",
                       FIXTURES / "sum3/d0-1101-right.json")
    assert (code, out) == (0, "verified 3-sum composition: regular\n")
    assert (tmp_path / "sum.json").read_text() == golden("golden_verify_k3_sum.json")
    assert (tmp_path / "witness.json").read_text() == golden("golden_verify_k3_witness.json")
    assert_witness_represents_sum(tmp_path)


VERIFY_CASES = {
    "k1-sum1": (["-k", "1"], "sum1_left.json", "sum1_right.json"),
    "k2-sum2": (["-k", "2", "--x", "x2", "--y", "y2"], "sum2_left.json", "sum2_right.json"),
    **{
        f"k3-d0-{d0}": (["-k", "3", *K3_FLAGS], f"sum3/d0-{d0}-left.json", f"sum3/d0-{d0}-right.json")
        for d0 in ("0110", "0111", "1001", "1011", "1110")
    },
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_composition_goldens(capsys, tmp_path, case):
    # d0-1101 is pinned by test_verify_composition_k3_golden
    flags, left, right = VERIFY_CASES[case]
    code, out, err = run(capsys, "verify", "composition", *flags, "--out-dir", tmp_path,
                         FIXTURES / left, FIXTURES / right)
    assert (code, out, err) == (0, f"verified {flags[1]}-sum composition: regular\n", "")
    for name in ("sum.json", "witness.json"):
        assert (tmp_path / name).read_text() == golden(f"verify_composition/{case}/{name}")
    assert_witness_represents_sum(tmp_path)


def test_verify_composition_reads_no_eq_limit_and_force_lifts_tu_guard(capsys, monkeypatch, tmp_path):
    argv = ["verify", "composition", "-k", "1",
            FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"]
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "5")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "verified 1-sum composition: regular\n")
    argv = ["verify", "composition", "-k", "1", FIXTURES / "sum1_left.json", identity9_repr(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, *argv, "--force")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")


def test_verify_composition_reads_glue_flags_first(capsys, monkeypatch):
    # a missing glue flag is a usage error even when a summand is not regular
    code, out, err = run(capsys, "verify", "composition", "-k", "2",
                         FIXTURES / "fano.json", FIXTURES / "r10.json")
    assert (code, out, err) == (2, "", "error: --k 2 needs --x and --y\n")

    def no_regularity_check(*args, **kwargs):
        raise AssertionError("is_regular called before the glue flags were read")

    monkeypatch.setattr(cli, "is_regular", no_regularity_check)
    code, out, err = run(capsys, "verify", "composition", "-k", "2",
                         FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert (code, out, err) == (2, "", "error: --k 2 needs --x and --y\n")


RECHECK_CASES = {
    "tu check": ["tu", "check", FIXTURES / "network_uv.json"],
    "regular check": ["regular", "check", FIXTURES / "r10.json"],
    "tu sign": ["tu", "sign", FIXTURES / "r10.json"],
    "matroid info": ["matroid", "info", FIXTURES / "fano.json"],
    "matroid eq": ["matroid", "eq", FIXTURES / "r10.json", FIXTURES / "r10.json"],
    "sum k1": ["sum", "-k", "1", FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"],
    "sum k3": ["sum", "-k", "3", *K3_FLAGS,
               FIXTURES / "sum3/d0-1101-left.json", FIXTURES / "sum3/d0-1101-right.json"],
    **{f"verify {case}": ["verify", "composition", *VERIFY_CASES[case][0],
                          FIXTURES / VERIFY_CASES[case][1], FIXTURES / VERIFY_CASES[case][2]]
       for case in ("k1-sum1", "k2-sum2", "k3-d0-0110")},
}


@pytest.mark.parametrize("case", sorted(RECHECK_CASES))
def test_parsed_inputs_are_checked_once(capsys, monkeypatch, case):
    # labels and entries are checked where a document is read; nothing after that re-checks them
    calls = Counter()
    for module, name in ((matroid, "_check_labels"), (exactmat, "_coerce_gf2"),
                         (exactmat, "_coerce_rational")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    code, _, err = run(capsys, *RECHECK_CASES[case])
    assert (code, err) == (0, "")
    assert calls == Counter()


def test_verify_composition_19_elements_needs_no_guard_widening(capsys, tmp_path):
    rng = random.Random(19)
    left = random_standard_repr(rng, 2, 7, regular=True)
    right = random_standard_repr(rng, 2, 8, x_start=3, y_start=8, regular=True)
    for name, summand in (("left.json", left), ("right.json", right)):
        (tmp_path / name).write_text(render_standard_repr_document(summand))
    code, out, err = run(capsys, "verify", "composition", "-k", "1",
                         tmp_path / "left.json", tmp_path / "right.json")
    assert (code, out, err) == (0, "verified 1-sum composition: regular\n", "")


def _flip_in_nonzero_2x2(rows):
    m, n = len(rows), len(rows[0])
    i, j = next((i, j) for i in range(m) for j in range(n)
                if rows[i][j] and any(rows[i][j2] and rows[i2][j] and rows[i2][j2]
                                      for i2 in range(i + 1, m) for j2 in range(j + 1, n)))
    rows[i][j] = -rows[i][j]


def _zero_first_nonzero(rows):
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    rows[i][j] = 0


# the rows and columns of the d0-1101 3-sum's witness (golden_verify_k3_witness.json)
K3_ROWS, K3_COLS = ("xa", "x2", "x0", "x1", "xb"), ("ya", "y0", "y1", "y2", "yb")


def _flip_bottom_left_entry(rows):
    # (xb, ya) lies off the connector rows and columns, so only the bottom-left rule sees it
    i, j = K3_ROWS.index("xb"), K3_COLS.index("ya")
    rows[i][j] = -rows[i][j]


def _flip_signed_d0(rows):
    i, j = K3_ROWS.index("x0"), K3_COLS.index("y0")
    rows[i][j] = -rows[i][j]


def _swap_summand_blocks(rows):
    # the 1-sum of two 2x2 summands with its two diagonal blocks traded
    rows[:] = [row[2:] + row[:2] for row in rows[2:] + rows[:2]]


@pytest.mark.parametrize("corrupt", [_flip_in_nonzero_2x2, _zero_first_nonzero, _flip_bottom_left_entry,
                                     _flip_signed_d0, _swap_summand_blocks])
def test_verify_composition_rejects_corrupted_witness(capsys, monkeypatch, tmp_path, corrupt):
    real = cli.sign_composition
    built, corrupted = [], []

    def sign_then_corrupt(*args, **kwargs):
        built.append(real(*args, **kwargs))
        rows = built[0].body.to_lists()
        corrupt(rows)
        corrupted.append(LabeledMatrix(built[0].row_labels, built[0].col_labels, ExactMatrix(RATIONAL, rows)))
        return corrupted[0]

    monkeypatch.setattr(cli, "sign_composition", sign_then_corrupt)
    if corrupt is _swap_summand_blocks:
        paths = [tmp_path / "left.json", tmp_path / "right.json"]
        for path, xs, ys, grid in ((paths[0], ["x1", "x2"], ["y1", "y2"], [[1, 1], [0, 1]]),
                                   (paths[1], ["x3", "x4"], ["y3", "y4"], [[1, 0], [1, 1]])):
            path.write_text(render_standard_repr_document(make_repr(xs, ys, ExactMatrix(GF2, grid))))
        argv = ["-k", "1", *paths]
    else:
        argv = ["-k", "3", *K3_FLAGS, FIXTURES / "sum3/d0-1101-left.json", FIXTURES / "sum3/d0-1101-right.json"]
    code, out, err = run(capsys, "verify", "composition", *argv)
    assert (code, out, err) == (1, "", "composition check failed: witness does not certify the sum\n")
    # so a whole-W TU check of the corrupted W fails as well
    if corrupt in (_flip_in_nonzero_2x2, _flip_bottom_left_entry, _flip_signed_d0):
        assert not is_totally_unimodular(corrupted[0].body).is_tu
    else:
        assert not is_signing_of(corrupted[0].body, support(built[0]).body)


@pytest.mark.parametrize("k", [1, 2])
def test_verify_composition_r10_sums_need_no_force(capsys, tmp_path, k):
    # a 10x10 (k=1) or 9x9 (k=2) witness passed the TU guard only with --force
    # while the sum's W got a TU check; its blocks now certify it, and only the
    # summands meet the guard
    r10 = parse_standard_repr_document((FIXTURES / "r10.json").read_text())
    # the right copy shares row x1 and column y1 with the left one in a 2-sum
    right_x = ["x1"] + labels("x", 4, 6) if k == 2 else labels("x", 5, 6)
    right_y = ["y1"] + labels("y", 4, 6) if k == 2 else labels("y", 5, 6)
    paths = [tmp_path / "left.json", tmp_path / "right.json"]
    for path, summand in zip(paths, (r10, make_repr(right_x, right_y, r10.B.body))):
        path.write_text(render_standard_repr_document(summand))
    argv = ["verify", "composition", "-k", str(k), *(["--x", "x1", "--y", "y1"] if k == 2 else []),
            "--out-dir", tmp_path / "out", *paths]
    assert run(capsys, *argv) == (0, f"verified {k}-sum composition: regular\n", "")
    s = parse_standard_repr_document((tmp_path / "out" / "sum.json").read_text())
    witness = parse_matrix_document((tmp_path / "out" / "witness.json").read_text())
    assert s.B.body.shape == ((10, 10) if k == 1 else (9, 9))
    assert is_tu_signing_of(witness.body, s.B.body, force=True)
    # a 9x9 right summand, R10 beside the 4x4 identity, meets the guard
    body = ExactMatrix(GF2, [row + [0] * 4 for row in r10.B.body.to_lists()]
                       + [[0] * 5 + [int(i == j) for j in range(4)] for i in range(4)])
    paths[1].write_text(render_standard_repr_document(
        make_repr(right_x + labels("x", 4, 11), right_y + labels("y", 4, 11), body)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("size guard: TU check on a 9x9 matrix exceeds the size guard")
    assert run(capsys, *argv, "--force") == (0, f"verified {k}-sum composition: regular\n", "")


ROUTE_CASES = {
    **VERIFY_CASES,
    "k3-d0-1101": (["-k", "3", *K3_FLAGS], "sum3/d0-1101-left.json", "sum3/d0-1101-right.json"),
}


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_verify_composition_checks_each_matrix_once(capsys, monkeypatch, tmp_path, case):
    # one TU check per summand signing (in is_regular) and none on the sum's
    # witness, which its blocks certify; the signing construction checks nothing
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return is_totally_unimodular(a, *args, **kwargs)

    for module in (tu, cli, matroid, stdrepr, sums):
        if hasattr(module, "is_totally_unimodular"):
            monkeypatch.setattr(module, "is_totally_unimodular", counting)
    flags, left, right = ROUTE_CASES[case]
    code, out, _ = run(capsys, "verify", "composition", *flags, "--out-dir", tmp_path,
                       FIXTURES / left, FIXTURES / right)
    assert code == 0, out
    summands = [parse_standard_repr_document((FIXTURES / name).read_text()) for name in (left, right)]
    assert shapes == [summands[0].B.body.shape, summands[1].B.body.shape]


def test_verify_composition_rejects_irregular_summand(capsys):
    code, _, err = run(capsys, "verify", "composition", "-k", "1",
                       FIXTURES / "fano.json", FIXTURES / "sum1_right.json")
    assert code == 1
    assert err == "left summand not regular\n"
    code, _, err = run(capsys, "verify", "composition", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "fano.json")
    assert code == 1
    assert err == "right summand not regular\n"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "tu", "check", DATA / "bad.json")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "tu", "check", DATA / "no_such_file.json")
    assert code == 2 and "cannot read" in err


def _text_mode_read(path):
    """The text that ``open(path, encoding="utf-8").read()`` returns, or the message ``cli._read`` gives its error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"


READER_INPUTS = {
    "crlf": b'{"field": "gf2",\r\n "rows": []}\r\n',
    "lone-cr": b"a\rb\r",
    "mixed": b"a\r\nb\rc\nd\r\r\n\n\r\r",
    "crlf-across-8192": b"x" * 8191 + b"\r\n" + b"y\r",
    "cr-at-8192": b"x" * 8192 + b"\r" + b"z",
    "bom": b"\xef\xbb\xbf{}\r\n",
    "invalid-at-0": b"\xff{}",
    "invalid-past-8k": b"a" * 9000 + b"\xfe" + b"b",
    "truncated-at-end": b"abc\xe2\x82",
    "truncated-mid": b"abc\xe2\x82x",
    "char-across-8192": b"a" * 8191 + "€".encode() + b"\r\n",
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(READER_INPUTS) + ["directory", "missing"])
def test_reader_returns_what_text_mode_reads(tmp_path, name):
    # _read decodes the bytes once and keeps universal newlines, so it must
    # return exactly the text-mode text, or fail with its error message
    path = tmp_path / "doc.json"
    if name == "directory":
        path.mkdir()
    elif name != "missing":
        path.write_bytes(READER_INPUTS[name])
    expected = _text_mode_read(str(path))
    try:
        got = cli._read(str(path))
    except DocumentError as exc:
        got = str(exc)
    assert type(got) is str and got == expected


def test_crlf_document_json_error_counts_translated_newlines(capsys, tmp_path):
    # the JSON error's offset counts each CRLF as one character, as text mode reads it
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"field": "gf2",\r\n "rows": ["u"],\r\n "cols": ["a"],\r\n "data": [[1,]]}\r\n')
    code, out, err = run(capsys, "tu", "check", path)
    assert (code, out) == (2, "")
    assert err == "error: not valid JSON: Expecting value: line 4 column 14 (char 62)\n"


@pytest.mark.parametrize("text", [
    b"\xff\xfe",
    b"[" * 200_000,
    json.dumps({"field": "rational", "rows": ["u"], "cols": ["a"], "data": [["1e5000"]]}).encode(),
    json.dumps({"field": "rational", "rows": ["u"], "cols": ["a"], "data": [["1e5000000"]]}).encode(),
    json.dumps({"field": "rational", "rows": ["u"], "cols": ["a"], "data": [["2E-3"]]}).encode(),
    json.dumps({"field": "rational", "rows": ["u"], "cols": ["a"], "data": [[list(range(100_000))]]}).encode(),
    json.dumps({"field": "g" * 100_000, "rows": ["u"], "cols": ["a"], "data": [["1"]]}).encode(),
    json.dumps({"field": "gf2", "X": ["u"], "Y": ["a"], "B": [["1"]], **{f"k{i}": 0 for i in range(50_000)}}).encode(),
], ids=["not-utf8", "deep-nesting", "exponent", "huge-exponent", "small-exponent", "list-entry", "long-field",
        "many-keys"])
def test_malformed_documents_exit_2_with_one_error_line(capsys, tmp_path, text):
    # exit 1 would read as a negative verdict; no value is echoed whole, so the line stays short
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    for command in (("tu", "check"), ("regular", "check")):
        code, out, err = run(capsys, *command, path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert len(err.replace(str(path), "")) < 120, err


def test_number_past_the_int_digit_limit_exits_2(capsys, tmp_path):
    # json turns a bare number into an int, which refuses more than 4300
    # digits with a ValueError; that is a parse error, not a negative verdict
    path = tmp_path / "doc.json"
    path.write_text('{"field": "rational", "rows": ["u"], "cols": ["a"], "data": [[1' + "0" * 5000 + ']]}')
    for command in (("tu", "check"), ("regular", "check")):
        code, out, err = run(capsys, *command, path)
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1 and len(err) < 200, err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _src_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH, for child processes."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def test_console_entry_process_exit_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tumat.cli import main; raise SystemExit(main(['tu', 'check', 'fixtures/network_uv.json']))"],
        cwd=ROOT, env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "TU\n"


def _fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "tumat.cli", *argv],
                          cwd=ROOT, env=_src_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_calls_match_fresh_processes(capsys, monkeypatch, tmp_path):
    """A mixed run of in-process calls, one parser for all, answers as fresh processes do."""
    network = str(FIXTURES / "network_uv.json")
    r10 = str(FIXTURES / "r10.json")
    big_q, big_gf2 = (str(identity9(tmp_path, kind)) for kind in (RATIONAL, GF2))
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width on both sides
    calls = [
        ["tu", "check", network],
        ["tu", "check", big_q],
        ["tu", "check", big_q, "--force"],
        ["tu", "check", str(DATA / "not_tu.json")],
        ["tu", "sign", r10],
        ["tu", "sign", r10, "-o", "{out}"],
        ["tu", "sign", big_gf2],
        ["sum", "-k", "2", "--x", "x2", "--y", "y2",
         str(FIXTURES / "sum2_left.json"), str(FIXTURES / "sum2_right.json")],
        ["tu", "check", str(DATA / "bad.json")],
        ["sum", "-k", "3", *K3_FLAGS,
         str(FIXTURES / "sum3/d0-1001-left.json"), str(FIXTURES / "sum3/d0-1001-right.json")],
        ["tu", "check"],
        ["tu", "sign", big_gf2, "--force"],
        ["tu", "check", network],
    ]
    for n, argv in enumerate(calls):
        outs = [tmp_path / f"{n}-{side}.json" for side in ("in", "fresh")]
        try:
            got = run(capsys, *[a.replace("{out}", str(outs[0])) for a in argv])
        except SystemExit as exc:  # argparse rejected the command line, as in `tu check`
            captured = capsys.readouterr()
            got = (exc.code, captured.out, captured.err)
        want = _fresh_process([a.replace("{out}", str(outs[1])) for a in argv])
        assert got == want, argv
        if "{out}" in argv:
            assert outs[0].read_text() == outs[1].read_text() == golden("golden_r10_signing.json")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(5):
            assert main(["tu", "check", str(FIXTURES / "network_uv.json")]) == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert main(["tu", "check", str(FIXTURES / "network_uv.json")]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def _usage_lines():
    network = str(FIXTURES / "network_uv.json")
    left, right = str(FIXTURES / "sum1_left.json"), str(FIXTURES / "sum1_right.json")
    k3 = [str(FIXTURES / "sum3/d0-1101-left.json"), str(FIXTURES / "sum3/d0-1101-right.json")]
    return {
        "no arguments": [],
        "tu": ["tu"],
        "tu check": ["tu", "check"],
        "unknown sub-command": ["tu", "chek", network],
        "unknown command": ["frobnicate", network],
        "extra positional": ["tu", "check", network, network],
        "unknown option": ["tu", "check", network, "--bogus"],
        "unknown option first": ["--bogus", "tu", "check", network],
        "unknown option between words": ["tu", "--bogus", "check", network],
        "unknown option and extra": ["--bogus", "tu", "check", network, "extra"],
        "--forc": ["tu", "check", network, "--forc"],
        "--he": ["tu", "check", "--he"],
        "--he at the top": ["--he"],
        "-h at the top": ["-h"],
        "-h after tu": ["tu", "-h"],
        "-h after tu check": ["tu", "check", "-h"],
        "-- before the command": ["--", "tu", "check", network],
        "-- before the input": ["tu", "check", "--", network],
        "--force=1": ["tu", "check", network, "--force=1"],
        "-k 4": ["sum", "-k", "4", left, right],
        "-k x": ["sum", "-k", "x", left, right],
        "-o without a value": ["tu", "sign", network, "-o"],
        "--x0 without a value": ["verify", "composition", "-k", "3", *k3, "--x0"],
        "missing summand": ["verify", "composition", "-k", "1", left],
        "well-formed tu check": ["tu", "check", network, "--force"],
        "well-formed verify -k 3": ["verify", "composition", "-k", "3", *K3_FLAGS, *k3],
    }


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(_usage_lines()))
def test_command_parse_matches_the_nested_parse(capsys, monkeypatch, case):
    """``main`` answers every line, usage errors and help included, as a plain nested parse does."""
    argv = _usage_lines()[case]
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width on both sides
    got = _outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        want = _outcome(capsys, argv)
    assert got == want
    try:
        walked = vars(cli._parse(argv))
    except SystemExit:
        return
    # the line parses: the command reads the values the nested parse gives, less the command words
    nested = vars(cli.build_parser().parse_args(argv))
    assert walked == {k: v for k, v in nested.items() if k not in ("command", "sub")}


@pytest.mark.parametrize("argv", [
    ["tu", "check", str(FIXTURES / "network_uv.json")],
    ["verify", "composition", "-k", "3", *K3_FLAGS,
     str(FIXTURES / "sum3/d0-1101-left.json"), str(FIXTURES / "sum3/d0-1101-right.json")],
])
def test_well_formed_lines_are_parsed_by_the_command_parser_alone(capsys, monkeypatch, argv):
    # a plain line is read off its command parser's own actions, so no
    # parser's parse_known_args runs on it; every other line of
    # _usage_lines still reaches argparse, which writes its usage errors
    # and help
    parsed = []
    stack = [cli._parser()]
    while stack:
        parser = stack.pop()
        real = parser.parse_known_args
        monkeypatch.setattr(parser, "parse_known_args",
                            lambda *a, _real=real, _prog=parser.prog, **kw: parsed.append(_prog) or _real(*a, **kw))
        stack.extend(cli._commands(parser).values())
    assert main(argv) == 0
    capsys.readouterr()
    assert parsed == []
    for case, line in _usage_lines().items():
        parsed.clear()
        _outcome(capsys, line)
        assert bool(parsed) != case.startswith("well-formed"), (case, parsed)


def _leaves(parser, words=()):
    """(command words, parser) of every command's own parser under ``parser``."""
    subs = cli._commands(parser)
    if not subs:
        return [(list(words), parser)]
    return [leaf for word, sub in subs.items() for leaf in _leaves(sub, (*words, word))]


ODD_WORDS = ("--", "-h", "--help", "--he", "-k2", "-k3", "-k=2", "--k=3", "--x=x2", "--force=1", "--x0=x0", "-ox",
             "--forc", "--ou", "--max", "--bogus", "-", "-1", "", " ", "x y", "-x y", "tu", "check")
ODD_VALUES = ("1", "2", "3", "4", "x", "-1", "0", "-", "", " 3", "03", "3.0", "1_0", "\u0663", "--x", "a b")
PLAIN_INPUTS = [str(FIXTURES / name) for name in (
    "network_uv.json", "fano.json", "r10.json", "sum1_left.json", "sum1_right.json", "sum2_left.json",
    "sum2_right.json", "sum3/d0-1101-left.json", "sum3/d0-1101-right.json")]


def _plain_line(rng, parser, tmp_path):
    """A seeded line for a command's own parser, built from its option table: every required option
    and some others once each, with a value that the option's type and choices take, in a random
    order among the positionals; then up to three damages (an odd word, a dropped word, an odd value,
    a repeated option, an option string with no value)."""
    options, positionals, _, _, _ = cli._table(parser)
    strings = {}
    for string, action in options.items():
        strings.setdefault(action, []).append(string)

    def value(action):
        if action.choices is not None:
            return str(rng.choice(list(action.choices)))
        if action.type is int:
            return str(rng.randrange(60))
        if action.dest in ("output", "out_dir"):
            return str(tmp_path / rng.choice(("a", "b")))
        return rng.choice(("x2", "y2", action.dest, "g"))

    groups = [[rng.choice(names)] + ([] if action.nargs == 0 else [value(action)])
              for action, names in strings.items() if action.required or rng.random() < 0.4]
    groups += [[rng.choice(PLAIN_INPUTS)] for _ in positionals]
    rng.shuffle(groups)
    line = [word for group in groups for word in group]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        what = rng.randrange(5)
        if what == 0:
            line.insert(rng.randint(0, len(line)), rng.choice(ODD_WORDS))
        elif what == 1 and line:
            del line[rng.randrange(len(line))]
        elif what == 2 and line:
            line[rng.randrange(len(line))] = rng.choice(ODD_VALUES)
        elif what == 3 and groups:
            line += rng.choice(groups)
        else:
            line.insert(rng.randint(0, len(line)), rng.choice(sorted(options)))
    return line


def test_plain_lines_are_read_as_argparse_reads_them(capsys, monkeypatch, tmp_path):
    # seeded lines for every command: wherever the plain reader answers, its
    # namespace is the one parse_known_args returns, with no extras; on a
    # sample of whole lines main answers, exit code and both streams, as the
    # nested argparse parse does
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width on both sides
    monkeypatch.chdir(tmp_path)  # a damaged -o value is a relative path: it is written here
    rng = random.Random(48)
    leaves = _leaves(cli._parser())
    read, sample = Counter(), []
    for t in range(6000):
        words, parser = leaves[t % len(leaves)]
        line = _plain_line(rng, parser, tmp_path)
        args = cli._plain(parser, line)
        if t % 40 == 0:
            sample.append(words + line)
        if args is None:
            continue
        read[" ".join(words)] += 1
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                assert parser.parse_known_args(line) == (args, []), line
        except SystemExit:
            pytest.fail(f"the reader read {line}, which argparse refuses")
    assert sorted(read) == sorted(" ".join(words) for words, _ in leaves), read
    assert 1500 < sum(read.values()) < 5000, read
    for argv in sample:
        got = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
            want = _outcome(capsys, argv)
        assert got == want, argv


# ---------------------------------------------------------------- the CLI contract on damaged documents

FUZZ_ENTRIES = ("2", "1/0", "-0", "1e5", "9" * 5000, "0" * 40 + "1", 7, -1, 0.5, float("nan"), True, False, None,
                [["1"]])
FUZZ_SUMS = {
    1: ([], "sum1_left.json", "sum1_right.json"),
    2: (["--x", "x2", "--y", "y2"], "sum2_left.json", "sum2_right.json"),
    3: (K3_FLAGS, "sum3/d0-0110-left.json", "sum3/d0-0110-right.json"),
}


def _fuzz_commands():
    """(command words, flags, the unmutated inputs) of every command line; a command whose inputs
    are None reads the mutated document alone, or, for ``matroid eq``, beside its source."""
    lines = [(words, force, None) for words in (["tu", "check"], ["tu", "sign"], ["regular", "check"], ["matroid", "eq"])
             for force in ([], ["--force"])]
    lines.append((["matroid", "info"], [], None))
    for k, (flags, left, right) in FUZZ_SUMS.items():
        base = (FIXTURES / left, FIXTURES / right)
        lines.append((["sum"], ["-k", str(k), *flags], base))
        lines += [(["verify", "composition"], ["-k", str(k), *flags, *force], base) for force in ([], ["--force"])]
    return lines


def _fuzz_damage(rng, doc):
    """Damage the document once: an entry, the field, a label, a key, or the grid's rows."""
    grid = next((doc[k] for k in ("data", "B") if isinstance(doc.get(k), list)), None)
    rows = [row for row in grid if isinstance(row, list) and row] if grid else []
    label_keys = [k for k in ("rows", "cols", "X", "Y") if isinstance(doc.get(k), list) and doc[k]]
    what = rng.choice(("entry", "entry", "field", "label", "key", "rows"))
    if what == "entry" and rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(FUZZ_ENTRIES)
    elif what == "field":
        doc["field"] = rng.choice(("gf3", "GF2", "rational ", 2, None, ["gf2"]))
    elif what == "label" and label_keys:
        labs = doc[rng.choice(label_keys)]
        j = rng.randrange(len(labs))
        choice = rng.randrange(3)
        if choice == 0:
            labs[j] = rng.choice(("", 5, None, True, labs[-1], str(labs[0]) + " ", "é\x00\n", "y" * 10000))
        elif choice == 1:
            labs.pop(j)
        else:
            doc[rng.choice(label_keys)] = rng.choice(("x", {}, [[]]))
    elif what == "key":
        key = rng.choice(sorted(doc))
        choice = rng.randrange(3)
        if choice == 0:
            del doc[key]
        elif choice == 1:
            doc[rng.choice(("extra", "rows", "X", "data", "B"))] = doc[key]
        else:
            doc[key.upper() if key != key.upper() else key.lower()] = doc.pop(key)
    elif grid is not None:
        choice = rng.randrange(4)
        if choice == 0 and grid:
            grid.pop(rng.randrange(len(grid)))
        elif choice == 1 and rows:
            row = rng.choice(rows)
            if rng.random() < 0.5:
                row.pop()
            else:
                row.append("1")
        elif choice == 2 and grid:
            grid[rng.randrange(len(grid))] = []
        else:
            grid.clear()


def _fuzz_mutate(rng, text):
    """A seeded mutation of a document's text: up to two damages, then CRLF, a BOM or a repeated key,
    and as bytes a flipped byte or a cut."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        for _ in range(rng.randint(0, 2)):
            _fuzz_damage(rng, doc)
        text = json.dumps(doc, indent=2)
    if rng.random() < 0.25:
        text = text.replace("\n", "\r\n")
    if rng.random() < 0.15:
        text = "\ufeff" + text
    if rng.random() < 0.1:
        text = text.replace("{", '{"field": "gf2", ', 1)
    data = bytearray(text.encode("utf-8"))
    if data and rng.random() < 0.1:
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    if rng.random() < 0.05:
        del data[rng.randrange(len(data) + 1):]
    return bytes(data)


def test_cli_answers_damaged_documents_by_its_exit_codes(tmp_path):
    # every command line, each with and without --force where it takes it, on
    # seeded mutations of every JSON document under fixtures/ and tests/data/,
    # and on damaged command lines: main returns an exit code 0-3, raises
    # nothing, and writes at most one line to stderr, except that a usage
    # error keeps argparse's form
    docs = sorted(p for folder in (FIXTURES, DATA) for p in folder.rglob("*.json"))
    commands = _fuzz_commands()
    rng = random.Random(16)
    codes = Counter()

    def answer(line, damaged=None, usage=False):
        out, err = io.StringIO(), io.StringIO()
        exited = False
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(line)
        except SystemExit as exc:
            code, exited = exc.code, True
        except Exception as exc:  # noqa: BLE001 - anything escaping main breaks the contract
            pytest.fail(f"{line} raised {exc!r} on {damaged!r}")
        assert code in (0, 1, 2, 3), (line, code)
        text = err.getvalue().splitlines()
        if usage:  # SystemExit(2), the usage block, then one error line last
            assert exited and code == 2 and text[0].startswith("usage: "), (line, code, text)
            assert [i for i, t in enumerate(text) if ": error: " in t] == [len(text) - 1], (line, text)
        else:
            assert len(text) <= 1, (line, err.getvalue())
        return code, err.getvalue()

    for t in range(8 * len(docs)):
        words, flags, base = commands[t % len(commands)]
        source = docs[t % len(docs)]
        if base is not None and t // len(commands) % 2:  # damage one of the command's own inputs
            source = rng.choice(base)
        path = tmp_path / f"{t}.json"
        path.write_bytes(_fuzz_mutate(rng, source.read_text(encoding="utf-8")))
        if base is None:
            inputs = [path, source] if words == ["matroid", "eq"] else [path]
        else:
            inputs = list(base)
            inputs[rng.randrange(2)] = path
        codes[answer(words + [str(p) for p in inputs] + flags, path.read_bytes())[0]] += 1
    assert codes[0] and codes[1] and codes[2] > 100, codes
    # damaged command lines, each answered by one line on stderr: a missing
    # path or a directory in place of an input, a glue label that one summand
    # lacks, one summand on both sides (a 1-sum of it is Invalid), and a glue
    # flag that -k does not read
    lines = []
    for words, flags, base in commands:
        for bad in (tmp_path / "missing.json", tmp_path):
            inputs = list(base or [FIXTURES / "fano.json"] * (2 if words == ["matroid", "eq"] else 1))
            inputs[rng.randrange(len(inputs))] = bad
            lines.append(words + [str(p) for p in inputs] + flags)
    for words in (["sum"], ["verify", "composition"]):
        for k, (flags, left, right) in FUZZ_SUMS.items():
            lines.append(words + ["-k", str(k), *flags, str(FIXTURES / left), str(FIXTURES / left)])
        for k, swap in ((2, {"x2": "x1"}), (2, {"y2": "y3"}), (3, {"x0": "xa"}), (3, {"y2": "yb"})):
            flags, left, right = FUZZ_SUMS[k]
            lines.append(words + ["-k", str(k), *[swap.get(v, v) for v in flags],
                                  str(FIXTURES / left), str(FIXTURES / right)])
        for k, extra in ((1, "--x"), (1, "--y0"), (2, "--x2"), (3, "--y")):
            flags, left, right = FUZZ_SUMS[k]
            lines.append(words + ["-k", str(k), *flags, extra, "zz", str(FIXTURES / left), str(FIXTURES / right)])
    for line in lines:
        code, err = answer(line)
        assert code in (1, 2) and err.count("\n") == 1, (line, code, err)
    # damaged flags: an unknown flag, -k 4 and a missing input are usage
    # errors; so are -k given twice and a glue flag repeated with a label
    # that one summand lacks, after or before the right one
    usage, repeated = [], []
    for words, flags, base in commands:
        inputs = [str(p) for p in base or [FIXTURES / "fano.json"] * (2 if words == ["matroid", "eq"] else 1)]
        usage += [words + inputs + flags + ["--bogus"], words + inputs[:-1] + flags]
        if "-k" in flags:
            k = flags.index("-k") + 1
            usage.append(words + inputs + flags[:k] + ["4"] + flags[k + 1:])
            repeated.append(words + inputs + ["-k", str(int(flags[k]) % 3 + 1)] + flags)
            if flags[k] != "1":
                repeated += [words + inputs + flags + [flags[k + 1], "zz"], words + inputs + [flags[k + 1], "zz"] + flags]
    for line in usage + repeated:
        answer(line, usage=True)
    assert len(usage) == 2 * len(commands) + 9 and len(repeated) == 21
