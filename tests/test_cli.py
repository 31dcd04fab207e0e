import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    LabeledMatrix,
    StandardRepr,
    is_totally_unimodular,
    is_tu_signing_of,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
)
from tumat import cli, matroid, stdrepr, sums, tu
from tumat.cli import main
from tumat.fixtures import incidence_matrix

from helpers import is_regular_witness, labels, make_repr, random_standard_repr

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


def test_tu_check_guard_and_force(capsys, monkeypatch):
    monkeypatch.setenv("TUMAT_TU_LIMIT", "1")
    code, _, err = run(capsys, "tu", "check", FIXTURES / "network_uv.json")
    assert code == 3
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, "tu", "check", FIXTURES / "network_uv.json", "--force")
    assert (code, out) == (0, "TU\n")


def test_tu_check_bad_env_value(capsys, monkeypatch):
    monkeypatch.setenv("TUMAT_TU_LIMIT", "many")
    code, _, err = run(capsys, "tu", "check", FIXTURES / "network_uv.json")
    assert code == 2
    assert "TUMAT_TU_LIMIT" in err


@pytest.mark.parametrize("name", ["TUMAT_TU_LIMIT", "TUMAT_EQ_LIMIT"])
def test_negative_guard_limit_rejected(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "-1")
    argv = {
        "TUMAT_TU_LIMIT": ("tu", "check", FIXTURES / "network_uv.json"),
        "TUMAT_EQ_LIMIT": ("matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json"),
    }[name]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: environment variable {name} must not be negative, got '-1'\n"
    monkeypatch.setenv(name, "0")
    assert run(capsys, *argv)[0] != 2


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


def test_matroid_info_golden(capsys):
    code, out, _ = run(capsys, "matroid", "info", FIXTURES / "fano.json")
    assert code == 0
    assert out == golden("golden_matroid_info_fano.txt")


def test_matroid_info_max_bases(capsys):
    code, out, _ = run(capsys, "matroid", "info", FIXTURES / "fano.json",
                       "--max-bases", "5")
    assert code == 0
    assert out == "elements: 7\nrank: 3\nbases: 28\n"


def test_matroid_eq(capsys):
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "r10.json")
    assert (code, out) == (1, "not equal\n")


def test_matroid_eq_guard(capsys, monkeypatch, tmp_path):
    # GF(2) sides compare at a shared base, so the guard no longer applies;
    # Fano over Q is not binary and takes the guarded subset-by-subset path.
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "3")
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert (code, out) == (0, "equal\n")
    fano_q = tmp_path / "fano_q.json"
    fano_q.write_text((FIXTURES / "fano.json").read_text().replace('"gf2"', '"rational"'))
    code, out, err = run(capsys, "matroid", "eq", fano_q, fano_q)
    assert (code, out) == (3, "")
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, "matroid", "eq", fano_q, fano_q, "--force")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "matroid", "eq", fano_q, FIXTURES / "fano.json", "--force")
    assert (code, out) == (1, "not equal\n")
    # a malformed limit is still rejected, though the GF(2) pair never reads it
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "many")
    code, out, err = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: environment variable TUMAT_EQ_LIMIT must be an integer")


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
def test_matroid_eq_gf2_past_the_exhaustive_size(capsys, monkeypatch, tmp_path, n_rows, n_cols):
    # 19 and 40 elements, past the subset loop's default guard of 18
    for name in ("TUMAT_EQ_LIMIT", "TUMAT_TU_LIMIT"):
        monkeypatch.delenv(name, raising=False)
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
        capsys, monkeypatch, tmp_path, n_nodes, n_arcs):
    # An incidence matrix (a path plus arcs out of node 0) less one row is
    # TU, and a TU matrix has the same matroid as its reduction mod 2.
    for name in ("TUMAT_EQ_LIMIT", "TUMAT_TU_LIMIT"):
        monkeypatch.delenv(name, raising=False)
    arcs = [(v, v + 1) for v in range(n_nodes - 1)]
    arcs += [(0, 1 + k % (n_nodes - 1)) for k in range(n_arcs - len(arcs))]
    body = incidence_matrix(n_nodes, arcs).submatrix(range(n_nodes - 1), range(n_arcs))
    rep = LabeledMatrix(labels("v", n_nodes - 1), labels("a", n_arcs), body)
    rng = random.Random(n_arcs)
    assert _eq(capsys, tmp_path, rep, _gf2_row_mixed(rng, rep)) == (0, "equal\n")


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
    assert is_regular_witness(StandardRepr(s.X, s.Y, w).to_full(), s.to_matroid())


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


def test_verify_composition_reads_no_eq_limit_and_force_lifts_tu_guard(capsys, monkeypatch):
    argv = ["verify", "composition", "-k", "1",
            FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"]
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "5")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "verified 1-sum composition: regular\n")
    monkeypatch.delenv("TUMAT_EQ_LIMIT")
    monkeypatch.setenv("TUMAT_TU_LIMIT", "1")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, *argv, "--force")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")


def test_verify_composition_19_elements_needs_no_guard_widening(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("TUMAT_EQ_LIMIT", raising=False)
    monkeypatch.delenv("TUMAT_TU_LIMIT", raising=False)
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


@pytest.mark.parametrize("corrupt", [_flip_in_nonzero_2x2, _zero_first_nonzero])
def test_verify_composition_rejects_corrupted_witness(capsys, monkeypatch, corrupt):
    real = cli.sign_composition
    corrupted = []

    def sign_then_corrupt(*args, **kwargs):
        w = real(*args, **kwargs)
        rows = w.body.to_lists()
        corrupt(rows)
        corrupted.append(LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(RATIONAL, rows)))
        return corrupted[0]

    monkeypatch.setattr(cli, "sign_composition", sign_then_corrupt)
    code, out, err = run(capsys, "verify", "composition", "-k", "3", *K3_FLAGS,
                         FIXTURES / "sum3/d0-1101-left.json",
                         FIXTURES / "sum3/d0-1101-right.json")
    assert (code, out, err) == (1, "", "composition check failed: witness does not certify the sum\n")
    if corrupt is _flip_in_nonzero_2x2:
        assert not is_totally_unimodular(corrupted[0].body).is_tu


ROUTE_CASES = {
    **VERIFY_CASES,
    "k3-d0-1101": (["-k", "3", *K3_FLAGS], "sum3/d0-1101-left.json", "sum3/d0-1101-right.json"),
}


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_verify_composition_checks_each_matrix_once(capsys, monkeypatch, tmp_path, case):
    # one TU check per summand signing (in is_regular) and one on the sum's
    # witness; the signing construction itself checks nothing
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
    s = parse_standard_repr_document((tmp_path / "sum.json").read_text())
    assert shapes == [summands[0].B.body.shape, summands[1].B.body.shape, s.B.body.shape]


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


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_process_exit_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tumat.cli import main; raise SystemExit(main(['tu', 'check', 'fixtures/network_uv.json']))"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "TU\n"


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "tumat.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_calls_match_fresh_processes(capsys, monkeypatch, tmp_path):
    """A mixed run of in-process calls, one parser for all, answers as fresh processes do."""
    network = str(FIXTURES / "network_uv.json")
    r10 = str(FIXTURES / "r10.json")
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width on both sides
    calls = [
        (None, ["tu", "check", network]),
        ("1", ["tu", "check", network]),
        ("1", ["tu", "check", network, "--force"]),
        (None, ["tu", "check", str(DATA / "not_tu.json")]),
        (None, ["tu", "sign", r10]),
        (None, ["tu", "sign", r10, "-o", "{out}"]),
        ("many", ["tu", "check", network]),
        (None, ["sum", "-k", "2", "--x", "x2", "--y", "y2",
                str(FIXTURES / "sum2_left.json"), str(FIXTURES / "sum2_right.json")]),
        (None, ["tu", "check", str(DATA / "bad.json")]),
        (None, ["sum", "-k", "3", *K3_FLAGS,
                str(FIXTURES / "sum3/d0-1001-left.json"), str(FIXTURES / "sum3/d0-1001-right.json")]),
        (None, ["tu", "check"]),
        ("1", ["tu", "sign", r10, "--force"]),
        (None, ["tu", "check", network]),
    ]
    for n, (limit, argv) in enumerate(calls):
        if limit is None:
            monkeypatch.delenv("TUMAT_TU_LIMIT", raising=False)
        else:
            monkeypatch.setenv("TUMAT_TU_LIMIT", limit)
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
