import pathlib
import subprocess
import sys

import pytest

from tumat import (
    is_tu_signing_of,
    parse_matrix_document,
    parse_standard_repr_document,
)
from tumat.cli import main

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


def test_matroid_eq_guard(capsys, monkeypatch):
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "3")
    code, _, err = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert code == 3
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, "matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json",
                       "--force")
    assert (code, out) == (0, "equal\n")


def test_verify_composition_k1(capsys):
    code, out, _ = run(capsys, "verify", "composition", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")


def test_verify_composition_k2_artifacts(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "composition", "-k", "2",
                       "--x", "x2", "--y", "y2", "--out-dir", tmp_path,
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert (code, out) == (0, "verified 2-sum composition: regular\n")
    s = parse_standard_repr_document((tmp_path / "sum.json").read_text())
    witness = parse_matrix_document((tmp_path / "witness.json").read_text())
    assert is_tu_signing_of(witness.body, s.B.body)


def test_verify_composition_k3_golden(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "composition", "-k", "3", *K3_FLAGS,
                       "--out-dir", tmp_path,
                       FIXTURES / "sum3/d0-1101-left.json",
                       FIXTURES / "sum3/d0-1101-right.json")
    assert (code, out) == (0, "verified 3-sum composition: regular\n")
    assert (tmp_path / "sum.json").read_text() == golden("golden_verify_k3_sum.json")
    assert (tmp_path / "witness.json").read_text() == golden("golden_verify_k3_witness.json")


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


def test_verify_composition_force_lifts_eq_guard(capsys, monkeypatch):
    monkeypatch.setenv("TUMAT_EQ_LIMIT", "5")
    argv = ["verify", "composition", "-k", "1",
            FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json"]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("size guard:")
    code, out, _ = run(capsys, *argv, "--force")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")


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
