"""Acceptance gate: one test per criterion.

Everything here is exact arithmetic; there are no tolerances anywhere.
The conftest terminal-summary hook prints one PASS/FAIL line per
criterion from the CRITERIA table below after the run.
"""

import itertools
import pathlib
import random

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    LabeledMatrix,
    StandardRepr,
    Sum3Labels,
    canonical_signing_sum3,
    disjoint_sum,
    find_tu_signing,
    fundamental_repr,
    is_regular,
    is_signing_of,
    is_totally_unimodular,
    is_tu_signing_of,
    is_unit_2x2,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
    sign_sum_1,
    sign_sum_2,
    standard_repr_sum_1,
    standard_repr_sum_2,
    standard_repr_sum_3,
    standardize,
    standardize_tu,
    to_matroid,
    verify_matroid_axioms,
    zmod_linear_independent,
)
from tumat.cli import main as cli_main
from tumat.fixtures import fano_b, r10_b, r10_standard_repr

from helpers import (
    SUM3_LABELS,
    find_tu_signing_bruteforce,
    is_regular_witness,
    labels,
    make_repr,
    naive_matroids_equal,
    naive_tu_verdict,
    random_gf2_matrix,
    random_rational_matrix,
    random_standard_repr,
    random_sum2_pair,
    random_tu_matrix,
    sum3_corpus,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURES = ROOT / "fixtures"

CRITERIA = {
    "test_criterion_01_tu_checker_matches_naive_oracle":
        (1, "TU checker equals subdeterminant enumeration on all 3x3"),
    "test_criterion_02_repeated_indices_give_zero_determinant":
        (2, "repeated index lists on TU matrices have determinant 0"),
    "test_criterion_03_fano_has_no_tu_signing":
        (3, "Fano B has no TU signing (search and 2^9 brute force)"),
    "test_criterion_04_r10_is_regular":
        (4, "R10 B has a verified TU signing; 10 elements, rank 5"),
    "test_criterion_05_standard_repr_lemmas":
        (5, "standard representation lemmas at desk scale"),
    "test_criterion_06_regularity_bridge":
        (6, "is_regular agrees with witness existence on random reprs"),
    "test_criterion_07_one_sum_is_disjoint_sum":
        (7, "valid 1-sums equal the disjoint sum of their summands"),
    "test_criterion_08_composition_preserves_regularity":
        (8, "witness signings certify every sum in the corpus"),
    "test_criterion_09_unit_classification_exhaustive":
        (9, "exactly 6 of 16 GF(2) 2x2 matrices are units, forms check"),
    "test_criterion_10_pivot_preserves_tu":
        (10, "pivots on +-1 entries of TU matrices stay TU"),
    "test_criterion_11_zmod6_augmentation_counterexample":
        (11, "Z6 columns break augmentation exactly as reported"),
    "test_criterion_12_one_fixture_per_invalid_reason":
        (12, "each Invalid reason reproduced by exactly one fixture"),
    "test_criterion_13_cli_golden_files":
        (13, "CLI golden files, round trips, and exit codes"),
}


def test_criterion_01_tu_checker_matches_naive_oracle():
    for entries in itertools.product((-1, 0, 1), repeat=9):
        grid = [list(entries[0:3]), list(entries[3:6]), list(entries[6:9])]
        a = ExactMatrix(RATIONAL, grid)
        verdict = is_totally_unimodular(a)
        expected = naive_tu_verdict(a)
        if expected is None:
            assert verdict.is_tu
        else:
            assert not verdict.is_tu
            assert verdict.witness == expected


def test_criterion_02_repeated_indices_give_zero_determinant():
    rng = random.Random(1202)
    for _ in range(1000):
        m = random_tu_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        k = rng.randint(2, min(m.n_rows, m.n_cols))
        rows = [rng.randrange(m.n_rows) for _ in range(k)]
        rows[1] = rows[0]
        cols = [rng.randrange(m.n_cols) for _ in range(k)]
        assert m.submatrix(rows, cols).determinant() == 0


def test_criterion_03_fano_has_no_tu_signing():
    b = fano_b().body
    assert find_tu_signing(b) is None
    assert find_tu_signing_bruteforce(b) is None


def test_criterion_04_r10_is_regular():
    b = r10_b().body
    witness = find_tu_signing(b)
    assert witness is not None
    assert is_tu_signing_of(witness, b)
    m = r10_standard_repr().to_matroid()
    assert len(m.ground) == 10
    assert m.rank == 5


def test_criterion_05_standard_repr_lemmas():
    rng = random.Random(1205)
    for _ in range(200):
        s = random_standard_repr(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = s.to_matroid()
        assert m.is_base(s.X)
        back = fundamental_repr(m, s.X)
        assert back.X == s.X and back.Y == s.Y
        assert back.B.body == s.B.body
    for _ in range(100):
        n_rows, n_cols = rng.randint(2, 3), rng.randint(3, 5)
        rep = LabeledMatrix(
            labels("r", n_rows), labels("e", n_cols),
            random_rational_matrix(rng, n_rows, n_cols))
        m = to_matroid(rep)
        for base in m.bases():
            s = standardize(rep, base)
            assert naive_matroids_equal(s.to_matroid(), m)
    for _ in range(100):
        body = random_tu_matrix(rng, rng.randint(2, 3), rng.randint(3, 5))
        rep = LabeledMatrix(labels("r", body.n_rows), labels("e", body.n_cols), body)
        m = to_matroid(rep)
        base = m.bases()[0]
        s = standardize_tu(rep, base)
        assert is_totally_unimodular(s.B.body).is_tu


def test_criterion_06_regularity_bridge():
    rng = random.Random(1206)
    done = 0
    while done < 100:
        n_rows, n_cols = rng.randint(2, 3), rng.randint(2, 4)
        body = random_gf2_matrix(rng, n_rows, n_cols, density=0.45)
        nnz = sum(v for row in body.rows for v in row)
        if nnz > 12:
            continue
        s = make_repr(labels("x", n_rows), labels("y", n_cols), body)
        witness = is_regular(s)
        if witness is not None:
            signed = StandardRepr(witness)
            assert (signed.X, signed.Y) == (s.X, s.Y)
            assert is_regular_witness(signed.to_full(), s.to_matroid())
        else:
            assert find_tu_signing_bruteforce(s.B.body) is None
        done += 1


def test_criterion_07_one_sum_is_disjoint_sum():
    rng = random.Random(1207)
    for _ in range(200):
        left = random_standard_repr(rng, rng.randint(1, 3), rng.randint(1, 3))
        right = random_standard_repr(
            rng, rng.randint(1, 3), rng.randint(1, 3), x_start=6, y_start=6)
        outcome = standard_repr_sum_1(left, right)
        assert outcome.valid
        assert naive_matroids_equal(
            outcome.result.to_matroid(),
            disjoint_sum(left.to_matroid(), right.to_matroid()))


def _matches_oracle_sum(oracles, s, k, left, right, glue):
    """Whether the sum ``s`` has the labels and body that the benchmark's
    tumat-free oracle assembles from the two summands."""
    sides = [(t.X, t.Y, t.B.body.to_lists()) for t in (left, right)]
    return (list(s.X), list(s.Y), s.B.body.to_lists()) == oracles.sum_labels_and_body(k, *sides, glue)


def test_criterion_08_composition_preserves_regularity(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracles

    rng = random.Random(1208)
    ones = 0
    while ones < 50:
        left = random_standard_repr(rng, rng.randint(2, 3), rng.randint(2, 3),
                                    regular=True)
        right = random_standard_repr(rng, rng.randint(2, 3), rng.randint(2, 3),
                                     x_start=6, y_start=6, regular=True)
        w_l, w_r = is_regular(left), is_regular(right)
        assert w_l is not None and w_r is not None
        outcome = standard_repr_sum_1(left, right)
        assert outcome.valid
        s = outcome.result
        witness = sign_sum_1(w_l.body, w_r.body)
        assert is_totally_unimodular(witness).is_tu
        assert is_signing_of(witness, s.B.body)
        assert _matches_oracle_sum(oracles, s, 1, left, right, ())
        ones += 1

    twos = 0
    while twos < 50:
        left, right, x, y = random_sum2_pair(rng)
        outcome = standard_repr_sum_2(left, right, x, y)
        assert outcome.valid
        s = outcome.result
        w_l, w_r = is_regular(left), is_regular(right)
        assert w_l is not None and w_r is not None
        xi = w_l.row_position(x)
        r = w_l.body.row(xi)
        yi = w_r.col_position(y)
        c = w_r.body.col(yi)
        a_left = w_l.body.submatrix(
            [i for i in range(w_l.body.n_rows) if i != xi],
            range(w_l.body.n_cols))
        a_right = w_r.body.submatrix(
            range(w_r.body.n_rows),
            [j for j in range(w_r.body.n_cols) if j != yi])
        witness = sign_sum_2(a_left, r, a_right, c)
        assert is_totally_unimodular(witness).is_tu
        assert is_signing_of(witness, s.B.body)
        assert _matches_oracle_sum(oracles, s, 2, left, right, (x, y))
        twos += 1

    per_form = {"identity": 0, "upper-triangular-11": 0}
    for left, right, glue, d0 in sum3_corpus(per_unit=2):
        outcome = standard_repr_sum_3(left, right, glue)
        assert outcome.valid
        s = outcome.result
        signed_left = find_tu_signing(left.B.body)
        signed_right = find_tu_signing(right.B.body)
        assert signed_left is not None and signed_right is not None
        witness = canonical_signing_sum3(
            LabeledMatrix(left.X, left.Y, signed_left),
            LabeledMatrix(right.X, right.Y, signed_right),
            glue)
        assert is_totally_unimodular(witness.body).is_tu
        assert is_tu_signing_of(witness.body, s.B.body)
        assert _matches_oracle_sum(oracles, s, 3, left, right, glue.xs + glue.ys)
        d0m = ExactMatrix(GF2, [list(d0[0]), list(d0[1])])
        per_form[is_unit_2x2(d0m)[2]] += 1
    assert sum(per_form.values()) >= 6
    assert all(count >= 3 for count in per_form.values())


def test_criterion_09_unit_classification_exhaustive():
    units = 0
    for bits in range(16):
        grid = [[(bits >> 0) & 1, (bits >> 1) & 1],
                [(bits >> 2) & 1, (bits >> 3) & 1]]
        a = ExactMatrix(GF2, grid)
        got = is_unit_2x2(a)
        if a.determinant() == 0:
            assert got is None
            continue
        units += 1
        f, g, form = got
        target = {
            "identity": [[1, 0], [0, 1]],
            "upper-triangular-11": [[1, 1], [0, 1]],
        }[form]
        for i in range(2):
            for j in range(2):
                assert a[f[i], g[j]] == target[i][j]
    assert units == 6


def test_criterion_10_pivot_preserves_tu():
    rng = random.Random(1210)
    done = 0
    while done < 500:
        m = random_tu_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
        spots = [(i, j)
                 for i in range(m.n_rows) for j in range(m.n_cols)
                 if m[i, j] != 0]
        if not spots:
            continue
        i, j = rng.choice(spots)
        assert is_totally_unimodular(m.pivot(i, j)).is_tu
        done += 1


def test_criterion_11_zmod6_augmentation_counterexample():
    a = [[0, 1, 2, 3], [1, 0, 3, 2]]
    cols = {j: [a[0][j], a[1][j]] for j in range(4)}
    assert zmod_linear_independent(6, [cols[0]])
    assert zmod_linear_independent(6, [cols[2], cols[3]])
    for j in (0, 1):
        assert not zmod_linear_independent(6, [cols[2], cols[3], cols[j]])

    def indep(subset):
        if not subset:
            return True
        return zmod_linear_independent(6, [cols[j] for j in sorted(subset)])

    rep = verify_matroid_axioms(range(4), indep)
    assert rep.base_nonempty
    assert rep.maximality_ok
    assert not rep.exchange_ok
    assert rep.exchange_counterexample == (frozenset({0}), frozenset({2, 3}))


def test_criterion_12_one_fixture_per_invalid_reason():
    one = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    assert standard_repr_sum_1(
        one, make_repr(["x1"], ["y2"], ExactMatrix(GF2, [[1]]))
    ).reason == "x-overlap"
    assert standard_repr_sum_1(
        one, make_repr(["x2"], ["y1"], ExactMatrix(GF2, [[1]]))
    ).reason == "y-overlap"

    left2 = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right2 = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    zero_row = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]]))
    zero_col = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[0, 0], [0, 1]]))
    assert standard_repr_sum_2(zero_row, right2, "x2", "y2").reason == "zero-row-r"
    assert standard_repr_sum_2(left2, zero_col, "x2", "y2").reason == "zero-col-c"

    base_left = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
    base_right = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 0]]
    glue = Sum3Labels(*SUM3_LABELS)

    def pair(left_grid, right_grid):
        return (
            make_repr(["xa", "x2", "x0", "x1"], ["ya", "y0", "y1", "y2"],
                      ExactMatrix(GF2, left_grid)),
            make_repr(["x0", "x1", "xb", "x2"], ["y0", "y1", "y2", "yb"],
                      ExactMatrix(GF2, right_grid)),
        )

    def flip(grid, i, j, v):
        out = [row[:] for row in grid]
        out[i][j] = v
        return out

    left, right = pair(base_left, base_right)
    assert standard_repr_sum_3(left, right, glue).valid

    dup_left = make_repr(["xa", "x2", "x0"], ["ya", "y0", "y1", "y2"],
                         ExactMatrix(GF2, base_left[:3]))
    dup_right = make_repr(["x0", "xb", "x2"], ["y0", "y1", "y2", "yb"],
                          ExactMatrix(GF2, [base_right[0], base_right[2], base_right[3]]))
    assert standard_repr_sum_3(
        dup_left, dup_right, Sum3Labels("x0", "x0", "x2", "y0", "y1", "y2")
    ).reason == "labels-not-distinct"

    swapped = flip(flip(flip(flip(base_right, 0, 0, 0), 0, 1, 1), 1, 0, 1), 1, 1, 0)
    left, right = pair(base_left, swapped)
    assert standard_repr_sum_3(left, right, glue).reason == "d0-mismatch"

    left, right = pair(flip(flip(base_left, 2, 2, 1), 3, 1, 1),
                       flip(flip(base_right, 0, 1, 1), 1, 0, 1))
    assert standard_repr_sum_3(left, right, glue).reason == "d0-singular"

    left, right = pair(flip(base_left, 2, 3, 0), base_right)
    assert standard_repr_sum_3(left, right, glue).reason == "missing-one-entry"

    left, right = pair(flip(base_left, 0, 3, 1), base_right)
    assert standard_repr_sum_3(left, right, glue).reason == "nonzero-outside"


def test_criterion_13_cli_golden_files(capsys, tmp_path):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, _ = run("tu", "check", FIXTURES / "network_uv.json")
    assert (code, out) == (0, "TU\n")
    code, out, _ = run("tu", "check", DATA / "not_tu.json")
    assert code == 1
    assert out == "not TU: rows [u, v] cols [a, b] det 2\n"
    code, _, _ = run("tu", "check", DATA / "bad.json")
    assert code == 2

    code, out, _ = run("tu", "sign", FIXTURES / "r10.json")
    assert code == 0
    assert out == (DATA / "golden_r10_signing.json").read_text()
    code, _, err = run("tu", "sign", FIXTURES / "fano.json")
    assert (code, err) == (1, "no TU signing\n")

    code, out, _ = run("sum", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert code == 0
    assert out == (DATA / "golden_sum_k1.json").read_text()
    round_tripped = parse_standard_repr_document(out)
    assert render_standard_repr_document(round_tripped) == out

    code, out, _ = run("sum", "-k", "2", "--x", "x2", "--y", "y2",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert code == 0
    assert out == (DATA / "golden_sum_k2.json").read_text()

    k3 = ["--x0", "x0", "--x1", "x1", "--x2", "x2",
          "--y0", "y0", "--y1", "y1", "--y2", "y2"]
    code, out, _ = run("sum", "-k", "3", *k3,
                       FIXTURES / "sum3/d0-1001-left.json",
                       FIXTURES / "sum3/d0-1001-right.json")
    assert code == 0
    assert out == (DATA / "golden_sum_k3.json").read_text()
    code, _, err = run("sum", "-k", "2", "--x", "x2", "--y", "y2",
                       DATA / "sum2_left_zero.json", FIXTURES / "sum2_right.json")
    assert code == 1
    assert err.startswith("invalid 2-sum [zero-row-r]:")

    code, out, _ = run("regular", "check", FIXTURES / "r10.json")
    assert (code, out) == (0, "regular\n")
    code, out, _ = run("regular", "check", FIXTURES / "fano.json")
    assert (code, out) == (1, "not regular\n")

    code, out, _ = run("matroid", "info", FIXTURES / "fano.json")
    assert code == 0
    assert out == (DATA / "golden_matroid_info_fano.txt").read_text()
    code, out, _ = run("matroid", "eq", FIXTURES / "fano.json", FIXTURES / "fano.json")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run("matroid", "eq", FIXTURES / "fano.json", FIXTURES / "r10.json")
    assert (code, out) == (1, "not equal\n")

    code, out, _ = run("verify", "composition", "-k", "1",
                       FIXTURES / "sum1_left.json", FIXTURES / "sum1_right.json")
    assert (code, out) == (0, "verified 1-sum composition: regular\n")
    code, out, _ = run("verify", "composition", "-k", "2",
                       "--x", "x2", "--y", "y2",
                       FIXTURES / "sum2_left.json", FIXTURES / "sum2_right.json")
    assert (code, out) == (0, "verified 2-sum composition: regular\n")
    code, out, _ = run("verify", "composition", "-k", "3", *k3,
                       "--out-dir", tmp_path,
                       FIXTURES / "sum3/d0-1101-left.json",
                       FIXTURES / "sum3/d0-1101-right.json")
    assert (code, out) == (0, "verified 3-sum composition: regular\n")
    assert (tmp_path / "sum.json").read_text() == \
        (DATA / "golden_verify_k3_sum.json").read_text()
    assert (tmp_path / "witness.json").read_text() == \
        (DATA / "golden_verify_k3_witness.json").read_text()

    parsed = parse_matrix_document((DATA / "golden_r10_signing.json").read_text())
    full = parse_standard_repr_document((FIXTURES / "r10.json").read_text()).to_full()
    assert is_tu_signing_of(parsed.body, full.body)

    big = tmp_path / "identity9.json"
    big.write_text(render_matrix_document(
        LabeledMatrix(labels("r", 9), labels("c", 9), ExactMatrix.identity(9, RATIONAL))))
    code, _, err = run("tu", "check", big)
    assert code == 3 and err.startswith("size guard:")
    code, out, _ = run("tu", "check", big, "--force")
    assert (code, out) == (0, "TU\n")
