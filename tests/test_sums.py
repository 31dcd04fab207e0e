import random
from collections import Counter
from fractions import Fraction

import pytest

from tumat import (
    FORM_IDENTITY,
    FORM_UPPER_TRIANGULAR,
    GF2,
    RATIONAL,
    REASON_D0_MISMATCH,
    REASON_D0_SINGULAR,
    REASON_LABELS_NOT_DISTINCT,
    REASON_MISSING_ONE,
    REASON_NONZERO_OUTSIDE,
    REASON_X_OVERLAP,
    REASON_Y_OVERLAP,
    REASON_ZERO_COL,
    REASON_ZERO_ROW,
    ExactMatrix,
    LabeledMatrix,
    MatrixSum3Blocks,
    ShapeError,
    Sum3Labels,
    blocks_from_summands,
    canonical_signing_sum3,
    compose,
    disjoint_sum,
    find_tu_signing,
    is_totally_unimodular,
    is_tu_signing_of,
    is_unit_2x2,
    matrix_sum_1,
    matrix_sum_2,
    matrix_sum_3,
    resign_to_target,
    sign_sum_1,
    sign_sum_2,
    standard_repr_sum_1,
    standard_repr_sum_2,
    standard_repr_sum_3,
    verify_is_sum_k_of,
)

from helpers import (
    SUM3_LABELS,
    UNIT_D0S,
    assert_exact,
    make_repr,
    naive_matroids_equal,
    plain_matrix_sum_1,
    plain_matrix_sum_2,
    plain_matrix_sum_3,
    plain_sum_3_entries,
    random_gf2_matrix,
    random_rational_matrix,
    random_sum2_pair,
    random_valid_sum3_pair,
    sum3_corpus,
    sum3_pair,
)

GLUE = Sum3Labels("x0", "x1", "x2", "y0", "y1", "y2")

# a worked identity-connector pair, checked against the block picture by hand
LEFT3 = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
RIGHT3 = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 0]]
SUM3_B = [
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 1, 1, 0, 1],
]


def identity_pair(left_data=LEFT3, right_data=RIGHT3):
    return sum3_pair([row[:] for row in left_data], [row[:] for row in right_data])


def test_matrix_sum_1():
    a = ExactMatrix(GF2, [[1, 0], [1, 1]])
    b = ExactMatrix(GF2, [[1]])
    assert matrix_sum_1(a, b).to_lists() == [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    with pytest.raises(ShapeError):
        matrix_sum_1(a, ExactMatrix(RATIONAL, [[1]]))


def test_matrix_sum_2():
    out = matrix_sum_2(
        ExactMatrix(RATIONAL, [[1]]), [1], ExactMatrix(RATIONAL, [[1]]), [1]
    )
    assert out.to_lists() == [[1, 0], [1, 1]]
    out = matrix_sum_2(
        ExactMatrix(RATIONAL, [[1, -1]]), [1, 0],
        ExactMatrix(RATIONAL, [[1], [0]]), [1, -1],
    )
    assert out.to_lists() == [[1, -1, 0], [1, 0, 1], [-1, 0, 0]]
    with pytest.raises(ShapeError):
        matrix_sum_2(ExactMatrix(RATIONAL, [[1]]), [1, 1], ExactMatrix(RATIONAL, [[1]]), [1])
    with pytest.raises(ShapeError):
        matrix_sum_2(ExactMatrix(RATIONAL, [[1]]), [1], ExactMatrix(RATIONAL, [[1]]), [1, 1])


def test_matrix_sum_3_rational():
    blocks = MatrixSum3Blocks(
        a_left=ExactMatrix(RATIONAL, [[1, 0, 0]]),
        d_left=ExactMatrix(RATIONAL, [[1], [-1]]),
        d0_left=ExactMatrix(RATIONAL, [[1, 1], [0, 1]]),
        d0_right=ExactMatrix(RATIONAL, [[1, 1], [0, 1]]),
        d_right=ExactMatrix(RATIONAL, [[1, -1]]),
        a_right=ExactMatrix(RATIONAL, [[1], [0], [1]]),
    )
    out = matrix_sum_3(blocks)
    assert out.to_lists() == [
        [1, 0, 0, 0],
        [1, 1, 1, 1],
        [-1, 0, 1, 0],
        [3, 1, -1, 1],
    ]


def test_matrix_sum_3_coupling_block():
    base = dict(
        a_left=ExactMatrix(GF2, [[1, 1, 1, 0]]),
        d_left=ExactMatrix(GF2, [[1, 0], [1, 1]]),
        d0_left=ExactMatrix.identity(2, GF2),
        d0_right=ExactMatrix.identity(2, GF2),
        d_right=ExactMatrix.identity(2, GF2),
        a_right=ExactMatrix(GF2, [[1], [0], [1], [1]]),
    )
    # identity connector and identity d_right pass d_left straight through
    out = matrix_sum_3(MatrixSum3Blocks(**base))
    assert out.submatrix([3, 4], [0, 1]).to_lists() == [[1, 0], [1, 1]]
    zero = dict(base, d_left=ExactMatrix.zeros(2, 2, GF2))
    out = matrix_sum_3(MatrixSum3Blocks(**zero))
    assert out.submatrix([3, 4], [0, 1]).to_lists() == [[0, 0], [0, 0]]


def test_matrix_sum_3_gf2_inverse():
    blocks = MatrixSum3Blocks(
        a_left=ExactMatrix(GF2, [[1, 1, 0]]),
        d_left=ExactMatrix(GF2, [[1], [1]]),
        d0_left=ExactMatrix(GF2, [[1, 1], [0, 1]]),
        d0_right=ExactMatrix(GF2, [[1, 1], [0, 1]]),
        d_right=ExactMatrix(GF2, [[1, 0]]),
        a_right=ExactMatrix(GF2, [[1], [1], [0]]),
    )
    # [1,0] @ inv([[1,1],[0,1]]) @ [[1],[1]] over GF(2) is [0]
    assert matrix_sum_3(blocks)[3, 0] == 0


def test_matrix_sum_3_singular_connector():
    blocks = MatrixSum3Blocks(
        a_left=ExactMatrix(GF2, [[1, 1, 0]]),
        d_left=ExactMatrix(GF2, [[1], [0]]),
        d0_left=ExactMatrix(GF2, [[1, 1], [1, 1]]),
        d0_right=ExactMatrix(GF2, [[1, 1], [1, 1]]),
        d_right=ExactMatrix(GF2, [[1, 1]]),
        a_right=ExactMatrix(GF2, [[1], [1], [0]]),
    )
    with pytest.raises(ShapeError):
        matrix_sum_3(blocks)


def test_blocks_validation():
    good = dict(
        a_left=ExactMatrix(GF2, [[1, 1, 0]]),
        d_left=ExactMatrix(GF2, [[1], [0]]),
        d0_left=ExactMatrix(GF2, [[1, 0], [0, 1]]),
        d0_right=ExactMatrix(GF2, [[1, 0], [0, 1]]),
        d_right=ExactMatrix(GF2, [[1, 1]]),
        a_right=ExactMatrix(GF2, [[1], [1], [0]]),
    )
    MatrixSum3Blocks(**good)
    bad = dict(good, d0_left=ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError):
        MatrixSum3Blocks(**bad)
    bad = dict(good, d_left=ExactMatrix(GF2, [[1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        MatrixSum3Blocks(**bad)
    bad = dict(good, a_right=ExactMatrix(GF2, [[1], [1]]))
    with pytest.raises(ShapeError):
        MatrixSum3Blocks(**bad)
    bad = dict(good, a_left=ExactMatrix(RATIONAL, [[1, 1, 0]]))
    with pytest.raises(ShapeError):
        MatrixSum3Blocks(**bad)


def test_blocks_from_summands():
    left, right, glue = identity_pair()
    blocks = blocks_from_summands(left.B, right.B, glue)
    assert blocks.d0_left.to_lists() == [[1, 0], [0, 1]]
    assert blocks.d_left.to_lists() == [[1], [0]]
    assert blocks.a_left.to_lists() == [[1, 1, 0], [0, 1, 1]]
    assert blocks.d_right.to_lists() == [[1, 1]]
    assert blocks.a_right.to_lists() == [[1, 0], [1, 1], [0, 1]]
    with pytest.raises(ShapeError):
        blocks_from_summands(left.B, right.B, Sum3Labels("nope", "x1", "x2", "y0", "y1", "y2"))


def test_blocks_degenerate_left():
    b_left = LabeledMatrix(["x2", "x0", "x1"], ["y0", "y1", "y2"],
                           ExactMatrix(GF2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    _, right, glue = identity_pair()
    blocks = blocks_from_summands(b_left, right.B, glue)
    assert blocks.a_left.shape == (1, 2)
    assert blocks.d_left.shape == (2, 0)


def test_sum_1_valid():
    left = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    right = make_repr(["x2"], ["y2"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(left, right)
    assert out.valid and out.reason is None
    assert out.result.X == ("x1", "x2") and out.result.Y == ("y1", "y2")
    assert out.result.B.body.to_lists() == [[1, 0], [0, 1]]


def test_sum_1_matches_disjoint_sum():
    rng = random.Random(3)
    from helpers import random_standard_repr

    for _ in range(10):
        left = random_standard_repr(rng, 2, 2)
        right = random_standard_repr(rng, 2, 2, x_start=5, y_start=5)
        out = standard_repr_sum_1(left, right)
        assert out.valid
        assert naive_matroids_equal(
            out.result.to_matroid(),
            disjoint_sum(left.to_matroid(), right.to_matroid()),
        )


def test_sum_1_overlap_reasons():
    a = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    b = make_repr(["x1"], ["y2"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(a, b)
    assert not out.valid and out.reason == REASON_X_OVERLAP
    c = make_repr(["x2"], ["y1"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(a, c)
    assert out.reason == REASON_Y_OVERLAP
    # a full collision reports the row overlap first
    out = standard_repr_sum_1(a, make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]])))
    assert out.reason == REASON_X_OVERLAP
    with pytest.raises(ShapeError):
        standard_repr_sum_1(a, make_repr(["y1"], ["y3"], ExactMatrix(GF2, [[1]])))
    with pytest.raises(ShapeError):
        standard_repr_sum_1(a, standardize_like_rational())


def standardize_like_rational():
    return make_repr(["x9"], ["y9"], ExactMatrix(RATIONAL, [[1]]))


def test_sum_2_valid():
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    out = standard_repr_sum_2(left, right, "x2", "y2")
    assert out.valid
    assert out.result.X == ("x1", "x2", "x3")
    assert out.result.Y == ("y1", "y2", "y3")
    assert out.result.B.body.to_lists() == [[1, 1, 0], [0, 1, 0], [0, 1, 1]]


def test_sum_2_invalid_reasons():
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    zero_row = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]]))
    out = standard_repr_sum_2(zero_row, right, "x2", "y2")
    assert not out.valid and out.reason == REASON_ZERO_ROW
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    zero_col = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[0, 0], [0, 1]]))
    out = standard_repr_sum_2(left, zero_col, "x2", "y2")
    assert out.reason == REASON_ZERO_COL
    # both at once: the zero glue row is reported first
    out = standard_repr_sum_2(zero_row, zero_col, "x2", "y2")
    assert out.reason == REASON_ZERO_ROW


def test_sum_2_shape_preconditions():
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        standard_repr_sum_2(left, right, "x1", "y2")  # intersection is {x2}, not {x1}
    two_shared = make_repr(["x1", "x2"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        standard_repr_sum_2(left, two_shared, "x2", "y2")
    cross = make_repr(["x2", "x3"], ["y2", "x1"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        standard_repr_sum_2(left, cross, "x2", "y2")


def test_sum_3_valid_layout():
    left, right, glue = identity_pair()
    out = standard_repr_sum_3(left, right, glue)
    assert out.valid
    assert out.result.X == ("xa", "x2", "x0", "x1", "xb")
    assert out.result.Y == ("ya", "y0", "y1", "y2", "yb")
    assert out.result.B.body.to_lists() == SUM3_B


LEFT3Z = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
RIGHT3Z = [[1, 0, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]]


def test_sum_3_zero_coupling():
    left, right, glue = identity_pair(LEFT3Z, RIGHT3Z)
    blocks = blocks_from_summands(left.B, right.B, glue)
    assert blocks.d_left == ExactMatrix.zeros(2, 1, GF2)
    assert blocks.d_right == ExactMatrix.zeros(1, 2, GF2)
    out = standard_repr_sum_3(left, right, glue)
    assert out.valid
    s = out.result
    for u in ("x0", "x1", "xb"):
        assert s.B.entry(u, "ya") == 0
    signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    witness = canonical_signing_sum3(signed_left, signed_right, glue)
    assert is_tu_signing_of(witness.body, s.B.body)
    for u in ("x0", "x1", "xb"):
        assert witness.entry(u, "ya") == 0


def mutate(data, i, j, v):
    out = [row[:] for row in data]
    out[i][j] = v
    return out


def test_sum_3_labels_not_distinct():
    left = make_repr(["xa", "x2", "x0"], ["ya", "y0", "y1", "y2"],
                     ExactMatrix(GF2, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1]]))
    right = make_repr(["x0", "xb", "x2"], ["y0", "y1", "y2", "yb"],
                      ExactMatrix(GF2, [[1, 0, 1, 0], [1, 1, 0, 1], [1, 1, 0, 0]]))
    out = standard_repr_sum_3(left, right, Sum3Labels("x0", "x0", "x2", "y0", "y1", "y2"))
    assert not out.valid and out.reason == REASON_LABELS_NOT_DISTINCT


def test_sum_3_d0_mismatch():
    swapped = mutate(mutate(mutate(mutate(RIGHT3, 0, 0, 0), 0, 1, 1), 1, 0, 1), 1, 1, 0)
    left, right, glue = identity_pair(LEFT3, swapped)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_D0_MISMATCH


def test_sum_3_d0_singular():
    left_bad = mutate(mutate(LEFT3, 2, 2, 1), 3, 1, 1)   # d0 -> all ones
    right_bad = mutate(mutate(RIGHT3, 0, 1, 1), 1, 0, 1)
    left, right, glue = identity_pair(left_bad, right_bad)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_D0_SINGULAR


def test_sum_3_missing_one_entry():
    left, right, glue = identity_pair(mutate(LEFT3, 2, 3, 0), RIGHT3)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_MISSING_ONE
    assert "left" in out.message and "'x0'" in out.message
    left, right, glue = identity_pair(LEFT3, mutate(RIGHT3, 3, 0, 0))
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_MISSING_ONE
    assert "right" in out.message and "'x2'" in out.message


def test_sum_3_nonzero_outside():
    left, right, glue = identity_pair(mutate(LEFT3, 0, 3, 1), RIGHT3)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_NONZERO_OUTSIDE
    assert "left" in out.message
    left, right, glue = identity_pair(LEFT3, mutate(RIGHT3, 3, 3, 1))
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_NONZERO_OUTSIDE
    assert "right" in out.message


def test_sum_3_guard_order():
    # d0 mismatch beats a missing 1-entry: guards run in a fixed order
    swapped = mutate(mutate(mutate(mutate(RIGHT3, 0, 0, 0), 0, 1, 1), 1, 0, 1), 1, 1, 0)
    left, right, glue = identity_pair(mutate(LEFT3, 2, 3, 0), swapped)
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_D0_MISMATCH


def test_sum_3_shape_preconditions():
    left, right, glue = identity_pair()
    with pytest.raises(ShapeError):
        standard_repr_sum_3(left, right, Sum3Labels("xa", "x1", "x2", "y0", "y1", "y2"))
    bad_right = make_repr(["x0", "x1", "xb", "x2"], ["y0", "y1", "y2", "xa"],
                          ExactMatrix(GF2, RIGHT3))
    with pytest.raises(ShapeError):
        standard_repr_sum_3(left, bad_right, glue)


def test_is_unit_2x2_exhaustive():
    units = 0
    for bits in range(16):
        data = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        a = ExactMatrix(GF2, data)
        got = is_unit_2x2(a)
        if a.determinant() == 0:
            assert got is None
        else:
            units += 1
            f, g, form = got
            tgt = {FORM_IDENTITY: [[1, 0], [0, 1]], FORM_UPPER_TRIANGULAR: [[1, 1], [0, 1]]}[form]
            for i in range(2):
                for j in range(2):
                    assert a[f[i], g[j]] == tgt[i][j]
    assert units == 6
    with pytest.raises(ShapeError):
        is_unit_2x2(ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError):
        is_unit_2x2(ExactMatrix(RATIONAL, [[1, 0], [0, 1]]))


def test_is_unit_2x2_pinned_permutations():
    assert is_unit_2x2(ExactMatrix(GF2, [[0, 1], [1, 0]])) == ((1, 0), (0, 1), FORM_IDENTITY)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 1], [1, 0]])) == ((0, 1), (1, 0), FORM_UPPER_TRIANGULAR)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 0], [0, 1]])) == ((0, 1), (0, 1), FORM_IDENTITY)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 1], [0, 1]])) == ((0, 1), (0, 1), FORM_UPPER_TRIANGULAR)


def test_sign_sum_1():
    a = ExactMatrix(RATIONAL, [[1, -1], [0, 1]])
    b = ExactMatrix(RATIONAL, [[1]])
    out = sign_sum_1(a, b)
    assert is_totally_unimodular(out).is_tu
    assert out.to_lists() == [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    # the construction does not check its summands: a non-TU summand
    # gives a non-TU sum, which the certificate on the result rejects
    bad = sign_sum_1(ExactMatrix(RATIONAL, [[2]]), b)
    assert is_totally_unimodular(bad).witness == ((0,), (0,), 2)
    with pytest.raises(ShapeError):
        sign_sum_1(ExactMatrix(GF2, [[1]]), ExactMatrix(GF2, [[1]]))


def test_sign_sum_2():
    a_left = ExactMatrix(RATIONAL, [[1, -1]])
    a_right = ExactMatrix(RATIONAL, [[1], [0]])
    out = sign_sum_2(a_left, [0, 1], a_right, [1, -1])
    assert is_totally_unimodular(out).is_tu
    assert out.to_lists() == [[1, -1, 0], [0, 1, 1], [0, -1, 0]]
    bad = sign_sum_2(a_left, [1, 1], a_right, [1, -1])  # [a_left / r] is not TU
    assert is_totally_unimodular(bad).witness == ((0, 1), (0, 1), 2)
    with pytest.raises(ShapeError):
        sign_sum_2(ExactMatrix(GF2, [[1, 1]]), [0, 1], ExactMatrix(GF2, [[1], [0]]), [1, 1])


def test_resign_to_target_already_there():
    a = ExactMatrix(RATIONAL, [[1, 1, 0], [1, 0, 1], [0, -1, 1]])
    assert resign_to_target(a, [0, 1, 2], [0, 1, 2], a) == a


def test_resign_to_target():
    a = ExactMatrix(RATIONAL, [[1, -1], [1, 1]])
    target = ExactMatrix(RATIONAL, [[1, 1], [1, -1]])
    out = resign_to_target(a, [0, 1], [0, 1], target)
    assert out.submatrix([0, 1], [0, 1]) == target
    # scaling acts on whole rows and columns; untouched ones keep their signs
    b = ExactMatrix(RATIONAL, [[1, -1, 1], [1, 1, 0], [0, 1, 1]])
    out = resign_to_target(b, [0, 1], [0, 1], target)
    assert out.submatrix([0, 1], [0, 1]) == target
    assert out.row(2)[2] == 1


def test_resign_to_target_errors():
    a = ExactMatrix(RATIONAL, [[1, 1], [1, 1]])
    unreachable = ExactMatrix(RATIONAL, [[1, 1], [1, -1]])
    with pytest.raises(ShapeError):
        resign_to_target(a, [0, 1], [0, 1], unreachable)
    with pytest.raises(ShapeError):
        resign_to_target(a, [0, 1], [0, 1], ExactMatrix(RATIONAL, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        resign_to_target(a, [0, 0], [0, 1], unreachable)
    with pytest.raises(ShapeError):
        resign_to_target(a, [0, 2], [0, 1], unreachable)


def test_canonical_signing_identity_connector():
    left, right, glue = identity_pair()
    out = standard_repr_sum_3(left, right, glue)
    signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    witness = canonical_signing_sum3(signed_left, signed_right, glue)
    assert witness.row_labels == out.result.X
    assert witness.col_labels == out.result.Y
    assert is_tu_signing_of(witness.body, out.result.B.body)


def test_canonical_signing_all_connectors():
    for left, right, glue, d0 in sum3_corpus(per_unit=1):
        out = standard_repr_sum_3(left, right, glue)
        assert out.valid, d0
        signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
        signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
        witness = canonical_signing_sum3(signed_left, signed_right, glue)
        assert is_tu_signing_of(witness.body, out.result.B.body), d0


def test_canonical_signing_rejects_non_tu():
    left, right, glue = identity_pair()
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    # a signing with a 2 at (xa, ya): the construction does not check its
    # summands, and the 2 lands at (xa, ya) of the sum
    not_tu = LabeledMatrix(
        left.X, left.Y,
        ExactMatrix(RATIONAL, mutate(find_tu_signing(left.B.body).to_lists(), 0, 0, 2)),
    )
    out = canonical_signing_sum3(not_tu, signed_right, glue)
    assert is_totally_unimodular(out.body).witness == ((0,), (0,), 2)
    # the unsigned 0/1 summand cannot be re-signed to the connector target
    unsigned = LabeledMatrix(left.X, left.Y, ExactMatrix(RATIONAL, LEFT3))
    with pytest.raises(ShapeError, match="no row/column sign scaling reaches the target"):
        canonical_signing_sum3(unsigned, signed_right, glue)


def test_verify_is_sum_k_of():
    l1 = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    r1 = make_repr(["x2"], ["y2"], ExactMatrix(GF2, [[1]]))
    s1 = standard_repr_sum_1(l1, r1).result
    assert verify_is_sum_k_of(s1.to_matroid(), l1.to_matroid(), r1.to_matroid(), l1, r1, None)
    # the wrong matroid on either slot is refused
    assert not verify_is_sum_k_of(l1.to_matroid(), l1.to_matroid(), r1.to_matroid(), l1, r1, None)
    assert not verify_is_sum_k_of(s1.to_matroid(), r1.to_matroid(), r1.to_matroid(), l1, r1, None)

    left2 = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right2 = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    s2 = standard_repr_sum_2(left2, right2, "x2", "y2").result
    assert verify_is_sum_k_of(
        s2.to_matroid(), left2.to_matroid(), right2.to_matroid(), left2, right2, ("x2", "y2"))

    left3, right3, glue = identity_pair()
    s3 = standard_repr_sum_3(left3, right3, glue).result
    assert verify_is_sum_k_of(
        s3.to_matroid(), left3.to_matroid(), right3.to_matroid(), left3, right3, glue)

    # an Invalid sum can never be certified
    zero_row = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]]))
    assert not verify_is_sum_k_of(
        s2.to_matroid(), zero_row.to_matroid(), right2.to_matroid(), zero_row, right2, ("x2", "y2"))

    # a single flipped entry in a witness changes the sum matroid
    flipped = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[0, 1], [0, 1]]))
    assert not verify_is_sum_k_of(
        s2.to_matroid(), flipped.to_matroid(), right2.to_matroid(), flipped, right2, ("x2", "y2"))


@pytest.mark.parametrize("bad_glue", [
    ("x2", "y2", "z"),
    "x2",
    Sum3Labels("x0", "x1", "x2", "y0", "y1", None),
])
def test_malformed_glue_raises(bad_glue):
    left3, right3, _ = identity_pair()
    s3 = standard_repr_sum_3(left3, right3, GLUE).result
    with pytest.raises(ShapeError):
        compose(left3, right3, bad_glue)
    with pytest.raises(ShapeError):
        verify_is_sum_k_of(
            s3.to_matroid(), left3.to_matroid(), right3.to_matroid(), left3, right3, bad_glue)


def test_sum2_random_pairs_have_regular_summands():
    rng = random.Random(29)
    for _ in range(5):
        left, right, x, y = random_sum2_pair(rng)
        out = standard_repr_sum_2(left, right, x, y)
        assert out.valid
        assert find_tu_signing(left.B.body) is not None
        assert find_tu_signing(right.B.body) is not None


RATIONAL_ENTRIES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), "2/3")


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_matrix_sums_match_plain_list_oracle(kind):
    # 600 seeded sums per kind, k = 1, 2, 3 in turn, summands down to 0 rows or 0 columns
    rng = random.Random(1100 if kind == GF2 else 1101)
    make = random_gf2_matrix if kind == GF2 else random_rational_matrix
    # r and c are caller input: any int over GF(2), ints, Fractions and strings over Q
    entry = (lambda: rng.randint(0, 3)) if kind == GF2 else (lambda: rng.choice(RATIONAL_ENTRIES))
    seen, connectors = Counter(), Counter()
    for t in range(600):
        m_l, n_l, m_r, n_r = (rng.randint(0, 4) for _ in range(4))
        seen["empty"] += 0 in (m_l, n_l, m_r, n_r)
        k = t % 3 + 1
        if k == 1:
            a_left, a_right = make(rng, m_l, n_l), make(rng, m_r, n_r)
            out, expected = matrix_sum_1(a_left, a_right), plain_matrix_sum_1(a_left, a_right)
            shape = (m_l + m_r, n_l + n_r)
        elif k == 2:
            a_left, a_right = make(rng, m_l, n_l), make(rng, m_r, n_r)
            r = [entry() for _ in range(n_l)]
            c = [entry() for _ in range(m_r)]
            nonzero = [Fraction(v) % 2 != 0 if kind == GF2 else Fraction(v) != 0 for v in c]
            seen["c zero"] += not all(nonzero)
            seen["c nonzero"] += any(nonzero)
            out, expected = matrix_sum_2(a_left, r, a_right, c), plain_matrix_sum_2(a_left, r, a_right, c)
            shape = (m_l + m_r, n_l + n_r)
        else:
            if kind == GF2:
                d0 = UNIT_D0S[t // 3 % len(UNIT_D0S)]
            else:
                d0 = [[rng.choice(RATIONAL_ENTRIES) for _ in range(2)] for _ in range(2)]
                while ExactMatrix(RATIONAL, d0).determinant() == 0:
                    d0 = [[rng.choice(RATIONAL_ENTRIES) for _ in range(2)] for _ in range(2)]
            connector = ExactMatrix(kind, d0)
            connectors[connector.rows] += 1
            blocks = MatrixSum3Blocks(
                a_left=make(rng, m_l + 1, n_l + 2),
                d_left=make(rng, 2, n_l),
                d0_left=connector,
                d0_right=connector,
                d_right=make(rng, m_r, 2),
                a_right=make(rng, m_r + 2, n_r + 1),
            )
            out, expected = matrix_sum_3(blocks), plain_matrix_sum_3(blocks)
            shape = (m_l + m_r + 3, n_l + n_r + 3)
        assert out.kind == kind and out.shape == shape
        assert out.to_lists() == expected
        assert_exact(out)
    assert seen["empty"] and seen["c zero"] and seen["c nonzero"]
    if kind == GF2:
        assert all(connectors[ExactMatrix(GF2, d0).rows] for d0 in UNIT_D0S)
    else:
        assert sum(connectors.values()) - connectors[ExactMatrix.identity(2, RATIONAL).rows] > 100


def test_labeled_3_sums_match_plain_list_oracle():
    # compose assembles a 3-sum straight in its output label order
    rng = random.Random(1102)
    glue = Sum3Labels(*SUM3_LABELS)
    for t in range(300):
        left, right = random_valid_sum3_pair(rng, UNIT_D0S[t % len(UNIT_D0S)])
        outcome = compose(left, right, glue)
        assert outcome.valid
        s = outcome.result
        expected = plain_sum_3_entries(left.B, right.B, blocks_from_summands(left.B, right.B, glue), SUM3_LABELS)
        assert {(u, v): s.B.entry(u, v) for u in s.X for v in s.Y} == expected
        assert_exact(s.B.body)


def test_sum_results_carry_checked_labels():
    # results wrapped without re-checking their labels equal the checked construction
    rng = random.Random(1103)
    glue = Sum3Labels(*SUM3_LABELS)
    outcomes = [compose(*random_valid_sum3_pair(rng, d0), glue) for d0 in UNIT_D0S]
    left, right, x, y = random_sum2_pair(rng)
    outcomes += [compose(left, right, (x, y))]
    outcomes += [compose(make_repr(["a"], ["b"], ExactMatrix(GF2, [[1]])), left, None)]
    for outcome in outcomes:
        s = outcome.result
        assert s.B == LabeledMatrix(s.X, s.Y, s.B.body)
        assert [s.B.row_position(u) for u in s.X] == list(range(len(s.X)))
        assert [s.B.col_position(v) for v in s.Y] == list(range(len(s.Y)))
