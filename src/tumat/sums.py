"""Regularity-preserving sums of standard representations.

The 1-sum is block-diagonal; the 2-sum glues along one shared row label
x and one shared column label y, with bottom-left rank-one block c * r;
the 3-sum glues along three shared row labels x0, x1, x2 and three
shared column labels y0, y1, y2 through an invertible 2x2 connector
block D0, with bottom-left block Dr * D0^-1 * Dl.

Each ``standard_repr_sum_k`` first checks the label-overlap shape
preconditions (violations raise), then evaluates the validity guards in
a fixed order and returns an Invalid outcome naming the first failed
guard.  Valid outcomes carry the assembled standard representation with
a deterministic label order: left-side labels first, then right-side
labels, each in stored order, glue labels dropped from the side that
loses them.

Signing constructions mirror the sums over the rationals and produce TU
signings of the GF(2) results when the summand signings are TU.  They
check neither: the composition theorem makes the result TU, and a
caller that needs a certificate checks the result once.

A sum is named by its glue value: None for a 1-sum, the pair (x, y) for
a 2-sum and a ``Sum3Labels`` for a 3-sum.  ``compose`` and
``sign_composition`` read k off the glue and delegate to the per-k
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul, xor
from typing import Optional, Sequence

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, Entry, ExactMatrix, _exact, from_cols
from .matroid import DEFAULT_EQ_LIMIT, FiniteMatroid, Label, LabeledMatrix, _labeled, matroids_equal
from .stdrepr import StandardRepr, support
from .tu import scale_rows_cols, spanning_forest

REASON_X_OVERLAP = "x-overlap"
REASON_Y_OVERLAP = "y-overlap"
REASON_ZERO_ROW = "zero-row-r"
REASON_ZERO_COL = "zero-col-c"
REASON_LABELS_NOT_DISTINCT = "labels-not-distinct"
REASON_D0_MISMATCH = "d0-mismatch"
REASON_D0_SINGULAR = "d0-singular"
REASON_MISSING_ONE = "missing-one-entry"
REASON_NONZERO_OUTSIDE = "nonzero-outside"

FORM_IDENTITY = "identity"
FORM_UPPER_TRIANGULAR = "upper-triangular-11"

_CONNECTOR_TARGETS = {
    FORM_IDENTITY: ExactMatrix(RATIONAL, [[1, 1, 0], [1, 0, 1], [0, -1, 1]]),
    FORM_UPPER_TRIANGULAR: ExactMatrix(RATIONAL, [[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
}

__all__ = [
    "SumOutcome",
    "Sum3Labels",
    "MatrixSum3Blocks",
    "matrix_sum_1",
    "matrix_sum_2",
    "matrix_sum_3",
    "blocks_from_summands",
    "standard_repr_sum_1",
    "standard_repr_sum_2",
    "standard_repr_sum_3",
    "is_unit_2x2",
    "sign_sum_1",
    "sign_sum_2",
    "resign_to_target",
    "canonical_signing_sum3",
    "compose",
    "sign_composition",
    "verify_is_sum_k_of",
    "FORM_IDENTITY",
    "FORM_UPPER_TRIANGULAR",
    "REASON_X_OVERLAP",
    "REASON_Y_OVERLAP",
    "REASON_ZERO_ROW",
    "REASON_ZERO_COL",
    "REASON_LABELS_NOT_DISTINCT",
    "REASON_D0_MISMATCH",
    "REASON_D0_SINGULAR",
    "REASON_MISSING_ONE",
    "REASON_NONZERO_OUTSIDE",
]


@dataclass(frozen=True)
class SumOutcome:
    """Valid (carries the assembled representation) or Invalid (carries why)."""

    result: Optional[StandardRepr]
    reason: Optional[str] = None
    message: str = ""

    @property
    def valid(self) -> bool:
        return self.result is not None

    @staticmethod
    def ok(result: StandardRepr) -> "SumOutcome":
        return SumOutcome(result)

    @staticmethod
    def invalid(reason: str, message: str) -> "SumOutcome":
        return SumOutcome(None, reason, message)


@dataclass(frozen=True)
class Sum3Labels:
    """The three shared row labels and three shared column labels of a 3-sum."""

    x0: Label
    x1: Label
    x2: Label
    y0: Label
    y1: Label
    y2: Label

    @property
    def xs(self) -> tuple[Label, Label, Label]:
        return (self.x0, self.x1, self.x2)

    @property
    def ys(self) -> tuple[Label, Label, Label]:
        return (self.y0, self.y1, self.y2)


@dataclass(frozen=True)
class MatrixSum3Blocks:
    """The six blocks feeding a 3-sum.

    ``a_left`` has the left-summand rows (rest, then x2) by columns
    (rest, then y0, y1); ``d_left`` is rows (x0, x1) by the left rest
    columns; the connector blocks ``d0_left`` and ``d0_right`` are rows
    (x0, x1) by columns (y0, y1); ``d_right`` is the right rest rows by
    columns (y0, y1); ``a_right`` has rows (x0, x1, then rest) by
    columns (y2, then rest).
    """

    a_left: ExactMatrix
    d_left: ExactMatrix
    d0_left: ExactMatrix
    d0_right: ExactMatrix
    d_right: ExactMatrix
    a_right: ExactMatrix

    def __post_init__(self):
        kinds = {
            self.a_left.kind, self.d_left.kind, self.d0_left.kind,
            self.d0_right.kind, self.d_right.kind, self.a_right.kind,
        }
        if len(kinds) != 1:
            raise ShapeError("all blocks must share one scalar kind")
        if self.d0_left.shape != (2, 2) or self.d0_right.shape != (2, 2):
            raise ShapeError("connector blocks must be 2x2")
        if self.a_left.n_rows < 1 or self.a_left.n_cols < 2:
            raise ShapeError("a_left must contain the x2 row and the y0, y1 columns")
        if self.d_left.n_rows != 2 or self.d_left.n_cols != self.a_left.n_cols - 2:
            raise ShapeError("d_left must be 2 by (a_left columns - 2)")
        if self.d_right.n_cols != 2:
            raise ShapeError("d_right must have two columns")
        if self.a_right.n_rows != self.d_right.n_rows + 2 or self.a_right.n_cols < 1:
            raise ShapeError("a_right must have the x0, x1 rows above the d_right rows")


def _stacked(kind: str, top, coeffs, basis, tail, n_left: int, n_right: int) -> ExactMatrix:
    """The matrix [[top, 0], [coeffs * basis, tail]] from exact rows, with up to two basis rows.

    Zero block rows are shared tuples; over GF(2) coeffs pick basis rows to XOR, with no product.
    """
    zero = 0 if kind == GF2 else Fraction(0)
    pad, blank = (zero,) * n_right, (zero,) * n_left
    if kind == GF2:
        picks = ([b for c, b in zip(cs, basis) if c] for cs in coeffs)
        heads = [tuple(map(xor, *p)) if len(p) == 2 else p[0] if p else blank for p in picks]
    else:
        heads = [tuple(sum(map(mul, cs, col), zero) for col in zip(*basis)) if any(cs) else blank
                 for cs in coeffs]
    return _exact(kind, [row + pad for row in top] + [h + t for h, t in zip(heads, tail)], n_left + n_right)


def matrix_sum_1(a_left: ExactMatrix, a_right: ExactMatrix) -> ExactMatrix:
    """Block-diagonal join of two matrices of one kind, assembled row by row."""
    if a_left.kind != a_right.kind:
        raise ShapeError("summands must share one scalar kind")
    coeffs = [()] * a_right.n_rows
    return _stacked(a_left.kind, a_left.rows, coeffs, [], a_right.rows, a_left.n_cols, a_right.n_cols)


def matrix_sum_2(
    a_left: ExactMatrix,
    r: Sequence[Entry],
    a_right: ExactMatrix,
    c: Sequence[Entry],
) -> ExactMatrix:
    """Join with rank-one bottom-left block c * r; bottom row i starts with c[i] * r."""
    if a_left.kind != a_right.kind:
        raise ShapeError("summands must share one scalar kind")
    kind = a_left.kind
    (r_row,) = ExactMatrix(kind, [r], n_cols=len(r)).rows
    (c_row,) = ExactMatrix(kind, [c], n_cols=len(c)).rows
    if len(r_row) != a_left.n_cols:
        raise ShapeError("r must have one entry per a_left column")
    if len(c_row) != a_right.n_rows:
        raise ShapeError("c must have one entry per a_right row")
    return _stacked(kind, a_left.rows, zip(c_row), [r_row], a_right.rows, a_left.n_cols, a_right.n_cols)


def matrix_sum_3(blocks: MatrixSum3Blocks) -> ExactMatrix:
    """Assemble the 3-sum matrix row by row; the connector block must be invertible.

    A bottom row whose connector columns hold d starts with d * D0^-1 * [Dl | D0]:
    the row of [Dl | D0] itself for the rows x0, x1, and [Dr * D0^-1 * Dl | Dr] below.
    """
    try:  # the block shapes are checked, so only inverse() can fail
        m = (blocks.d0_left.inverse() @ from_cols(blocks.d_left, blocks.d0_left)).rows
    except ShapeError:
        raise ShapeError("the connector block is singular") from None
    coeffs = blocks.d0_left.rows + blocks.d_right.rows
    return _stacked(blocks.a_left.kind, blocks.a_left.rows, coeffs, m, blocks.a_right.rows,
                    blocks.a_left.n_cols, blocks.a_right.n_cols)


def blocks_from_summands(
    b_left: LabeledMatrix, b_right: LabeledMatrix, labels: Sum3Labels
) -> MatrixSum3Blocks:
    """Cut the six blocks out of two labeled summand matrices."""
    for lbl in labels.xs:
        if lbl not in b_left.row_labels or lbl not in b_right.row_labels:
            raise ShapeError(f"row label {lbl!r} must appear in both summands")
    for lbl in labels.ys:
        if lbl not in b_left.col_labels or lbl not in b_right.col_labels:
            raise ShapeError(f"column label {lbl!r} must appear in both summands")
    xs = set(labels.xs)
    ys = set(labels.ys)
    x_left_rest = [u for u in b_left.row_labels if u not in xs]
    y_left_rest = [v for v in b_left.col_labels if v not in ys]
    x_right_rest = [u for u in b_right.row_labels if u not in xs]
    y_right_rest = [v for v in b_right.col_labels if v not in ys]
    return MatrixSum3Blocks(
        a_left=b_left.select(x_left_rest + [labels.x2], y_left_rest + [labels.y0, labels.y1]).body,
        d_left=b_left.select([labels.x0, labels.x1], y_left_rest).body,
        d0_left=b_left.select([labels.x0, labels.x1], [labels.y0, labels.y1]).body,
        d0_right=b_right.select([labels.x0, labels.x1], [labels.y0, labels.y1]).body,
        d_right=b_right.select(x_right_rest, [labels.y0, labels.y1]).body,
        a_right=b_right.select([labels.x0, labels.x1] + x_right_rest, [labels.y2] + y_right_rest).body,
    )


def _require_gf2(left: StandardRepr, right: StandardRepr) -> None:
    for s, who in ((left, "left"), (right, "right")):
        if s.kind != GF2:
            raise ShapeError(f"{who} summand must be a GF(2) standard representation")


def standard_repr_sum_1(left: StandardRepr, right: StandardRepr) -> SumOutcome:
    """1-sum: block-diagonal standard representation on disjoint labels."""
    _require_gf2(left, right)
    if set(left.X) & set(right.Y) or set(left.Y) & set(right.X):
        raise ShapeError("row labels of one summand collide with column labels of the other")
    x_shared = set(left.X) & set(right.X)
    if x_shared:
        return SumOutcome.invalid(REASON_X_OVERLAP, f"shared row labels {sorted(x_shared)}")
    y_shared = set(left.Y) & set(right.Y)
    if y_shared:
        return SumOutcome.invalid(REASON_Y_OVERLAP, f"shared column labels {sorted(y_shared)}")
    body = matrix_sum_1(left.B.body, right.B.body)
    x_out = list(left.X) + list(right.X)
    y_out = list(left.Y) + list(right.Y)
    return SumOutcome.ok(StandardRepr(x_out, y_out, _labeled(x_out, y_out, body)))


def standard_repr_sum_2(
    left: StandardRepr, right: StandardRepr, x: Label, y: Label
) -> SumOutcome:
    """2-sum along row label x of the left and column label y of the right.

    r is row x of the left matrix and c is column y of the right matrix;
    either being all zero makes the sum Invalid.
    """
    _require_gf2(left, right)
    if set(left.X) & set(right.X) != {x}:
        raise ShapeError("row label sets must intersect in exactly the glue label x")
    if set(left.Y) & set(right.Y) != {y}:
        raise ShapeError("column label sets must intersect in exactly the glue label y")
    if set(left.X) & set(right.Y) or set(left.Y) & set(right.X):
        raise ShapeError("row labels of one summand collide with column labels of the other")
    a_left, r, a_right, c, x_out, y_out = _sum2_pieces(left.B, right.B, x, y)
    if not any(r):
        return SumOutcome.invalid(REASON_ZERO_ROW, f"row {x!r} of the left summand is zero")
    if not any(c):
        return SumOutcome.invalid(REASON_ZERO_COL, f"column {y!r} of the right summand is zero")
    body = matrix_sum_2(a_left, r, a_right, c)
    return SumOutcome.ok(StandardRepr(x_out, y_out, _labeled(x_out, y_out, body)))


def _sum2_pieces(b_left: LabeledMatrix, b_right: LabeledMatrix, x: Label, y: Label):
    """Cut a 2-sum into a_left, r, a_right, c and the row and column labels of the sum."""
    x_keep = [u for u in b_left.row_labels if u != x]
    y_keep = [v for v in b_right.col_labels if v != y]
    r = b_left.body.row(b_left.row_position(x))
    c = b_right.body.col(b_right.col_position(y))
    a_left = b_left.select(x_keep, b_left.col_labels).body
    a_right = b_right.select(b_right.row_labels, y_keep).body
    return a_left, r, a_right, c, x_keep + list(b_right.row_labels), list(b_left.col_labels) + y_keep


def standard_repr_sum_3(
    left: StandardRepr, right: StandardRepr, labels: Sum3Labels
) -> SumOutcome:
    """3-sum through the shared labels x0, x1, x2 and y0, y1, y2.

    Validity guards, checked in order: the six glue labels are distinct;
    the connector blocks agree; the connector is invertible; the eight
    designated entries are 1 (column y2 at rows x0, x1 and row x2 at
    columns y0, y1, on both sides); column y2 of the left is zero
    outside rows x0, x1 and row x2 of the right is zero outside columns
    y0, y1.
    """
    _require_gf2(left, right)
    xs = set(labels.xs)
    ys = set(labels.ys)
    if set(left.X) & set(right.X) != xs:
        raise ShapeError("row label sets must intersect in exactly the three glue labels")
    if set(left.Y) & set(right.Y) != ys:
        raise ShapeError("column label sets must intersect in exactly the three glue labels")
    if set(left.X) & set(right.Y) or set(left.Y) & set(right.X):
        raise ShapeError("row labels of one summand collide with column labels of the other")

    if len(xs) < 3 or len(ys) < 3:
        return SumOutcome.invalid(REASON_LABELS_NOT_DISTINCT, "glue labels must be six distinct names")
    d0_left = left.B.select([labels.x0, labels.x1], [labels.y0, labels.y1]).body
    d0_right = right.B.select([labels.x0, labels.x1], [labels.y0, labels.y1]).body
    if d0_left != d0_right:
        return SumOutcome.invalid(REASON_D0_MISMATCH, "connector blocks of the two summands differ")
    if d0_left.determinant() == 0:
        return SumOutcome.invalid(REASON_D0_SINGULAR, "connector block is singular")
    one_entries = (
        (labels.x0, labels.y2), (labels.x1, labels.y2), (labels.x2, labels.y0), (labels.x2, labels.y1)
    )
    for side, name in ((left, "left"), (right, "right")):
        for u, v in one_entries:
            if side.B.entry(u, v) != 1:
                return SumOutcome.invalid(
                    REASON_MISSING_ONE, f"{name} summand entry ({u!r}, {v!r}) must be 1"
                )
    for u in left.X:
        if u not in (labels.x0, labels.x1) and left.B.entry(u, labels.y2) != 0:
            return SumOutcome.invalid(
                REASON_NONZERO_OUTSIDE,
                f"left summand column {labels.y2!r} must be zero at row {u!r}",
            )
    for v in right.Y:
        if v not in (labels.y0, labels.y1) and right.B.entry(labels.x2, v) != 0:
            return SumOutcome.invalid(
                REASON_NONZERO_OUTSIDE,
                f"right summand row {labels.x2!r} must be zero at column {v!r}",
            )

    x_out, y_out, body = _assemble_sum3(left.B, right.B, labels)
    return SumOutcome.ok(StandardRepr(x_out, y_out, _labeled(x_out, y_out, body)))


def _assemble_sum3(b_left: LabeledMatrix, b_right: LabeledMatrix, cut: Sum3Labels):
    """Row labels, column labels and body of the 3-sum of two labeled summands at ``cut``.

    Rows are the left rows without x0, x1, then the right rows without
    x2; columns are the left columns without y2, then the right columns
    without y0, y1.  Swapping x0 with x1 or y0 with y1 in ``cut`` leaves
    these labels unchanged.  Rows are written in this order as in ``matrix_sum_3``,
    with the left rows x0, x1 as [Dl | D0]; both summands must hold that D0.
    """
    x01, y01 = [cut.x0, cut.x1], [cut.y0, cut.y1]
    x_top = [u for u in b_left.row_labels if u not in x01]
    x_bottom = [u for u in b_right.row_labels if u != cut.x2]
    y_left = [v for v in b_left.col_labels if v != cut.y2]
    y_right = [v for v in b_right.col_labels if v not in y01]
    m = (b_left.select(x01, y01).body.inverse() @ b_left.select(x01, y_left).body).rows
    top, tail = b_left.select(x_top, y_left).body.rows, b_right.select(x_bottom, y_right).body.rows
    coeffs = b_right.select(x_bottom, y01).body.rows
    return x_top + x_bottom, y_left + y_right, _stacked(
        b_left.kind, top, coeffs, m, tail, len(y_left), len(y_right))


_PERM_PAIRS = (
    ((0, 1), (0, 1)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (1, 0)),
)

_UNIT_FORMS = (
    (FORM_IDENTITY, ((1, 0), (0, 1))),
    (FORM_UPPER_TRIANGULAR, ((1, 1), (0, 1))),
)


def is_unit_2x2(
    a: ExactMatrix,
) -> Optional[tuple[tuple[int, int], tuple[int, int], str]]:
    """Invertibility of a 2x2 GF(2) matrix, as permutations to a canonical form.

    Returns (row permutation, column permutation, form) with
    a[f[i]][g[j]] equal to the canonical form, trying the identity form
    first and the identity permutations first; None when singular.
    """
    if a.kind != GF2 or a.shape != (2, 2):
        raise ShapeError("is_unit_2x2 takes a 2x2 GF(2) matrix")
    if a.determinant() == 0:
        return None
    for form, tgt in _UNIT_FORMS:
        for f, g in _PERM_PAIRS:
            if all(a[f[i], g[j]] == tgt[i][j] for i in range(2) for j in range(2)):
                return (f, g, form)
    raise AssertionError("an invertible 2x2 GF(2) matrix always reaches a canonical form")


def _require_rational(signed_left, signed_right) -> None:
    if signed_left.kind != RATIONAL or signed_right.kind != RATIONAL:
        raise ShapeError("summand signings must be rational")


def sign_sum_1(a_left: ExactMatrix, a_right: ExactMatrix) -> ExactMatrix:
    """1-sum of two signings over the rationals; TU when both are, which is not checked."""
    _require_rational(a_left, a_right)
    return matrix_sum_1(a_left, a_right)


def sign_sum_2(
    a_left: ExactMatrix,
    r: Sequence[Entry],
    a_right: ExactMatrix,
    c: Sequence[Entry],
) -> ExactMatrix:
    """2-sum of signed pieces over the rationals; TU when [a_left / r] and [c | a_right] are (not checked)."""
    _require_rational(a_left, a_right)
    return matrix_sum_2(a_left, r, a_right, c)


def resign_to_target(
    a: ExactMatrix,
    row_positions: Sequence[int],
    col_positions: Sequence[int],
    target: ExactMatrix,
) -> ExactMatrix:
    """Scale whole rows and columns by +-1 so a designated submatrix hits a target.

    The submatrix of ``a`` at the given positions must have the same
    support as ``target``.  Signs propagate over a spanning forest of
    the target support graph, then every position is swept to confirm
    consistency; an unreachable target raises.
    """
    if a.kind != RATIONAL or target.kind != RATIONAL:
        raise ShapeError("resigning works on rational matrices")
    k_rows, k_cols = target.shape
    if len(row_positions) != k_rows or len(col_positions) != k_cols:
        raise ShapeError("position counts must match the target shape")
    if len(set(row_positions)) != k_rows or len(set(col_positions)) != k_cols:
        raise ShapeError("designated positions must be distinct")
    sub = a.submatrix(row_positions, col_positions)
    for i in range(k_rows):
        for j in range(k_cols):
            if (sub[i, j] == 0) != (target[i, j] == 0):
                raise ShapeError("designated submatrix support differs from the target support")
    edges = [(i, j) for i in range(k_rows) for j in range(k_cols) if target[i, j] != 0]
    sign = [1] * (k_rows + k_cols)
    for parent, child in spanning_forest(k_rows, k_cols, edges):
        i, j = (parent, child - k_rows) if parent < k_rows else (child, parent - k_rows)
        sign[child] = int(target[i, j] / sub[i, j]) * sign[parent]
    row_sign, col_sign = sign[:k_rows], sign[k_rows:]
    for i in range(k_rows):
        for j in range(k_cols):
            if target[i, j] != 0 and row_sign[i] * col_sign[j] * sub[i, j] != target[i, j]:
                raise ShapeError("no row/column sign scaling reaches the target")
    full_rows = [1] * a.n_rows
    full_cols = [1] * a.n_cols
    for i, pos in enumerate(row_positions):
        full_rows[pos] = row_sign[i]
    for j, pos in enumerate(col_positions):
        full_cols[pos] = col_sign[j]
    return scale_rows_cols(a, full_rows, full_cols)


def canonical_signing_sum3(
    signed_left: LabeledMatrix,
    signed_right: LabeledMatrix,
    labels: Sum3Labels,
) -> LabeledMatrix:
    """Signing of a 3-sum built from TU signings of its summands.

    Both signings are re-signed so their shared 3x3 connector submatrix
    (rows x2, x0, x1 by columns y0, y1, y2, taken in the order that
    brings the connector to its canonical form) equals a fixed target,
    then the sum is assembled over the rationals with exact bottom-left
    block D'r * (D'0)^-1 * D'l.  The output is labeled like the Valid
    outcome of ``standard_repr_sum_3`` on the summand supports.  It is
    TU when both summand signings are; nothing here checks either.
    """
    _require_rational(signed_left, signed_right)
    connector = ([labels.x0, labels.x1], [labels.y0, labels.y1])
    d0_supp_left = support(signed_left.select(*connector)).body
    d0_supp_right = support(signed_right.select(*connector)).body
    if d0_supp_left != d0_supp_right:
        raise ShapeError("connector supports of the two signings differ")
    unit = is_unit_2x2(d0_supp_left)
    if unit is None:
        raise ShapeError("connector block is singular")
    f, g, form = unit
    xs, ys = labels.xs, labels.ys
    cut = Sum3Labels(xs[f[0]], xs[f[1]], labels.x2, ys[g[0]], ys[g[1]], labels.y2)
    target = _CONNECTOR_TARGETS[form]

    def resign(side: LabeledMatrix) -> LabeledMatrix:
        rows = [side.row_position(u) for u in (cut.x2, cut.x0, cut.x1)]
        cols = [side.col_position(v) for v in cut.ys]
        return _labeled(side.row_labels, side.col_labels, resign_to_target(side.body, rows, cols, target))

    return LabeledMatrix(*_assemble_sum3(resign(signed_left), resign(signed_right), cut))


def _pair(glue) -> tuple[Label, Label]:
    """The 2-sum glue (x, y); any glue that is not None, a pair or Sum3Labels raises."""
    if not (isinstance(glue, tuple) and len(glue) == 2):
        raise ShapeError("the glue must be None (1-sum), a pair (x, y) (2-sum) or Sum3Labels (3-sum)")
    return glue


def compose(
    left: StandardRepr, right: StandardRepr, glue: None | tuple[Label, Label] | Sum3Labels
) -> SumOutcome:
    """The 1-, 2- or 3-sum of two standard representations, named by its glue."""
    if glue is None:
        return standard_repr_sum_1(left, right)
    if isinstance(glue, Sum3Labels):
        return standard_repr_sum_3(left, right, glue)
    return standard_repr_sum_2(left, right, *_pair(glue))


def sign_composition(
    signed_left: LabeledMatrix,
    signed_right: LabeledMatrix,
    glue: None | tuple[Label, Label] | Sum3Labels,
) -> LabeledMatrix:
    """Signing of a sum from TU signings of its summands, labeled like ``compose``'s result.

    The summand signings must already be certified TU (``is_regular``
    does so); the result is then TU, and is not checked here.
    """
    if glue is None:
        body = sign_sum_1(signed_left.body, signed_right.body)
        return LabeledMatrix(
            signed_left.row_labels + signed_right.row_labels,
            signed_left.col_labels + signed_right.col_labels,
            body,
        )
    if isinstance(glue, Sum3Labels):
        return canonical_signing_sum3(signed_left, signed_right, glue)
    a_left, r, a_right, c, rows, cols = _sum2_pieces(signed_left, signed_right, *_pair(glue))
    return LabeledMatrix(rows, cols, sign_sum_2(a_left, r, a_right, c))


def verify_is_sum_k_of(
    m: FiniteMatroid,
    m_left: FiniteMatroid,
    m_right: FiniteMatroid,
    s_left: StandardRepr,
    s_right: StandardRepr,
    glue: None | tuple[Label, Label] | Sum3Labels,
    *,
    eq_limit: int = DEFAULT_EQ_LIMIT,
) -> bool:
    """Certify a k-sum relation between three matroids.

    The witnesses are standard representations of the summands; their
    sum at ``glue`` must come out Valid, and all three matroids must
    equal the claimed ones (``matroids_equal``).
    """
    outcome = compose(s_left, s_right, glue)
    if not outcome.valid:
        return False
    return (
        matroids_equal(outcome.result.to_matroid(), m, limit=eq_limit)
        and matroids_equal(s_left.to_matroid(), m_left, limit=eq_limit)
        and matroids_equal(s_right.to_matroid(), m_right, limit=eq_limit)
    )
