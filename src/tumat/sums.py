"""Regularity-preserving sums of standard representations.

The 1-sum is block-diagonal; the 2-sum glues along one shared row label
x and one shared column label y, with bottom-left rank-one block c * r;
the 3-sum glues along three shared row labels x0, x1, x2 and three
shared column labels y0, y1, y2 through an invertible 2x2 connector
block D0, with bottom-left block Dr * D0^-1 * Dl.

Each ``standard_repr_sum_k`` raises ``ShapeError`` unless both summands
are GF(2), no row label of one is a column label of the other and, for
k = 2 or 3, their row and column labels meet in exactly the glue labels.
It then returns an Invalid outcome naming the first failed validity
guard: shared row labels (x-overlap), then shared column labels
(y-overlap) for a 1-sum; a zero r, then a zero c for a 2-sum; the
guards on ``standard_repr_sum_3``, in order, for a 3-sum.  Valid
outcomes carry the assembled standard representation with
a deterministic label order: left-side labels first, then right-side
labels, each in stored order, glue labels dropped from the side that
loses them.

Signing constructions mirror the sums over the rationals and produce TU
signings of the GF(2) results when the summand signings are TU.  They
check neither: the composition theorem makes the result TU.  Every sum
of signings is built on the signs as ints, each output entry then mapped
once to a shared Fraction.  ``certifies_sum`` certifies a signed
sum by its blocks, with no TU check: each summand's certified signing
must sit in the sum, up to row and column signs, and the bottom-left
block must have rank k - 1, one rank test for every k.  It reads the
witness and each signing once, into int signs.  The signs are solved by
``tu._line_scales``, on the forest the signing search pins, and need no
forest where a block equals its signing: every 1-sum block, most 2-sum
blocks, and the block of a 3-sum summand already at its target.  Every
block read off a checked labeled matrix, the glue lines of the validity
guards and the certificate's summand blocks included, goes through one
reader, ``matroid._cut``, which looks up each axis's labels in one call.

A sum is named by its glue value: None for a 1-sum, the pair (x, y) for
a 2-sum and a ``Sum3Labels`` for a 3-sum.  ``compose`` reads k off the
glue and delegates to the per-k functions.  One assembly builds every
sum of either kind, after the guards of ``standard_repr_sum_k`` or the
re-signing of a 3-sum signing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul, xor
from typing import Optional, Sequence

from .errors import ShapeError, _shown
from .exactmat import GF2, RATIONAL, Entry, ExactMatrix, _SIGNS, _exact, _int_rows_rank
from .matroid import FiniteMatroid, Label, LabeledMatrix, _cut, _labeled, matroids_equal
from .stdrepr import StandardRepr, support
from .tu import _line_scales, scale_rows_cols

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

# the kind of a signing held as ints -1, 0, 1 while a sum of signings is built
_SIGNED = "signed"

_CONNECTOR_TARGETS = {
    FORM_IDENTITY: _exact(_SIGNED, [[1, 1, 0], [1, 0, 1], [0, -1, 1]], 3),
    FORM_UPPER_TRIANGULAR: _exact(_SIGNED, [[1, 1, 0], [1, 1, 1], [0, 1, 1]], 3),
}

__all__ = [
    "SumOutcome",
    "Sum3Labels",
    "standard_repr_sum_1",
    "standard_repr_sum_2",
    "standard_repr_sum_3",
    "is_unit_2x2",
    "sign_sum_1",
    "sign_sum_2",
    "canonical_signing_sum3",
    "compose",
    "sign_composition",
    "certifies_sum",
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
    def ok(b: LabeledMatrix) -> "SumOutcome":
        return SumOutcome(StandardRepr(b))

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


def _stacked(top: ExactMatrix, coeffs, basis, tail: ExactMatrix) -> ExactMatrix:
    """The matrix [[top, 0], [coeffs * basis, tail]] of top's kind, with up to two exact basis rows.

    ``coeffs`` holds one weight vector per tail row and is read once, so it may be an iterator.
    Each bottom row is its weight vector's ``_head`` combination of basis rows, or the zero row,
    followed by its tail row.  Zero block rows are shared tuples.
    """
    kind, n_left, n_right = top.kind, top.n_cols, tail.n_cols
    zero = Fraction(0) if kind == RATIONAL else 0
    pad, blank = (zero,) * n_right, (zero,) * n_left
    bottom = [(_head(kind, cs, basis) if any(cs) else blank) + t for cs, t in zip(coeffs, tail.rows)]
    return _exact(kind, [row + pad for row in top.rows] + bottom, n_left + n_right)


def _head(kind: str, cs: Sequence, basis: Sequence[tuple]) -> tuple:
    """The combination of up to two basis rows with the weights ``cs``, not all zero: over GF(2)
    the picked rows XORed, with no product; over Q and on int signs, a sum of products."""
    if kind == GF2:
        p = [b for c, b in zip(cs, basis) if c]
        return tuple(map(xor, *p)) if len(p) == 2 else p[0]
    return tuple(sum(map(mul, cs, col)) for col in zip(*basis))


def _check_glue(left: StandardRepr, right: StandardRepr, *shared: tuple[set, str]) -> None:
    """Raise unless a sum's summands are GF(2), meet in exactly the glue labels, and collide nowhere.

    ``shared`` is empty for a 1-sum, else the glue row labels and then
    the glue column labels, each with the name the message gives them.
    """
    for s, who in ((left, "left"), (right, "right")):
        if s.kind != GF2:
            raise ShapeError(f"{who} summand must be a GF(2) standard representation")
    for what, a, b, (glue, name) in zip(("row", "column"), (left.X, left.Y), (right.X, right.Y), shared):
        if set(a) & set(b) != glue:
            raise ShapeError(f"{what} label sets must intersect in exactly {name}")
    if set(left.X) & set(right.Y) or set(left.Y) & set(right.X):
        raise ShapeError("row labels of one summand collide with column labels of the other")


def standard_repr_sum_1(left: StandardRepr, right: StandardRepr) -> SumOutcome:
    """1-sum: block-diagonal standard representation on disjoint labels."""
    _check_glue(left, right)
    x_shared = set(left.X) & set(right.X)
    if x_shared:
        return SumOutcome.invalid(REASON_X_OVERLAP, f"shared row labels {sorted(x_shared)}")
    y_shared = set(left.Y) & set(right.Y)
    if y_shared:
        return SumOutcome.invalid(REASON_Y_OVERLAP, f"shared column labels {sorted(y_shared)}")
    return SumOutcome.ok(_assemble(left.B, right.B, None))


def standard_repr_sum_2(
    left: StandardRepr, right: StandardRepr, x: Label, y: Label
) -> SumOutcome:
    """2-sum along row label x of the left and column label y of the right.

    r is row x of the left matrix and c is column y of the right matrix;
    either being all zero makes the sum Invalid.
    """
    _check_glue(left, right, ({x}, "the glue label x"), ({y}, "the glue label y"))
    if not any(_cut(left.B, (x,), left.Y).rows[0]):
        return SumOutcome.invalid(REASON_ZERO_ROW, f"row {_shown(x)} of the left summand is zero")
    if not any(map(any, _cut(right.B, right.X, (y,)).rows)):
        return SumOutcome.invalid(REASON_ZERO_COL, f"column {_shown(y)} of the right summand is zero")
    return SumOutcome.ok(_assemble(left.B, right.B, (x, y)))


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
    xs, ys = set(labels.xs), set(labels.ys)
    _check_glue(left, right, (xs, "the three glue labels"), (ys, "the three glue labels"))

    if len(xs) < 3 or len(ys) < 3:
        return SumOutcome.invalid(REASON_LABELS_NOT_DISTINCT, "glue labels must be six distinct names")
    # each summand's glue block, rows x0, x1, x2 by columns y0, y1, y2: D0 is its top-left 2x2
    blocks = [_cut(side.B, labels.xs, labels.ys).rows for side in (left, right)]
    d0_left, d0_right = ((g[0][:2], g[1][:2]) for g in blocks)
    if d0_left != d0_right:
        return SumOutcome.invalid(REASON_D0_MISMATCH, "connector blocks of the two summands differ")
    if d0_left not in _UNITS:
        return SumOutcome.invalid(REASON_D0_SINGULAR, "connector block is singular")
    for g, name in zip(blocks, ("left", "right")):
        for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
            if g[i][j] != 1:
                return SumOutcome.invalid(
                    REASON_MISSING_ONE,
                    f"{name} summand entry ({_shown(labels.xs[i])}, {_shown(labels.ys[j])}) must be 1",
                )
    for u, (e,) in zip(left.X, _cut(left.B, left.X, (labels.y2,)).rows):
        if e and u not in (labels.x0, labels.x1):
            return SumOutcome.invalid(
                REASON_NONZERO_OUTSIDE,
                f"left summand column {_shown(labels.y2)} must be zero at row {_shown(u)}",
            )
    for v, e in zip(right.Y, _cut(right.B, (labels.x2,), right.Y).rows[0]):
        if e and v not in (labels.y0, labels.y1):
            return SumOutcome.invalid(
                REASON_NONZERO_OUTSIDE,
                f"right summand row {_shown(labels.x2)} must be zero at column {_shown(v)}",
            )

    return SumOutcome.ok(_assemble(left.B, right.B, labels))


def _assemble(b_left: LabeledMatrix, b_right: LabeledMatrix, glue) -> LabeledMatrix:
    """The 1-, 2- or 3-sum of two labeled matrices of one kind at ``glue``; nothing is checked.

    The glue names the left rows X that span the bottom-left block (x, or
    x0 and x1), the right columns Y that weigh them (y, or y0 and y1), and
    for a 3-sum the right row x2 and left column y2 the sum drops.  Rows
    are the left rows without X, then the right rows without x2; columns
    are the left columns without y2, then the right columns without Y, so
    swapping x0 with x1 or y0 with y1 leaves them unchanged.  The bottom
    row whose Y columns hold d starts with d * [r] for a 2-sum, r the left
    row x, and with d * D0^-1 * [Dl | D0] for a 3-sum, where both summands
    hold the unit D0 at X by Y: D0^-1 = det * adj(D0), det = +-1, weighs
    the left rows X by ``_head`` into the rows of D0^-1 * [Dl | D0].
    """
    xs, ys, x_top, x_bottom, y_left, y_right = _layout(b_left, b_right, glue)
    # a 1-sum has no glue, so no basis rows and an empty weight per bottom row
    basis = _cut(b_left, xs, y_left).rows if xs else []
    if isinstance(glue, Sum3Labels):
        (a, b), (c, d) = ([row[y_left.index(y)] for y in ys] for row in basis)
        det = a * d - b * c
        basis = [_head(b_left.kind, w, basis) for w in ((det * d, -det * b), (-det * c, det * a))]
    top, tail = _cut(b_left, x_top, y_left), _cut(b_right, x_bottom, y_right)
    coeffs = _cut(b_right, x_bottom, ys).rows if ys else [()] * len(x_bottom)
    return _labeled(x_top + x_bottom, y_left + y_right, _stacked(top, coeffs, basis, tail))


def _layout(b_left: LabeledMatrix, b_right: LabeledMatrix, glue) -> tuple[tuple, tuple, list, list, list, list]:
    """The left rows X and right columns Y of ``_assemble``, then the sum's top and bottom row
    labels and its left and right column labels, as it orders them; a 3-sum drops x2 and y2."""
    xs = ys = drop_x = drop_y = ()
    if isinstance(glue, Sum3Labels):
        xs, ys, drop_x, drop_y = (glue.x0, glue.x1), (glue.y0, glue.y1), (glue.x2,), (glue.y2,)
    elif glue is not None:
        x, y = _pair(glue)
        xs, ys = (x,), (y,)
    return (xs, ys, [u for u in b_left.row_labels if u not in xs], [u for u in b_right.row_labels if u not in drop_x],
            [v for v in b_left.col_labels if v not in drop_y], [v for v in b_right.col_labels if v not in ys])


# the six invertible 2x2 GF(2) matrices, by their rows, and what ``is_unit_2x2`` returns for each
_UNITS = {
    ((1, 0), (0, 1)): ((0, 1), (0, 1), FORM_IDENTITY),
    ((0, 1), (1, 0)): ((1, 0), (0, 1), FORM_IDENTITY),
    ((1, 1), (0, 1)): ((0, 1), (0, 1), FORM_UPPER_TRIANGULAR),
    ((0, 1), (1, 1)): ((1, 0), (0, 1), FORM_UPPER_TRIANGULAR),
    ((1, 1), (1, 0)): ((0, 1), (1, 0), FORM_UPPER_TRIANGULAR),
    ((1, 0), (1, 1)): ((1, 0), (1, 0), FORM_UPPER_TRIANGULAR),
}


def is_unit_2x2(
    a: ExactMatrix,
) -> Optional[tuple[tuple[int, int], tuple[int, int], str]]:
    """Invertibility of a 2x2 GF(2) matrix, as permutations to a canonical form.

    Returns (row permutation, column permutation, form) with
    a[f[i]][g[j]] equal to the canonical form, trying the identity form
    first and the identity permutations first; None when singular, since
    permuting the two forms reaches exactly the six invertible matrices.
    """
    if a.kind != GF2 or a.shape != (2, 2):
        raise ShapeError("is_unit_2x2 takes a 2x2 GF(2) matrix")
    return _UNITS.get(a.rows)


def _require_rational(signed_left, signed_right) -> None:
    if signed_left.kind != RATIONAL or signed_right.kind != RATIONAL:
        raise ShapeError("summand signings must be rational")


def sign_sum_1(a_left: ExactMatrix, a_right: ExactMatrix) -> ExactMatrix:
    """1-sum of two signings over the rationals; TU when both are, which is not checked."""
    _require_rational(a_left, a_right)
    return _stacked(a_left, [()] * a_right.n_rows, [], a_right)


def sign_sum_2(
    a_left: ExactMatrix,
    r: Sequence[Entry],
    a_right: ExactMatrix,
    c: Sequence[Entry],
) -> ExactMatrix:
    """2-sum of signed pieces over the rationals; TU when [a_left / r] and [c | a_right] are (not checked)."""
    _require_rational(a_left, a_right)
    (r_row,) = ExactMatrix(RATIONAL, [r], n_cols=len(r)).rows
    (c_row,) = ExactMatrix(RATIONAL, [c], n_cols=len(c)).rows
    if len(r_row) != a_left.n_cols:
        raise ShapeError("r must have one entry per a_left column")
    if len(c_row) != a_right.n_rows:
        raise ShapeError("c must have one entry per a_right row")
    return _stacked(a_left, zip(c_row), [r_row], a_right)


def _ints(m: LabeledMatrix, strict: bool = False) -> Optional[LabeledMatrix]:
    """A rational signing as a ``_SIGNED`` matrix of ints, each entry read as its numerator.  A
    ``strict`` read keeps only the integer entries, in the same pass, and is None if it drops one."""
    rows = [[x.numerator for x in row if not strict or x.denominator == 1] for row in m.body.rows]
    if strict and any(len(row) != m.body.n_cols for row in rows):
        return None
    return _labeled(m.row_labels, m.col_labels, _exact(_SIGNED, rows, m.body.n_cols))


def _rational(m: LabeledMatrix) -> LabeledMatrix:
    """A ``_SIGNED`` matrix over the rationals, each entry mapped once to a shared Fraction."""
    try:
        rows = [tuple(map(_SIGNS.__getitem__, row)) for row in m.body.rows]
    except KeyError:  # an entry past +-1 comes only from summand signings that are not TU
        rows = [tuple(map(Fraction, row)) for row in m.body.rows]
    return _labeled(m.row_labels, m.col_labels, _exact(RATIONAL, rows, m.body.n_cols))


def canonical_signing_sum3(
    signed_left: LabeledMatrix,
    signed_right: LabeledMatrix,
    labels: Sum3Labels,
) -> LabeledMatrix:
    """Signing of a 3-sum built from TU signings of its summands.

    Both signings are re-signed so their shared 3x3 connector submatrix
    (rows x2, x0, x1 by columns y0, y1, y2, taken in the order that
    brings the connector to its canonical form) equals a fixed target (a
    signing already at the target is kept as it is), then the sum is
    assembled on int signs with exact bottom-left block
    D'r * (D'0)^-1 * D'l: the target's D'0 has determinant +-1, so its
    inverse is det * adj(D'0), an int matrix.  The output is labeled like
    the Valid outcome of ``standard_repr_sum_3`` on the summand supports.
    It is TU when both summand signings are; nothing here checks either.
    Glue labels that are not six distinct names, and connectors whose
    supports differ or are singular, raise.
    """
    _require_rational(signed_left, signed_right)
    if len(set(labels.xs)) < 3 or len(set(labels.ys)) < 3:
        raise ShapeError("glue labels must be six distinct names")
    x01, y01 = labels.xs[:2], labels.ys[:2]  # each connector's support, off its 2x2 cut
    d0_left, d0_right = (support(_labeled(x01, y01, _cut(side, x01, y01))).body.rows
                         for side in (signed_left, signed_right))
    if d0_left != d0_right:
        raise ShapeError("connector supports of the two signings differ")
    unit = _UNITS.get(d0_left)
    if unit is None:
        raise ShapeError("connector block is singular")
    cut, target = _canonical_cut(labels, unit)
    xs = (cut.x2, cut.x0, cut.x1)

    def resign(side: LabeledMatrix) -> LabeledMatrix:  # scale whole rows and columns so the connector is target
        scales = _line_scales(_cut(side, xs, cut.ys).rows, target.rows)
        signs = scales and list(map(mul, *scales))  # a scale num / den of +-1 is num * den
        if not signs or not {1, -1}.issuperset(signs):  # no scaling, or one not by signs
            raise ShapeError("no row/column sign scaling reaches the target")
        if -1 not in signs:  # the connector already is the target: the summand is kept as it is
            return side
        rs, cs = dict(zip(xs, signs)), dict(zip(cut.ys, signs[3:]))
        body = scale_rows_cols(side.body, [rs.get(u, 1) for u in side.row_labels],
                               [cs.get(v, 1) for v in side.col_labels])
        return _labeled(side.row_labels, side.col_labels, body)

    return _rational(_assemble(resign(_ints(signed_left)), resign(_ints(signed_right)), cut))


def _canonical_cut(labels: Sum3Labels, unit) -> tuple[Sum3Labels, ExactMatrix]:
    """The glue with x0, x1 and y0, y1 in the order of ``is_unit_2x2``'s permutations, and its target."""
    (f, g, form), xs, ys = unit, labels.xs, labels.ys
    return Sum3Labels(xs[f[0]], xs[f[1]], labels.x2, ys[g[0]], ys[g[1]], labels.y2), _CONNECTOR_TARGETS[form]


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
    does so) and labeled like summands whose ``compose`` is Valid; the
    result is then TU, and neither it nor its labels are checked here.
    Every sum reads each entry, -1, 0 or 1 in a TU signing, as an int, and
    holds each output entry as the shared Fraction of its sign.
    """
    if isinstance(glue, Sum3Labels):
        return canonical_signing_sum3(signed_left, signed_right, glue)
    _require_rational(signed_left, signed_right)
    return _rational(_assemble(_ints(signed_left), _ints(signed_right), glue))


def certifies_sum(
    witness: LabeledMatrix,
    b: LabeledMatrix,
    signed_left: LabeledMatrix,
    signed_right: LabeledMatrix,
    glue: None | tuple[Label, Label] | Sum3Labels,
) -> bool:
    """Whether ``witness`` is a TU signing of ``b``, the GF(2) sum at ``glue`` of two
    summands with certified TU signings, judged by its blocks alone: no TU check runs.

    The witness carries ``b``'s labels, reduces mod 2 to ``b`` and is zero
    at left rows by right columns.  Each summand block read back off it
    equals that summand's signing up to row and column signs, so it is TU,
    and the blocks are joined so that the sum is TU: the bottom-left block
    BL has rank k - 1, the exact k-separation (Seymour 1980).  For a
    2-sum BL = c * r, and the blocks are [A; r] and [c | A'] (Schrijver
    1986, section 19.4), read off the witness by label: r at a row of BL,
    c up to one sign at a column.  For a 3-sum the connector is in its
    canonical signed form, so D0 = BL[X, Y] at X = (x0, x1), Y = (y0, y1)
    is a unit and rank 2 means BL = BL[:, Y] * D0^-1 * BL[X, :].  A summand
    signing that lacks its glue lines or has a non-integer entry is refused.
    The witness is read once: an entry that is not an integer, or whose
    absolute value is not ``b``'s, refuses it.
    """
    if (witness.row_labels, witness.col_labels) != (b.row_labels, b.col_labels):
        return False
    if witness.body.kind != RATIONAL or b.body.kind != GF2:
        raise ShapeError("signing compares a rational matrix against a GF(2) matrix")
    w = _ints(witness, strict=True)  # W read once: its int signs, which must be B up to sign
    if w is None or any(tuple(map(abs, row)) != t for row, t in zip(w.body.rows, b.body.rows)):
        return False
    xs, ys, top, bottom, left, right = _layout(signed_left, signed_right, glue)
    if sorted(top + bottom) != sorted(b.row_labels) or sorted(left + right) != sorted(b.col_labels) \
            or not {*xs} <= {*signed_left.row_labels} or not {*ys} <= {*signed_right.col_labels}:
        return False
    bl = _cut(w, bottom, left).rows
    if any(map(any, _cut(w, top, right).rows)) or _int_rows_rank(bl) != len(xs):
        return False
    left_rows, right_cols = signed_left.row_labels, signed_right.col_labels
    if isinstance(glue, Sum3Labels):
        unit = _UNITS.get(tuple(tuple(map(abs, row)) for row in _cut(w, xs, ys).rows))
        if unit is None:
            return False
        cut, target = _canonical_cut(glue, unit)
        if _cut(w, (cut.x2, cut.x0, cut.x1), cut.ys).rows != target.rows:
            return False
    elif glue is not None:
        # BL = c * r: [A; r] and [c | A'] are W with u for x, v for y, u BL's first nonzero row, v r's first nonzero
        i = next(i for i, row in enumerate(bl) if any(row))
        u, v = bottom[i], left[next(j for j, e in enumerate(bl[i]) if e)]
        left_rows = [u if t == xs[0] else t for t in left_rows]
        right_cols = [v if t == ys[0] else t for t in right_cols]
    held = _cut(w, left_rows, signed_left.col_labels), _cut(w, signed_right.row_labels, right_cols)
    # each block is its signing, of integers, up to line signs: scales exist, and each num / den is +-1
    return all((t := _ints(s, strict=True)) is not None
               and (sc := _line_scales(h.rows, t.body.rows)) and {1, -1}.issuperset(map(mul, *sc))
               for h, s in zip(held, (signed_left, signed_right)))


def verify_is_sum_k_of(
    m: FiniteMatroid,
    m_left: FiniteMatroid,
    m_right: FiniteMatroid,
    s_left: StandardRepr,
    s_right: StandardRepr,
    glue: None | tuple[Label, Label] | Sum3Labels,
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
        matroids_equal(outcome.result.to_matroid(), m)
        and matroids_equal(s_left.to_matroid(), m_left)
        and matroids_equal(s_right.to_matroid(), m_right)
    )
