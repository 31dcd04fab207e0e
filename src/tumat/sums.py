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
witness once into int signs, and a signing only where its block of the
witness is not the signing itself.  The signs are solved by
``tu._line_scales``, on the forest the signing search pins, and need no
solving where a block equals its signing: every 1-sum block, most 2-sum
blocks, and the block of a 3-sum summand already at its target.

Each labeled matrix is read once, by ``matroid._cut``, which looks up
each axis's labels in one call: ``_reads`` reads each summand, or summand
signing, its glue lines first, and the guards, the connector and every
block of the assembly are slices of that read.  The certificate reads
the witness twice, for the sum's four blocks and for its summand blocks.

A sum is named by its glue value: None for a 1-sum, the pair (x, y) for
a 2-sum and a ``Sum3Labels`` for a 3-sum.  ``compose`` reads k off the
glue and delegates to the per-k functions.  One assembly builds every
sum of either kind, after the guards of ``standard_repr_sum_k`` or the
re-signing of a 3-sum signing.  A 3-sum is signed and certified on the
caller's own glue: each summand's connector, and the witness's, is read
once, rows x2, x0, x1 by columns y0, y1, y2 in the order the glue names
them, and its signed target is looked up by the support of its D0.  Its
re-signing flips the summand's own int read: ``tu`` only finds the signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, attrgetter, mul, neg, xor
from typing import Optional, Sequence

from .errors import ShapeError, _shown
from .exactmat import GF2, RATIONAL, Entry, ExactMatrix, _SIGNS, _exact, _int_rows_rank
from .matroid import FiniteMatroid, Label, LabeledMatrix, _cut, _labeled, matroids_equal
from .stdrepr import StandardRepr
from .tu import _line_scales

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
# a Fraction's two parts, read entry by entry by ``map`` rather than by a comprehension
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")

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
    """The combination of up to two basis rows with the weights ``cs``, not all zero, row by row:
    over GF(2) the picked rows XORed; over Q and on int signs each picked row as it is for weight
    1, negated for -1 and scaled for any other weight, and two picked rows added."""
    if kind == GF2:
        p = [b for c, b in zip(cs, basis) if c]
        return tuple(map(xor, *p)) if len(p) == 2 else p[0]
    p = [b if c == 1 else tuple(map(neg, b)) if c == -1 else tuple(map(mul, repeat(c), b))
         for c, b in zip(cs, basis) if c]
    return tuple(map(add, *p)) if len(p) == 2 else p[0]


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
    layout, *reads = _reads(left.B, right.B, None)
    return SumOutcome.ok(_sum_of(layout, _assemble(*reads, None)))


def standard_repr_sum_2(
    left: StandardRepr, right: StandardRepr, x: Label, y: Label
) -> SumOutcome:
    """2-sum along row label x of the left and column label y of the right.

    r is row x of the left matrix and c is column y of the right matrix;
    either being all zero makes the sum Invalid.
    """
    _check_glue(left, right, ({x}, "the glue label x"), ({y}, "the glue label y"))
    layout, *reads = _reads(left.B, right.B, (x, y))  # the left's row x first, the right's column y first
    if not any(reads[0].rows[0]):
        return SumOutcome.invalid(REASON_ZERO_ROW, f"row {_shown(x)} of the left summand is zero")
    if not any(row[0] for row in reads[1].rows):
        return SumOutcome.invalid(REASON_ZERO_COL, f"column {_shown(y)} of the right summand is zero")
    return SumOutcome.ok(_sum_of(layout, _assemble(*reads, (x, y))))


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
    # each read starts with its summand's connector, rows x2, x0, x1 by columns y0, y1, y2: D0 is its bottom-left 2x2
    layout, *reads = _reads(left.B, right.B, labels)
    g_left, g_right = (m.rows for m in reads)
    d0_left, d0_right = (tuple(row[:2] for row in g[1:3]) for g in (g_left, g_right))
    if d0_left != d0_right:
        return SumOutcome.invalid(REASON_D0_MISMATCH, "connector blocks of the two summands differ")
    if d0_left not in _UNITS:
        return SumOutcome.invalid(REASON_D0_SINGULAR, "connector block is singular")
    rows = (labels.x2, labels.x0, labels.x1)
    for g, name in ((g_left, "left"), (g_right, "right")):
        for i, j in ((1, 2), (2, 2), (0, 0), (0, 1)):  # (x0, y2), (x1, y2), (x2, y0), (x2, y1)
            if g[i][j] != 1:
                message = f"{name} summand entry ({_shown(rows[i])}, {_shown(labels.ys[j])}) must be 1"
                return SumOutcome.invalid(REASON_MISSING_ONE, message)
    _, _, top, _, _, right_cols = layout
    for u, row in zip(top, g_left[3:]):  # column y2 at the left's rows but x0, x1
        if row[2]:
            message = f"left summand column {_shown(labels.y2)} must be zero at row {_shown(u)}"
            return SumOutcome.invalid(REASON_NONZERO_OUTSIDE, message)
    for v, e in zip(right_cols, g_right[0][3:]):  # row x2 at the right's columns but y0, y1
        if e:
            message = f"right summand row {_shown(labels.x2)} must be zero at column {_shown(v)}"
            return SumOutcome.invalid(REASON_NONZERO_OUTSIDE, message)
    return SumOutcome.ok(_sum_of(layout, _assemble(*reads, labels)))


def _reads(b_left: LabeledMatrix, b_right: LabeledMatrix, glue) -> tuple[tuple, ExactMatrix, ExactMatrix]:
    """The ``_layout`` of the sum at ``glue``, then each summand read once by ``_cut``, glue lines
    first: a 3-sum's connector, rows x2, x0, x1 by columns y0, y1, y2, ahead of the lines
    ``_layout`` keeps of each summand (so a glue line the sum keeps is read twice), a 2-sum's
    row x ahead of the left's other rows and column y ahead of the right's other columns."""
    layout = xs, ys, top, bottom, left, right = _layout(b_left, b_right, glue)
    rows = cols = ()
    if isinstance(glue, Sum3Labels):
        rows, cols = (glue.x2, *xs), glue.ys
    return (layout, _cut(b_left, (*(rows or xs), *top), (*cols, *left)),
            _cut(b_right, (*rows, *bottom), (*(cols or ys), *right)))


def _assemble(left: ExactMatrix, right: ExactMatrix, glue) -> ExactMatrix:
    """The body of the 1-, 2- or 3-sum at ``glue`` of two summands of one kind, cut out of their
    ``_reads``; nothing is checked.

    The left rows X that span the bottom-left block (x, or x0 and x1) are the basis rows, and
    the right columns Y (y, or y0 and y1) weigh them: the bottom row whose Y entries are d starts
    with d * [r] for a 2-sum, r the left row x, and with d * D0^-1 * [Dl | D0] for a 3-sum, where
    both summands hold the unit D0 at X by Y: D0^-1 = det * adj(D0), det = +-1, weighs the basis
    rows by ``_head`` into the rows of D0^-1 * [Dl | D0].
    """
    if glue is None:  # a 1-sum's reads are its diagonal blocks
        return _stacked(left, [()] * right.n_rows, [], right)
    n = 2 if isinstance(glue, Sum3Labels) else 1  # basis rows, and weights per bottom row
    h = 3 if n == 2 else 0  # connector lines ahead of the left's columns and the right's rows
    kind, l, r, g = left.kind, left.rows, right.rows, h or n  # g glue lines ahead of the left's rows, the right's columns
    basis = [row[h:] for row in l[g - n:g]]
    if h:  # D0 is the left's rows x0, x1 at columns y0, y1
        (a, b), (c, d) = (row[:2] for row in l[1:3])
        det = a * d - b * c
        basis = [_head(kind, w, basis) for w in ((det * d, -det * b), (-det * c, det * a))]
    top = _exact(kind, [row[h:] for row in l[g:]] if h else l[g:], left.n_cols - h)
    tail = _exact(kind, [row[g:] for row in r[h:]], right.n_cols - g)
    return _stacked(top, (row[:n] for row in r[h:]), basis, tail)


def _sum_of(layout: tuple, body: ExactMatrix) -> LabeledMatrix:
    """``body`` labeled as the sum of ``layout``: top then bottom rows, left then right columns."""
    _, _, top, bottom, left, right = layout
    return _labeled(top + bottom, left + right, body)


def _layout(b_left: LabeledMatrix, b_right: LabeledMatrix, glue) -> tuple[tuple, tuple, list, list, list, list]:
    """The left rows X and right columns Y of ``_assemble``, then the sum's top and bottom row
    labels and its left and right column labels, as it orders them; a 3-sum drops x2 and y2.
    Swapping x0 with x1 or y0 with y1 leaves the labels unchanged."""
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


# each 3-sum connector's signed target, keyed by its GF(2) D0: rows x2, x0, x1 by columns y0, y1, y2 as
# the glue names them, read off its form's target through ``is_unit_2x2``'s permutations f and g
_SIGNED_CONNECTORS = {
    d0: tuple(tuple(target[r][c] for c in (g[0], g[1], 2)) for r in (0, 1 + f[0], 1 + f[1]))
    for d0, (f, g, form) in _UNITS.items()
    for target in [((1, 1, 0), (1, 0, 1), (0, -1, 1)) if form == FORM_IDENTITY else ((1, 1, 0), (1, 1, 1), (0, 1, 1))]
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


def _ints(m: ExactMatrix, strict: bool = False) -> Optional[ExactMatrix]:
    """A rational matrix as a ``_SIGNED`` matrix of ints, each entry read as its numerator.  A
    ``strict`` read is None when an entry is not an integer."""
    if strict and max(map(_DENOMINATOR, chain.from_iterable(m.rows)), default=1) > 1:
        return None
    return _exact(_SIGNED, [tuple(map(_NUMERATOR, row)) for row in m.rows], m.n_cols)


def _rational(m: ExactMatrix) -> ExactMatrix:
    """A ``_SIGNED`` matrix over the rationals, each entry mapped once to a shared Fraction."""
    try:
        rows = [tuple(map(_SIGNS.__getitem__, row)) for row in m.rows]
    except KeyError:  # an entry past +-1 comes only from summand signings that are not TU
        rows = [tuple(map(Fraction, row)) for row in m.rows]
    return _exact(RATIONAL, rows, m.n_cols)


def canonical_signing_sum3(
    signed_left: LabeledMatrix,
    signed_right: LabeledMatrix,
    labels: Sum3Labels,
) -> LabeledMatrix:
    """Signing of a 3-sum built from TU signings of its summands.

    Both signings are re-signed so their shared 3x3 connector submatrix
    (rows x2, x0, x1 by columns y0, y1, y2, in the order the glue names
    them) equals the target looked up by its D0's support (a signing
    already at the target is kept as it is), then the sum is assembled on
    int signs with exact bottom-left block D'r * (D'0)^-1 * D'l: the
    target's D'0 has determinant +-1, so its inverse is det * adj(D'0), an
    int matrix.  Each signing is read once, into int signs: the connector,
    D0's support and the assembly's blocks come off that read, and the
    re-signing flips it, a ``map(mul)`` per row with no ``tu`` scaler.
    The output is labeled like the Valid outcome of
    ``standard_repr_sum_3`` on the summand supports.  It is TU when both
    summand signings are; nothing here checks either.  Glue labels that
    are not six distinct names, a missing glue line, and connectors whose
    supports differ or are singular, raise.
    """
    _require_rational(signed_left, signed_right)
    if len(set(labels.xs)) < 3 or len(set(labels.ys)) < 3:
        raise ShapeError("glue labels must be six distinct names")
    # each read starts with its signing's connector, rows x2, x0, x1 by columns y0, y1, y2: D0 is its bottom-left 2x2
    layout, *reads = _reads(signed_left, signed_right, labels)
    sides = [_ints(m) for m in reads]
    d0_left, d0_right = (tuple(tuple(map(bool, row[:2])) for row in side.rows[1:3]) for side in sides)  # supports
    if d0_left != d0_right:
        raise ShapeError("connector supports of the two signings differ")
    target = _SIGNED_CONNECTORS.get(d0_left)
    if target is None:
        raise ShapeError("connector block is singular")
    _, _, top, bottom, left, right = layout

    def resign(side: ExactMatrix, rows: list, cols: list) -> ExactMatrix:  # scale lines so connector is target
        scales = _line_scales(tuple(row[:3] for row in side.rows[:3]), target)
        signs = scales and list(map(mul, *scales))  # a scale num / den of +-1 is num * den
        if not signs or not {1, -1}.issuperset(signs):  # no scaling, or one not by signs
            raise ShapeError("no row/column sign scaling reaches the target")
        if -1 not in signs:  # the connector already is the target: the summand is kept as it is
            return side
        rs, cs = dict(zip((labels.x2, labels.x0, labels.x1), signs)), dict(zip(labels.ys, signs[3:]))
        col = [*signs[3:], *(cs.get(v, 1) for v in cols)]
        flip, row_signs = list(map(neg, col)), [*signs[:3], *(rs.get(u, 1) for u in rows)]
        return _exact(_SIGNED, [tuple(map(mul, row, col if r > 0 else flip))
                                for row, r in zip(side.rows, row_signs)], side.n_cols)

    return _sum_of(layout, _rational(_assemble(resign(sides[0], top, left), resign(sides[1], bottom, right), labels)))


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
    Every sum reads each signing once and each entry, -1, 0 or 1 in a TU
    signing, as an int, and holds each output entry as the shared Fraction
    of its sign.
    """
    if isinstance(glue, Sum3Labels):
        return canonical_signing_sum3(signed_left, signed_right, glue)
    _require_rational(signed_left, signed_right)
    layout, *reads = _reads(signed_left, signed_right, glue)
    return _sum_of(layout, _rational(_assemble(*map(_ints, reads), glue)))


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
    c up to one sign at a column.  For a 3-sum the connector
    equals the signed target of its D0's support, so D0 = BL[X, Y] at
    X = (x0, x1), Y = (y0, y1) is a unit and rank 2 means
    BL = BL[:, Y] * D0^-1 * BL[X, :].  A signing without its glue lines (a 2-sum's
    left x and right y, a 3-sum's six in both) or with a non-integer entry is refused.
    The witness is read once, into int signs: an entry that is not an integer, or whose
    absolute value is not ``b``'s, refuses it.  Its blocks are then cut out of two reads: the
    sum's four blocks out of the int signs, and the summand blocks, a 3-sum's connector ahead
    of them, out of the witness itself, so that a block equal to its signing is told at once.
    """
    if (witness.row_labels, witness.col_labels) != (b.row_labels, b.col_labels):
        return False
    if witness.body.kind != RATIONAL or b.body.kind != GF2:
        raise ShapeError("signing compares a rational matrix against a GF(2) matrix")
    w = _ints(witness.body, strict=True)  # W read once: its int signs, which must be B up to sign
    if w is None or any(tuple(map(abs, row)) != t for row, t in zip(w.rows, b.body.rows)):
        return False
    xs, ys, top, bottom, left, right = _layout(signed_left, signed_right, glue)
    if sorted(top + bottom) != sorted(b.row_labels) or sorted(left + right) != sorted(b.col_labels) \
            or not {*xs} <= {*signed_left.row_labels} or not {*ys} <= {*signed_right.col_labels}:
        return False
    w, n = _labeled(witness.row_labels, witness.col_labels, w), len(left)
    blocks = _cut(w, (*top, *bottom), (*left, *right)).rows  # top rows, then bottom rows, by left columns, then right
    bl = [row[:n] for row in blocks[len(top):]]
    if any(any(row[n:]) for row in blocks[:len(top)]) or _int_rows_rank(bl) != len(xs):
        return False
    left_rows, right_cols, rows, cols = signed_left.row_labels, signed_right.col_labels, (), ()
    if isinstance(glue, Sum3Labels):
        if not all({*glue.xs} <= {*s.row_labels} and {*glue.ys} <= {*s.col_labels} for s in (signed_left, signed_right)):
            return False
        rows, cols = (glue.x2, *xs), glue.ys  # the connector, read ahead of the summand blocks
    elif glue is not None:
        # BL = c * r: [A; r] and [c | A'] are W with u for x, v for y, u BL's first nonzero row, v r's first nonzero
        i = next(i for i, row in enumerate(bl) if any(row))
        u, v = bottom[i], left[next(j for j, e in enumerate(bl[i]) if e)]
        left_rows = [u if t == xs[0] else t for t in left_rows]
        right_cols = [v if t == ys[0] else t for t in right_cols]
    blocks = _cut(witness, (*rows, *left_rows, *signed_right.row_labels), (*cols, *signed_left.col_labels, *right_cols)).rows
    h, m, c = len(rows), len(rows) + len(left_rows), len(cols) + len(signed_left.col_labels)
    if h and tuple(tuple(map(_NUMERATOR, row[:h])) for row in blocks[:h]) not in _SIGNED_CONNECTORS.values():
        return False  # a target's D0 support is its key
    held = tuple(row[h:c] for row in blocks[h:m]), tuple(row[c:] for row in blocks[m:])
    # each block is its signing, of integers, up to line signs: a block equal to it is (W is of integers),
    # or else scales exist, and each num / den is +-1
    return all(block == s.body.rows or (t := _ints(s.body, strict=True)) is not None
               and (sc := _line_scales(tuple(tuple(map(_NUMERATOR, row)) for row in block), t.rows))
               and {1, -1}.issuperset(map(mul, *sc)) for block, s in zip(held, (signed_left, signed_right)))


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
