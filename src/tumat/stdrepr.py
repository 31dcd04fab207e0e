"""Standard representations [I | B] of vector matroids.

A standard representation stores a labeled matrix B whose row labels X
(one per identity column) and column labels Y are disjoint.  The
represented matroid is the column matroid of the full matrix [I | B]
with columns labeled X then Y; the set X is always a base of it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, ExactMatrix, _exact, _gauss_jordan, from_cols
from .matroid import FiniteMatroid, Label, LabeledMatrix, _labeled, to_matroid
from .tu import DEFAULT_TU_LIMIT, find_tu_signing, is_totally_unimodular

__all__ = [
    "StandardRepr",
    "standardize",
    "standardize_tu",
    "fundamental_repr",
    "support",
    "is_regular",
]


class StandardRepr:
    """The matrix B of [I | B]; its row labels are X and its column labels Y."""

    __slots__ = ("B",)

    def __init__(self, x_labels: Sequence[Label], y_labels: Sequence[Label], b: LabeledMatrix):
        x = tuple(x_labels)
        y = tuple(y_labels)
        if set(x) & set(y):
            raise ShapeError("X and Y must be disjoint")
        if b.row_labels != x:
            raise ShapeError("B row labels must equal X in order")
        if b.col_labels != y:
            raise ShapeError("B column labels must equal Y in order")
        self.B = b

    @property
    def X(self) -> tuple[Label, ...]:
        return self.B.row_labels

    @property
    def Y(self) -> tuple[Label, ...]:
        return self.B.col_labels

    @property
    def kind(self) -> str:
        return self.B.kind

    @property
    def ground(self) -> tuple[Label, ...]:
        return self.X + self.Y

    def to_full(self) -> LabeledMatrix:
        """The matrix [I | B] with columns labeled X then Y."""
        eye = ExactMatrix.identity(len(self.X), self.kind)
        return _labeled(self.X, self.ground, from_cols(eye, self.B.body))

    def to_matroid(self) -> FiniteMatroid:
        return to_matroid(self.to_full())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardRepr):
            return NotImplemented
        return self.B == other.B

    def __hash__(self) -> int:
        return hash(self.B)

    def __repr__(self) -> str:
        return f"StandardRepr({self.kind}, X={list(self.X)}, Y={list(self.Y)})"


def standardize(rep: LabeledMatrix, base_labels: Iterable[Label]) -> StandardRepr:
    """Standard representation of the column matroid at a given base.

    Each non-base column is written in coordinates over the base columns
    by exact Gauss-Jordan elimination; B[x][y] is the coordinate of
    column y on base column x.  Reducing the base columns, then the
    others, the labels form a base exactly when the pivot columns are the
    base columns.
    """
    g = frozenset(base_labels)
    missing = g - set(rep.col_labels)
    if missing:
        raise ShapeError(f"labels {sorted(missing)} are not columns of the matrix")
    x_order = [lbl for lbl in rep.col_labels if lbl in g]
    y_order = [lbl for lbl in rep.col_labels if lbl not in g]
    cols = [rep.col_position(v) for v in x_order + y_order]
    work = list(rep.body.rows)
    pivots = _gauss_jordan(rep.kind, work, cols)
    if list(pivots) != cols[: len(x_order)]:
        raise ShapeError("the given label set is not a base of the column matroid")
    b = _exact(rep.kind, [[work[r][j] for j in cols[len(x_order):]] for r in pivots.values()], len(y_order))
    return StandardRepr(x_order, y_order, _labeled(x_order, y_order, b))


def standardize_tu(rep: LabeledMatrix, base_labels: Iterable[Label], *, force: bool = False) -> StandardRepr:
    """Standardize a TU matrix by repeated unit pivots; B stays TU.

    Pivots land on nonzero entries of the base columns, which are +-1 in
    a TU matrix, and every pivot keeps the whole working matrix TU, so
    the extracted B is TU as well.
    """
    if rep.kind != RATIONAL:
        raise ShapeError("standardize_tu takes a rational matrix")
    if not is_totally_unimodular(rep.body, force=force).is_tu:
        raise ShapeError("standardize_tu needs a totally unimodular input")
    return standardize(rep, base_labels)


def fundamental_repr(m: FiniteMatroid, base_labels: Iterable[Label]) -> StandardRepr:
    """GF(2) standard representation read off a matroid at a base.

    B[x][y] = 1 exactly when swapping x out for y keeps a base, i.e. when
    (X minus x) plus y is independent.
    """
    g = frozenset(base_labels)
    if not m.is_base(g):
        raise ShapeError("the given label set is not a base of the matroid")
    x_order = [lbl for lbl in m.ground if lbl in g]
    y_order = [lbl for lbl in m.ground if lbl not in g]
    rows = []
    for x in x_order:
        rest = g - {x}
        rows.append([1 if m.indep(rest | {y}) else 0 for y in y_order])
    return StandardRepr(x_order, y_order, _labeled(x_order, y_order, _exact(GF2, rows, len(y_order))))


def support(rep: LabeledMatrix) -> LabeledMatrix:
    """GF(2) matrix marking the nonzero entries of ``rep``."""
    rows = [[0 if v == 0 else 1 for v in row] for row in rep.body.rows]
    return _labeled(rep.row_labels, rep.col_labels, _exact(GF2, rows, rep.body.n_cols))


def is_regular(
    s: StandardRepr,
    *,
    tu_limit: int = DEFAULT_TU_LIMIT,
    force: bool = False,
) -> tuple[bool, Optional[LabeledMatrix]]:
    """Whether the represented binary matroid is regular, with a witness.

    Regular means representable over the rationals by a TU matrix, which
    holds exactly when B has a TU signing; the witness is that signing,
    labeled like B.
    """
    if s.kind != GF2:
        raise ShapeError("regularity queries take a GF(2) standard representation")
    signing = find_tu_signing(s.B.body, tu_limit=tu_limit, force=force)
    if signing is None:
        return (False, None)
    return (True, _labeled(s.X, s.Y, signing))
