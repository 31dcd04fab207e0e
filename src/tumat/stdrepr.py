"""Standard representations [I | B] of vector matroids.

A standard representation stores a labeled matrix B whose row labels X
(one per identity column) and column labels Y are disjoint.  The
represented matroid is the column matroid of the full matrix [I | B]
with columns labeled X then Y; the set X is always a base of it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, ExactMatrix, _coordinates, _exact, from_cols
from .matroid import FiniteMatroid, Label, LabeledMatrix, _cut, _labeled, to_matroid
from .tu import find_tu_signing, is_totally_unimodular

__all__ = [
    "StandardRepr",
    "standardize",
    "standardize_tu",
    "fundamental_repr",
    "is_regular",
]


class StandardRepr:
    """The matrix B of [I | B]; its row labels are X and its column labels Y."""

    __slots__ = ("B",)

    def __init__(self, b: LabeledMatrix):
        if not set(b.row_labels).isdisjoint(b.col_labels):
            raise ShapeError("X and Y must be disjoint")
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
    by one fraction-free reduction, ``exactmat._coordinates``; B[x][y] is
    the coordinate of column y on base column x.  The reduction refuses
    a label set that is not a base.
    """
    g = frozenset(base_labels)
    missing = g - set(rep.col_labels)
    if missing:
        raise ShapeError(f"labels {sorted(missing)} are not columns of the matrix")
    x_order = [lbl for lbl in rep.col_labels if lbl in g]
    y_order = [lbl for lbl in rep.col_labels if lbl not in g]
    ordered, r = _cut(rep, rep.row_labels, x_order + y_order), len(x_order)
    b = _coordinates(rep.kind, ordered.rows, range(r), range(r, ordered.n_cols))
    if b is None:
        raise ShapeError("the given label set is not a base of the column matroid")
    return StandardRepr(_labeled(x_order, y_order, _exact(rep.kind, b, len(y_order))))


def standardize_tu(rep: LabeledMatrix, base_labels: Iterable[Label], *, force: bool = False) -> StandardRepr:
    """Standardize a TU matrix; B stays TU.

    [I | B] is what unit pivots at the base columns reach: their nonzero
    entries are +-1 in a TU matrix, and every such pivot keeps the whole
    matrix TU, so B is TU as well.  ``standardize`` computes it.
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
    return StandardRepr(_labeled(x_order, y_order, _exact(GF2, rows, len(y_order))))


def is_regular(s: StandardRepr, *, force: bool = False) -> Optional[LabeledMatrix]:
    """A TU signing of B, labeled like B, or None when there is none.

    The represented binary matroid is regular (representable over the
    rationals by a TU matrix) exactly when B has a TU signing.
    """
    if s.kind != GF2:
        raise ShapeError("regularity queries take a GF(2) standard representation")
    signing = find_tu_signing(s.B.body, force=force)
    return None if signing is None else _labeled(s.X, s.Y, signing)
