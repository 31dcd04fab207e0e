"""Exact dense matrices over GF(2) and over the rationals.

Entries are plain ints 0/1 for the GF(2) kind and ``fractions.Fraction``
for the rational kind, so all arithmetic is exact.  Matrices are
immutable values: every operation returns a new matrix.  Empty matrices
(zero rows and/or zero columns) are legal everywhere; the determinant of
the 0x0 matrix is 1.

Fraction-free elimination is one row step, ``_cleared``: over Q, on rows
with denominators cleared, y becomes y·p[f] − y[f]·p divided by its gcd;
over GF(2), on bit-packed rows, y XOR p.  Only ``_forward``, ``_echelon``
and the base walk's ``_eliminate``, which XORs GF(2) rows inline, call it.
The one reduction is ``_echelon``'s reduced row-echelon form: it stores
every vector matroid (``matroid.to_matroid``), and ``_coordinates`` reads
standard representations (``stdrepr.standardize``), pivots and inverses off it.
The rank is the length of its forward pass; the determinant over Q runs
that pass on the rows [e_k | row k], and over GF(2) it is 1 at full rank.

The public constructor ``ExactMatrix(kind, rows)`` coerces and validates
every entry, and ``_checked`` every size and index a method takes.
Every matrix the package computes from exact entries is built with
``_exact``, which shares them without coercing them again: ``identity``,
the operations on matrices (transpose, submatrix, pivot, inverse,
products, ``from_cols``), the document parser, the sums, the signings,
``standardize`` and ``support``.  Each keeps the entry types exact
itself (``tests/test_exactmat.py`` and ``tests/test_sums.py``
check this invariant).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, inf, lcm, prod
from typing import Iterable, Sequence, Union

from .errors import ShapeError, _shown

GF2 = "gf2"
RATIONAL = "rational"

Entry = Union[int, Fraction]

_SIGNS = {1: Fraction(1), -1: Fraction(-1), 0: Fraction(0)}  # one shared Fraction per sign

__all__ = [
    "GF2",
    "RATIONAL",
    "Entry",
    "ExactMatrix",
    "from_cols",
    "gf2_rank_of_ints",
]


def _coerce_gf2(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 1
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator & 1
    raise ShapeError(f"cannot use {_shown(value)} as a GF(2) entry")


def _coerce_rational(value) -> Fraction:
    # a string exponent can name a number of any size in a few bytes
    if isinstance(value, (int, Fraction)) or isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"cannot use {_shown(value)} as a rational entry") from exc
    raise ShapeError(f"cannot use {_shown(value)} as a rational entry")


def _checked(value, what: str, bound: float = inf) -> int:
    """``value`` if it is an int, not a bool, in [0, bound): a size, or an index below ``bound``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShapeError(f"{what} must be an int, got {_shown(value)}")
    if not 0 <= value < bound:
        raise ShapeError(f"{what} {_shown(value)} out of range")
    return value


def _exact(kind: str, rows: Iterable[Sequence[Entry]], n_cols: int) -> "ExactMatrix":
    """A matrix of ``kind`` over rows of ``n_cols`` entries that are already exact.

    Nothing is coerced or checked: each entry must be an int 0/1 (GF(2))
    or a ``Fraction`` (rational), and every row must have ``n_cols`` entries.
    """
    m = object.__new__(ExactMatrix)
    m.kind = kind
    m.rows = tuple(map(tuple, rows))
    m.n_cols = n_cols
    return m


def gf2_rank_of_ints(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of a family of bit-packed vectors, by ``_echelon``'s forward pass alone."""
    return len(_forward(GF2, vectors))


def _int_rows_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix given as rows, by ``_echelon``'s forward pass alone."""
    return len(_forward(RATIONAL, rows))


def _scaled_int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and the scale factors."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(rows, scales)], scales


def _coordinates(kind: str, rows: Sequence[Sequence[Entry]], base: Sequence[int], rest: Sequence[int]) -> list | None:
    """Each ``rest`` column of ``rows`` in coordinates over the ``base`` columns, one row per base
    column in order; None unless the base columns are a base.  One ``_echelon`` pass runs on the
    columns rest then base: each pivot is a row's last nonzero column, so the pivots are the base
    columns exactly when they form a base, and row k, pivot p, gives column j the coordinate
    y[j] / y[p] on base column k (over GF(2), the bit j)."""
    order, n = [*rest, *base], len(rest)
    picked = [[row[j] for j in order] for row in rows]
    reduced = _echelon(kind, (sum(x << k for k, x in enumerate(row)) for row in picked) if kind == GF2
                       else _scaled_int_rows(picked)[0])
    if [_last(kind, y) for y in reduced] != list(range(n, len(order))):
        return None
    if kind == GF2:
        return [[y >> j & 1 for j in range(n)] for y in reduced]
    return [[Fraction(x, y[p]) for x in y[:n]] for p, y in enumerate(reduced, n)]


def _echelon(kind: str, rows: Iterable) -> list:
    """Reduced row-echelon basis of the span of ``rows``: one row per last nonzero column, its
    pivot, in that order, every pivot column zero in the other rows.  GF(2) rows are bit-packed
    (bit j: column j), rational rows integer sequences.  Canonical, over Q up to row scaling."""
    ends = _forward(kind, rows)
    pivots = sum(1 << e for e in ends)
    for e in sorted(ends):  # clear the lower pivot columns, whose rows are reduced already
        while lower := _supports(kind, [ends[e]])[0] & pivots & ~(1 << e):
            f = lower.bit_length() - 1
            ends[e] = _cleared(kind, ends[e], ends[f], f)
    return [ends[e] for e in sorted(ends)]


def _forward(kind: str, rows: Iterable) -> dict:
    """``_echelon``'s forward pass: a basis of the span of ``rows`` keyed by each row's last
    nonzero column, all distinct, in the order of the rows that gave them; its length is the rank."""
    ends = {}
    for y in rows:
        while (e := _last(kind, y)) in ends:
            y = _cleared(kind, y, ends[e], e)
        if e >= 0:
            ends[e] = y
    return ends


def _last(kind: str, y) -> int:
    """The last nonzero column of an ``_echelon`` row, by a reverse scan; -1 for a zero row."""
    if kind == GF2:
        return y.bit_length() - 1
    e = len(y) - 1
    while e >= 0 and not y[e]:
        e -= 1
    return e


def _cleared(kind: str, y, p, f: int):
    """The one fraction-free row step: ``y`` less the multiple of ``p`` that leaves it zero at
    column f, where p is nonzero.  Over Q that is y·p[f] − y[f]·p divided by its gcd."""
    if kind == GF2:
        return y ^ p
    a, b = p[f], y[f]
    out = [x * a - b * z for x, z in zip(y, p)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _supports(kind: str, rows: list) -> list[int]:
    """Bit masks of the nonzero columns of ``_echelon`` rows."""
    return rows if kind == GF2 else [sum(1 << j for j, x in enumerate(y) if x) for y in rows]


def _eliminate(kind: str, rows: list, j: int) -> list:
    """``_echelon`` rows less the first one nonzero at column j, once it has cleared column j below."""
    if kind == GF2:
        p = [y >> j & 1 for y in rows].index(1)
        return rows[:p] + [y ^ rows[p] if y >> j & 1 else y for y in rows[p + 1:]]
    p = next(k for k, y in enumerate(rows) if y[j])
    return rows[:p] + [_cleared(kind, y, rows[p], j) if y[j] else y for y in rows[p + 1:]]


class ExactMatrix:
    """Immutable exact matrix; ``kind`` is ``"gf2"`` or ``"rational"``."""

    __slots__ = ("kind", "n_cols", "rows")

    def __init__(self, kind: str, rows: Iterable[Iterable[Entry]], n_cols: int | None = None):
        if kind not in (GF2, RATIONAL):
            raise ShapeError(f"unknown scalar kind {_shown(kind)}")
        coerce = _coerce_gf2 if kind == GF2 else _coerce_rational
        try:
            grid = tuple(tuple(coerce(v) for v in row) for row in rows)
        except TypeError:  # the rows, or one of them, is not iterable
            raise ShapeError(f"rows must be an iterable of rows of entries, got {_shown(rows)}") from None
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise ShapeError("ragged rows")
            if n_cols is not None and _checked(n_cols, "n_cols") != width:
                raise ShapeError(f"n_cols={n_cols} but rows have width {width}")
        else:
            width = 0 if n_cols is None else _checked(n_cols, "n_cols")
        self.kind = kind
        self.n_cols = width
        self.rows = grid

    @classmethod
    def identity(cls, n: int, kind: str) -> "ExactMatrix":
        if kind not in (GF2, RATIONAL):
            raise ShapeError(f"unknown scalar kind {_shown(kind)}")
        zero, one = (0, 1) if kind == GF2 else (Fraction(0), Fraction(1))
        n = _checked(n, "n")
        return _exact(kind, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, kind: str) -> "ExactMatrix":
        return cls(kind, [[0] * _checked(n_cols, "n_cols")] * _checked(n_rows, "n_rows"), n_cols=n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, pos: tuple[int, int]) -> Entry:
        if not isinstance(pos, tuple) or len(pos) != 2:
            raise ShapeError(f"an entry is read at a (row, column) pair, got {_shown(pos)}")
        i, j = pos
        return self.row(i)[_checked(j, "column", self.n_cols)]

    def row(self, i: int) -> tuple[Entry, ...]:
        return self.rows[_checked(i, "row", self.n_rows)]

    def col(self, j: int) -> tuple[Entry, ...]:
        j = _checked(j, "column", self.n_cols)
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n_cols, self.rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.kind}, {self.n_rows}x{self.n_cols})"

    def to_lists(self) -> list[list[Entry]]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "ExactMatrix":
        return _exact(self.kind, zip(*self.rows) if self.rows else [()] * self.n_cols, self.n_rows)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "ExactMatrix":
        """Select rows and columns by position; repeated indices are allowed."""
        for what, indices, bound in (("row", row_indices, self.n_rows), ("column", col_indices, self.n_cols)):
            if not isinstance(indices, Sequence):
                raise ShapeError(f"{what} indices must be a sequence, got {_shown(indices)}")
            for i in indices:
                _checked(i, f"{what} index", bound)
        rows = self.rows
        return _exact(self.kind, [[rows[i][j] for j in col_indices] for i in row_indices], len(col_indices))

    def determinant(self) -> Entry:
        """Exact determinant of a square matrix; the 0x0 determinant is 1."""
        if self.n_rows != self.n_cols:
            raise ShapeError(f"determinant of non-square {self.n_rows}x{self.n_cols} matrix")
        if self.kind == GF2:
            return int(self.rank() == self.n_rows)
        # Of the rows [e_k | row k], the forward pass keeps c_k·[e_k | row k] plus earlier rows,
        # c_k its entry at column k.  A key in the unit block means singular; else the right halves
        # sorted by key are triangular: det = sign of the key order · pivots / c_k / row scales.
        n = self.n_rows
        ints, scales = _scaled_int_rows(self.rows)
        ends = _forward(RATIONAL, ([0] * k + [1] + [0] * (n - 1 - k) + row for k, row in enumerate(ints)))
        if min(ends, default=n) < n:
            return Fraction(0)
        inversions = sum(e > f for e, f in combinations(ends, 2))
        pivots = prod(y[e] for e, y in ends.items())
        coefficients = prod(y[k] for k, y in enumerate(ends.values()))
        return Fraction((-1) ** inversions * pivots, coefficients * prod(scales))

    def rank(self) -> int:
        if self.kind == GF2:
            return gf2_rank_of_ints(sum(bit << j for j, bit in enumerate(row)) for row in self.rows)
        return _int_rows_rank(_scaled_int_rows(self.rows)[0])

    def pivot(self, i: int, j: int) -> "ExactMatrix":
        """Gaussian pivot at (i, j): column j becomes the i-th unit column.

        Row i is divided by the pivot entry; every other row k is replaced
        by ``row_k - A[k][j] * new_row_i``.  That is A in coordinates over
        the unit columns of [A | I] with e_i replaced by column j, which
        ``_coordinates`` reads.  Labels and positions are kept, nothing is
        swapped.  The pivot entry must be nonzero.
        """
        if self[i, j] == 0:
            raise ShapeError(f"zero pivot entry at ({i}, {j})")
        n = self.n_cols
        base = [j if k == i else n + k for k in range(self.n_rows)]
        return _exact(self.kind, _coordinates(self.kind, self._with_units(), base, range(n)), n)

    def inverse(self) -> "ExactMatrix":
        """Inverse of a square nonsingular matrix: in [A | I], the coordinates of I's columns over A's."""
        if self.n_rows != self.n_cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.n_rows
        inverse = _coordinates(self.kind, self._with_units(), range(n), range(n, 2 * n))
        if inverse is None:
            raise ShapeError("matrix is singular")
        return _exact(self.kind, inverse, n)

    def _with_units(self) -> list:
        """The rows of [A | I], I's columns after A's, that ``pivot`` and ``inverse`` read."""
        return [row + unit for row, unit in zip(self.rows, ExactMatrix.identity(self.n_rows, self.kind).rows)]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.kind != other.kind:
            raise ShapeError("cannot multiply matrices of different kinds")
        if self.n_cols != other.n_rows:
            raise ShapeError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by {other.n_rows}x{other.n_cols}"
            )
        cols = [other.col(j) for j in range(other.n_cols)]
        if self.kind == GF2:
            rows = [
                [sum(a & b for a, b in zip(row, col)) & 1 for col in cols]
                for row in self.rows
            ]
        else:
            zero = Fraction(0)  # an empty inner dimension still sums to a Fraction
            rows = [
                [sum((a * b for a, b in zip(row, col)), zero) for col in cols]
                for row in self.rows
            ]
        return _exact(self.kind, rows, other.n_cols)


def from_cols(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Join two matrices with equal row counts side by side."""
    for side in (left, right):
        if not isinstance(side, ExactMatrix):
            raise ShapeError(f"from_cols joins two ExactMatrix values, got {_shown(side)}")
    if left.kind != right.kind:
        raise ShapeError(f"mixed scalar kinds {sorted((left.kind, right.kind))}")
    if left.n_rows != right.n_rows:
        raise ShapeError(f"row counts differ: {left.n_rows} vs {right.n_rows}")
    rows = [r1 + r2 for r1, r2 in zip(left.rows, right.rows)]
    return _exact(left.kind, rows, left.n_cols + right.n_cols)
