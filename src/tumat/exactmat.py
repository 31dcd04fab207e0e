"""Exact dense matrices over GF(2) and over the rationals.

Entries are plain ints 0/1 for the GF(2) kind and ``fractions.Fraction``
for the rational kind, so all arithmetic is exact.  Matrices are
immutable values: every operation returns a new matrix.  Empty matrices
(zero rows and/or zero columns) are legal everywhere; the determinant of
the 0x0 matrix is 1.  Over the rationals, determinant and rank share one
fraction-free (Bareiss) elimination of the rows with denominators
cleared; over GF(2), both come from the rank of the bit-packed rows.
That rank is the length of the forward pass of ``_echelon``, the reduced
row-echelon form that also stores every vector matroid (``matroid.to_matroid``).

The public constructor ``ExactMatrix(kind, rows)`` coerces and validates
every entry.  Every matrix the package computes from exact entries is
built with ``_exact``, which shares them without coercing them again:
``identity``, the operations on matrices (transpose, submatrix, pivot,
inverse, products, ``from_cols``), the document parser, the sums, the
signings, ``standardize`` and ``support``.  Each keeps the entry types
exact itself (``tests/test_exactmat.py`` and ``tests/test_sums.py``
check this invariant).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
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


def _bareiss(rows: Iterable[Sequence[int]]) -> tuple[int, int]:
    """Rank and signed last pivot of an integer matrix given as rows (fraction-free Bareiss).

    Each step scales the rows below the pivot by pivot/previous pivot, so every
    entry stays a minor of the row-swapped input and the division is exact; a
    row is skipped only when that leaves it unchanged.  The sign follows the
    row swaps, so for a square matrix of full rank the signed last pivot is its
    determinant (1 for the 0x0 matrix).
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for c in range(n):
        for piv in range(rank, m):
            if work[piv][c]:
                break
        else:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            sign = -sign
        pr = work[rank]
        pv = pr[c]
        for r in range(rank + 1, m):
            wr = work[r]
            f = wr[c]
            if f or pv != prev:
                for j in range(c + 1, n):
                    wr[j] = (wr[j] * pv - pr[j] * f) // prev
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, sign * prev


def _int_rows_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix given as rows."""
    return _bareiss(rows)[0]


def _scaled_int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and the scale factors."""
    out = []
    scales = []
    for row in rows:
        d = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * d) for x in row])
        scales.append(d)
    return out, scales


def _pivot_rows(kind: str, rows: list, i: int, j: int) -> None:
    """Gauss-Jordan step in place: column j becomes the i-th unit column.

    Row i is divided by its entry in column j (negated for -1, so int rows
    stay int), then subtracted (XORed over GF(2)) from every other row that
    is nonzero there.  Rows are replaced, never mutated, so they may be tuples.
    """
    base = rows[i]
    if kind == GF2:
        for k, row in enumerate(rows):
            if k != i and row[j]:
                rows[k] = [x ^ y for x, y in zip(row, base)]
        return
    a = base[j]
    if a == -1:
        base = rows[i] = [-x for x in base]
    elif a != 1:
        base = rows[i] = [x / a for x in base]
    for k, row in enumerate(rows):
        f = row[j]
        if k != i and f:
            rows[k] = [x - f * b for x, b in zip(row, base)]


def _gauss_jordan(kind: str, rows: list, cols: Iterable[int]) -> dict[int, int]:
    """Pivot each of ``cols`` in turn, in place; returns {column: pivot row} for those that pivot.

    Each column pivots on the first unused row with a nonzero entry.  A
    column with none depends on the earlier ones and is skipped, so over an
    ordered column list the pivot columns are the greedy base.
    """
    pivots: dict[int, int] = {}
    for j in cols:
        r = next((r for r in range(len(rows)) if rows[r][j] and r not in pivots.values()), None)
        if r is not None:
            _pivot_rows(kind, rows, r, j)
            pivots[j] = r
    return pivots


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
    nonzero column, all distinct; its length is the rank."""
    ends = {}
    for y in rows:
        while (e := _supports(kind, [y])[0].bit_length() - 1) in ends:
            y = _cleared(kind, y, ends[e], e)
        if e >= 0:
            ends[e] = y
    return ends


def _cleared(kind: str, y, p, f: int):
    """``y`` less the multiple of ``p`` that leaves it zero at column f, p's last nonzero column."""
    return y ^ p if kind == GF2 else _eliminate(kind, [p, y], f)[0]


def _supports(kind: str, rows: list) -> list[int]:
    """Bit masks of the nonzero columns of ``_echelon`` rows."""
    return rows if kind == GF2 else [sum(1 << j for j, x in enumerate(y) if x) for y in rows]


def _eliminate(kind: str, rows: list, j: int) -> list:
    """``_echelon`` rows less the first one nonzero at column j, once it has cleared column j below."""
    if kind == GF2:
        p = [y >> j & 1 for y in rows].index(1)
        return rows[:p] + [y ^ rows[p] if y >> j & 1 else y for y in rows[p + 1:]]
    p, q = next((k, y) for k, y in enumerate(rows) if y[j])
    out = ([x * q[j] - y[j] * b for x, b in zip(y, q)] if y[j] else y for y in rows[p + 1:])
    return rows[:p] + [[x // g for x in y] if (g := gcd(*y)) > 1 else y for y in out]


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
            if n_cols is not None and n_cols != width:
                raise ShapeError(f"n_cols={n_cols} but rows have width {width}")
        else:
            width = n_cols or 0
            if width < 0:
                raise ShapeError("negative column count")
        self.kind = kind
        self.n_cols = width
        self.rows = grid

    @classmethod
    def identity(cls, n: int, kind: str) -> "ExactMatrix":
        if kind not in (GF2, RATIONAL):
            raise ShapeError(f"unknown scalar kind {_shown(kind)}")
        zero, one = (0, 1) if kind == GF2 else (Fraction(0), Fraction(1))
        return _exact(kind, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, kind: str) -> "ExactMatrix":
        return cls(kind, [[0] * n_cols for _ in range(n_rows)], n_cols=n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, pos: tuple[int, int]) -> Entry:
        i, j = pos
        if not 0 <= j < self.n_cols:
            raise ShapeError(f"column {j} out of range")
        return self.row(i)[j]

    def row(self, i: int) -> tuple[Entry, ...]:
        if not 0 <= i < self.n_rows:
            raise ShapeError(f"row {i} out of range")
        return self.rows[i]

    def col(self, j: int) -> tuple[Entry, ...]:
        if not 0 <= j < self.n_cols:
            raise ShapeError(f"column {j} out of range")
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
        for i in row_indices:
            if not 0 <= i < self.n_rows:
                raise ShapeError(f"row index {i} out of range for {self.n_rows} rows")
        for j in col_indices:
            if not 0 <= j < self.n_cols:
                raise ShapeError(f"column index {j} out of range for {self.n_cols} columns")
        rows = self.rows
        return _exact(self.kind, [[rows[i][j] for j in col_indices] for i in row_indices], len(col_indices))

    def determinant(self) -> Entry:
        """Exact determinant of a square matrix; the 0x0 determinant is 1."""
        if self.n_rows != self.n_cols:
            raise ShapeError(f"determinant of non-square {self.n_rows}x{self.n_cols} matrix")
        if self.kind == GF2:
            return int(self.rank() == self.n_rows)
        ints, scales = _scaled_int_rows(self.rows)
        rank, det = _bareiss(ints)
        return Fraction(det if rank == self.n_rows else 0, prod(scales))

    def rank(self) -> int:
        if self.kind == GF2:
            return gf2_rank_of_ints(sum(bit << j for j, bit in enumerate(row)) for row in self.rows)
        return _int_rows_rank(_scaled_int_rows(self.rows)[0])

    def pivot(self, i: int, j: int) -> "ExactMatrix":
        """Gaussian pivot at (i, j): column j becomes the i-th unit column.

        Row i is divided by the pivot entry; every other row k is replaced
        by ``row_k - A[k][j] * new_row_i``.  Labels and positions are kept,
        nothing is swapped.  The pivot entry must be nonzero.
        """
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise ShapeError(f"pivot position ({i}, {j}) out of range")
        if self.rows[i][j] == 0:
            raise ShapeError(f"zero pivot entry at ({i}, {j})")
        rows = list(self.rows)
        _pivot_rows(self.kind, rows, i, j)
        return _exact(self.kind, rows, self.n_cols)

    def inverse(self) -> "ExactMatrix":
        """Inverse of a square nonsingular matrix (Gauss-Jordan on [A | I])."""
        if self.n_rows != self.n_cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.n_rows
        work = [row + unit for row, unit in zip(self.rows, ExactMatrix.identity(n, self.kind).rows)]
        pivots = _gauss_jordan(self.kind, work, range(n))
        if len(pivots) < n:
            raise ShapeError("matrix is singular")
        return _exact(self.kind, [work[r][n:] for r in pivots.values()], n)

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
    if left.kind != right.kind:
        raise ShapeError(f"mixed scalar kinds {sorted((left.kind, right.kind))}")
    if left.n_rows != right.n_rows:
        raise ShapeError(f"row counts differ: {left.n_rows} vs {right.n_rows}")
    rows = [r1 + r2 for r1, r2 in zip(left.rows, right.rows)]
    return _exact(left.kind, rows, left.n_cols + right.n_cols)
