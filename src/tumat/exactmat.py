"""Exact dense matrices over GF(2) and over the rationals.

Entries are plain ints 0/1 for the GF(2) kind and ``fractions.Fraction``
for the rational kind, so all arithmetic is exact.  Matrices are
immutable values: every operation returns a new matrix.  Empty matrices
(zero rows and/or zero columns) are legal everywhere; the determinant of
the 0x0 matrix is 1.

The public constructor ``ExactMatrix(kind, rows)`` coerces and validates
every entry.  Operations on matrices (transpose, submatrix, pivot,
inverse, products, block assembly), the document parser and the sums,
which assemble their rows directly, build their results with ``_exact``,
which shares the already exact entries without coercing them again; each
such operation keeps the entry types exact itself (``tests/test_exactmat.py``
and ``tests/test_sums.py`` check this invariant).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import ShapeError

GF2 = "gf2"
RATIONAL = "rational"

Entry = Union[int, Fraction]

__all__ = [
    "GF2",
    "RATIONAL",
    "Entry",
    "ExactMatrix",
    "from_blocks",
    "from_rows",
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
    raise ShapeError(f"cannot use {value!r} as a GF(2) entry")


def _coerce_rational(value) -> Fraction:
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"cannot use {value!r} as a rational entry") from exc
    raise ShapeError(f"cannot use {value!r} as a rational entry")


def _exact(kind: str, rows: Iterable[Sequence[Entry]], n_cols: int) -> "ExactMatrix":
    """A matrix of ``kind`` over rows of ``n_cols`` entries that are already exact.

    Nothing is coerced or checked: each entry must be an int 0/1 (GF(2))
    or a ``Fraction`` (rational), and every row must have ``n_cols`` entries.
    """
    m = object.__new__(ExactMatrix)
    m.kind = kind
    m.rows = tuple(map(tuple, rows))
    m.n_rows = len(m.rows)
    m.n_cols = n_cols
    return m


def gf2_rank_of_ints(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of a family of bit-packed vectors."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                break
            v ^= p
    return len(pivots)


def _int_bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * piv - mik * mk[j]) // prev
            mi[k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def _int_rows_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix given as rows (fraction-free Bareiss elimination).

    Each step scales the rows below the pivot by pivot/previous pivot, so every
    entry stays a minor of the input up to sign and the division is exact.  A
    row whose factor is zero is skipped when that ratio is +-1 (a sign change).
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank, prev = 0, 1
    for c in range(n):
        for piv in range(rank, m):
            if work[piv][c]:
                break
        else:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        pv = pr[c]
        for r in range(rank + 1, m):
            wr = work[r]
            f = wr[c]
            if f or abs(pv) != abs(prev):
                for j in range(c + 1, n):
                    wr[j] = (wr[j] * pv - pr[j] * f) // prev
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank


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

    Row i is divided by its entry in column j, then subtracted (XORed over
    GF(2)) from every other row that is nonzero there.  Rows are replaced,
    never mutated, so they may be tuples.
    """
    base = rows[i]
    if kind == GF2:
        for k, row in enumerate(rows):
            if k != i and row[j]:
                rows[k] = [x ^ y for x, y in zip(row, base)]
        return
    a = base[j]
    if a != 1:
        base = rows[i] = [x / a for x in base]
    for k, row in enumerate(rows):
        f = row[j]
        if k != i and f:
            rows[k] = [x - f * b for x, b in zip(row, base)]


def _gauss_jordan(kind: str, rows: list, cols: Iterable[int]) -> list[int]:
    """Pivot each of ``cols`` in turn, in place; returns their pivot rows.

    Each column pivots on the first unused row with a nonzero entry.  A
    column with none depends on the earlier ones: the matrix is singular.
    """
    pivots: list[int] = []
    for j in cols:
        r = next((r for r in range(len(rows)) if rows[r][j] and r not in pivots), None)
        if r is None:
            raise ShapeError("matrix is singular")
        _pivot_rows(kind, rows, r, j)
        pivots.append(r)
    return pivots


class ExactMatrix:
    """Immutable exact matrix; ``kind`` is ``"gf2"`` or ``"rational"``."""

    __slots__ = ("kind", "n_rows", "n_cols", "rows")

    def __init__(self, kind: str, rows: Iterable[Iterable[Entry]], n_cols: int | None = None):
        if kind not in (GF2, RATIONAL):
            raise ShapeError(f"unknown scalar kind {kind!r}")
        coerce = _coerce_gf2 if kind == GF2 else _coerce_rational
        grid = tuple(tuple(coerce(v) for v in row) for row in rows)
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise ShapeError("ragged rows")
            if n_cols is not None and n_cols != width:
                raise ShapeError(f"n_cols={n_cols} but rows have width {width}")
        else:
            if n_cols is None:
                n_cols = 0
            if n_cols < 0:
                raise ShapeError("negative column count")
            width = n_cols
        self.kind = kind
        self.n_rows = len(grid)
        self.n_cols = width
        self.rows = grid

    @classmethod
    def identity(cls, n: int, kind: str) -> "ExactMatrix":
        return cls(kind, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n_cols=n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, kind: str) -> "ExactMatrix":
        return cls(kind, [[0] * n_cols for _ in range(n_rows)], n_cols=n_cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, pos: tuple[int, int]) -> Entry:
        i, j = pos
        return self.rows[i][j]

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
        n = self.n_rows
        if self.kind == GF2:
            if n == 0:
                return 1
            masks = [sum(bit << j for j, bit in enumerate(row)) for row in self.rows]
            return 1 if gf2_rank_of_ints(masks) == n else 0
        if n == 0:
            return Fraction(1)
        ints, scales = _scaled_int_rows(self.rows)
        det = _int_bareiss_det(ints)
        denom = 1
        for s in scales:
            denom *= s
        return Fraction(det, denom)

    def rank(self) -> int:
        if self.kind == GF2:
            masks = [sum(bit << j for j, bit in enumerate(row)) for row in self.rows]
            return gf2_rank_of_ints(masks)
        ints, _ = _scaled_int_rows(self.rows)
        return _int_rows_rank(ints)

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
        zero, one = (0, 1) if self.kind == GF2 else (Fraction(0), Fraction(1))
        work = [list(row) + [one if i == k else zero for k in range(n)] for i, row in enumerate(self.rows)]
        pivots = _gauss_jordan(self.kind, work, range(n))
        return _exact(self.kind, [work[r][n:] for r in pivots], n)

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


def _require_same_kind(*matrices: ExactMatrix) -> str:
    kinds = {m.kind for m in matrices}
    if len(kinds) != 1:
        raise ShapeError(f"mixed scalar kinds {sorted(kinds)}")
    return matrices[0].kind


def from_blocks(a11: ExactMatrix, a12: ExactMatrix, a21: ExactMatrix, a22: ExactMatrix) -> ExactMatrix:
    """Assemble [[A11, A12], [A21, A22]]; block shapes must be consistent."""
    kind = _require_same_kind(a11, a12, a21, a22)
    if a11.n_rows != a12.n_rows or a21.n_rows != a22.n_rows:
        raise ShapeError("block row counts disagree")
    if a11.n_cols != a21.n_cols or a12.n_cols != a22.n_cols:
        raise ShapeError("block column counts disagree")
    top = [r1 + r2 for r1, r2 in zip(a11.rows, a12.rows)]
    bottom = [r1 + r2 for r1, r2 in zip(a21.rows, a22.rows)]
    return _exact(kind, top + bottom, a11.n_cols + a12.n_cols)


def from_rows(upper: ExactMatrix, lower: ExactMatrix) -> ExactMatrix:
    """Stack two matrices with equal column counts."""
    kind = _require_same_kind(upper, lower)
    if upper.n_cols != lower.n_cols:
        raise ShapeError(f"column counts differ: {upper.n_cols} vs {lower.n_cols}")
    return _exact(kind, upper.rows + lower.rows, upper.n_cols)


def from_cols(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Join two matrices with equal row counts side by side."""
    kind = _require_same_kind(left, right)
    if left.n_rows != right.n_rows:
        raise ShapeError(f"row counts differ: {left.n_rows} vs {right.n_rows}")
    rows = [r1 + r2 for r1, r2 in zip(left.rows, right.rows)]
    return _exact(kind, rows, left.n_cols + right.n_cols)
