"""Independent oracles the benchmark checks tumat's outputs against.

Nothing here imports tumat.  Each routine is a plain re-derivation
(Gaussian elimination over Fraction, fraction-free integer determinants,
bit-packed GF(2) rank, block assembly of the 1-, 2- and 3-sum), so a
check cannot share a defect with the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det_fraction(grid) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in grid]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def det_int(grid) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(row) for row in grid]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


def is_tu(grid) -> bool:
    """Naive total unimodularity: every square submatrix, every order."""
    m = len(grid)
    n = len(grid[0]) if m else 0
    if any(v not in (-1, 0, 1) for row in grid for v in row):
        return False
    for k in range(2, min(m, n) + 1):
        for rs in combinations(range(m), k):
            rows = [grid[i] for i in rs]
            for cs in combinations(range(n), k):
                if abs(det_int([[r[j] for j in cs] for r in rows])) > 1:
                    return False
    return True


def gf2_rank(columns) -> int:
    """Rank over GF(2) of bit-packed vectors."""
    by_top_bit = {}
    for v in columns:
        while v and v.bit_length() in by_top_bit:
            v ^= by_top_bit[v.bit_length()]
        if v:
            by_top_bit[v.bit_length()] = v
    return len(by_top_bit)


def gf2_columns(grid) -> list[int]:
    """Columns of a 0/1 grid, bit-packed with row i at bit i."""
    n = len(grid[0]) if grid else 0
    return [sum(row[j] << i for i, row in enumerate(grid)) for j in range(n)]


def components(grid) -> int:
    """Connected components of the bipartite support graph (rows + cols)."""
    m = len(grid)
    n = len(grid[0]) if m else 0
    parent = list(range(m + n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v:
                parent[find(i)] = find(m + j)
    return len({find(v) for v in range(m + n)})


def free_signs(grid) -> int:
    """Nonzeros minus the edges of a spanning forest of the support graph."""
    m = len(grid)
    n = len(grid[0]) if m else 0
    nnz = sum(1 for row in grid for v in row if v)
    return nnz - (m + n - components(grid))


def gf2_inverse_2x2(d):
    """Inverse of an invertible 2x2 matrix mod 2."""
    (a, b), (c, e) = d
    if (a * e - b * c) % 2 == 0:
        raise ValueError("singular connector")
    return [[e, b], [c, a]]


def gf2_matmul(a, b):
    return [[sum(x & y for x, y in zip(row, col)) & 1 for col in zip(*b)] for row in a]


def sum_labels_and_body(k, left, right, glue):
    """Own assembly of a valid k-sum of two GF(2) standard representations.

    ``left`` and ``right`` are (X, Y, B) with B a 0/1 grid indexed by
    position; ``glue`` is () for k=1, (x, y) for k=2 and
    (x0, x1, x2, y0, y1, y2) for k=3.  Returns (X, Y, B) of the sum in
    the label order the documents promise: left labels first, then
    right labels, glue labels dropped from the side that loses them.
    """
    lx, ly, lb = left
    rx, ry, rb = right
    lval = {(u, v): lb[i][j] for i, u in enumerate(lx) for j, v in enumerate(ly)}
    rval = {(u, v): rb[i][j] for i, u in enumerate(rx) for j, v in enumerate(ry)}
    if k == 1:
        xs, ys = list(lx) + list(rx), list(ly) + list(ry)
        left_rows, left_cols = set(lx), set(ly)

        def entry(u, v):
            if u in left_rows:
                return lval[(u, v)] if v in left_cols else 0
            return rval[(u, v)] if v not in left_cols else 0

    elif k == 2:
        x, y = glue
        xs = [u for u in lx if u != x] + list(rx)
        ys = list(ly) + [v for v in ry if v != y]
        left_rows, left_cols = set(lx) - {x}, set(ly)

        def entry(u, v):
            if u in left_rows:
                return lval[(u, v)] if v in left_cols else 0
            if v in left_cols:
                return rval[(u, y)] & lval[(x, v)]
            return rval[(u, v)]

    else:
        x0, x1, x2, y0, y1, y2 = glue
        xs = [u for u in lx if u not in (x0, x1)] + [u for u in rx if u != x2]
        ys = [v for v in ly if v != y2] + [v for v in ry if v not in (y0, y1)]
        left_rows = set(lx) - {x0, x1}
        left_cols = set(ly) - {y2}
        d0_inv = gf2_inverse_2x2([[lval[(x0, y0)], lval[(x0, y1)]], [lval[(x1, y0)], lval[(x1, y1)]]])

        def entry(u, v):
            if u in left_rows:
                return lval[(u, v)] if v in left_cols else 0
            if v not in left_cols:
                return rval[(u, v)]
            if u in (x0, x1):
                return lval[(u, v)]
            if v in (y0, y1):
                return rval[(u, v)]
            d_r = [[rval[(u, y0)], rval[(u, y1)]]]
            d_l = [[lval[(x0, v)]], [lval[(x1, v)]]]
            return gf2_matmul(gf2_matmul(d_r, d0_inv), d_l)[0][0]

    return xs, ys, [[entry(u, v) for v in ys] for u in xs]
