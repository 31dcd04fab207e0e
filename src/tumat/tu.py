"""Total unimodularity: exact checking, signings, and the signing search.

A rational matrix is totally unimodular (TU) when every square submatrix,
including those selected with repeated row or column indices, has
determinant -1, 0, or 1.  Repeats force a zero determinant, so checking
strictly increasing index lists suffices; the checker works that way and
first short-circuits on any entry outside {-1, 0, 1}.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import ShapeError, SizeGuardError
from .exactmat import GF2, RATIONAL, ExactMatrix, _int_bareiss_det

DEFAULT_TU_LIMIT = 8
DEFAULT_MAX_FREE_SIGNS = 20
DEFAULT_ORACLE_MAX_NONZEROS = 16

__all__ = [
    "TuVerdict",
    "is_totally_unimodular",
    "is_signing_of",
    "is_tu_signing_of",
    "find_tu_signing",
    "find_tu_signing_bruteforce",
    "scale_rows_cols",
    "spanning_forest",
    "DEFAULT_TU_LIMIT",
]


@dataclass(frozen=True)
class TuVerdict:
    """Outcome of a TU check; a failing check carries a violating submatrix."""

    is_tu: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...], Fraction]] = None

    def __post_init__(self):
        if self.is_tu and self.witness is not None:
            raise ShapeError("a TU verdict cannot carry a witness")
        if not self.is_tu:
            if self.witness is None:
                raise ShapeError("a non-TU verdict needs a witness")
            rows, cols, det = self.witness
            if len(rows) != len(cols):
                raise ShapeError("witness must select a square submatrix")
            if det == 0 or det == 1 or det == -1:
                raise ShapeError("witness determinant must lie outside {-1, 0, 1}")


def _det_int(grid: list[list[int]], rs: Sequence[int], cs: Sequence[int]) -> int:
    k = len(rs)
    if k == 1:
        return grid[rs[0]][cs[0]]
    if k == 2:
        r0, r1 = grid[rs[0]], grid[rs[1]]
        c0, c1 = cs
        return r0[c0] * r1[c1] - r0[c1] * r1[c0]
    if k == 3:
        r0, r1, r2 = grid[rs[0]], grid[rs[1]], grid[rs[2]]
        c0, c1, c2 = cs
        return (
            r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
            - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
            + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0])
        )
    return _int_bareiss_det([[grid[i][j] for j in cs] for i in rs])


def is_totally_unimodular(
    a: ExactMatrix, *, limit: int = DEFAULT_TU_LIMIT, force: bool = False
) -> TuVerdict:
    """Exact TU check over the rationals.

    Entries are scanned first, then square submatrices by increasing size,
    row lists and column lists in lexicographic order, so a failing check
    returns the lexicographically first violating pair of minimal size.
    Matrices with min(m, n) > ``limit`` are refused with
    ``SizeGuardError`` unless ``force`` is set (the submatrix count is
    exponential in min(m, n)).
    """
    if a.kind != RATIONAL:
        raise ShapeError("TU is defined for rational matrices only")
    m, n = a.shape
    for i in range(m):
        row = a.rows[i]
        for j in range(n):
            v = row[j]
            if v != 0 and v != 1 and v != -1:
                return TuVerdict(False, ((i,), (j,), Fraction(v)))
    if min(m, n) > limit and not force:
        raise SizeGuardError(
            f"TU check on a {m}x{n} matrix exceeds the size guard (min dim > {limit}); "
            "pass force=True to run anyway"
        )
    grid = [[int(v) for v in row] for row in a.rows]
    for k in range(2, min(m, n) + 1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = _det_int(grid, rs, cs)
                if d > 1 or d < -1:
                    return TuVerdict(False, (rs, cs, Fraction(d)))
    return TuVerdict(True)


def is_signing_of(a: ExactMatrix, u: ExactMatrix) -> bool:
    """True when abs(a[i][j]) equals u[i][j] everywhere (a rational, u GF(2))."""
    if a.kind != RATIONAL or u.kind != GF2:
        raise ShapeError("signing compares a rational matrix against a GF(2) matrix")
    if a.shape != u.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {u.shape}")
    for ra, ru in zip(a.rows, u.rows):
        for x, y in zip(ra, ru):
            if abs(x) != y:
                return False
    return True


def is_tu_signing_of(
    a: ExactMatrix, u: ExactMatrix, *, limit: int = DEFAULT_TU_LIMIT, force: bool = False
) -> bool:
    return is_signing_of(a, u) and is_totally_unimodular(a, limit=limit, force=force).is_tu


def scale_rows_cols(
    a: ExactMatrix, row_signs: Sequence[int], col_signs: Sequence[int]
) -> ExactMatrix:
    """Multiply row i by row_signs[i] and column j by col_signs[j]; signs are +-1."""
    if a.kind != RATIONAL:
        raise ShapeError("sign scaling applies to rational matrices")
    if len(row_signs) != a.n_rows or len(col_signs) != a.n_cols:
        raise ShapeError("sign vector lengths must match the matrix shape")
    for s in (*row_signs, *col_signs):
        if s != 1 and s != -1:
            raise ShapeError(f"sign must be +1 or -1, got {s!r}")
    rows = [
        [x * rs * cs for x, cs in zip(row, col_signs)]
        for row, rs in zip(a.rows, row_signs)
    ]
    return ExactMatrix(RATIONAL, rows, n_cols=a.n_cols)


def _support_edges(u: ExactMatrix) -> list[tuple[int, int]]:
    return [(i, j) for i in range(u.n_rows) for j in range(u.n_cols) if u.rows[i][j]]


def spanning_forest(
    n_rows: int, n_cols: int, edges: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Breadth-first spanning forest of a bipartite row/column graph.

    Vertex i is row i and vertex n_rows + j is column j; edge (i, j)
    joins row i and column j.  Roots are taken in vertex order, and the
    forest comes back as (parent, child) vertex pairs in discovery order,
    so every parent is reached before its children.
    """
    adj: list[list[int]] = [[] for _ in range(n_rows + n_cols)]
    for i, j in edges:
        adj[i].append(n_rows + j)
        adj[n_rows + j].append(i)
    seen = [False] * len(adj)
    pairs = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    pairs.append((v, w))
                    queue.append(w)
    return pairs


def _spanning_forest_split(u: ExactMatrix) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split the nonzero positions into spanning-forest edges and the rest.

    The bipartite graph has a vertex per row and per column and an edge per
    nonzero entry.  Any signing can be row/column-scaled so that forest
    edges carry +1, so only the remaining edges need free signs.
    """
    m, n = u.shape
    edges = _support_edges(u)
    tree = {(min(p, c), max(p, c) - m) for p, c in spanning_forest(m, n, edges)}
    return sorted(tree), [e for e in edges if e not in tree]


def _build_signing(
    u: ExactMatrix, signs: dict[tuple[int, int], int]
) -> ExactMatrix:
    rows = [
        [signs[(i, j)] if u.rows[i][j] else 0 for j in range(u.n_cols)]
        for i in range(u.n_rows)
    ]
    return ExactMatrix(RATIONAL, rows, n_cols=u.n_cols)


def find_tu_signing(
    u: ExactMatrix,
    *,
    tu_limit: int = DEFAULT_TU_LIMIT,
    max_free_signs: int = DEFAULT_MAX_FREE_SIGNS,
    force: bool = False,
) -> Optional[ExactMatrix]:
    """Search for a TU signing of a GF(2) matrix; None when no signing is TU.

    Signs along a spanning forest of the support graph are pinned to +1
    (harmless up to row/column scaling), and the remaining free signs are
    enumerated.  The first TU assignment in enumeration order is returned.
    """
    if u.kind != GF2:
        raise ShapeError("the signing search takes a GF(2) matrix")
    tree_edges, free_edges = _spanning_forest_split(u)
    f = len(free_edges)
    if f > max_free_signs and not force:
        raise SizeGuardError(
            f"signing search with {f} free signs exceeds the guard ({max_free_signs}); "
            "pass force=True to run anyway"
        )
    signs = {e: 1 for e in tree_edges}
    for bits in range(1 << f):
        for b, e in enumerate(free_edges):
            signs[e] = -1 if (bits >> b) & 1 else 1
        cand = _build_signing(u, signs)
        if is_totally_unimodular(cand, limit=tu_limit, force=force).is_tu:
            return cand
    return None


def find_tu_signing_bruteforce(
    u: ExactMatrix,
    *,
    tu_limit: int = DEFAULT_TU_LIMIT,
    max_nonzeros: int = DEFAULT_ORACLE_MAX_NONZEROS,
    force: bool = False,
) -> Optional[ExactMatrix]:
    """Reference search enumerating all 2^(#nonzeros) sign assignments."""
    if u.kind != GF2:
        raise ShapeError("the signing search takes a GF(2) matrix")
    edges = _support_edges(u)
    if len(edges) > max_nonzeros and not force:
        raise SizeGuardError(
            f"brute-force signing over {len(edges)} nonzeros exceeds the guard "
            f"({max_nonzeros}); pass force=True to run anyway"
        )
    signs: dict[tuple[int, int], int] = {}
    for bits in range(1 << len(edges)):
        for b, e in enumerate(edges):
            signs[e] = -1 if (bits >> b) & 1 else 1
        cand = _build_signing(u, signs)
        if is_totally_unimodular(cand, limit=tu_limit, force=force).is_tu:
            return cand
    return None
