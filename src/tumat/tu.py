"""Total unimodularity: exact checking, signings, and the signing search.

A rational matrix is totally unimodular (TU) when every square submatrix,
including those selected with repeated row or column indices, has
determinant -1, 0, or 1.  Repeats force a zero determinant, so checking
strictly increasing index lists suffices.  After an entry scan, the
checker expands each order-k minor along its first row over the stored,
already checked order-(k-1) minors of the other rows.

A GF(2) matrix has a TU signing exactly when its matroid is regular.
Camion (1965) proved that a TU signing is unique up to scaling rows and
columns by -1, so the signing search needs no enumeration: it pins a
spanning forest to +1, propagates every other sign from a chordless
cycle, and runs one TU check on the result (Truemper, *Matroid
Decomposition*, 1992).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import ShapeError, SizeGuardError
from .exactmat import GF2, RATIONAL, ExactMatrix

DEFAULT_TU_LIMIT = 8

__all__ = [
    "TuVerdict",
    "is_totally_unimodular",
    "is_signing_of",
    "is_tu_signing_of",
    "find_tu_signing",
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


def is_totally_unimodular(
    a: ExactMatrix, *, limit: int = DEFAULT_TU_LIMIT, force: bool = False
) -> TuVerdict:
    """Exact TU check over the rationals.

    Entries are scanned first, then square submatrices by increasing size,
    row lists and column lists in lexicographic order, so a failing check
    returns the lexicographically first violating pair of minimal size.
    Matrices with min(m, n) > ``limit`` are refused with
    ``SizeGuardError`` unless ``force`` is set (the submatrix count is
    exponential in min(m, n)).  Row lists whose tail rows have no nonzero
    minor are skipped; memory peaks at one order's nonzero minors, at
    worst C(m,k)*C(n,k) of them.
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
    # Each row's nonzeros as (column bit, mask of the columns left of it,
    # entry); minors maps a row tuple to {column mask: det} for the nonzero
    # minors of the previous order.  Along the first row, the entry in the
    # t-th chosen column has cofactor sign (-1)^t: t columns lie left of it.
    nonzeros = [[(1 << j, (1 << j) - 1, int(v)) for j, v in enumerate(row) if v] for row in a.rows]
    minors = {(i,): {bit: v for bit, _, v in nz} for i, nz in enumerate(nonzeros)}
    for k in range(2, min(m, n) + 1):
        last, found = k == min(m, n), {}
        for rs in combinations(range(m), k):
            tail, first = minors.get(rs[1:]), nonzeros[rs[0]]
            if not tail or not first:
                continue
            dets: dict[int, int] = {}
            for cols, d in tail.items():
                for bit, lower, v in first:
                    if not cols & bit:
                        term = -v * d if (cols & lower).bit_count() & 1 else v * d
                        dets[cols | bit] = dets.get(cols | bit, 0) + term
            bad = [(tuple(j for j in range(n) if key >> j & 1), d)
                   for key, d in dets.items() if d > 1 or d < -1]
            if bad:
                cs, d = min(bad)
                return TuVerdict(False, (rs, cs, Fraction(d)))
            if not last:
                found[rs] = {key: d for key, d in dets.items() if d}
        minors = found
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
    """Certify ``a`` as a TU signing of ``u``: a signing of ``u`` that is TU.

    Then [I | a] over Q and [I | u] over GF(2) represent the same matroid,
    so the check certifies that matroid regular.
    """
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


def _adjacency(
    n_rows: int, n_cols: int, edges: Sequence[tuple[int, int]]
) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n_rows + n_cols)]
    for i, j in edges:
        adj[i].append(n_rows + j)
        adj[n_rows + j].append(i)
    return adj


def spanning_forest(
    n_rows: int, n_cols: int, edges: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Breadth-first spanning forest of a bipartite row/column graph.

    Vertex i is row i and vertex n_rows + j is column j; edge (i, j)
    joins row i and column j.  Roots are taken in vertex order, and the
    forest comes back as (parent, child) vertex pairs in discovery order,
    so every parent is reached before its children.
    """
    adj = _adjacency(n_rows, n_cols, edges)
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


def find_tu_signing(
    u: ExactMatrix, *, tu_limit: int = DEFAULT_TU_LIMIT, force: bool = False
) -> Optional[ExactMatrix]:
    """Find a TU signing of a GF(2) matrix; None when no signing is TU.

    Signs along a spanning forest of the support graph are pinned to +1,
    which any signing reaches by row/column scaling.  The vertices are
    then added in the forest's discovery order; each new vertex c signs
    its edge to every earlier neighbour r so that a cycle through c, r
    and an already signed neighbour sums to 0 mod 4.  That cycle closes
    a shortest path whose interior avoids the neighbours of c, so it is
    chordless in the whole support graph, and every chordless cycle of a
    TU matrix sums to 0 mod 4.  Each sign is therefore forced: by
    Camion's theorem a TU signing is unique up to row/column scaling,
    hence unique once the forest is +1, and the propagated matrix is that
    signing whenever one exists.  One TU check decides.
    """
    if u.kind != GF2:
        raise ShapeError("the signing search takes a GF(2) matrix")
    m, n = u.shape
    edges = [(i, j) for i in range(m) for j in range(n) if u.rows[i][j]]
    adj = _adjacency(m, n, edges)
    sign: dict[tuple[int, int], int] = {}  # both orientations of each vertex pair
    seen = [False] * (m + n)
    for p, c in spanning_forest(m, n, edges):
        seen[p] = True
        near = {r for r in adj[c] if seen[r]}
        sign[c, p] = sign[p, c] = 1
        todo = [p]
        while todo:
            s = todo.pop()
            # path sums from s over seen vertices, stopping at neighbours of c
            total = {s: sign[c, s]}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if not seen[w] or w in total:
                        continue
                    total[w] = total[v] + sign[v, w]
                    if w not in near:
                        queue.append(w)
                    elif (c, w) not in sign:
                        sign[c, w] = sign[w, c] = 1 if total[w] % 4 == 3 else -1
                        todo.append(w)
        seen[c] = True
    rows = [[sign.get((i, m + j), 0) for j in range(n)] for i in range(m)]
    cand = ExactMatrix(RATIONAL, rows, n_cols=n)
    return cand if is_totally_unimodular(cand, limit=tu_limit, force=force).is_tu else None
