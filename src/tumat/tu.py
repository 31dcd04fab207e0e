"""Total unimodularity: exact checking, signings, and the signing search.

A rational matrix is totally unimodular (TU) when every square submatrix,
including those selected with repeated row or column indices, has
determinant -1, 0, or 1.  Repeats force a zero determinant, so checking
strictly increasing index lists suffices.  The check returns the
lexicographically first violator of minimal order, in the input's
indices.  After an entry scan, a polynomial pre-pass shrinks the matrix
without changing that witness:

- Zero lines and unit lines (one nonzero) go.  A violator through a
  unit line expands along it to a violator of smaller order.
- Of two lines that are equal, or equal up to sign, the later goes.  A
  violator through the later one but not the earlier keeps its order and
  its |det| when the earlier replaces it, and that index list is
  lexicographically smaller; through both, its determinant is 0.
- The rest splits into the blocks of a 1-sum, the components of its
  support graph.  A block-diagonal determinant factors, so a minimal
  violator lies inside one block; the witness is the least block witness
  by (order, rows, columns).
- A block whose rows, or whose columns, scale by signs to a digraph
  incidence matrix (at most one +1 and one -1 per line) is TU.

Removed lines keep their indices.  On each block left, the checker
expands each order-k minor along its first row over the stored, already
checked order-(k-1) minors of the other rows, and stops at an order
with no nonzero minor.

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
from .exactmat import GF2, RATIONAL, ExactMatrix, _exact

DEFAULT_TU_LIMIT = 8

_SIGNS = {1: Fraction(1), -1: Fraction(-1), 0: Fraction(0)}

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
    ``SizeGuardError`` unless ``force`` is set.

    After the scan, a polynomial pre-pass drops zero lines, unit lines
    and later copies of a line up to sign, splits what is left into the
    blocks of a 1-sum, and certifies every block that scales to a digraph
    incidence matrix or its transpose; none of this changes the witness
    (see the module docstring).  The minor DP runs on each remaining
    block; its cost and memory follow the block's nonzero minors, at
    worst C(m,k)*C(n,k) of them at order k.
    """
    if a.kind != RATIONAL:
        raise ShapeError("TU is defined for rational matrices only")
    m, n = a.shape
    # +1 and -1 positions of each row (column bits) and column (row bits)
    rpos, rneg, cpos, cneg = [0] * m, [0] * m, [0] * n, [0] * n
    for i in range(m):
        row = a.rows[i]
        for j in range(n):
            v = row[j]
            if v:
                if v == 1:
                    rpos[i] |= 1 << j
                    cpos[j] |= 1 << i
                elif v == -1:
                    rneg[i] |= 1 << j
                    cneg[j] |= 1 << i
                else:
                    return TuVerdict(False, ((i,), (j,), Fraction(v)))
    if min(m, n) > limit and not force:
        raise SizeGuardError(
            f"TU check on a {m}x{n} matrix exceeds the size guard (min dim > {limit}); "
            "pass force=True to run anyway"
        )
    # drop zero, unit and repeated lines until every line left is needed
    rows, cols = (1 << m) - 1, (1 << n) - 1
    while True:
        kept_rows = _distinct_lines(rpos, rneg, rows, cols)
        kept_cols = _distinct_lines(cpos, cneg, cols, kept_rows)
        if (kept_rows, kept_cols) == (rows, cols):
            break
        rows, cols = kept_rows, kept_cols
    witnesses = [
        witness
        for block_rows, block_cols in _blocks(rpos, rneg, cpos, cneg, rows, cols)
        if not _scales_to_incidence(cpos, cneg, block_cols, block_rows)
        and not _scales_to_incidence(rpos, rneg, block_rows, block_cols)
        and (witness := _first_violator(rpos, rneg, block_rows, block_cols))
    ]
    if not witnesses:
        return TuVerdict(True)
    rs, cs, d = min(witnesses, key=lambda w: (len(w[0]), w[0], w[1]))
    return TuVerdict(False, (rs, cs, Fraction(d)))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _distinct_lines(pos: list[int], neg: list[int], lines: int, other: int) -> int:
    """The lines in mask ``lines`` with two or more nonzeros within
    ``other``, less every later copy of a line, equal or negated.

    ``pos[i]`` and ``neg[i]`` mask the +1 and -1 entries of line i.
    """
    kept, seen = 0, set()
    for i in _bits(lines):
        p, q = pos[i] & other, neg[i] & other
        s = p | q
        if s & (s - 1):
            key = (q, p) if q & s & -s else (p, q)  # first nonzero +1
            if key not in seen:
                seen.add(key)
                kept |= 1 << i
    return kept


def _blocks(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> list[tuple[int, int]]:
    """Row and column masks of the connected components of the support
    graph on ``rows`` and ``cols``; every line there has a nonzero."""
    blocks = []
    while rows:
        block_rows, block_cols, todo = 0, 0, rows & -rows
        while todo:
            block_rows |= todo
            reach = 0
            for i in _bits(todo):
                reach |= rpos[i] | rneg[i]
            new_cols = reach & cols & ~block_cols
            block_cols |= new_cols
            reach = 0
            for j in _bits(new_cols):
                reach |= cpos[j] | cneg[j]
            todo = reach & rows & ~block_rows
        blocks.append((block_rows, block_cols))
        rows &= ~block_rows
        cols &= ~block_cols
    return blocks


def _scales_to_incidence(pos: list[int], neg: list[int], lines: int, other: int) -> bool:
    """Whether the ``other`` lines can be scaled by signs so that every
    line in ``lines`` has at most one +1 and at most one -1 among them.

    The scaled matrix is then a digraph incidence matrix, a network
    matrix at a star tree, hence TU.  A line with two nonzeros asks its
    ends to be scaled alike (entries of opposite sign) or apart (equal
    entries); the test 2-colours the ends under these constraints.
    """
    links: dict[int, list[tuple[int, bool]]] = {}
    for j in _bits(lines):
        p, q = pos[j] & other, neg[j] & other
        s = p | q
        rest = s & (s - 1)
        if rest & (rest - 1):
            return False
        if rest:
            x, y = (s ^ rest).bit_length() - 1, rest.bit_length() - 1
            apart = p == s or q == s
            links.setdefault(x, []).append((y, apart))
            links.setdefault(y, []).append((x, apart))
    colour: dict[int, bool] = {}
    for start in links:
        if start in colour:
            continue
        colour[start] = False
        stack = [start]
        while stack:
            v = stack.pop()
            for w, apart in links[v]:
                c = colour[v] ^ apart
                if w not in colour:
                    colour[w] = c
                    stack.append(w)
                elif colour[w] != c:
                    return False
    return True


def _first_violator(
    rpos: list[int], rneg: list[int], rows: int, cols: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The lexicographically first violator of minimal order inside the
    block on ``rows`` and ``cols``, in original indices, or None."""
    # Each row's nonzeros as (column bit, mask of the columns left of it,
    # entry); minors maps a row tuple to {column mask: det} for the nonzero
    # minors of the previous order.  Along the first row, the entry in the
    # t-th chosen column has cofactor sign (-1)^t: t columns lie left of it.
    order = _bits(rows)
    nonzeros = {
        i: [(1 << j, (1 << j) - 1, v) for mask, v in ((rpos[i], 1), (rneg[i], -1))
            for j in _bits(mask & cols)]
        for i in order
    }
    minors = {(i,): {bit: v for bit, _, v in nz} for i, nz in nonzeros.items()}
    top = min(len(order), cols.bit_count())
    for k in range(2, top + 1):
        found = {}
        for rs in combinations(order, k):
            tail, first = minors.get(rs[1:]), nonzeros[rs[0]]
            if not tail:
                continue
            dets: dict[int, int] = {}
            for cs, d in tail.items():
                for bit, lower, v in first:
                    if not cs & bit:
                        key = cs | bit
                        term = -v * d if (cs & lower).bit_count() & 1 else v * d
                        dets[key] = dets.get(key, 0) + term
            if dets and (max(dets.values()) > 1 or min(dets.values()) < -1):
                cs, d = min((tuple(_bits(key)), d) for key, d in dets.items() if d > 1 or d < -1)
                return rs, cs, d
            if k < top:
                nonzero = {key: d for key, d in dets.items() if d}
                if nonzero:
                    found[rs] = nonzero
        if not found:
            return None
        minors = found
    return None


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
        [x if rs == cs else -x for x, cs in zip(row, col_signs)]
        for row, rs in zip(a.rows, row_signs)
    ]
    return _exact(RATIONAL, rows, a.n_cols)


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
    rows = [[_SIGNS[sign.get((i, m + j), 0)] for j in range(n)] for i in range(m)]
    cand = _exact(RATIONAL, rows, n)
    return cand if is_totally_unimodular(cand, limit=tu_limit, force=force).is_tu else None
