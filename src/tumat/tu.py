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
- A network matrix has a row for each edge of a directed tree and a
  column for each path in it, +1 or -1 as the path passes the edge
  forwards or backwards; it is TU.  By Camion, a block whose support a
  tree realizes this way, its columns or its rows as paths, is TU exactly
  when it is that network matrix up to scaling by signs.  The star
  tree realizes a side whose lines have two nonzeros each, and ``_star``
  decides the block from those entries.  On any other side a graph
  realization search looks for a tree, and ``_fits`` checks each tree it
  finds: each line must be a path of it.  ``_colourings`` solves the signs.
- Camion: a {0, +-1} matrix is TU exactly when every square Eulerian
  submatrix, each line with an even count of nonzeros in it, has entries
  summing to 0 mod 4.  Past the screens below, a 4x4 submatrix violates
  exactly when it is Eulerian and sums to 2 mod 4 (``_order_4_violator``).
- Seymour builds every regular matroid from graphic, cographic and R10
  pieces.  R10's 162 bases give two 5x5 supports up to line order: (a)
  three nonzeros in each line, the zeros one 10-cycle; (b) one full row
  and one full column, the other 4x4 one 8-cycle.  Each has a TU signing,
  so by Camion a signing of it is TU exactly when each chordless cycle of
  its support graph sums to 0 mod 4.  Those are 4- and 6-cycles in (a)
  and 4-cycles and the 8-cycle in (b) (the tests check all 162 bases);
  each 8-cycle entry is the product of the other three of its 4-cycle
  through the full lines, so the 8-cycle passes when those do.  Past the
  screens below, a block of either support is TU (``_is_r10``).

Removed lines keep their indices.  Each block meets certificates before
searches.  A block with a star side is decided by the star tree first;
when it fails the block is not TU, and only the search for its witness
follows.  Bit masks decide orders 2 and 3: a 2x2 violator is a 4-cycle
whose entries multiply to -1, and with none, a 3x3 one is a 6-cycle
whose entries multiply to +1 (``_first_violator``).  A block whose
shorter side has at most 8 lines meets these screens next, on that side
(a matrix and its transpose share the orders of their violators) and
row-wise on a hit; with none, fewer than 4 rows or columns leave it TU,
and a shorter side of 4 lines meets the order-4 rule, which decides it.
Every other block meets the R10 leaf, then the network leaf, which a
longer one meets before its screens, as those would cost the cube of its
side.  The rest go to a DP that expands each order-k minor along its
first row over the stored order-(k-1) minors of the other rows, from
order 4, and stops at an order with no nonzero minor.

A GF(2) matrix has a TU signing exactly when its matroid is regular.
Camion (1965) proved that a TU signing is unique up to scaling rows and
columns by -1, so the signing search needs no enumeration: it pins a
spanning forest to +1, propagates every other sign from a chordless
cycle, and runs one TU check on the result (Truemper, *Matroid
Decomposition*, 1992).  ``_line_scales`` solves line scalings on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import ShapeError, SizeGuardError, _shown
from .exactmat import GF2, RATIONAL, ExactMatrix, _SIGNS, _exact

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
    """Outcome of a TU check: its violating submatrix (rows, columns,
    determinant), or None when the matrix is TU."""

    witness: Optional[tuple[tuple[int, ...], tuple[int, ...], Fraction]] = None

    def __post_init__(self):
        if self.witness is not None:
            rows, cols, det = self.witness
            if len(rows) != len(cols):
                raise ShapeError("witness must select a square submatrix")
            if det == 0 or det == 1 or det == -1:
                raise ShapeError("witness determinant must lie outside {-1, 0, 1}")

    @property
    def is_tu(self) -> bool:
        return self.witness is None


def is_totally_unimodular(a: ExactMatrix, *, force: bool = False) -> TuVerdict:
    """Exact TU check over the rationals.

    Entries are scanned first, then square submatrices by increasing size,
    row lists and column lists in lexicographic order, so a failing check
    returns the lexicographically first violating pair of minimal size.
    Matrices with min(m, n) > ``DEFAULT_TU_LIMIT`` are refused with
    ``SizeGuardError`` unless ``force`` is set.

    After the scan, a polynomial pre-pass drops zero lines, unit lines
    and later copies of a line up to sign, splits what is left into the
    blocks of a 1-sum, none of which changes the witness (see the module
    docstring).  Each block then meets the star certificate, the
    order-2/3 screens, the order-4 rule and the R10 and network leaves,
    the cheaper first, and the minor DP only when all miss, as on a block
    of 5 lines or more on each side that no tree realizes or whose signs
    do not match; the DP's cost and memory follow the block's nonzero
    minors, at worst C(m,k)*C(n,k) of them at order k.
    """
    if a.kind != RATIONAL:
        raise ShapeError("TU is defined for rational matrices only")
    m, n = a.shape
    # +1 and -1 positions of each row (column bits) and column (row bits);
    # the shared sign Fractions are told apart by identity, others compared
    rpos, rneg, cpos, cneg = [0] * m, [0] * m, [0] * n, [0] * n
    zero, one, minus = _SIGNS[0], _SIGNS[1], _SIGNS[-1]
    for i in range(m):
        row = a.rows[i]
        for j in range(n):
            v = row[j]
            if v is zero:
                continue
            if v is one or v is not minus and v == 1:
                rpos[i] |= 1 << j
                cpos[j] |= 1 << i
            elif v is minus or v == -1:
                rneg[i] |= 1 << j
                cneg[j] |= 1 << i
            elif v:
                return TuVerdict(((i,), (j,), Fraction(v)))
    if min(m, n) > DEFAULT_TU_LIMIT and not force:
        raise SizeGuardError(
            f"TU check on a {m}x{n} matrix exceeds the size guard (min dim > {DEFAULT_TU_LIMIT})"
        )
    # drop zero, unit and repeated lines until every line left is needed;
    # once the column pass keeps every column, the row pass would too
    rows, cols = (1 << m) - 1, (1 << n) - 1
    while True:
        rows = _distinct_lines(rpos, rneg, rows, cols)
        kept_cols = _distinct_lines(cpos, cneg, cols, rows)
        if kept_cols == cols:
            break
        cols = kept_cols
    blocks = _blocks(rpos, rneg, cpos, cneg, rows, cols)
    witnesses = [w for r, c in blocks if (w := _block_violator(rpos, rneg, cpos, cneg, r, c))]
    if not witnesses:
        return TuVerdict()
    rs, cs, d = min(witnesses, key=lambda w: (len(w[0]), w[0], w[1]))
    return TuVerdict((rs, cs, Fraction(d)))


def _block_violator(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The block's lexicographically first violator of minimal order, or
    None, found by the cheapest exact test first (see the module docstring)."""
    star = _star(rpos, rneg, cpos, cneg, rows, cols)  # False: the block is not TU (Camion)
    if star:
        return None
    short = min(rows.bit_count(), cols.bit_count())
    if star is None and short > 8 and _is_network_matrix(rpos, rneg, cpos, cneg, rows, cols):
        return None
    if (short > 8 or rows.bit_count() == short or _first_violator(cpos, cneg, cols, rows)) and (
        witness := _first_violator(rpos, rneg, rows, cols)
    ):
        return witness
    if short < 4:
        return None
    if short == 4:
        return _order_4_violator(rpos, rneg, cpos, cneg, rows, cols)
    if star is None and (_is_r10(rpos, rneg, cpos, cneg, rows, cols) or (
        short <= 8 and _is_network_matrix(rpos, rneg, cpos, cneg, rows, cols))
    ):
        return None
    return _minor_dp(rpos, rneg, rows, cols)


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


def _is_r10(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> bool:
    """Whether the block on ``rows`` and ``cols`` has one of R10's two
    supports, and so is TU past the screens (see the module docstring): 5x5,
    rows of distinct supports, 3 nonzeros each or one full row, and the same
    counts on the columns.  Distinct supports rule out zeros on a 4-cycle
    and a 6-cycle in (a), and two 4-cycles in place of (b)'s 8-cycle."""
    if rows.bit_count() != 5 or cols.bit_count() != 5:
        return False
    sups = {(rpos[i] | rneg[i]) & cols for i in _bits(rows)}  # a repeat leaves 4
    counts = sorted(map(int.bit_count, sups))
    return counts in ([3, 3, 3, 3, 3], [3, 3, 3, 3, 5]) and counts == sorted(
        ((cpos[j] | cneg[j]) & rows).bit_count() for j in _bits(cols))


def _star(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> Optional[bool]:
    """Whether the star tree certifies the block on ``rows`` and ``cols``
    when a side of it, its columns first, has two nonzeros in each line:
    True when the lines scale by signs to the network matrix of the star
    on the other side, rooted at its centre (a line on edges lo < hi
    passes lo upwards, hi downwards), so the block is TU; False when they
    do not, so it is not (Camion); None when neither side has such lines."""
    for pos, neg, lines, edges in ((cpos, cneg, cols, rows), (rpos, rneg, rows, cols)):
        rules = []  # each line's support and where its signs differ from the network matrix
        while lines:  # most sides stop at their first line, so no _bits list
            j = (lines & -lines).bit_length() - 1
            s = (pos[j] | neg[j]) & edges
            if s.bit_count() > 2:
                break
            lo = s & -s
            rules.append((s, pos[j] & (s ^ lo) | neg[j] & lo))
            lines ^= 1 << j
        else:
            return _colourings(edges, rules) is not None
    return None


def _is_network_matrix(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> bool:
    """Whether the block on ``rows`` and ``cols``, or its transpose, scales
    by signs to a network matrix whose tree ``_tree`` finds, and so is TU;
    for a block with no star side (see ``_star``).

    A tree whose paths are the block's columns (or rows) decides the block
    either way (Camion; see the module docstring), and ``_fits`` checks
    it.  A TU block's lines have distinct supports of two edges or more,
    so tree and lines would form a simple graph of minimum degree 3: a side
    whose k edges have fewer than (k + 3) / 2 or more than k(k - 1) / 2
    lines is skipped.
    """
    for pos, neg, tpos, tneg, lines, edges in (
        (cpos, cneg, rpos, rneg, cols, rows), (rpos, rneg, cpos, cneg, rows, cols)
    ):
        k = edges.bit_count()
        if k + 3 <= 2 * lines.bit_count() <= k * (k - 1):
            paths = {j: (pos[j] | neg[j]) & edges for j in _bits(lines)}
            stars = _tree(paths, {e: (tpos[e] | tneg[e]) & lines for e in _bits(edges)})
            if stars is not None:
                return _fits(pos, neg, paths, stars)
    return False


def _tree(paths: dict[int, int], on: dict[int, int]) -> Optional[list[int]]:
    """A tree on the edges of ``on`` in which each mask of ``paths`` is the
    edge set of a path, as the mask of the edges at each vertex; None when
    there is none.  ``on[e]`` masks the paths through edge e.

    Graph realization one edge at a time: each edge splits a vertex v of
    the tree so far, in which the edges not yet placed are contracted.
    Every path through the new edge must meet v, and a path with two edges
    at v keeps them on one side of the new edge, or on both sides when it
    passes it.  Every such vertex is tried with the one 2-colouring of
    ``_colourings``, backtracking on a dead end, and the search gives up
    after 4 moves (a split or a step back) per edge; a block it misses goes
    on to the DP, so no verdict depends on it.  The order is fixed before
    the search: each edge is the first of those left on the most paths
    through the edges before it, and its split's constraints depend only
    on those edges.
    """
    n, todo, lines = len(on), list(on), list(paths.values())
    steps: list[tuple[int, list[int], list[tuple[int, int]]]] = []
    done = met = 0
    while todo:
        e = max(todo, key=lambda f: (on[f] & met).bit_count())
        todo.remove(e)
        bit, through, rules = 1 << e, [], []
        for p in lines:
            c = p & done
            if c and p & bit:
                through.append(c)
            if c & (c - 1):
                rules.append((c, p & bit))
        steps.append((bit, through, rules))
        done |= bit
        met |= on[e]

    def splits(stars: list[int], k: int) -> Iterator[list[int]]:
        """The trees that place edge k by splitting a vertex of ``stars``, at most one per vertex."""
        bit, through, rules = steps[k]
        for v, star in enumerate(stars):
            for c in through:
                if not star & c:
                    break
            else:
                pairs = []
                for c, apart in rules:
                    s = c & star
                    if s & (s - 1):
                        pairs.append((s, s & -s if apart else 0))
                moved = _colourings(star, pairs)
                if moved is not None:
                    yield stars[:v] + [star & ~moved | bit] + stars[v + 1:] + [moved | bit]

    # the first two edges share a vertex in any tree on them alone
    first, second = steps[0][0], steps[1][0]
    # depth first, without recursion: frame i holds the trees on i + 3 edges
    frames = [splits([first | second, first, second], 2)]
    for _ in range(4 * n):
        stars = next(frames[-1], None)
        if stars is None:
            frames.pop()
            if not frames:
                return None
        elif len(frames) + 2 == n:
            return stars
        else:
            frames.append(splits(stars, len(frames) + 2))
    return None


def _fits(pos: list[int], neg: list[int], paths: dict[int, int], stars: list[int]) -> bool:
    """Whether every line is a path of the tree with vertex stars ``stars``
    that ``_tree`` found, checked here rather than trusted to the search,
    and the lines scale by signs to the tree's network matrix.  Rooted at
    vertex 0, the tree has a path from a to b pass a's way to the root
    upwards, b's way downwards."""
    ends, edges = [0] * max(stars).bit_length(), 0
    for v, star in enumerate(stars):
        edges |= star
        for e in _bits(star):
            ends[e] |= 1 << v
    up, todo = [0] * len(stars), [0]
    while todo:
        v = todo.pop()
        for e in _bits(stars[v] & ~up[v]):
            w = (ends[e] ^ 1 << v).bit_length() - 1
            up[w] = up[v] | 1 << e
            todo.append(w)
    rules = []  # each line's support and where its signs differ from the network matrix
    for j, s in paths.items():
        odd = 0
        for e in _bits(s):
            odd ^= ends[e]
        low = odd & -odd
        a, b = up[low.bit_length() - 1], up[(odd ^ low).bit_length() - 1]
        if a ^ b != s:
            return False
        rules.append((s, (pos[j] & b | neg[j] & a) & s))
    return _colourings(edges, rules) is not None


def _colourings(nodes: int, rules: list[tuple[int, int]]) -> Optional[int]:
    """A 2-colouring of the bits of ``nodes`` in which each rule (s, d) gives
    all bits of s one colour once the bits of d flip, as the mask of the
    bits coloured second, or None when there is none.  The lowest bit of
    each group of bits the rules tie keeps the first colour.
    """
    ones = 0
    while nodes:
        seen = nodes & -nodes
        while True:
            rest = []
            for s, d in rules:
                if not s & seen:
                    rest.append((s, d))
                    continue
                odd = (ones ^ d) & s & seen
                if odd and odd != s & seen:
                    return None
                ones |= (d ^ s if odd else d) & s & ~seen
                seen |= s
            if len(rest) == len(rules):
                break
            rules = rest
        nodes &= ~seen
    return ones


def _first_violator(
    rpos: list[int], rneg: list[int], rows: int, cols: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The lexicographically first violator of order 2 or 3 inside the
    block on ``rows`` and ``cols``, in original indices, or None.

    A 2x2 violator is two rows that agree in sign on one column and
    differ on another.  With none, every 3x3 violator is a 6-cycle (the
    tests check all 3^9 {0, +-1} matrices): for row supports s1, s2, s3,
    a column in each of s1&s2&~s3, s1&s3&~s2 and s2&s3&~s1, its six
    entries multiplying to +1.  Two columns of one mask agree or differ
    alike on its rows, so all choices violate or none do, and the sorted
    minima come first.
    """
    order = _bits(rows)
    pos, neg = {i: rpos[i] & cols for i in order}, {i: rneg[i] & cols for i in order}
    for i, h in combinations(order, 2):
        same, diff = pos[i] & pos[h] | neg[i] & neg[h], pos[i] & neg[h] | neg[i] & pos[h]
        if same and diff:  # det = 2 a[i][lo] a[h][hi], hi the first column of the other kind
            lo = (same | diff) & -(same | diff)
            hi = diff if same & lo else same
            hi &= -hi
            return (i, h), tuple(_bits(lo | hi)), -2 if bool(neg[i] & lo) != bool(neg[h] & hi) else 2
    sup = {i: pos[i] | neg[i] for i in order}
    for i, h, g in combinations(order, 3):
        a, b, c = sup[i] & sup[h] & ~sup[g], sup[i] & sup[g] & ~sup[h], sup[h] & sup[g] & ~sup[i]
        if a and b and c:
            a, b, c = a & -a, b & -b, c & -c
            if not ((neg[i] ^ neg[h] ^ neg[g]) & (a | b | c)).bit_count() & 1:
                # det = 2 s a[i][a] a[h][c] a[g][b], s = +1 when a, c, b rotate the sorted columns
                odd = ((a < c) + (c < b) + (b < a) != 2) + bool(neg[i] & a) + bool(neg[h] & c) + bool(neg[g] & b)
                return (i, h, g), tuple(_bits(a | b | c)), -2 if odd & 1 else 2
    return None


def _order_4_violator(
    rpos: list[int], rneg: list[int], cpos: list[int], cneg: list[int], rows: int, cols: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The first violator of a block whose shorter side has 4 lines and
    which has no violator of order 2 or 3, or None.

    By Camion such a 4x4 submatrix violates exactly when it is Eulerian,
    each line with an even count of nonzeros in it, and its entries sum
    to 2 mod 4; its determinant is then +-2.  It holds all 4 short lines,
    so the witness is the first 4 long lines, each with 2 or 4 nonzeros on
    the short side, that leave each short line an even count and sum to
    2 mod 4.  The pre-pass leaves at most 20 such lines, distinct up to sign.
    """
    wide = rows.bit_count() == 4
    pos, neg, lines, short = (cpos, cneg, cols, rows) if wide else (rpos, rneg, rows, cols)
    even = []  # (line, support, entry sum) of each long line with 2 or 4 nonzeros
    for j in _bits(lines):
        p, q = pos[j] & short, neg[j] & short
        if not (p | q).bit_count() & 1:
            even.append((j, p | q, p.bit_count() - q.bit_count()))
    for quad in combinations(even, 4):
        (a, sa, ta), (b, sb, tb), (c, sc, tc), (d, sd, td) = quad
        if not sa ^ sb ^ sc ^ sd and (ta + tb + tc + td) % 4 == 2:
            chosen = (a, b, c, d)
            # the long lines as the rows of the 4x4: a determinant is its transpose's
            det = _det([[(pos[j] >> e & 1) - (neg[j] >> e & 1) for e in _bits(short)] for j in chosen])
            return (tuple(_bits(rows)), chosen, det) if wide else (chosen, tuple(_bits(cols)), det)
    return None


def _det(grid: list[list[int]]) -> int:
    """The determinant of the square int ``grid``, by cofactors along its first row."""
    if not grid:
        return 1
    return sum((-1) ** k * v * _det([row[:k] + row[k + 1:] for row in grid[1:]]) for k, v in enumerate(grid[0]) if v)


def _minor_dp(
    rpos: list[int], rneg: list[int], rows: int, cols: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The first violator from order 4 on, for a block with no violator of
    order 2 or 3 and at least 5 rows and 5 columns."""
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
            if k > 3 and dets and (max(dets.values()) > 1 or min(dets.values()) < -1):
                cs, d = min((tuple(_bits(key)), d) for key, d in dets.items() if d > 1 or d < -1)
                return rs, cs, d
            if k < top:
                nonzero = {key: d for key, d in dets.items() if d}
                if nonzero:
                    found[rs] = nonzero
        if not found:
            return None
        minors = found


def is_signing_of(a: ExactMatrix, u: ExactMatrix) -> bool:
    """True when abs(a[i][j]) equals u[i][j] everywhere (a rational, u GF(2)); no Fraction is built."""
    if a.kind != RATIONAL or u.kind != GF2:
        raise ShapeError("signing compares a rational matrix against a GF(2) matrix")
    if a.shape != u.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {u.shape}")
    for ra, ru in zip(a.rows, u.rows):
        for x, y in zip(ra, ru):
            if abs(x.numerator) != y or x.denominator != 1:
                return False
    return True


def is_tu_signing_of(a: ExactMatrix, u: ExactMatrix, *, force: bool = False) -> bool:
    """Certify ``a`` as a TU signing of ``u``: a signing of ``u`` that is TU.

    Then [I | a] over Q and [I | u] over GF(2) represent the same matroid,
    so the check certifies that matroid regular.
    """
    return is_signing_of(a, u) and is_totally_unimodular(a, force=force).is_tu


def scale_rows_cols(
    a: ExactMatrix, row_signs: Sequence[int], col_signs: Sequence[int]
) -> ExactMatrix:
    """Multiply row i by row_signs[i] and column j by col_signs[j]; signs are +-1, entries rational or int."""
    if a.kind == GF2:
        raise ShapeError("sign scaling applies to rational matrices")
    if len(row_signs) != a.n_rows or len(col_signs) != a.n_cols:
        raise ShapeError("sign vector lengths must match the matrix shape")
    for s in (*row_signs, *col_signs):
        if s != 1 and s != -1:
            raise ShapeError(f"sign must be +1 or -1, got {_shown(s)}")
    rows = [
        [x if rs == cs else -x for x, cs in zip(row, col_signs)]
        for row, rs in zip(a.rows, row_signs)
    ]
    return _exact(a.kind, rows, a.n_cols)


def _support_graph(grid: Sequence[Sequence]) -> list[list[int]]:
    """Adjacency lists of the bipartite support graph of the rows ``grid``:
    vertex i is row i and vertex m + j is column j, for m rows, and each
    nonzero entry joins its row and its column, in row-major order."""
    m = len(grid)
    adj: list[list[int]] = [[] for _ in range(m + (len(grid[0]) if grid else 0))]
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            if x:
                adj[i].append(m + j)
                adj[m + j].append(i)
    return adj


def spanning_forest(adj: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Breadth-first spanning forest of the graph with adjacency lists ``adj``,
    such as a ``_support_graph``.

    Roots are taken in vertex order, and the forest comes back as
    (parent, child) vertex pairs in discovery order, so every parent is
    reached before its children.
    """
    seen = [False] * len(adj)
    pairs = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:  # breadth first: the loop reaches what it appends
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    pairs.append((v, w))
                    queue.append(w)
    return pairs


def _line_scales(a: Sequence[Sequence], b: Sequence[Sequence]) -> Optional[tuple[list[int], list[int]]]:
    """Line scales taking ``a`` to ``b``, or None: int lists num and den, rows then columns,
    with a[i][j] * num[i] * num[m + j] == b[i][j] * den[i] * den[m + j] for m rows.  An equal
    pair (``a == b``, so the same entries row for row) gets unit scales at once, with no forest.
    Otherwise, along ``spanning_forest`` of ``b``'s support, each root 1, the edge from p to c at
    (i, j) sets c's scale num[c] / den[c] to b[i][j] / (a[i][j] * the scale of p).  Any solution
    equals this one up to a factor per component, so the equation, checked after, decides."""
    m = len(b)
    num = [1] * (m + (len(b[0]) if b else 0))  # rows, then columns
    den = num[:]
    if a == b:
        return num, den
    for p, c in spanning_forest(_support_graph(b)):
        i, j = (p, c - m) if c >= m else (c, p - m)
        if not a[i][j]:
            return None
        num[c], den[c] = b[i][j] * den[p], a[i][j] * num[p]
    cols = list(zip(num[m:], den[m:]))
    for ra, rb, ni, di in zip(a, b, num, den):
        for x, y, (nj, dj) in zip(ra, rb, cols):
            if x * ni * nj != y * di * dj:
                return None
    return num, den


def find_tu_signing(u: ExactMatrix, *, force: bool = False) -> Optional[ExactMatrix]:
    """Find a TU signing of a GF(2) matrix; None when no signing is TU.

    Signs along a spanning forest of the support graph are pinned to +1,
    which any signing reaches by row/column scaling.  The vertices are
    then added in the forest's discovery order.  One breadth-first pass
    from each new vertex c's parent, over the vertices added before c,
    signs c's edge to each neighbour w so that c closes a cycle summing
    to 0 mod 4 with the pass's path to w from the last neighbour on it,
    and stops once every such w is signed.  That path is a shortest one
    with no neighbour of c inside, so the cycle is chordless in the whole
    support graph, and every chordless cycle of a TU matrix sums to 0 mod
    4.  Each sign is forced: by Camion's theorem a TU signing is unique up
    to row/column scaling, hence unique once the forest is +1, and the
    propagated matrix is that signing whenever one exists.  One TU check
    of that candidate decides, and a TU candidate is returned as checked.
    """
    if u.kind != GF2:
        raise ShapeError("the signing search takes a GF(2) matrix")
    m, n = u.shape
    adj = _support_graph(u.rows)
    sign: list[dict[int, int]] = [{} for _ in range(m + n)]  # sign[v][w] of the edge vw, once set
    seen = [False] * (m + n)
    for p, c in spanning_forest(adj):
        seen[p] = True
        near = {w for w in adj[c] if seen[w]}
        left = len(near) - 1  # edges from c to seen vertices, less p's, still unsigned
        at_c = sign[c]
        at_c[p] = sign[p][c] = 1
        # path sums over seen vertices from the last neighbour of c passed
        total = {p: 1}
        queue = [p]
        for v in queue:  # breadth first: the loop reaches what it appends
            if not left:
                break
            at_v = sign[v]
            for w in adj[v]:
                if seen[w] and w not in total:
                    t = total[v] + at_v[w]
                    if w in near:
                        t = at_c[w] = sign[w][c] = 1 if t % 4 == 3 else -1
                        left -= 1
                    total[w] = t
                    queue.append(w)
        seen[c] = True
    rows = [[_SIGNS[0]] * n for _ in range(m)]
    for i in range(m):
        for w, s in sign[i].items():
            rows[i][w - m] = _SIGNS[s]
    cand = _exact(RATIONAL, rows, n)
    return cand if is_totally_unimodular(cand, force=force).is_tu else None
