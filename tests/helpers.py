"""Shared corpus builders and independent oracles for the test suite.

The oracles here are deliberately naive re-implementations (cofactor
determinants, full submatrix enumeration, exhaustive sign enumeration,
subset-by-subset matroid comparison)
so the optimized library code is checked against something that cannot
share its bugs.
"""

import random
from fractions import Fraction
from itertools import combinations

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    LabeledMatrix,
    ShapeError,
    SizeGuardError,
    StandardRepr,
    is_totally_unimodular,
    scale_rows_cols,
    to_matroid,
)
from tumat.documents import DocumentError, _parse_entry
from tumat.exactmat import _exact
from tumat.fixtures import incidence_matrix
from tumat.tu import _support_graph, spanning_forest

DEFAULT_ORACLE_MAX_NONZEROS = 16


def cofactor_det(grid):
    """Textbook Laplace expansion along the first row."""
    n = len(grid)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(grid[0][0])
    total = Fraction(0)
    for j, top in enumerate(grid[0]):
        if top == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(top) * cofactor_det(minor)
    return total


def plain_rank(kind, rows):
    """Rank of ``rows`` by plain Gaussian elimination with row swaps over Fractions, mod 2 over GF(2)."""
    work = [[Fraction(x) % 2 if kind == GF2 else Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][c] / work[rank][c]
            work[r] = [(a - f * b) % 2 if kind == GF2 else a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def gauss_jordan_pivot(kind, rows, i, j):
    """The pivot at (i, j) by one Gauss-Jordan step on plain lists: row i divided by its entry at
    column j, every other row k less its entry at column j times that row; mod 2 over GF(2)."""
    p = [Fraction(x) / Fraction(rows[i][j]) for x in rows[i]]
    out = [p if k == i else [Fraction(x) - row[j] * y for x, y in zip(row, p)] for k, row in enumerate(rows)]
    return [[int(x) % 2 for x in row] if kind == GF2 else row for row in out]


def naive_tu_verdict(a):
    """Enumerate every square submatrix, same order the checker promises.

    Returns None when TU, else the first (rows, cols, det) whose
    determinant leaves {-1, 0, 1}.
    """
    grid = [[Fraction(v) for v in a.row(i)] for i in range(a.n_rows)]
    for i in range(a.n_rows):
        for j in range(a.n_cols):
            if grid[i][j] not in (Fraction(-1), Fraction(0), Fraction(1)):
                return ((i,), (j,), grid[i][j])
    for k in range(2, min(a.n_rows, a.n_cols) + 1):
        for rs in combinations(range(a.n_rows), k):
            for cs in combinations(range(a.n_cols), k):
                det = cofactor_det([[grid[i][j] for j in cs] for i in rs])
                if det not in (Fraction(-1), Fraction(0), Fraction(1)):
                    return (rs, cs, det)
    return None


def find_tu_signing_bruteforce(u, *, max_nonzeros=DEFAULT_ORACLE_MAX_NONZEROS, force=False):
    """Reference search enumerating all 2^(#nonzeros) sign assignments."""
    if u.kind != GF2:
        raise ShapeError("the signing search takes a GF(2) matrix")
    edges = [(i, j) for i in range(u.n_rows) for j in range(u.n_cols) if u.rows[i][j]]
    if len(edges) > max_nonzeros and not force:
        raise SizeGuardError(
            f"brute-force signing over {len(edges)} nonzeros exceeds the guard "
            f"({max_nonzeros}); pass force=True to run anyway"
        )
    for bits in range(1 << len(edges)):
        rows = [[0] * u.n_cols for _ in range(u.n_rows)]
        for b, (i, j) in enumerate(edges):
            rows[i][j] = -1 if (bits >> b) & 1 else 1
        cand = ExactMatrix(RATIONAL, rows, n_cols=u.n_cols)
        if is_totally_unimodular(cand, force=force).is_tu:
            return cand
    return None


def naive_matroids_equal(m1, m2):
    """Compare independence of every subset of the ground set, one by one."""
    if set(m1.ground) != set(m2.ground):
        return False
    ground = sorted(m1.ground)
    return all(m1.indep(c) == m2.indep(c)
               for k in range(len(ground) + 1) for c in combinations(ground, k))


def fraction_scaled(b, n):
    """The integer rows ``b`` (n columns) scaled by Fractions so that every
    entry on a spanning forest of their support is +-1."""
    m = len(b)
    scale = [Fraction(1)] * (m + n)  # rows, then columns
    for p, c in spanning_forest(_support_graph(b)):
        i, j = (p, c - m) if c >= m else (c, p - m)
        scale[c] = 1 / abs(b[i][j] * scale[p])
    return [[v * scale[i] * scale[m + j] for j, v in enumerate(row)] for i, row in enumerate(b)]


def fraction_scales_to_tu(b, n, force):
    """Reference for ``matroid._scales_to_tu``: a rational TU check of
    ``fraction_scaled(b, n)``, a ``SizeGuardError`` counting as not TU."""
    try:
        return is_totally_unimodular(_exact(RATIONAL, fraction_scaled(b, n), n), force=force).is_tu
    except SizeGuardError:
        return False


def is_regular_witness(rep, m):
    """Check a claimed regularity witness: ``rep`` is a rational TU matrix
    whose column matroid is ``m``, by the naive TU and matroid oracles."""
    if rep.kind != RATIONAL:
        raise ShapeError("a regularity witness must be rational")
    return naive_tu_verdict(rep.body) is None and naive_matroids_equal(to_matroid(rep), m)


def random_tu_matrix(rng: random.Random, n_rows: int, n_cols: int) -> ExactMatrix:
    """A random TU matrix of the exact requested shape.

    Built from a digraph incidence matrix (TU by the classical result),
    cut down to shape, then scrambled by pivots on +-1 entries and by
    row/column sign flips, all of which preserve total unimodularity.
    """
    n_nodes = n_rows + 1 + rng.randrange(3)
    arcs = []
    for _ in range(n_cols):
        t = rng.randrange(n_nodes)
        h = rng.randrange(n_nodes - 1)
        if h >= t:
            h += 1
        arcs.append((t, h))
    a = incidence_matrix(n_nodes, arcs).submatrix(range(n_rows), range(n_cols))
    for _ in range(rng.randrange(3)):
        nz = [(i, j) for i in range(n_rows) for j in range(n_cols)
              if a[i, j] in (1, -1)]
        if not nz:
            break
        i, j = rng.choice(nz)
        a = a.pivot(i, j)
    row_signs = [rng.choice((1, -1)) for _ in range(n_rows)]
    col_signs = [rng.choice((1, -1)) for _ in range(n_cols)]
    return scale_rows_cols(a, row_signs, col_signs)


def random_network_matrix(rng: random.Random, n_nodes: int, n_arcs: int) -> ExactMatrix:
    """Network matrix of a random digraph at a random spanning tree.

    Node i > 0 hangs from a random earlier node by a tree arc of random
    direction, the row i - 1.  Each of ``n_arcs`` random arcs a -> b is a
    column: +1 on the tree arcs its tree path from a to b passes forwards,
    -1 on those it passes backwards.  Arcs may repeat or lie along a tree
    arc, so the checker's pre-pass sees copies and unit lines too.
    """
    parent = [0] + [rng.randrange(i) for i in range(1, n_nodes)]
    towards_parent = [0] + [rng.choice((1, -1)) for _ in range(1, n_nodes)]
    rows = [[0] * n_arcs for _ in range(n_nodes - 1)]
    for j in range(n_arcs):
        a, b = rng.sample(range(n_nodes), 2)
        up_a, up_b = [a], [b]  # each node's way to the root
        while up_a[-1]:
            up_a.append(parent[up_a[-1]])
        while up_b[-1]:
            up_b.append(parent[up_b[-1]])
        while len(up_a) > 1 and len(up_b) > 1 and up_a[-2] == up_b[-2]:
            up_a.pop()
            up_b.pop()
        for v in up_a[:-1]:  # climbed from a
            rows[v - 1][j] = towards_parent[v]
        for v in up_b[:-1]:  # descended to b
            rows[v - 1][j] = -towards_parent[v]
    return ExactMatrix(RATIONAL, rows, n_cols=n_arcs)


def support_gf2(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        GF2,
        [[0 if a[i, j] == 0 else 1 for j in range(a.n_cols)] for i in range(a.n_rows)],
        n_cols=a.n_cols,
    )


def support(rep: LabeledMatrix) -> LabeledMatrix:
    """The GF(2) matrix marking the nonzero entries of ``rep``, labeled like it."""
    return LabeledMatrix(rep.row_labels, rep.col_labels, support_gf2(rep.body))


def head_by_products(kind: str, cs, basis) -> tuple:
    """The weights ``cs`` times the basis rows, entry by entry as a plain sum of products from an
    exact zero, reduced mod 2 over GF(2): the oracle of ``sums._head``."""
    zero = Fraction(0) if kind == RATIONAL else 0
    out = [sum((c * b[j] for c, b in zip(cs, basis)), zero) for j in range(len(basis[0]))]
    return tuple(x % 2 for x in out) if kind == GF2 else tuple(out)


def random_regular_b(rng: random.Random, n_rows: int, n_cols: int) -> ExactMatrix:
    """A GF(2) matrix that has a TU signing, as the support of one."""
    return support_gf2(random_tu_matrix(rng, n_rows, n_cols))


def random_gf2_matrix(rng: random.Random, n_rows: int, n_cols: int,
                      density: float = 0.5) -> ExactMatrix:
    rows = [[1 if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)]
    return ExactMatrix(GF2, rows, n_cols=n_cols)


def random_rational_matrix(rng: random.Random, n_rows: int, n_cols: int) -> ExactMatrix:
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 2), Fraction(3)]
    rows = [[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)]
    return ExactMatrix(RATIONAL, rows, n_cols=n_cols)


def labels(prefix: str, n: int, start: int = 1):
    return [f"{prefix}{i}" for i in range(start, start + n)]


def make_repr(x, y, body: ExactMatrix) -> StandardRepr:
    return StandardRepr(LabeledMatrix(x, y, body))


def random_standard_repr(rng: random.Random, n_rows: int, n_cols: int,
                         x_start: int = 1, y_start: int = 1,
                         regular: bool = False) -> StandardRepr:
    body = (random_regular_b(rng, n_rows, n_cols) if regular
            else random_gf2_matrix(rng, n_rows, n_cols))
    return make_repr(labels("x", n_rows, x_start), labels("y", n_cols, y_start), body)


UNIT_D0S = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (1, 0)),
)

SUM3_LABELS = ("x0", "x1", "x2", "y0", "y1", "y2")


def _sum3_left_candidates(d0):
    """All regular left summands with one rest row/column and connector d0.

    Row order (xa, x2, x0, x1), column order (ya, y0, y1, y2); the free
    entries are the rest row, the x2/ya entry, and the d_left column.
    Only candidates with a nonzero rest row and nonzero d_left are kept.
    """
    from itertools import product as iproduct

    from tumat import find_tu_signing

    out = []
    for bits in iproduct((0, 1), repeat=6):
        a_ya, a_y0, a_y1, x2_ya, x0_ya, x1_ya = bits
        if not (a_ya or a_y0 or a_y1) or not (x0_ya or x1_ya):
            continue
        data = [
            [a_ya, a_y0, a_y1, 0],
            [x2_ya, 1, 1, 0],
            [x0_ya, d0[0][0], d0[0][1], 1],
            [x1_ya, d0[1][0], d0[1][1], 1],
        ]
        if find_tu_signing(ExactMatrix(GF2, data)) is not None:
            out.append(data)
    return out


def _sum3_right_candidates(d0):
    from itertools import product as iproduct

    from tumat import find_tu_signing

    out = []
    for bits in iproduct((0, 1), repeat=6):
        x0_yb, x1_yb, b_y0, b_y1, b_y2, b_yb = bits
        if not (b_y0 or b_y1) or not (b_y2 or b_yb):
            continue
        data = [
            [d0[0][0], d0[0][1], 1, x0_yb],
            [d0[1][0], d0[1][1], 1, x1_yb],
            [b_y0, b_y1, b_y2, b_yb],
            [1, 1, 0, 0],
        ]
        if find_tu_signing(ExactMatrix(GF2, data)) is not None:
            out.append(data)
    return out


def sum3_pair(left_data, right_data):
    from tumat import Sum3Labels

    left = make_repr(
        ["xa", "x2", "x0", "x1"], ["ya", "y0", "y1", "y2"],
        ExactMatrix(GF2, left_data),
    )
    right = make_repr(
        ["x0", "x1", "xb", "x2"], ["y0", "y1", "y2", "yb"],
        ExactMatrix(GF2, right_data),
    )
    return left, right, Sum3Labels(*SUM3_LABELS)


def sum3_corpus(per_unit: int = 2):
    """Valid 3-sum summand pairs with regular summands, per unit connector.

    Returns (left, right, labels, d0) tuples; every pair passes the
    standard_repr_sum_3 guards by construction.
    """
    out = []
    for d0 in UNIT_D0S:
        lefts = _sum3_left_candidates(d0)
        rights = _sum3_right_candidates(d0)
        for i in range(per_unit):
            left, right, lbls = sum3_pair(lefts[i], rights[i])
            out.append((left, right, lbls, d0))
    return out


def random_sum2_pair(rng: random.Random):
    """Two regular summands sharing exactly row x2 and column y2.

    The glue row of the left and glue column of the right are regenerated
    until nonzero, so the pair always forms a valid 2-sum.
    """
    while True:
        nl = rng.randrange(2, 4)
        ml = rng.randrange(2, 4)
        left = make_repr(
            labels("x", nl), labels("y", ml),
            random_regular_b(rng, nl, ml),
        )
        glue_x = left.X[-1]
        if any(left.B.body.row(left.B.row_position(glue_x))):
            break
    while True:
        nr = rng.randrange(2, 4)
        mr = rng.randrange(2, 4)
        right = make_repr(
            [glue_x] + labels("x", nr - 1, nl + 1),
            [left.Y[-1]] + labels("y", mr - 1, ml + 1),
            random_regular_b(rng, nr, mr),
        )
        glue_y = right.Y[0]
        if glue_y in left.Y and any(right.B.body.col(right.B.col_position(glue_y))):
            return left, right, glue_x, glue_y


def assert_exact(m: ExactMatrix) -> None:
    """Rows are tuples of the declared shape; entries are int 0/1 over GF(2), Fraction over Q."""
    assert type(m.rows) is tuple and len(m.rows) == m.n_rows
    for row in m.rows:
        assert type(row) is tuple and len(row) == m.n_cols
        for v in row:
            if m.kind == GF2:
                assert type(v) is int and v in (0, 1), (m, v)
            else:
                assert type(v) is Fraction, (m, v)


def _plain_reduce(kind, grid):
    return [[int(v) % 2 if kind == GF2 else Fraction(v) for v in row] for row in grid]


def _plain_product(kind, a, b, n_cols):
    """Textbook triple loop over plain lists; ``n_cols`` is the width of ``b``."""
    out = [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b))), Fraction(0))
             for j in range(n_cols)] for i in range(len(a))]
    return _plain_reduce(kind, out)


def _plain_blocks(kind, a_left, bottom_left, a_right, n_right):
    """[[a_left, 0], [bottom_left, a_right]] over plain lists."""
    zero = 0 if kind == GF2 else Fraction(0)
    rows = [list(row) + [zero] * n_right for row in a_left]
    rows += [list(bl) + list(ar) for bl, ar in zip(bottom_left, a_right)]
    return _plain_reduce(kind, rows)


def plain_matrix_sum_1(a_left: ExactMatrix, a_right: ExactMatrix):
    """Oracle for the 1-sum [[a_left, 0], [0, a_right]], as plain lists."""
    bottom_left = [[0] * a_left.n_cols for _ in range(a_right.n_rows)]
    return _plain_blocks(a_left.kind, a_left.to_lists(), bottom_left, a_right.to_lists(), a_right.n_cols)


def plain_matrix_sum_2(a_left: ExactMatrix, r, a_right: ExactMatrix, c):
    """Oracle for the 2-sum [[a_left, 0], [c * r, a_right]]: entry (i, j) of c * r is c[i] * r[j]."""
    kind = a_left.kind
    outer = _plain_product(kind, [[v] for v in c], [list(r)], len(r))
    return _plain_blocks(kind, a_left.to_lists(), outer, a_right.to_lists(), a_right.n_cols)


def random_valid_sum3_pair(rng: random.Random, d0, max_rest: int = 4):
    """Two GF(2) summands that form a valid 3-sum at ``SUM3_LABELS`` with connector ``d0``.

    Each side has 0 to ``max_rest`` rest rows and columns besides the glue
    labels, which sit at random positions; every guard of the 3-sum holds.
    """
    x0, x1, x2, y0, y1, y2 = SUM3_LABELS
    sides = []
    for row_prefix, col_prefix in (("a", "b"), ("c", "d")):
        xs = labels(row_prefix, rng.randint(0, max_rest))
        ys = labels(col_prefix, rng.randint(0, max_rest))
        for glue, names in (((x0, x1, x2), xs), ((y0, y1, y2), ys)):
            for g in glue:
                names.insert(rng.randrange(len(names) + 1), g)
        grid = [[rng.randint(0, 1) for _ in ys] for _ in xs]
        at = {(u, v): (i, j) for i, u in enumerate(xs) for j, v in enumerate(ys)}
        for a, u in enumerate((x0, x1)):
            for b, v in enumerate((y0, y1)):
                i, j = at[u, v]
                grid[i][j] = d0[a][b]
        for u, v in ((x0, y2), (x1, y2), (x2, y0), (x2, y1)):
            i, j = at[u, v]
            grid[i][j] = 1
        sides.append((xs, ys, grid))
    (lx, ly, lg), (rx, ry, rg) = sides
    for i, u in enumerate(lx):
        if u not in (x0, x1):
            lg[i][ly.index(y2)] = 0
    for j, v in enumerate(ry):
        if v not in (y0, y1):
            rg[rx.index(x2)][j] = 0
    return tuple(make_repr(xs, ys, ExactMatrix(GF2, grid, n_cols=len(ys))) for xs, ys, grid in sides)


def plain_parse_grid(kind, value, n_rows: int, n_cols: int) -> ExactMatrix:
    """The document grid decoded entry by entry, each new string parsed once: the reference for ``_parse_grid``."""
    if not isinstance(value, list) or len(value) != n_rows:
        raise DocumentError(f"data must be a list of {n_rows} rows")
    decoded = {}
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != n_cols:
            raise DocumentError(f"each data row must be a list of {n_cols} entries")
        values = []
        for s in row:
            v = decoded.get(s) if type(s) is str else None
            if v is None:
                v = decoded[s] = _parse_entry(kind, s)
            values.append(v)
        rows.append(values)
    return _exact(kind, rows, n_cols)
