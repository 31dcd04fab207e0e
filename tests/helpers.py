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
from tumat.tu import DEFAULT_TU_LIMIT

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


def find_tu_signing_bruteforce(u, *, tu_limit=DEFAULT_TU_LIMIT,
                               max_nonzeros=DEFAULT_ORACLE_MAX_NONZEROS, force=False):
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
        if is_totally_unimodular(cand, limit=tu_limit, force=force).is_tu:
            return cand
    return None


def naive_matroids_equal(m1, m2):
    """Compare independence of every subset of the ground set, one by one."""
    if set(m1.ground) != set(m2.ground):
        return False
    ground = sorted(m1.ground)
    return all(m1.indep(c) == m2.indep(c)
               for k in range(len(ground) + 1) for c in combinations(ground, k))


def is_regular_witness(rep, m):
    """Check a claimed regularity witness: ``rep`` is a rational TU matrix
    whose column matroid is ``m``, by the naive TU and matroid oracles."""
    if rep.kind != RATIONAL:
        raise ShapeError("a regularity witness must be rational")
    return naive_tu_verdict(rep.body) is None and naive_matroids_equal(to_matroid(rep), m)


def incidence(n_nodes, arcs):
    rows = [[0] * len(arcs) for _ in range(n_nodes)]
    for j, (t, h) in enumerate(arcs):
        rows[t][j] = 1
        rows[h][j] = -1
    return ExactMatrix(RATIONAL, rows, n_cols=len(arcs))


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
    a = incidence(n_nodes, arcs).submatrix(range(n_rows), range(n_cols))
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


def support_gf2(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        GF2,
        [[0 if a[i, j] == 0 else 1 for j in range(a.n_cols)] for i in range(a.n_rows)],
        n_cols=a.n_cols,
    )


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
    return StandardRepr(x, y, LabeledMatrix(x, y, body))


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


def _plain_inverse_2x2(kind, d):
    """The adjugate over the determinant; mod 2, the adjugate itself."""
    (a, b), (c, e) = [[Fraction(v) for v in row] for row in d]
    det = a * e - b * c
    assert det % 2 if kind == GF2 else det, "singular connector"
    adj = [[e, -b], [-c, a]]
    return _plain_reduce(kind, adj if kind == GF2 else [[v / det for v in row] for row in adj])


def _plain_blocks(kind, a_left, bottom_left, a_right, n_right):
    """[[a_left, 0], [bottom_left, a_right]] over plain lists."""
    zero = 0 if kind == GF2 else Fraction(0)
    rows = [list(row) + [zero] * n_right for row in a_left]
    rows += [list(bl) + list(ar) for bl, ar in zip(bottom_left, a_right)]
    return _plain_reduce(kind, rows)


def plain_matrix_sum_1(a_left: ExactMatrix, a_right: ExactMatrix):
    """Oracle for ``matrix_sum_1``: the block-diagonal join, as plain lists."""
    bottom_left = [[0] * a_left.n_cols for _ in range(a_right.n_rows)]
    return _plain_blocks(a_left.kind, a_left.to_lists(), bottom_left, a_right.to_lists(), a_right.n_cols)


def plain_matrix_sum_2(a_left: ExactMatrix, r, a_right: ExactMatrix, c):
    """Oracle for ``matrix_sum_2``: bottom-left entry (i, j) is c[i] * r[j]."""
    kind = a_left.kind
    outer = _plain_product(kind, [[v] for v in c], [list(r)], len(r))
    return _plain_blocks(kind, a_left.to_lists(), outer, a_right.to_lists(), a_right.n_cols)


def plain_matrix_sum_3(blocks):
    """Oracle for ``matrix_sum_3``: bottom-left block [[Dl, D0], [Dr * D0^-1 * Dl, Dr]]."""
    kind = blocks.a_left.kind
    d_left, d0, d_right = blocks.d_left.to_lists(), blocks.d0_left.to_lists(), blocks.d_right.to_lists()
    n = blocks.d_left.n_cols
    dlr = _plain_product(kind, _plain_product(kind, d_right, _plain_inverse_2x2(kind, d0), 2), d_left, n)
    bottom_left = [dl + dz for dl, dz in zip(d_left + dlr, d0 + d_right)]
    return _plain_blocks(kind, blocks.a_left.to_lists(), bottom_left, blocks.a_right.to_lists(),
                         blocks.a_right.n_cols)


def plain_sum_3_entries(b_left: LabeledMatrix, b_right: LabeledMatrix, blocks, cut) -> dict:
    """Oracle for a labeled 3-sum: (row label, column label) -> entry of ``plain_matrix_sum_3``.

    ``blocks`` are the six blocks cut from the summands at ``cut``; the
    block rows are the left rest rows, x2, x0, x1, then the right rest
    rows, and the block columns the left rest columns, y0, y1, y2, then
    the right rest columns.
    """
    xs, ys = cut[:3], cut[3:]
    rows = [u for u in b_left.row_labels if u not in xs] + [xs[2], xs[0], xs[1]]
    rows += [u for u in b_right.row_labels if u not in xs]
    cols = [v for v in b_left.col_labels if v not in ys] + list(ys)
    cols += [v for v in b_right.col_labels if v not in ys]
    grid = plain_matrix_sum_3(blocks)
    return {(u, v): grid[i][j] for i, u in enumerate(rows) for j, v in enumerate(cols)}


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
