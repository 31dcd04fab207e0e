"""Seeded request corpora for the four workloads.

Every input is built so that its correct answer is known from the
construction alone (TU or not and where the witness sits, regular or
with a Fano minor, valid sum or the name of the guard it fails).  Each
request carries an ``expect`` function that checks tumat's exit code,
stdout and stderr against that answer with the oracles in
``oracles.py``; it returns None when the output is correct and a short
reason otherwise.

A corpus is a fixed list of slots.  The mix of categories and shapes is
the same for every seed; the seed only draws the matrices, labels and
orientations, so costs per slot stay comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from oracles import (
    components,
    det_fraction,
    free_signs,
    gf2_columns,
    gf2_rank,
    is_tu,
    sum_labels_and_body,
)

Check = Callable[[int, str, str], Optional[str]]


@dataclass
class Request:
    tag: str
    args: list[str]
    docs: list[str]
    expect: Check
    props: dict = field(default_factory=dict)


# ---------------------------------------------------------------- documents


def matrix_doc(field_name, rows, cols, grid) -> str:
    data = [[str(v) for v in row] for row in grid]
    return json.dumps({"field": field_name, "rows": rows, "cols": cols, "data": data}, indent=2) + "\n"


def repr_doc(xs, ys, grid) -> str:
    data = [[str(v) for v in row] for row in grid]
    return json.dumps({"field": "gf2", "X": xs, "Y": ys, "B": data}, indent=2) + "\n"


def names(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


# ------------------------------------------------------------ expectations


def exact(code, out, err="") -> Check:
    def check(c, o, e):
        if (c, o, e) != (code, out, err):
            return f"expected exit {code} {out!r}, got exit {c} {o!r} {e[:80]!r}"
        return None

    return check


def invalid_sum(k, reason) -> Check:
    def check(c, o, e):
        if c != 1 or o or not e.startswith(f"invalid {k}-sum [{reason}]: "):
            return f"expected Invalid [{reason}], got exit {c} {e[:80]!r}"
        return None

    return check


def not_tu(rows, cols, grid, wr, wc) -> Check:
    """The witness is known from the construction; its det is recomputed here."""
    d = det_fraction([[grid[i][j] for j in wc] for i in wr])
    if d in (-1, 0, 1):
        raise AssertionError("planted witness is not a witness")
    line = (
        "not TU: rows [" + ", ".join(rows[i] for i in wr) + "] cols ["
        + ", ".join(cols[j] for j in wc) + f"] det {d}\n"
    )
    return exact(1, line)


def tu_signing(rows, cols, support) -> Check:
    def check(c, o, e):
        if c != 0 or e:
            return f"expected a signing, got exit {c} {e[:80]!r}"
        doc = json.loads(o)
        if doc.get("field") != "rational" or doc.get("rows") != rows or doc.get("cols") != cols:
            return "signing document has the wrong field or labels"
        grid = [[Fraction(v) for v in row] for row in doc["data"]]
        if [[abs(v) for v in row] for row in grid] != support:
            return "signing does not have the input's support"
        if not is_tu([[int(v) for v in row] for row in grid]):
            return "signing is not totally unimodular"
        return None

    return check


def sum_document(k, left, right, glue) -> Check:
    xs, ys, body = sum_labels_and_body(k, left, right, glue)

    def check(c, o, e):
        if c != 0 or e:
            return f"expected a sum document, got exit {c} {e[:80]!r}"
        doc = json.loads(o)
        if doc.get("field") != "gf2" or doc.get("X") != xs or doc.get("Y") != ys:
            return "sum document has the wrong field or labels"
        if [[int(v) for v in row] for row in doc["B"]] != body:
            return "sum document has the wrong blocks"
        return None

    return check


def matroid_info(xs, ys, grid) -> Check:
    full = [[int(i == r) for i in range(len(xs))] + row for r, row in enumerate(grid)]
    ground = list(xs) + list(ys)
    vec = dict(zip(ground, gf2_columns(full)))
    rank = gf2_rank(vec.values())
    bases = [c for c in combinations(sorted(ground), rank) if gf2_rank(vec[g] for g in c) == rank]
    text = f"elements: {len(ground)}\nrank: {rank}\nbases: {len(bases)}\n"
    if len(bases) <= 50:
        text += "".join("  " + " ".join(b) + "\n" for b in bases)
    return exact(0, text)


# ------------------------------------------------------------- generators


def incidence(n_nodes, arcs):
    grid = [[0] * len(arcs) for _ in range(n_nodes)]
    for j, (t, h) in enumerate(arcs):
        grid[t][j], grid[h][j] = 1, -1
    return grid


def pivot(grid, i, j):
    """Gaussian pivot on a +-1 entry; keeps a TU matrix TU and integral."""
    p = grid[i][j]
    base = [v * p for v in grid[i]]
    out = []
    for k, row in enumerate(grid):
        f = row[j]
        out.append(base if k == i else [a - f * b for a, b in zip(row, base)] if f else list(row))
    return out


def flip_signs(rng, grid):
    rs = [rng.choice((1, -1)) for _ in grid]
    cs = [rng.choice((1, -1)) for _ in grid[0]]
    return [[v * r * c for v, c in zip(row, cs)] for row, r in zip(grid, rs)]


def random_tu(rng, m, n):
    """Incidence matrix of a random digraph on m nodes, pivoted twice, then sign-flipped.

    A fixed number of pivots keeps the density, and so the cost of a TU
    check, about the same from one draw to the next.
    """
    arcs = []
    for _ in range(n):
        t = rng.randrange(m)
        h = rng.randrange(m - 1)
        arcs.append((t, h + (h >= t)))
    grid = incidence(m, arcs)
    for _ in range(2):
        nz = [(i, j) for i in range(m) for j in range(n) if grid[i][j]]
        grid = pivot(grid, *rng.choice(nz))
    return flip_signs(rng, grid)


def complete_incidence(rng, n):
    arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(arcs)
    return flip_signs(rng, incidence(n, arcs))


def block_diag(a, b):
    na, nb = len(a[0]), len(b[0])
    return [row + [0] * nb for row in a] + [[0] * na + row for row in b]


def cycle_witness(k):
    """A k x k matrix whose proper minors lie in {0, +-1} and whose det is +-2."""
    if k == 2:
        return [[1, 1], [1, -1]]
    grid = [[int(j in (i, i + 1)) for j in range(k)] for i in range(k)]
    grid[k - 1][0] = (-1) ** (k + 1)
    return grid


def support(grid):
    return [[int(v != 0) for v in row] for row in grid]


def network_matrix(n, parent):
    """Network matrix of K_n (arcs a->b for a < b) at the spanning tree given by parent links.

    Rows are tree arcs (child, parent), columns the other arcs; an entry
    is +1 or -1 when the tree arc is passed forwards or backwards on the
    tree path of the column arc.
    """
    tree = sorted(parent.items())
    tree_set = {frozenset(e) for e in tree}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if frozenset((a, b)) not in tree_set]

    def to_root(v):
        path = [v]
        while v in parent:
            v = parent[v]
            path.append(v)
        return path

    grid = [[0] * len(others) for _ in tree]
    for j, (a, b) in enumerate(others):
        pa, pb = to_root(a), to_root(b)
        while len(pa) > 1 and len(pb) > 1 and pa[-2] == pb[-2]:
            pa.pop()
            pb.pop()
        # a climbs to the meeting vertex along stored (child, parent) arcs, b's side is walked down
        for u, w in zip(pa, pa[1:]):
            grid[tree.index((u, w))][j] = 1
        for u, w in zip(pb, pb[1:]):
            grid[tree.index((u, w))][j] = -1
    return grid


def tree_representation(rng, n, max_free):
    """GF(2) standard representation of M(K_n) at a random spanning tree.

    The support of the network matrix, with its rows and columns in a
    random order.  Trees whose matrix has more than ``max_free`` free
    signs are redrawn.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        parent = {order[i]: order[rng.randrange(i)] for i in range(1, n)}
        grid = support(network_matrix(n, parent))
        rng.shuffle(grid)
        cols = list(range(len(grid[0])))
        rng.shuffle(cols)
        grid = [[row[j] for j in cols] for row in grid]
        if free_signs(grid) <= max_free:
            return grid


R10 = [[1, 1, 0, 0, 1], [1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1], [1, 0, 0, 1, 1]]
FANO = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]
FANO_COLUMNS = [[(v >> i) & 1 for v in range(1, 8)] for i in range(3)]

# Regular 3-sum summand pairs, one per invertible 2x2 connector D0 over
# GF(2).  Left rows xa x2 x0 x1, columns ya y0 y1 y2; right rows
# x0 x1 xb x2, columns y0 y1 y2 yb.  Regularity is re-proved by the
# benchmark's self-test with its own brute-force signing search.
SUM3_BASE = {
    "0110": (["0010", "0110", "0011", "1101"], ["0110", "1010", "0101", "1100"]),
    "0111": (["0010", "0110", "0011", "1111"], ["0110", "1110", "0101", "1100"]),
    "1001": (["0010", "0110", "0101", "1011"], ["1010", "0110", "0101", "1100"]),
    "1011": (["0010", "0110", "0101", "1111"], ["1010", "1110", "0101", "1100"]),
    "1101": (["0010", "0110", "0111", "1011"], ["1110", "0110", "0101", "1100"]),
    "1110": (["0010", "0110", "0111", "1101"], ["1110", "1010", "0101", "1100"]),
}
SUM3_GLUE = ("x0", "x1", "x2", "y0", "y1", "y2")
SUM3_ARGS = [arg for name in SUM3_GLUE for arg in (f"--{name}", name)]


def bits(rows):
    return [[int(c) for c in r] for r in rows]


def sum3_base_pair(d0):
    left_rows, right_rows = SUM3_BASE[d0]
    left = (["xa", "x2", "x0", "x1"], ["ya", "y0", "y1", "y2"], bits(left_rows))
    right = (["x0", "x1", "xb", "x2"], ["y0", "y1", "y2", "yb"], bits(right_rows))
    return left, right


def grow_summand(rng, summand, side, n_rows, n_cols, tag):
    """Add rows and columns that keep the summand regular and its glue guards.

    Each new row or column copies a non-glue one (a series or parallel
    element) or holds a single 1.  The left side never touches column
    y2 and the right side never touches row x2.
    """
    xs, ys, grid = list(summand[0]), list(summand[1]), [list(r) for r in summand[2]]
    glue = set(SUM3_GLUE)
    for step in range(n_rows):
        xs.append(f"x{tag}{step}")
        if rng.random() < 0.5:
            grid.append(list(grid[rng.choice([i for i, u in enumerate(xs[:-1]) if u not in glue])]))
        else:
            at = rng.choice([j for j, v in enumerate(ys) if not (side == "left" and v == "y2")])
            grid.append([int(j == at) for j in range(len(ys))])
    for step in range(n_cols):
        ys.append(f"y{tag}{step}")
        if rng.random() < 0.5:
            src = rng.choice([j for j, v in enumerate(ys[:-1]) if v not in glue])
            for row in grid:
                row.append(row[src])
        else:
            at = rng.choice([i for i, u in enumerate(xs) if not (side == "right" and u == "x2")])
            for i, row in enumerate(grid):
                row.append(int(i == at))
    return xs, ys, grid


# --------------------------------------------------------------- workloads


def tu_check_corpus(rng):
    """`tu check` on rational documents; the exhaustive loop dominates.

    Twenty slots a round.  The cheap refusals, the 6x8, K5 and 1-sum
    checks fill the lower 40%, seven 7x9 TU matrices (40-75%) hold the
    median, the order-4 witnesses follow, and two 8x10 checks (85-95%)
    hold the 90th percentile below the K6 check.
    """
    reqs = []

    def add(tag, grid, witness=None):
        m, n = len(grid), len(grid[0])
        rows, cols = names("r", m), names("c", n)
        expect = exact(0, "TU\n") if witness is None else not_tu(rows, cols, grid, *witness)
        reqs.append(Request(
            tag, ["tu", "check"], [matrix_doc("rational", rows, cols, grid)], expect,
            {"one_sum_decomposable": components(grid) > 1,
             "witness_order": len(witness[0]) if witness else None},
        ))

    for m, n in ((6, 8),) + ((7, 9),) * 7 + ((8, 10),) * 2:
        add(f"tu {m}x{n}", random_tu(rng, m, n))
    add("K5 incidence", complete_incidence(rng, 5))
    add("K6 incidence", complete_incidence(rng, 6))
    add("tu 3x4+3x4", block_diag(random_tu(rng, 3, 4), random_tu(rng, 3, 4)))
    for k, (m, n) in ((2, (5, 7)), (2, (5, 7)), (3, (4, 6)), (4, (4, 6)), (4, (4, 6))):
        grid = flip_signs(rng, block_diag(random_tu(rng, m, n), cycle_witness(k)))
        add(f"not TU order {k}", grid, (list(range(m, m + k)), list(range(n, n + k))))
    for _ in range(2):
        grid = random_tu(rng, 7, 9)
        i, j = rng.randrange(7), rng.randrange(9)
        grid[i][j] = rng.choice((2, -2, 3))
        add("entry outside", grid, ([i], [j]))
    return reqs


def fano_sum(rng, k, n, target):
    """A k-sum (k = 1 or 2) of the Fano block with the graphic block of K_n, with ``target`` free signs.

    Fano is a minor of either sum, so no TU signing exists and the
    current search tries all 2^target candidates.  The graphic block is
    the representation of K_n at a random spanning tree; trees are
    redrawn until the sum has the target number of free signs, so every
    seed gives the same shape and the same candidate count.
    """
    while True:
        block = tree_representation(rng, n, 99)
        if k == 1:
            grid = block_diag(FANO, block)
        else:
            r = FANO[rng.randrange(3)]
            top = [row + [0] * (len(block[0]) - 1) for row in FANO if row is not r]
            grid = top + [[row[0] * rj for rj in r] + row[1:] for row in block]
        if free_signs(grid) == target:
            return grid


def signing_corpus(rng):
    """`tu sign` and `regular check` on GF(2) documents; 2^f candidates at worst.

    Non-regular inputs have a fixed shape and number of free signs, so
    their cost is the same for every seed: five at 2^6 hold the median,
    three at 2^10 hold the 90th percentile and one at 2^12 shows the
    cliff.
    Spanning trees of K6 are kept to at most 10 free signs, because a
    regular input's cost depends on where its one TU signing falls in
    the enumeration and the spread grows with 2^f.
    """
    reqs = []

    def add(tag, grid, regular):
        m, n = len(grid), len(grid[0])
        rows, cols = names("x", m), names("y", n)
        props = {"free_signs": free_signs(grid), "regular": regular}
        if len(reqs) % 2 == 0:
            expect = tu_signing(rows, cols, grid) if regular else exact(1, "", "no TU signing\n")
            reqs.append(Request(tag, ["tu", "sign"], [matrix_doc("gf2", rows, cols, grid)], expect, props))
        else:
            expect = exact(0, "regular\n") if regular else exact(1, "not regular\n")
            reqs.append(Request(tag, ["regular", "check"], [repr_doc(rows, cols, grid)], expect, props))

    def permuted(grid):
        rs, cs = list(range(len(grid))), list(range(len(grid[0])))
        rng.shuffle(rs)
        rng.shuffle(cs)
        return [[grid[i][j] for j in cs] for i in rs]

    for n, max_free in ((5, 13), (6, 10)):
        add(f"K{n} graphic", tree_representation(rng, n, max_free), True)
        add(f"K{n} cographic", [list(c) for c in zip(*tree_representation(rng, n, max_free))], True)
    add("R10", permuted(R10), True)
    add("R10", permuted(R10), True)
    for m, n in ((4, 6), (5, 6), (5, 7)):
        add(f"regular {m}x{n}", support(random_tu(rng, m, n)), True)
    for k, n, f in ((2, 4, 6),) * 5 + ((1, 5, 8),) + ((2, 5, 10),) * 3 + ((2, 5, 12),):
        add(f"Fano {k}-sum f={f}", permuted(fano_sum(rng, k, n, f)), False)
    return reqs


def compose_verify_corpus(rng):
    """`verify composition`, `matroid eq` and `matroid info`; 2^n equality dominates.

    Twenty-one slots a round.  Requests on 10 elements hold the median;
    the 90th percentile falls inside the two 14-element 3-sums, not at
    the edge of a group of slots; the 16-element 3-sum is the single
    most expensive request.  Sum shapes are fixed per slot,
    so the witness TU check costs the same for every seed.
    """
    reqs = []

    def verify(k, glue_args, left, right, expect, tag=None):
        n = len(left[0]) + len(left[1]) + len(right[0]) + len(right[1]) - {1: 0, 2: 2, 3: 6}[k]
        reqs.append(Request(
            tag or f"verify k={k} {n}", ["verify", "composition", "-k", str(k)] + glue_args,
            [repr_doc(*left), repr_doc(*right)], expect, {"k": k, "elements": n},
        ))

    def regular_summand(m, n, xs, ys):
        return xs, ys, support(random_tu(rng, m, n))

    def sum2_pair(a, b, c, d):
        while True:
            left = regular_summand(a, b, names("p", a - 1) + ["g"], names("q", b - 1) + ["h"])
            right = regular_summand(c, d, ["g"] + names("s", c - 1), ["h"] + names("t", d - 1))
            if any(left[2][-1]) and any(row[0] for row in right[2]):
                return left, right

    for (a, b), (c, d) in (((2, 3), (2, 3)), ((3, 3), (3, 3)), ((3, 4), (3, 4))):
        left = regular_summand(a, b, names("p", a), names("q", b))
        right = regular_summand(c, d, names("s", c), names("t", d))
        verify(1, [], left, right, exact(0, "verified 1-sum composition: regular\n"))
    for sizes in ((3, 3, 3, 3), (3, 4, 4, 3), (4, 4, 4, 4)):
        left, right = sum2_pair(*sizes)
        verify(2, ["--x", "g", "--y", "h"], left, right, exact(0, "verified 2-sum composition: regular\n"))
    for extra in (0, 2, 4, 4, 6):
        left, right = sum3_base_pair(rng.choice(sorted(SUM3_BASE)))
        rows_left, cols_left = rng.randrange(extra // 2 + 1), rng.randrange(extra // 2 + 1)
        left = grow_summand(rng, left, "left", rows_left, cols_left, "l")
        right = grow_summand(rng, right, "right", extra // 2 - rows_left, extra // 2 - cols_left, "r")
        verify(3, SUM3_ARGS, left, right, exact(0, "verified 3-sum composition: regular\n"))
    left, right = sum2_pair(3, 3, 3, 3)
    left[2][-1] = [0] * len(left[2][-1])
    verify(2, ["--x", "g", "--y", "h"], left, right, invalid_sum(2, "zero-row-r"), "invalid k=2")
    d0_left, d0_right = rng.sample(sorted(SUM3_BASE), 2)
    verify(3, SUM3_ARGS, sum3_base_pair(d0_left)[0], sum3_base_pair(d0_right)[1],
           invalid_sum(3, "d0-mismatch"), "invalid k=3")

    for m, n in ((4, 10), (4, 10), (4, 10), (5, 12)):
        grid = random_tu(rng, m, n)
        rows, cols = names("r", m), names("e", n)
        reqs.append(Request(
            f"eq TU/Q vs GF(2) {n}", ["matroid", "eq"],
            [matrix_doc("rational", rows, cols, grid), matrix_doc("gf2", rows, cols, support(grid))],
            exact(0, "equal\n"), {"k": None, "elements": n},
        ))
    rows, cols = ["r1", "r2", "r3"], names("e", 7)
    reqs.append(Request(
        "eq Fano Q vs GF(2)", ["matroid", "eq"],
        [matrix_doc("rational", rows, cols, FANO_COLUMNS), matrix_doc("gf2", rows, cols, FANO_COLUMNS)],
        exact(1, "not equal\n"), {"k": None, "elements": 7},
    ))
    for m, n in ((3, 5), (5, 5), (5, 7)):
        xs, ys = names("x", m), names("y", n)
        grid = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(m)]
        reqs.append(Request(
            f"info {m + n}", ["matroid", "info"], [repr_doc(xs, ys, grid)],
            matroid_info(xs, ys, grid), {"k": None, "elements": m + n},
        ))
    return reqs


def doc_sum_corpus(rng):
    """`sum -k` on 20-40 sized GF(2) summands and `tu check` refusals; no exponential work."""
    reqs = []

    def place(rest, glue):
        labels = list(rest)
        for g in glue:
            labels.insert(rng.randrange(len(labels) + 1), g)
        return labels

    def add_sum(tag, k, glue_args, left, right, expect):
        docs = [repr_doc(*left), repr_doc(*right)]
        reqs.append(Request(tag, ["sum", "-k", str(k)] + glue_args, docs, expect,
                            {"bytes": sum(len(d.encode()) for d in docs)}))

    def summand(xs, ys):
        return xs, ys, [[int(rng.random() < 0.5) for _ in ys] for _ in xs]

    for size in (20, 30, 40):
        left = summand(names("a", size), names("b", size))
        right = summand(names("c", size), names("d", size))
        add_sum(f"sum k=1 {size}", 1, [], left, right, sum_document(1, left, right, ()))
    for size in (20, 30, 40):
        while True:
            left = summand(place(names("a", size - 1), ["g"]), place(names("b", size - 1), ["h"]))
            right = summand(place(names("c", size - 1), ["g"]), place(names("d", size - 1), ["h"]))
            if any(left[2][left[0].index("g")]) and any(r[right[1].index("h")] for r in right[2]):
                break
        add_sum(f"sum k=2 {size}", 2, ["--x", "g", "--y", "h"], left, right,
                sum_document(2, left, right, ("g", "h")))

    x0, x1, x2, y0, y1, y2 = SUM3_GLUE

    def sum3_pair(size, d0):
        left = summand(place(names("a", size - 3), [x0, x1, x2]), place(names("b", size - 3), [y0, y1, y2]))
        right = summand(place(names("c", size - 3), [x0, x1, x2]), place(names("d", size - 3), [y0, y1, y2]))
        for xs, ys, grid in (left, right):
            at = {(u, v): (xs.index(u), ys.index(v)) for u in xs for v in ys}
            for (u, v), val in zip([(x0, y0), (x0, y1), (x1, y0), (x1, y1)], d0):
                i, j = at[(u, v)]
                grid[i][j] = val
            for u, v in ((x0, y2), (x1, y2), (x2, y0), (x2, y1)):
                i, j = at[(u, v)]
                grid[i][j] = 1
        lx, ly, lg = left
        for i, u in enumerate(lx):
            if u not in (x0, x1):
                lg[i][ly.index(y2)] = 0
        rx, ry, rg = right
        for j, v in enumerate(ry):
            if v not in (y0, y1):
                rg[rx.index(x2)][j] = 0
        return left, right

    for size in (20, 30, 40):
        left, right = sum3_pair(size, bits([rng.choice(sorted(SUM3_BASE))])[0])
        add_sum(f"sum k=3 {size}", 3, SUM3_ARGS, left, right, sum_document(3, left, right, SUM3_GLUE))

    left = summand(names("a", 25), names("b", 25))
    right = summand(["a3"] + names("c", 24), names("d", 25))
    add_sum("invalid k=1", 1, [], left, right, invalid_sum(1, "x-overlap"))
    left, right = sum3_pair(30, [1, 0, 0, 1])
    right[2][right[0].index(x0)][right[1].index(y0)] = 0
    right[2][right[0].index(x0)][right[1].index(y1)] = 1
    add_sum("invalid k=3 d0", 3, SUM3_ARGS, left, right, invalid_sum(3, "d0-mismatch"))
    left, right = sum3_pair(30, [1, 1, 0, 1])
    rest = [i for i, u in enumerate(left[0]) if u not in (x0, x1)]
    left[2][rng.choice(rest)][left[1].index(y2)] = 1
    add_sum("invalid k=3 outside", 3, SUM3_ARGS, left, right, invalid_sum(3, "nonzero-outside"))

    for size in (30, 40):
        grid = [[rng.choice((0, 1, -1)) for _ in range(size)] for _ in range(size)]
        grid[0][0] = rng.choice((2, -3, Fraction(1, 2)))
        rows, cols = names("r", size), names("c", size)
        doc = matrix_doc("rational", rows, cols, grid)
        reqs.append(Request(f"tu check {size}x{size} refused", ["tu", "check"], [doc],
                            not_tu(rows, cols, grid, [0], [0]), {"bytes": len(doc.encode())}))
    return reqs


WORKLOADS = {
    "tu-check": tu_check_corpus,
    "signing": signing_corpus,
    "compose-verify": compose_verify_corpus,
    "doc-sum": doc_sum_corpus,
}


def build(workload: str, seed: int, round_index: int) -> list[Request]:
    """One round of requests, in a seeded order; the same arguments give the same round."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs
