import pathlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from tumat import (
    FORM_IDENTITY,
    FORM_UPPER_TRIANGULAR,
    GF2,
    RATIONAL,
    REASON_D0_MISMATCH,
    REASON_D0_SINGULAR,
    REASON_LABELS_NOT_DISTINCT,
    REASON_MISSING_ONE,
    REASON_NONZERO_OUTSIDE,
    REASON_X_OVERLAP,
    REASON_Y_OVERLAP,
    REASON_ZERO_COL,
    REASON_ZERO_ROW,
    ExactMatrix,
    LabeledMatrix,
    ShapeError,
    Sum3Labels,
    canonical_signing_sum3,
    certifies_sum,
    compose,
    disjoint_sum,
    find_tu_signing,
    is_regular,
    is_totally_unimodular,
    is_tu_signing_of,
    is_unit_2x2,
    sign_composition,
    sign_sum_1,
    sign_sum_2,
    standard_repr_sum_1,
    standard_repr_sum_2,
    standard_repr_sum_3,
    verify_is_sum_k_of,
)
from tumat import parse_standard_repr_document, sums as sums_module, tu as tu_module
from tumat.exactmat import _SIGNS, _exact
from tumat.sums import _SIGNED, _SIGNED_CONNECTORS, _UNITS, _assemble, _cut, _head, _reads, _stacked, _sum_of
from tumat.tu import _line_scales

from helpers import (
    SUM3_LABELS,
    UNIT_D0S,
    assert_exact,
    head_by_products,
    labels,
    make_repr,
    naive_matroids_equal,
    plain_matrix_sum_1,
    plain_matrix_sum_2,
    random_gf2_matrix,
    random_rational_matrix,
    random_standard_repr,
    random_sum2_pair,
    random_valid_sum3_pair,
    scale_rows_cols,
    sum3_corpus,
    sum3_pair,
)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
FIXTURES = PERFBENCH.parent / "fixtures"

GLUE = Sum3Labels("x0", "x1", "x2", "y0", "y1", "y2")

# a worked identity-connector pair, checked against the block picture by hand
LEFT3 = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
RIGHT3 = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 0]]
SUM3_B = [
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 1, 1, 0, 1],
]


def identity_pair(left_data=LEFT3, right_data=RIGHT3):
    return sum3_pair([row[:] for row in left_data], [row[:] for row in right_data])


def test_matrix_sum_1():
    a = make_repr(["r1", "r2"], ["c1", "c2"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    b = make_repr(["r3"], ["c3"], ExactMatrix(GF2, [[1]]))
    assert compose(a, b, None).result.B.body.to_lists() == [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    with pytest.raises(ShapeError):
        sign_sum_1(ExactMatrix(RATIONAL, [[1, 0], [1, 1]]), ExactMatrix(GF2, [[1]]))


def test_matrix_sum_2():
    out = sign_sum_2(
        ExactMatrix(RATIONAL, [[1]]), [1], ExactMatrix(RATIONAL, [[1]]), [1]
    )
    assert out.to_lists() == [[1, 0], [1, 1]]
    out = sign_sum_2(
        ExactMatrix(RATIONAL, [[1, -1]]), [1, 0],
        ExactMatrix(RATIONAL, [[1], [0]]), [1, -1],
    )
    assert out.to_lists() == [[1, -1, 0], [1, 0, 1], [-1, 0, 0]]
    with pytest.raises(ShapeError, match="r must have one entry per a_left column"):
        sign_sum_2(ExactMatrix(RATIONAL, [[1]]), [1, 1], ExactMatrix(RATIONAL, [[1]]), [1])
    with pytest.raises(ShapeError, match="c must have one entry per a_right row"):
        sign_sum_2(ExactMatrix(RATIONAL, [[1]]), [1], ExactMatrix(RATIONAL, [[1]]), [1, 1])


def test_matrix_sum_3_coupling_block():
    # identity connector and identity Dr pass Dl = [[1, 0], [1, 1]] straight
    # through to the bottom-left block, rows (c1, c2) by columns (b1, b2)
    left_x, left_y = ["x2", "x0", "x1"], ["b1", "b2", "y0", "y1", "y2"]
    right = make_repr(["x0", "x1", "x2", "c1", "c2"], ["y0", "y1", "y2", "d1"], ExactMatrix(GF2, [
        [1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0],
    ]))
    for d_left in ([[1, 0], [1, 1]], [[0, 0], [0, 0]]):
        left = make_repr(left_x, left_y, ExactMatrix(GF2, [
            [1, 1, 1, 1, 0], d_left[0] + [1, 0, 1], d_left[1] + [0, 1, 1],
        ]))
        s = compose(left, right, GLUE).result
        assert [[s.B.entry(u, v) for v in ("b1", "b2")] for u in ("c1", "c2")] == d_left


def test_matrix_sum_3_gf2_inverse():
    # Dr * D0^-1 * Dl = [1, 1] @ inv([[0, 1], [1, 1]]) @ [[1], [0]] is 0 over GF(2);
    # D0 in place of its inverse, or no connector at all, would give 1
    left = make_repr(["x2", "x0", "x1"], ["b1", "y0", "y1", "y2"], ExactMatrix(GF2, [
        [1, 1, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1],
    ]))
    right = make_repr(["x0", "x1", "x2", "c1"], ["y0", "y1", "y2"], ExactMatrix(GF2, [
        [0, 1, 1], [1, 1, 1], [1, 1, 0], [1, 1, 0],
    ]))
    assert compose(left, right, GLUE).result.B.entry("c1", "b1") == 0


def test_matrix_sum_3_singular_connector():
    # the 3-sum of signings refuses a connector whose support is singular
    left_bad = mutate(mutate(LEFT3, 2, 2, 1), 3, 1, 1)   # d0 -> all ones
    right_bad = mutate(mutate(RIGHT3, 0, 1, 1), 1, 0, 1)
    left, right, glue = identity_pair(left_bad, right_bad)
    signed_left = LabeledMatrix(left.X, left.Y, ExactMatrix(RATIONAL, left_bad))
    signed_right = LabeledMatrix(right.X, right.Y, ExactMatrix(RATIONAL, right_bad))
    with pytest.raises(ShapeError, match="connector block is singular"):
        canonical_signing_sum3(signed_left, signed_right, glue)


def test_sum_1_valid():
    left = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    right = make_repr(["x2"], ["y2"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(left, right)
    assert out.valid and out.reason is None
    assert out.result.X == ("x1", "x2") and out.result.Y == ("y1", "y2")
    assert out.result.B.body.to_lists() == [[1, 0], [0, 1]]


def test_sum_1_matches_disjoint_sum():
    rng = random.Random(3)
    from helpers import random_standard_repr

    for _ in range(10):
        left = random_standard_repr(rng, 2, 2)
        right = random_standard_repr(rng, 2, 2, x_start=5, y_start=5)
        out = standard_repr_sum_1(left, right)
        assert out.valid
        assert naive_matroids_equal(
            out.result.to_matroid(),
            disjoint_sum(left.to_matroid(), right.to_matroid()),
        )


def test_sum_1_selects_no_glue_blocks(monkeypatch):
    # a 1-sum has no glue, so it reads the two summand bodies as they are
    # stored; a 2-sum also reads each summand once, the left's glue row x
    # ahead of its other rows and the right's glue column y ahead of its
    # other columns, and its zero-line guards and assembly share those reads
    from helpers import random_standard_repr, random_sum2_pair

    calls = []

    def record(b, rows, cols):
        calls.append((tuple(rows), tuple(cols)))
        return _cut(b, rows, cols)

    monkeypatch.setattr("tumat.sums._cut", record)
    rng = random.Random(5)
    left = random_standard_repr(rng, 3, 4)
    right = random_standard_repr(rng, 3, 4, x_start=5, y_start=5)
    out = compose(left, right, None)
    assert out.valid and calls == [(left.X, left.Y), (right.X, right.Y)]
    assert out.result.B.body.to_lists() == [
        row + [0] * 4 for row in left.B.body.to_lists()
    ] + [[0] * 4 + row for row in right.B.body.to_lists()]
    calls.clear()
    left, right, x, y = random_sum2_pair(rng)
    assert compose(left, right, (x, y)).valid
    (left_rows, left_cols), (right_rows, right_cols) = calls
    assert (left_rows[0], left_cols, right_rows, right_cols[0]) == (x, left.Y, right.X, y)
    assert len(calls) == 2


def test_sum_3_reads_each_glue_block_once(monkeypatch):
    # one read per summand, through ``_cut``, serves its 3x3 glue block, the
    # left column y2 and the right row x2 of the guards, and the assembly's
    # basis rows, weights and bodies: no select, and no entry read one label
    # at a time
    calls = {"select": 0, "entry": 0, "_cut": 0}
    for name in ("select", "entry"):
        method = getattr(LabeledMatrix, name)

        def record(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(LabeledMatrix, name, record)

    def record_cut(*args):
        calls["_cut"] += 1
        return _cut(*args)

    monkeypatch.setattr("tumat.sums._cut", record_cut)
    for left, right, glue, _ in sum3_corpus(per_unit=1):
        calls.update(select=0, entry=0, _cut=0)
        assert compose(left, right, glue).valid
        assert calls == {"select": 0, "entry": 0, "_cut": 2}


def test_sum_3_signing_and_certificate_read_each_connector_once(monkeypatch):
    # a 3-sum signing reads each summand once, its connector first, and
    # assembles from those reads; the certificate reads the witness twice:
    # its bottom-left and top-right blocks, then its connector, once, ahead
    # of the two summand blocks
    calls = []

    def record_cut(*args):
        calls.append(args[1:])
        return _cut(*args)

    monkeypatch.setattr("tumat.sums._cut", record_cut)
    for left, right, glue, d0 in sum3_corpus(per_unit=2):
        signed_left, signed_right, b = is_regular(left), is_regular(right), compose(left, right, glue).result.B
        calls.clear()
        w = sign_composition(signed_left, signed_right, glue)
        assert len(calls) == 2, d0
        assert [(rows[:3], cols[:3]) for rows, cols in calls] == [((glue.x2, glue.x0, glue.x1), glue.ys)] * 2
        calls.clear()
        assert certifies_sum(w, b, signed_left, signed_right, glue)
        heads = [(tuple(rows[:3]), tuple(cols[:3])) for rows, cols in calls]
        assert len(calls) == 2 and heads.count(((glue.x2, glue.x0, glue.x1), glue.ys)) == 1, d0


def test_certificate_reads_the_witness_at_most_twice(monkeypatch):
    # for every k the certificate reads the witness's four blocks off its
    # int signs, and its summand blocks off the witness itself
    calls = []

    def record_cut(*args):
        calls.append(args[1:])
        return _cut(*args)

    built = fixture_sums()
    monkeypatch.setattr("tumat.sums._cut", record_cut)
    for w, b, signed_left, signed_right, glue in built:
        calls.clear()
        assert certifies_sum(w, b, signed_left, signed_right, glue)
        assert len(calls) == 2, glue


def test_block_readers_report_the_first_missing_label_as_the_lookups_do():
    # _cut and select look up each axis's labels in one pass; a missing
    # label, the first one in order and rows before columns, raises the
    # message row_position or col_position gives it, a tuple label included
    def fresh():  # a matrix whose position maps are not built yet
        return LabeledMatrix(["r1", "r2", "r3"], ["c1", "c2"], ExactMatrix(GF2, [[1, 0], [0, 1], [1, 1]]))

    def message(call):
        with pytest.raises(ShapeError) as info:
            call()
        return str(info.value)

    cases = [
        (["r1", "zz", "yy"], ["c1"], "row", "zz"),
        (["r3", ("r", 9), "r2"], ["c1", "c2"], "row", ("r", 9)),
        (["r1"], ["c2", "qq", "pp"], "column", "qq"),
        (["r1"], ["c2", ("c", 7)], "column", ("c", 7)),
        (["zz"], ["qq"], "row", "zz"),
        ([4], [], "row", 4),
    ]
    for rows, cols, axis, missing in cases:
        lookup = fresh().row_position if axis == "row" else fresh().col_position
        expected = message(lambda: lookup(missing))
        assert expected.startswith(f"no {axis} labeled ")
        assert message(lambda: _cut(fresh(), rows, cols)) == expected
        assert message(lambda: fresh().select(rows, cols)) == expected
        warm = fresh()  # and once the maps are built
        warm.row_position("r1"), warm.col_position("c1")
        assert message(lambda: _cut(warm, rows, cols)) == message(lambda: warm.select(rows, cols)) == expected


def test_one_and_zero_column_cuts_match_select():
    rng = random.Random(35)
    for body in (random_gf2_matrix(rng, 4, 5), random_rational_matrix(rng, 4, 5)):
        m = LabeledMatrix(labels("r", 4), labels("c", 5), body)
        for rows in (["r3", "r1"], labels("r", 4), ["r2"], []):
            for cols in ([], ["c4"], ("c1",), ["c5", "c1"], labels("c", 5)):
                cut = _cut(m, rows, cols)
                assert_exact(cut)
                assert cut == m.select(rows, cols).body and cut.shape == (len(rows), len(cols))


def per_row_stacked(top, coeffs, basis, tail):
    """[[top, 0], [coeffs * basis, tail]] as plain lists, each bottom row's head summed on its own."""
    zero = Fraction(0) if top.kind == RATIONAL else 0
    rows = [list(row) + [zero] * tail.n_cols for row in top.rows]
    for cs, t in zip(coeffs, tail.rows):
        head = [sum((c * b[j] for c, b in zip(cs, basis)), zero) for j in range(top.n_cols)]
        rows.append([x % 2 for x in head] + list(t) if top.kind == GF2 else head + list(t))
    return rows


@pytest.mark.parametrize("kind", [GF2, RATIONAL, _SIGNED])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_matches_a_per_row_reference(kind, k):
    # _stacked puts each bottom row's head, its weight vector times the
    # basis, before its tail row; each row must equal the per-row reference
    # however the weights repeat and however they are passed, a one-shot
    # iterator included, and _head alone must give each nonzero weight vector's head
    rng = random.Random(f"stacked {kind} {k}")
    pool = {GF2: [0, 1], RATIONAL: [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)],
            _SIGNED: [0, 1, -1]}[kind]

    def matrix(m, n):
        return _exact(kind, [[rng.choice(pool) for _ in range(n)] for _ in range(m)], n)

    repeated = 0
    for _ in range(25):
        n_left, n_right, n_bottom = rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 12)
        top, tail, basis = matrix(rng.randint(0, 3), n_left), matrix(n_bottom, n_right), matrix(k - 1, n_left).rows
        weights = matrix(3, k - 1).rows  # few weight vectors, so the bottom rows repeat them
        coeffs = [rng.choice(weights) for _ in range(n_bottom)]
        repeated += len(set(coeffs)) < len(coeffs)
        expected = per_row_stacked(top, coeffs, basis, tail)
        heads = [_head(kind, cs, basis) for cs in coeffs if any(cs)]
        assert [list(h) for h in heads] == [row[:n_left] for row, cs in zip(expected[top.n_rows:], coeffs) if any(cs)]
        assert all(type(x) is (Fraction if kind == RATIONAL else int) for h in heads for x in h)
        passes = [coeffs, iter(coeffs), (cs for cs in coeffs)]
        if k == 2:  # as sign_sum_2 passes its column c
            passes.append(zip([cs[0] for cs in coeffs]))
        for passed in passes:
            got = _stacked(top, passed, list(basis), tail)
            assert (got.kind, got.n_cols, len(got.rows)) == (kind, n_left + n_right, top.n_rows + n_bottom)
            assert [list(row) for row in got.rows] == expected
            assert all(type(x) is (Fraction if kind == RATIONAL else int) for row in got.rows for x in row)
    assert repeated >= 10


@pytest.mark.parametrize("kind", [GF2, RATIONAL, _SIGNED])
def test_head_matches_a_sum_of_products(kind):
    # _head takes a basis row as it is for weight 1, negates it for -1,
    # scales it for any other weight and adds two picked rows; each head,
    # of one or two basis rows, must be the sum of products entry by entry,
    # with the entry type of its kind, for every nonzero weight pair in
    # {-1, 0, 1}^2 and, over Q, Fraction weights past +-1
    rng = random.Random(f"head {kind}")
    pool = {GF2: [0, 1], RATIONAL: [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)],
            _SIGNED: [0, 1, -1]}[kind]
    weights = [w for w in product((-1, 0, 1), repeat=2) if any(w)]
    if kind == RATIONAL:
        weights = [tuple(map(Fraction, w)) for w in weights]
        weights += [(Fraction(1, 2), Fraction(0)), (Fraction(-3, 2), Fraction(2)), (Fraction(0), Fraction(5, 3))]
    seen = 0
    for _ in range(20):
        n = rng.randint(1, 6)
        basis = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(2)]
        for cs in weights:
            for k in (1, 2) if cs[0] else (2,):
                got = _head(kind, cs[:k], basis[:k])
                assert got == head_by_products(kind, cs[:k], basis[:k]), (cs, basis)
                if kind == _SIGNED:
                    assert all(type(x) is int for x in got)
                else:
                    assert_exact(_exact(kind, [got], n))
                seen += 1
    assert seen == 20 * {GF2: 14, RATIONAL: 19, _SIGNED: 14}[kind]


# the canonical signed forms, rows x2, x0, x1 by columns y0, y1, y2 with x0, x1 and y0, y1 taken
# in the order of ``is_unit_2x2``'s permutations
FORM_TARGETS = {FORM_IDENTITY: [[1, 1, 0], [1, 0, 1], [0, -1, 1]],
                FORM_UPPER_TRIANGULAR: [[1, 1, 0], [1, 1, 1], [0, 1, 1]]}


def test_signed_connectors_are_the_form_targets_on_the_callers_glue():
    # each unit's entry holds its form's target with rows x2, x0, x1 and
    # columns y0, y1, y2 as the caller names them: the caller's x_i is the
    # form's row x_k with f[k] = i, its y_j the form's column y_k with
    # g[k] = j; the entry's D0 block has the key as its support, and
    # sign_composition writes that entry at the connector of every 3-sum
    assert set(_SIGNED_CONNECTORS) == set(_UNITS) == set(UNIT_D0S)
    for d0, entry in _SIGNED_CONNECTORS.items():
        f, g, form = is_unit_2x2(ExactMatrix(GF2, d0))
        target = FORM_TARGETS[form]
        rows = [0] + [1 + f.index(i) for i in (0, 1)]
        cols = [g.index(j) for j in (0, 1)] + [2]
        assert [list(row) for row in entry] == [[target[r][c] for c in cols] for r in rows], d0
        assert tuple(tuple(abs(x) for x in row[:2]) for row in entry[1:]) == d0
    for left, right, glue, d0 in sum3_corpus(per_unit=2):
        w = sign_composition(is_regular(left), is_regular(right), glue)
        assert w.select((glue.x2, glue.x0, glue.x1), glue.ys).body.to_lists() == \
            [list(row) for row in _SIGNED_CONNECTORS[d0]], d0


# D0^-1 written out by hand: for the six GF(2) units, then for the D'0 of each signed connector
D0_INVERSES = {
    (GF2, ((1, 0), (0, 1))): ((1, 0), (0, 1)),
    (GF2, ((0, 1), (1, 0))): ((0, 1), (1, 0)),
    (GF2, ((1, 1), (0, 1))): ((1, 1), (0, 1)),
    (GF2, ((1, 0), (1, 1))): ((1, 0), (1, 1)),
    (GF2, ((0, 1), (1, 1))): ((1, 1), (1, 0)),
    (GF2, ((1, 1), (1, 0))): ((0, 1), (1, 1)),
    (_SIGNED, ((1, 0), (0, -1))): ((1, 0), (0, -1)),
    (_SIGNED, ((1, 1), (0, 1))): ((1, -1), (0, 1)),
    (_SIGNED, ((0, -1), (1, 0))): ((0, 1), (-1, 0)),
    (_SIGNED, ((0, 1), (1, 1))): ((-1, 1), (1, 0)),
    (_SIGNED, ((1, 1), (1, 0))): ((0, 1), (1, -1)),
    (_SIGNED, ((1, 0), (1, 1))): ((1, 0), (-1, 1)),
}


def per_row_sum3(kind, left, right, inv, glue):
    """The 3-sum of ``_assemble`` as labels and plain rows: each bottom row u starts with
    d_u * D0^-1 * (left rows x0, x1), its entries summed one at a time with D0^-1 given as ``inv``."""
    xs, ys = (glue.x0, glue.x1), (glue.y0, glue.y1)
    top, bottom = [u for u in left.row_labels if u not in xs], [u for u in right.row_labels if u != glue.x2]
    l_cols, r_cols = [v for v in left.col_labels if v != glue.y2], [v for v in right.col_labels if v not in ys]
    rows = [[left.entry(u, v) for v in l_cols] + [0] * len(r_cols) for u in top]
    for u in bottom:
        w = [sum(right.entry(u, ys[k]) * inv[k][t] for k in range(2)) for t in range(2)]
        head = [sum(w[t] * left.entry(xs[t], v) for t in range(2)) for v in l_cols]
        rows.append([h % 2 for h in head] if kind == GF2 else head)
        rows[-1] += [right.entry(u, v) for v in r_cols]
    return top + bottom, l_cols + r_cols, rows


@pytest.mark.parametrize("kind, d0", sorted(D0_INVERSES, key=str))
def test_sum3_basis_matches_a_per_row_reference(kind, d0):
    # _assemble takes D0^-1 from the adjugate of the D0 it reads off the left
    # rows x0, x1; every bottom row must equal d * D0^-1 * [Dl | D0] formed
    # per row from the inverse written out by hand, for every GF(2) unit and
    # all six signed connectors, at random label positions and rest sizes
    inv = D0_INVERSES[kind, d0]
    product = [[sum(d0[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert ([[x % 2 for x in row] for row in product] if kind == GF2 else product) == [[1, 0], [0, 1]]
    targets = {tuple(tuple(row[:2]) for row in t[1:]) for t in _SIGNED_CONNECTORS.values()}
    assert {d for k, d in D0_INVERSES if k == GF2} == set(_UNITS)
    assert {d for k, d in D0_INVERSES if k == _SIGNED} == targets
    rng = random.Random(f"sum3 basis {kind} {d0}")
    pool = [0, 1] if kind == GF2 else [0, 1, -1]
    glue = Sum3Labels(*SUM3_LABELS)
    for _ in range(15):
        sides = []
        for row_prefix, col_prefix in (("a", "b"), ("c", "d")):
            xs, ys = labels(row_prefix, rng.randint(0, 3)), labels(col_prefix, rng.randint(0, 3))
            for glue_labels, names in ((glue.xs, xs), (glue.ys, ys)):
                for g in glue_labels:
                    names.insert(rng.randrange(len(names) + 1), g)
            grid = [[rng.choice(pool) for _ in ys] for _ in xs]
            for u, row in zip(glue.xs[:2], d0):
                for v, e in zip(glue.ys[:2], row):
                    grid[xs.index(u)][ys.index(v)] = e
            sides.append(LabeledMatrix(xs, ys, _exact(kind, grid, len(ys))))
        layout, *reads = _reads(*sides, glue)
        got = _sum_of(layout, _assemble(*reads, glue))
        row_labels, col_labels, rows = per_row_sum3(kind, *sides, inv, glue)
        assert (got.row_labels, got.col_labels) == (tuple(row_labels), tuple(col_labels))
        assert [list(row) for row in got.body.rows] == rows and got.body.kind == kind
        assert all(type(x) is int for row in got.body.rows for x in row)


def test_sum_1_overlap_reasons():
    a = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    b = make_repr(["x1"], ["y2"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(a, b)
    assert not out.valid and out.reason == REASON_X_OVERLAP
    c = make_repr(["x2"], ["y1"], ExactMatrix(GF2, [[1]]))
    out = standard_repr_sum_1(a, c)
    assert out.reason == REASON_Y_OVERLAP
    # a full collision reports the row overlap first
    out = standard_repr_sum_1(a, make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]])))
    assert out.reason == REASON_X_OVERLAP
    with pytest.raises(ShapeError):
        standard_repr_sum_1(a, make_repr(["y1"], ["y3"], ExactMatrix(GF2, [[1]])))
    with pytest.raises(ShapeError):
        standard_repr_sum_1(a, standardize_like_rational())


def standardize_like_rational():
    return make_repr(["x9"], ["y9"], ExactMatrix(RATIONAL, [[1]]))


def test_sum_2_valid():
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    out = standard_repr_sum_2(left, right, "x2", "y2")
    assert out.valid
    assert out.result.X == ("x1", "x2", "x3")
    assert out.result.Y == ("y1", "y2", "y3")
    assert out.result.B.body.to_lists() == [[1, 1, 0], [0, 1, 0], [0, 1, 1]]


def test_sum_2_invalid_reasons():
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    zero_row = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]]))
    out = standard_repr_sum_2(zero_row, right, "x2", "y2")
    assert not out.valid and out.reason == REASON_ZERO_ROW
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    zero_col = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[0, 0], [0, 1]]))
    out = standard_repr_sum_2(left, zero_col, "x2", "y2")
    assert out.reason == REASON_ZERO_COL
    # both at once: the zero glue row is reported first
    out = standard_repr_sum_2(zero_row, zero_col, "x2", "y2")
    assert out.reason == REASON_ZERO_ROW


def exactly(message):
    return "^" + re.escape(message) + "$"


NOT_GF2 = "{} summand must be a GF(2) standard representation"
COLLIDE = "row labels of one summand collide with column labels of the other"


def test_sum_2_shape_preconditions():
    left = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    rows = "row label sets must intersect in exactly the glue label x"
    cols = "column label sets must intersect in exactly the glue label y"
    with pytest.raises(ShapeError, match=exactly(rows)):
        standard_repr_sum_2(left, right, "x1", "y2")  # intersection is {x2}, not {x1}
    two_shared = make_repr(["x1", "x2"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError, match=exactly(rows)):
        standard_repr_sum_2(left, two_shared, "x2", "y2")
    with pytest.raises(ShapeError, match=exactly(cols)):
        standard_repr_sum_2(left, right, "x2", "y1")
    cross = make_repr(["x2", "x3"], ["y2", "x1"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError, match=exactly(COLLIDE)):
        standard_repr_sum_2(left, cross, "x2", "y2")
    rational = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(RATIONAL, [[1, 0], [1, 1]]))
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("right"))):
        standard_repr_sum_2(left, rational, "x2", "y2")
    # two failed preconditions: the first in the order kinds, rows, columns, collisions is raised
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("left"))):
        standard_repr_sum_2(rational, rational, "x1", "y1")
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("right"))):
        standard_repr_sum_2(left, rational, "x1", "y1")
    with pytest.raises(ShapeError, match=exactly(rows)):
        standard_repr_sum_2(left, right, "x1", "y1")
    with pytest.raises(ShapeError, match=exactly(cols)):
        standard_repr_sum_2(left, cross, "x2", "y1")


def test_sum_3_valid_layout():
    left, right, glue = identity_pair()
    out = standard_repr_sum_3(left, right, glue)
    assert out.valid
    assert out.result.X == ("xa", "x2", "x0", "x1", "xb")
    assert out.result.Y == ("ya", "y0", "y1", "y2", "yb")
    assert out.result.B.body.to_lists() == SUM3_B


LEFT3Z = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
RIGHT3Z = [[1, 0, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]]


def test_sum_3_zero_coupling():
    left, right, glue = identity_pair(LEFT3Z, RIGHT3Z)
    assert left.B.select(["x0", "x1"], ["ya"]).body == ExactMatrix.zeros(2, 1, GF2)
    assert right.B.select(["xb"], ["y0", "y1"]).body == ExactMatrix.zeros(1, 2, GF2)
    out = standard_repr_sum_3(left, right, glue)
    assert out.valid
    s = out.result
    for u in ("x0", "x1", "xb"):
        assert s.B.entry(u, "ya") == 0
    signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    witness = canonical_signing_sum3(signed_left, signed_right, glue)
    assert is_tu_signing_of(witness.body, s.B.body)
    for u in ("x0", "x1", "xb"):
        assert witness.entry(u, "ya") == 0


def mutate(data, i, j, v):
    out = [row[:] for row in data]
    out[i][j] = v
    return out


def without(m, line):
    """The labeled matrix m without its row or column labeled ``line``."""
    rows, cols = [u for u in m.row_labels if u != line], [v for v in m.col_labels if v != line]
    return LabeledMatrix(rows, cols, _cut(m, rows, cols))


def test_sum_3_labels_not_distinct():
    left = make_repr(["xa", "x2", "x0"], ["ya", "y0", "y1", "y2"],
                     ExactMatrix(GF2, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1]]))
    right = make_repr(["x0", "xb", "x2"], ["y0", "y1", "y2", "yb"],
                      ExactMatrix(GF2, [[1, 0, 1, 0], [1, 1, 0, 1], [1, 1, 0, 0]]))
    out = standard_repr_sum_3(left, right, Sum3Labels("x0", "x0", "x2", "y0", "y1", "y2"))
    assert not out.valid and out.reason == REASON_LABELS_NOT_DISTINCT


def ones_at(rows, cols, ones):
    """A GF(2) standard representation on ``rows`` by ``cols`` with a 1 at each (row, column) in ``ones``."""
    return make_repr(rows, cols, ExactMatrix(GF2, [[int((u, v) in ones) for v in cols] for u in rows]))


def test_guards_name_the_first_offending_line():
    # each guard reads its lines off one read per summand, whose glue lines
    # come first; with two or more offending lines it must still name the
    # first in check order, and a nonzero-outside guard the first line in
    # stored order, not a glue line the read put ahead of it
    left_rows, left_cols = ["a", "x1", "u", "x2", "x0", "b"], ["p", "y2", "y0", "q", "y1"]
    right_rows, right_cols = ["c", "x2", "x0", "d", "x1"], ["y1", "v", "y2", "w", "y0", "z"]
    glue = Sum3Labels("x0", "x1", "x2", "y0", "y1", "y2")
    fixed = {("x0", "y0"), ("x1", "y1"), ("x0", "y2"), ("x1", "y2"), ("x2", "y0"), ("x2", "y1")}
    extra_left, extra_right = {("a", "p"), ("b", "q"), ("u", "y0")}, {("c", "w"), ("d", "z"), ("x0", "v")}
    assert compose(ones_at(left_rows, left_cols, fixed | extra_left),
                   ones_at(right_rows, right_cols, fixed | extra_right), glue).valid
    cases = [
        # (x1, y2) comes before (x2, y0) in check order, though row x2 is read first
        (fixed - {("x1", "y2"), ("x2", "y0")}, fixed, REASON_MISSING_ONE, "left summand entry ('x1', 'y2') must be 1"),
        (fixed, fixed - {("x2", "y1"), ("x0", "y2")}, REASON_MISSING_ONE,
         "right summand entry ('x0', 'y2') must be 1"),
        # column y2 of the left is nonzero at rows u, x2 and b: u is stored first, x2 is read first
        (fixed | {("b", "y2"), ("x2", "y2"), ("u", "y2")}, fixed, REASON_NONZERO_OUTSIDE,
         "left summand column 'y2' must be zero at row 'u'"),
        # row x2 of the right is nonzero at columns v, y2 and z: v is stored first, y2 is read first
        (fixed, fixed | {("x2", "z"), ("x2", "y2"), ("x2", "v")}, REASON_NONZERO_OUTSIDE,
         "right summand row 'x2' must be zero at column 'v'"),
        (fixed | {("x2", "y2"), ("b", "y2")}, fixed | {("x2", "y2")}, REASON_NONZERO_OUTSIDE,
         "left summand column 'y2' must be zero at row 'x2'"),
    ]
    for left_ones, right_ones, reason, message in cases:
        out = compose(ones_at(left_rows, left_cols, left_ones | extra_left),
                      ones_at(right_rows, right_cols, right_ones | extra_right), glue)
        assert (out.reason, out.message) == (reason, message)
    # a 2-sum whose r and c are both zero names row x; with r nonzero, column y
    left_rows, left_cols, right_rows, right_cols = ["a", "x", "b"], ["p", "y", "q"], ["c", "x", "d"], ["r", "y", "s"]
    left_ones, right_ones = {("a", "p"), ("b", "y")}, {("c", "r"), ("d", "s")}
    for r, reason, message in (((), REASON_ZERO_ROW, "row 'x' of the left summand is zero"),
                               ((("x", "q"), ("x", "y")), REASON_ZERO_COL, "column 'y' of the right summand is zero")):
        out = compose(ones_at(left_rows, left_cols, left_ones | set(r)), ones_at(right_rows, right_cols, right_ones),
                      ("x", "y"))
        assert (out.reason, out.message) == (reason, message)


def test_sum_3_d0_mismatch():
    swapped = mutate(mutate(mutate(mutate(RIGHT3, 0, 0, 0), 0, 1, 1), 1, 0, 1), 1, 1, 0)
    left, right, glue = identity_pair(LEFT3, swapped)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_D0_MISMATCH


def test_sum_3_d0_singular():
    left_bad = mutate(mutate(LEFT3, 2, 2, 1), 3, 1, 1)   # d0 -> all ones
    right_bad = mutate(mutate(RIGHT3, 0, 1, 1), 1, 0, 1)
    left, right, glue = identity_pair(left_bad, right_bad)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_D0_SINGULAR


def test_sum_3_missing_one_entry():
    left, right, glue = identity_pair(mutate(LEFT3, 2, 3, 0), RIGHT3)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_MISSING_ONE
    assert "left" in out.message and "'x0'" in out.message
    left, right, glue = identity_pair(LEFT3, mutate(RIGHT3, 3, 0, 0))
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_MISSING_ONE
    assert "right" in out.message and "'x2'" in out.message


def test_sum_3_nonzero_outside():
    left, right, glue = identity_pair(mutate(LEFT3, 0, 3, 1), RIGHT3)
    out = standard_repr_sum_3(left, right, glue)
    assert not out.valid and out.reason == REASON_NONZERO_OUTSIDE
    assert "left" in out.message
    left, right, glue = identity_pair(LEFT3, mutate(RIGHT3, 3, 3, 1))
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_NONZERO_OUTSIDE
    assert "right" in out.message


def test_sum_3_guard_order():
    # d0 mismatch beats a missing 1-entry: guards run in a fixed order
    swapped = mutate(mutate(mutate(mutate(RIGHT3, 0, 0, 0), 0, 1, 1), 1, 0, 1), 1, 1, 0)
    left, right, glue = identity_pair(mutate(LEFT3, 2, 3, 0), swapped)
    out = standard_repr_sum_3(left, right, glue)
    assert out.reason == REASON_D0_MISMATCH


def test_sum_3_shape_preconditions():
    left, right, glue = identity_pair()
    rows = "row label sets must intersect in exactly the three glue labels"
    cols = "column label sets must intersect in exactly the three glue labels"
    bad_x = Sum3Labels("xa", "x1", "x2", "y0", "y1", "y2")
    bad_y = Sum3Labels("x0", "x1", "x2", "y0", "y1", "ya")
    with pytest.raises(ShapeError, match=exactly(rows)):
        standard_repr_sum_3(left, right, bad_x)
    with pytest.raises(ShapeError, match=exactly(cols)):
        standard_repr_sum_3(left, right, bad_y)
    bad_right = make_repr(["x0", "x1", "xb", "x2"], ["y0", "y1", "y2", "xa"],
                          ExactMatrix(GF2, RIGHT3))
    with pytest.raises(ShapeError, match=exactly(COLLIDE)):
        standard_repr_sum_3(left, bad_right, glue)
    rational = make_repr(list(right.X), list(right.Y), ExactMatrix(RATIONAL, RIGHT3))
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("right"))):
        standard_repr_sum_3(left, rational, glue)
    # two failed preconditions: the first in the order kinds, rows, columns, collisions is raised
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("left"))):
        standard_repr_sum_3(rational, rational, bad_x)
    with pytest.raises(ShapeError, match=exactly(NOT_GF2.format("right"))):
        standard_repr_sum_3(left, rational, bad_x)
    with pytest.raises(ShapeError, match=exactly(rows)):
        standard_repr_sum_3(left, right, Sum3Labels("xa", "x1", "x2", "y0", "y1", "ya"))
    with pytest.raises(ShapeError, match=exactly(cols)):
        standard_repr_sum_3(left, bad_right, bad_y)


def test_is_unit_2x2_exhaustive():
    units = 0
    for bits in range(16):
        data = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        a = ExactMatrix(GF2, data)
        got = is_unit_2x2(a)
        if a.determinant() == 0:
            assert got is None
        else:
            units += 1
            f, g, form = got
            tgt = {FORM_IDENTITY: [[1, 0], [0, 1]], FORM_UPPER_TRIANGULAR: [[1, 1], [0, 1]]}[form]
            for i in range(2):
                for j in range(2):
                    assert a[f[i], g[j]] == tgt[i][j]
    assert units == 6
    with pytest.raises(ShapeError):
        is_unit_2x2(ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError):
        is_unit_2x2(ExactMatrix(RATIONAL, [[1, 0], [0, 1]]))


def test_is_unit_2x2_pinned_permutations():
    assert is_unit_2x2(ExactMatrix(GF2, [[0, 1], [1, 0]])) == ((1, 0), (0, 1), FORM_IDENTITY)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 1], [1, 0]])) == ((0, 1), (1, 0), FORM_UPPER_TRIANGULAR)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 0], [0, 1]])) == ((0, 1), (0, 1), FORM_IDENTITY)
    assert is_unit_2x2(ExactMatrix(GF2, [[1, 1], [0, 1]])) == ((0, 1), (0, 1), FORM_UPPER_TRIANGULAR)


def test_sign_sum_1():
    a = ExactMatrix(RATIONAL, [[1, -1], [0, 1]])
    b = ExactMatrix(RATIONAL, [[1]])
    out = sign_sum_1(a, b)
    assert is_totally_unimodular(out).is_tu
    assert out.to_lists() == [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    # the construction does not check its summands: a non-TU summand
    # gives a non-TU sum, which the certificate on the result rejects
    bad = sign_sum_1(ExactMatrix(RATIONAL, [[2]]), b)
    assert is_totally_unimodular(bad).witness == ((0,), (0,), 2)
    with pytest.raises(ShapeError):
        sign_sum_1(ExactMatrix(GF2, [[1]]), ExactMatrix(GF2, [[1]]))


def test_sign_sum_2():
    a_left = ExactMatrix(RATIONAL, [[1, -1]])
    a_right = ExactMatrix(RATIONAL, [[1], [0]])
    out = sign_sum_2(a_left, [0, 1], a_right, [1, -1])
    assert is_totally_unimodular(out).is_tu
    assert out.to_lists() == [[1, -1, 0], [0, 1, 1], [0, -1, 0]]
    bad = sign_sum_2(a_left, [1, 1], a_right, [1, -1])  # [a_left / r] is not TU
    assert is_totally_unimodular(bad).witness == ((0, 1), (0, 1), 2)
    with pytest.raises(ShapeError):
        sign_sum_2(ExactMatrix(GF2, [[1, 1]]), [0, 1], ExactMatrix(GF2, [[1], [0]]), [1, 1])


def _sign_solutions(a):
    """For every b that row and column signs s, t take ``a`` to, the pairs (s, t) that do, by brute force."""
    out = {}
    for s in product((1, -1), repeat=len(a)):
        for t in product((1, -1), repeat=len(a[0])):
            b = tuple(tuple(si * tj * x for tj, x in zip(t, row)) for si, row in zip(s, a))
            out.setdefault(b, []).append((list(s), list(t)))
    return out


def _assert_solver_matches_brute_force(a, b, solutions):
    scales = _line_scales(a, b)
    assert (scales is not None) == bool(solutions), (a, b)
    if scales is None:
        return
    signs = list(map(mul, *scales))  # each scale num / den is a sign here, so it is num * den
    got = (signs[:len(a)], signs[len(a):])
    assert got in solutions
    # the lowest row of each component of b's support keeps +1, and so does every column b leaves zero
    seen = set()
    for root in range(len(b)):
        if root not in seen:
            assert got[0][root] == 1, (a, b)
            seen.add(root)
            todo = [root]
            while todo:
                row = b[todo.pop()]
                for k, other in enumerate(b):
                    if k not in seen and any(x and y for x, y in zip(row, other)):
                        seen.add(k)
                        todo.append(k)
    assert all(tj == 1 for tj, col in zip(got[1], zip(*b)) if not any(col))


def test_sign_solver_against_brute_force_on_every_small_pair():
    for m, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
        grids = [tuple(cells[i * n:(i + 1) * n] for i in range(m)) for cells in product((0, 1, -1), repeat=m * n)]
        for a in grids:
            solutions = _sign_solutions(a)
            for b in grids:
                _assert_solver_matches_brute_force(a, b, solutions.get(b, []))


def test_sign_solver_against_brute_force_on_seeded_pairs():
    rng = random.Random(41)
    for _ in range(300):
        m, n = rng.choice([(3, 4), (4, 4)])
        a = [[rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(m)]
        solutions = _sign_solutions(a)
        b = rng.choice(list(solutions))
        _assert_solver_matches_brute_force(a, b, solutions[b])
        # corruptions: a flipped sign, a zeroed entry, a filled zero
        i, j = rng.randrange(m), rng.randrange(n)
        for x in (-b[i][j], 0, rng.choice((1, -1))):
            corrupted = tuple(row[:j] + (x,) + row[j + 1:] if k == i else row for k, row in enumerate(b))
            _assert_solver_matches_brute_force(a, corrupted, solutions.get(corrupted, []))
        # the equal pair, each side the same tuple of tuples, which the solver answers at once
        same = tuple(map(tuple, a))
        _assert_solver_matches_brute_force(same, same, solutions[same])


# the identity pair's summands signed so that their connectors, rows x2, x0, x1 by
# columns y0, y1, y2, already equal the identity form's target [[1, 1, 0], [1, 0, 1], [0, -1, 1]]
LEFT3_AT_TARGET = mutate(LEFT3, 3, 2, -1)
RIGHT3_AT_TARGET = mutate(RIGHT3, 1, 1, -1)


def signed_pair(left_data, right_data):
    left, right, glue = identity_pair()
    return (LabeledMatrix(left.X, left.Y, ExactMatrix(RATIONAL, left_data)),
            LabeledMatrix(right.X, right.Y, ExactMatrix(RATIONAL, right_data)), glue)


def test_canonical_signing_already_at_target():
    # summands whose connectors already hold the target are not re-signed:
    # the sum's top-left and bottom-right blocks are their entries
    signed_left, signed_right, glue = signed_pair(LEFT3_AT_TARGET, RIGHT3_AT_TARGET)
    out = canonical_signing_sum3(signed_left, signed_right, glue)
    for side, rows, cols in ((signed_left, ("xa", "x2"), ("ya", "y0", "y1")),
                             (signed_right, ("x0", "x1", "xb"), ("y2", "yb"))):
        assert [[out.entry(u, v) for v in cols] for u in rows] == [[side.entry(u, v) for v in cols] for u in rows]


def test_canonical_signing_resigns_to_target():
    # every sign pattern on the six glue lines of one summand signing, flipped
    # by label, is undone up to the one sign the re-signing pins, row x2's: the
    # output is the unflipped pair's signing, entry for entry the same shared
    # sign Fraction, exactly when x2 keeps its sign, and it certifies every time
    shared = tuple(_SIGNS.values())
    seen = Counter()
    for left, right, glue, d0 in sum3_corpus(per_unit=6):
        pair, b = (is_regular(left), is_regular(right)), compose(left, right, glue).result.B
        base = canonical_signing_sum3(*pair, glue)
        assert all(any(x is v for v in shared) for row in base.body.rows for x in row), d0
        for side, signs in product((0, 1), product((1, -1), repeat=6)):
            s = pair[side]
            rs, cs = dict(zip((glue.x2, glue.x0, glue.x1), signs)), dict(zip(glue.ys, signs[3:]))
            flipped = LabeledMatrix(s.row_labels, s.col_labels, scale_rows_cols(
                s.body, [rs.get(u, 1) for u in s.row_labels], [cs.get(v, 1) for v in s.col_labels]))
            signed = (flipped, pair[1]) if side == 0 else (pair[0], flipped)
            out = canonical_signing_sum3(*signed, glue)
            same = (out.row_labels, out.col_labels) == (base.row_labels, base.col_labels) and all(
                x is y for ro, rb in zip(out.body.rows, base.body.rows) for x, y in zip(ro, rb))
            assert same == (signs[0] == 1), (d0, side, signs)
            assert certifies_sum(out, b, *signed, glue), (d0, side, signs)
            seen[same] += 1
    assert seen == {True: 2304, False: 2304}


def test_canonical_signing_unreachable_target_raises():
    # a connector no row and column signs bring to the target, on either side
    for left, right in ((LEFT3, RIGHT3_AT_TARGET), (LEFT3_AT_TARGET, RIGHT3)):
        with pytest.raises(ShapeError, match="no row/column sign scaling reaches the target"):
            canonical_signing_sum3(*signed_pair(left, right))


def test_canonical_signing_refuses_bad_glue():
    # connector supports that differ, and glue labels that are not six distinct names
    signed_left, signed_right, glue = signed_pair(LEFT3_AT_TARGET, RIGHT3_AT_TARGET)
    other = LabeledMatrix(signed_right.row_labels, signed_right.col_labels,
                          ExactMatrix(RATIONAL, mutate(RIGHT3_AT_TARGET, 0, 1, 1)))
    with pytest.raises(ShapeError, match="connector supports of the two signings differ"):
        canonical_signing_sum3(signed_left, other, glue)
    for bad in (Sum3Labels("x0", "x0", "x2", "y0", "y1", "y2"), Sum3Labels("x0", "x1", "x2", "y0", "y1", "y1")):
        with pytest.raises(ShapeError, match="glue labels must be six distinct names"):
            canonical_signing_sum3(signed_left, signed_right, bad)


def test_canonical_signing_reports_a_missing_glue_line_before_differing_supports():
    # each connector is read whole, rows x2, x0, x1 by columns y0, y1, y2,
    # before the supports are compared: a signing without row x2 or column
    # y2 raises for that label even where the other side's D0 support differs
    signed_left, signed_right, glue = signed_pair(LEFT3_AT_TARGET, RIGHT3_AT_TARGET)
    other = LabeledMatrix(signed_right.row_labels, signed_right.col_labels,
                          ExactMatrix(RATIONAL, mutate(RIGHT3_AT_TARGET, 0, 1, 1)))
    for line, axis in (("x2", "row"), ("y2", "column")):
        for pair in ((without(signed_left, line), other), (signed_left, without(other, line))):
            with pytest.raises(ShapeError, match=f"^no {axis} labeled '{line}'$"):
                canonical_signing_sum3(*pair, glue)


def test_canonical_signing_identity_connector():
    left, right, glue = identity_pair()
    out = standard_repr_sum_3(left, right, glue)
    signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    witness = canonical_signing_sum3(signed_left, signed_right, glue)
    assert witness.row_labels == out.result.X
    assert witness.col_labels == out.result.Y
    assert is_tu_signing_of(witness.body, out.result.B.body)


def test_canonical_signing_all_connectors():
    for left, right, glue, d0 in sum3_corpus(per_unit=1):
        out = standard_repr_sum_3(left, right, glue)
        assert out.valid, d0
        signed_left = LabeledMatrix(left.X, left.Y, find_tu_signing(left.B.body))
        signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
        witness = canonical_signing_sum3(signed_left, signed_right, glue)
        assert is_tu_signing_of(witness.body, out.result.B.body), d0


def test_canonical_signing_rejects_non_tu():
    left, right, glue = identity_pair()
    signed_right = LabeledMatrix(right.X, right.Y, find_tu_signing(right.B.body))
    # a signing with a 2 at (xa, ya): the construction does not check its
    # summands, and the 2 lands at (xa, ya) of the sum
    not_tu = LabeledMatrix(
        left.X, left.Y,
        ExactMatrix(RATIONAL, mutate(find_tu_signing(left.B.body).to_lists(), 0, 0, 2)),
    )
    out = canonical_signing_sum3(not_tu, signed_right, glue)
    assert is_totally_unimodular(out.body).witness == ((0,), (0,), 2)
    # the unsigned 0/1 summand cannot be re-signed to the connector target
    unsigned = LabeledMatrix(left.X, left.Y, ExactMatrix(RATIONAL, LEFT3))
    with pytest.raises(ShapeError, match="no row/column sign scaling reaches the target"):
        canonical_signing_sum3(unsigned, signed_right, glue)


def test_verify_is_sum_k_of():
    l1 = make_repr(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    r1 = make_repr(["x2"], ["y2"], ExactMatrix(GF2, [[1]]))
    s1 = standard_repr_sum_1(l1, r1).result
    assert verify_is_sum_k_of(s1.to_matroid(), l1.to_matroid(), r1.to_matroid(), l1, r1, None)
    # the wrong matroid on either slot is refused
    assert not verify_is_sum_k_of(l1.to_matroid(), l1.to_matroid(), r1.to_matroid(), l1, r1, None)
    assert not verify_is_sum_k_of(s1.to_matroid(), r1.to_matroid(), r1.to_matroid(), l1, r1, None)

    left2 = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 1]]))
    right2 = make_repr(["x2", "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]]))
    s2 = standard_repr_sum_2(left2, right2, "x2", "y2").result
    assert verify_is_sum_k_of(
        s2.to_matroid(), left2.to_matroid(), right2.to_matroid(), left2, right2, ("x2", "y2"))

    left3, right3, glue = identity_pair()
    s3 = standard_repr_sum_3(left3, right3, glue).result
    assert verify_is_sum_k_of(
        s3.to_matroid(), left3.to_matroid(), right3.to_matroid(), left3, right3, glue)

    # an Invalid sum can never be certified
    zero_row = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]]))
    assert not verify_is_sum_k_of(
        s2.to_matroid(), zero_row.to_matroid(), right2.to_matroid(), zero_row, right2, ("x2", "y2"))

    # a single flipped entry in a witness changes the sum matroid
    flipped = make_repr(["x1", "x2"], ["y1", "y2"], ExactMatrix(GF2, [[0, 1], [0, 1]]))
    assert not verify_is_sum_k_of(
        s2.to_matroid(), flipped.to_matroid(), right2.to_matroid(), flipped, right2, ("x2", "y2"))


@pytest.mark.parametrize("bad_glue", [
    ("x2", "y2", "z"),
    "x2",
    Sum3Labels("x0", "x1", "x2", "y0", "y1", None),
])
def test_malformed_glue_raises(bad_glue):
    left3, right3, _ = identity_pair()
    s3 = standard_repr_sum_3(left3, right3, GLUE).result
    with pytest.raises(ShapeError):
        compose(left3, right3, bad_glue)
    with pytest.raises(ShapeError):
        verify_is_sum_k_of(
            s3.to_matroid(), left3.to_matroid(), right3.to_matroid(), left3, right3, bad_glue)


def test_sum2_random_pairs_have_regular_summands():
    rng = random.Random(29)
    for _ in range(5):
        left, right, x, y = random_sum2_pair(rng)
        out = standard_repr_sum_2(left, right, x, y)
        assert out.valid
        assert find_tu_signing(left.B.body) is not None
        assert find_tu_signing(right.B.body) is not None


def compose_blocks(a_left, a_right, r=None, c=None):
    """Body of ``compose`` on GF(2) blocks: the 1-sum, or the 2-sum [[a_left, 0], [c * r, a_right]].

    The glue row x closes the left summand under a_left; the glue column y
    is the last left column and opens the right summand before a_right.
    """
    xs, ys = labels("a", a_left.n_rows), labels("b", a_left.n_cols)
    xs_right, ys_right = labels("c", a_right.n_rows), labels("d", a_right.n_cols)
    if r is None:
        left, right, glue = make_repr(xs, ys, a_left), make_repr(xs_right, ys_right, a_right), None
    else:
        left = make_repr(xs + ["x"], ys[:-1] + ["y"], ExactMatrix(GF2, a_left.to_lists() + [r]))
        right = make_repr(["x"] + xs_right[1:], ["y"] + ys_right,
                          ExactMatrix(GF2, [[ci, *row] for ci, row in zip(c, a_right.rows)]))
        glue = ("x", "y")
    return compose(left, right, glue).result.B.body


RATIONAL_ENTRIES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), "2/3")


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_matrix_sums_match_plain_list_oracle(kind):
    # 400 seeded sums per kind, k = 1, 2 in turn, summands down to 0 rows or 0 columns;
    # over Q through sign_sum_1/2, over GF(2) through compose
    rng = random.Random(1100 if kind == GF2 else 1101)
    make = random_gf2_matrix if kind == GF2 else random_rational_matrix
    # over Q r and c are caller input: ints, Fractions and strings
    entry = (lambda: rng.randint(0, 1)) if kind == GF2 else (lambda: rng.choice(RATIONAL_ENTRIES))
    seen = Counter()
    for t in range(400):
        m_l, n_l, m_r, n_r = (rng.randint(0, 4) for _ in range(4))
        if t % 2 and kind == GF2:  # a GF(2) 2-sum needs the glue column y and the glue row x
            n_l, m_r = max(n_l, 1), max(m_r, 1)
        seen["empty"] += 0 in (m_l, n_l, m_r, n_r)
        a_left, a_right = make(rng, m_l, n_l), make(rng, m_r, n_r)
        if t % 2 == 0:
            expected = plain_matrix_sum_1(a_left, a_right)
            out = sign_sum_1(a_left, a_right) if kind == RATIONAL else compose_blocks(a_left, a_right)
        else:
            r, c = [entry() for _ in range(n_l)], [entry() for _ in range(m_r)]
            while kind == GF2 and not (any(r) and any(c)):  # compose refuses a zero r or c
                r, c = [entry() for _ in range(n_l)], [entry() for _ in range(m_r)]
            nonzero = [Fraction(v) != 0 for v in c]
            seen["c zero"] += not all(nonzero)
            seen["c nonzero"] += any(nonzero)
            expected = plain_matrix_sum_2(a_left, r, a_right, c)
            out = (sign_sum_2(a_left, r, a_right, c) if kind == RATIONAL
                   else compose_blocks(a_left, a_right, r, c))
        assert out.kind == kind and out.shape == (m_l + m_r, n_l + n_r)
        assert out.to_lists() == expected
        assert_exact(out)
    assert seen["empty"] and seen["c zero"] and seen["c nonzero"]


def test_labeled_3_sums_match_plain_list_oracle(monkeypatch):
    # compose assembles a 3-sum straight in its output label order; the
    # benchmark's tumat-free assembly is the oracle, as in acceptance 8
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracles

    rng = random.Random(1102)
    glue = Sum3Labels(*SUM3_LABELS)
    glue_only = 0  # left summands with no rows or columns besides the glue labels
    for t in range(300):
        left, right = random_valid_sum3_pair(rng, UNIT_D0S[t % len(UNIT_D0S)])
        glue_only += left.B.body.shape == (3, 3)
        outcome = compose(left, right, glue)
        assert outcome.valid
        s = outcome.result
        sides = [(side.X, side.Y, side.B.body.to_lists()) for side in (left, right)]
        expected = oracles.sum_labels_and_body(3, *sides, SUM3_LABELS)
        assert (list(s.X), list(s.Y), s.B.body.to_lists()) == expected
        assert_exact(s.B.body)
    assert glue_only


def test_sum_results_carry_checked_labels():
    # results wrapped without re-checking their labels equal the checked construction
    rng = random.Random(1103)
    glue = Sum3Labels(*SUM3_LABELS)
    outcomes = [compose(*random_valid_sum3_pair(rng, d0), glue) for d0 in UNIT_D0S]
    left, right, x, y = random_sum2_pair(rng)
    outcomes += [compose(left, right, (x, y))]
    outcomes += [compose(make_repr(["a"], ["b"], ExactMatrix(GF2, [[1]])), left, None)]
    for outcome in outcomes:
        s = outcome.result
        assert s.B == LabeledMatrix(s.X, s.Y, s.B.body)
        assert [s.B.row_position(u) for u in s.X] == list(range(len(s.X)))
        assert [s.B.col_position(v) for v in s.Y] == list(range(len(s.Y)))


def block_rule_corpus(rng):
    """100 seeded sums of each k with regular summands, as (left, right, glue).

    1-sums of random regular summands, 2-sums from ``random_sum2_pair``, and
    3-sums from ``sum3_corpus`` topped up with random valid 3-sum pairs
    whose summands are regular.
    """
    sums = []
    for _ in range(100):
        m1, n1, m2, n2 = (rng.randint(1, 4) for _ in range(4))
        left = random_standard_repr(rng, m1, n1, regular=True)
        right = random_standard_repr(rng, m2, n2, x_start=m1 + 1, y_start=n1 + 1, regular=True)
        sums.append((left, right, None))
    for _ in range(100):
        left, right, x, y = random_sum2_pair(rng)
        sums.append((left, right, (x, y)))
    sums += [(left, right, glue) for left, right, glue, _ in sum3_corpus(per_unit=9)]
    while len(sums) < 300:
        left, right = random_valid_sum3_pair(rng, rng.choice(UNIT_D0S), max_rest=3)
        if is_regular(left) is not None and is_regular(right) is not None:
            sums.append((left, right, Sum3Labels(*SUM3_LABELS)))
    return sums


def corruptions(rng, w):
    """Copies of the witness w, each changed once: a nonzero entry negated, zeroed,
    or made 2 or 1/2, a zero entry made +-1, a row negated, or two rows swapped."""
    rows = w.body.to_lists()
    m, n = len(rows), len(rows[0])
    nonzero = [(i, j) for i in range(m) for j in range(n) if rows[i][j]]
    zero = [(i, j) for i in range(m) for j in range(n) if not rows[i][j]]
    changes = [lambda r, i, j: r[i].__setitem__(j, -r[i][j]),
               lambda r, i, j: r[i].__setitem__(j, 0),
               lambda r, i, j: r[i].__setitem__(j, rng.choice((2, Fraction(1, 2))))]
    out = []
    for change in changes if nonzero else ():
        out.append([list(row) for row in rows])
        change(out[-1], *rng.choice(nonzero))
    if zero:
        out.append([list(row) for row in rows])
        i, j = rng.choice(zero)
        out[-1][i][j] = rng.choice((1, -1))
    i, k = rng.randrange(m), rng.randrange(m)
    out.append([[-x for x in row] if t == i else row for t, row in enumerate(rows)])
    out.append([rows[k] if t == i else rows[i] if t == k else row for t, row in enumerate(rows)])
    return [LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(RATIONAL, r)) for r in out]


def test_block_rule_never_certifies_what_a_whole_witness_tu_check_rejects():
    # the block rule accepts every signed sum sign_composition builds; on
    # corrupted witnesses it may reject more than the TU check, never less.
    # Every entry of a built sum, for each k, is one of the shared sign Fractions
    rng = random.Random(18)
    seen = Counter()
    shared = tuple(_SIGNS.values())
    for left, right, glue in block_rule_corpus(rng):
        s = compose(left, right, glue).result
        signed_left, signed_right = is_regular(left), is_regular(right)
        w = sign_composition(signed_left, signed_right, glue)
        assert all(any(x is v for v in shared) for row in w.body.rows for x in row), glue
        assert certifies_sum(w, s.B, signed_left, signed_right, glue), (left, right, glue)
        assert is_tu_signing_of(w.body, s.B.body, force=True)
        for bad in corruptions(rng, w):
            certified = certifies_sum(bad, s.B, signed_left, signed_right, glue)
            tu_signing = is_tu_signing_of(bad.body, s.B.body, force=True)
            assert tu_signing or not certified, (glue, bad.body.to_lists())
            seen[certified, tu_signing] += 1
    assert seen[False, False] > 1000 and seen[True, True] > 100


def test_block_rule_reads_the_witness_not_the_sums_b():
    # W and B that share a fault the assembly could make together: the
    # support check alone would pass them, the block rule must not
    left, right, x, y = random_sum2_pair(random.Random(5))
    apart = make_repr([u + "r" for u in right.X], [v + "r" for v in right.Y], right.B.body)
    for right, glue in ((right, (x, y)), (apart, None)):
        signed_left, signed_right = is_regular(left), is_regular(right)
        s = compose(left, right, glue).result
        w = sign_composition(signed_left, signed_right, glue)
        assert certifies_sum(w, s.B, signed_left, signed_right, glue)
        # a nonzero where the left rows meet the right columns (and, for a
        # 1-sum, where the right rows meet the left columns), in W and B alike
        spots = [(w.row_labels[0], w.col_labels[-1])]
        spots += [(w.row_labels[-1], w.col_labels[0])] if glue is None else []
        for u, v in spots:
            i, j = w.row_position(u), w.col_position(v)
            rows, supp = w.body.to_lists(), s.B.body.to_lists()
            rows[i][j], supp[i][j] = 1, 1
            bad_w = LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(RATIONAL, rows))
            bad_b = LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(GF2, supp))
            assert not certifies_sum(bad_w, bad_b, signed_left, signed_right, glue), (glue, u, v)
        # a row that is in neither summand, in W and B alike
        extra = w.row_labels + ("stray",)
        bad_w = LabeledMatrix(extra, w.col_labels, ExactMatrix(RATIONAL, w.body.to_lists() + [[0] * w.body.n_cols]))
        bad_b = LabeledMatrix(extra, w.col_labels, ExactMatrix(GF2, s.B.body.to_lists() + [[0] * w.body.n_cols]))
        assert not certifies_sum(bad_w, bad_b, signed_left, signed_right, glue)


def test_block_rule_wants_the_canonical_connector():
    # negating row x0 keeps W a TU signing of B, but its connector leaves the
    # canonical form that sign_composition writes, and the rule refuses it
    left, right, glue, _ = sum3_corpus(per_unit=1)[0]
    signed_left, signed_right = is_regular(left), is_regular(right)
    s = compose(left, right, glue).result
    w = sign_composition(signed_left, signed_right, glue)
    i = w.row_position(glue.x0)
    rows = [[-x for x in row] if t == i else row for t, row in enumerate(w.body.to_lists())]
    flipped = LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(RATIONAL, rows))
    assert is_tu_signing_of(flipped.body, s.B.body)
    assert not certifies_sum(flipped, s.B, signed_left, signed_right, glue)


def test_only_scalings_by_signs_match_a_signing():
    # a summand "signing" with row x0 or column y0 doubled is not TU; line
    # scales still take it to its block of W, but not scales by signs alone,
    # so the block rule refuses it and no sign scaling reaches the target
    left, right, glue, _ = sum3_corpus(per_unit=1)[0]
    signed_left, signed_right = is_regular(left), is_regular(right)
    s = compose(left, right, glue).result
    w = sign_composition(signed_left, signed_right, glue)
    i, j = signed_left.row_position(glue.x0), signed_left.col_position(glue.y0)
    for axis in (0, 1):
        rows = [[2 * x if (r, c)[axis] == (i, j)[axis] else x for c, x in enumerate(row)]
                for r, row in enumerate(signed_left.body.to_lists())]
        doubled = LabeledMatrix(signed_left.row_labels, signed_left.col_labels, ExactMatrix(RATIONAL, rows))
        held = w.select(signed_left.row_labels, signed_left.col_labels).body.rows
        assert _line_scales(held, doubled.body.rows) is not None
        assert not certifies_sum(w, s.B, doubled, signed_right, glue)
        with pytest.raises(ShapeError, match="no row/column sign scaling reaches the target"):
            canonical_signing_sum3(doubled, signed_right, glue)


def zeroed_alike(w, b, spots):
    """The witness w and the sum's B with the entries at the (row, column) labels ``spots`` zeroed in both."""
    rows, supp = w.body.to_lists(), b.body.to_lists()
    for u, v in spots:
        i, j = w.row_position(u), w.col_position(v)
        rows[i][j] = supp[i][j] = 0
    return (LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(RATIONAL, rows)),
            LabeledMatrix(w.row_labels, w.col_labels, ExactMatrix(GF2, supp)))


def test_block_rule_refuses_a_singular_connector():
    # zeroing (x0, y0) in W and B alike leaves D0 = [[0, 1], [0, 1]] singular,
    # while the bottom-left block keeps rank 2 through column ya
    left, right, glue, _ = next(c for c in sum3_corpus(per_unit=1) if c[3] == ((1, 1), (0, 1)))
    signed_left, signed_right = is_regular(left), is_regular(right)
    s = compose(left, right, glue).result
    w = sign_composition(signed_left, signed_right, glue)
    assert certifies_sum(w, s.B, signed_left, signed_right, glue)
    bad_w, bad_b = zeroed_alike(w, s.B, [("x0", "y0")])
    bottom_left = bad_w.select(["x0", "x1", "xb"], ["ya", "y0", "y1"]).body
    assert bottom_left.rank() == 2 and bad_w.select(["x0", "x1"], ["y0", "y1"]).body.determinant() == 0
    assert not certifies_sum(bad_w, bad_b, signed_left, signed_right, glue)


def test_block_rule_refuses_a_2_sum_with_zero_bottom_left():
    # a 2-sum's bottom-left block c * r has rank 1; zeroed in W and B alike it has rank 0
    left, right, x, y = random_sum2_pair(random.Random(5))
    signed_left, signed_right = is_regular(left), is_regular(right)
    s = compose(left, right, (x, y)).result
    w = sign_composition(signed_left, signed_right, (x, y))
    assert certifies_sum(w, s.B, signed_left, signed_right, (x, y))
    spots = [(u, v) for u in right.X for v in left.Y]
    assert any(w.entry(u, v) for u, v in spots)
    bad_w, bad_b = zeroed_alike(w, s.B, spots)
    assert not certifies_sum(bad_w, bad_b, signed_left, signed_right, (x, y))


def test_block_rule_refuses_a_summand_entry_that_is_not_an_integer():
    # the block rule reads each summand signing as ints, so an entry 1/2
    # would read as its numerator 1; sign_composition, which trusts its
    # certified signings, builds the same witness from it, and the block
    # rule refuses the signing instead of certifying that witness
    left, right, x, y = random_sum2_pair(random.Random(5))
    for left, right, glue in (sum3_corpus(per_unit=1)[0][:3], (left, right, (x, y))):
        signed = [is_regular(left), is_regular(right)]
        s = compose(left, right, glue).result
        w = sign_composition(*signed, glue)
        assert certifies_sum(w, s.B, *signed, glue)
        for side in (0, 1):
            rows = signed[side].body.to_lists()
            i, j = next((i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e)
            rows[i][j] = Fraction(1, 2)
            halved = list(signed)
            halved[side] = LabeledMatrix(signed[side].row_labels, signed[side].col_labels, ExactMatrix(RATIONAL, rows))
            assert sign_composition(*halved, glue) == w, (glue, side)
            assert not certifies_sum(w, s.B, *halved, glue), (glue, side)


def test_block_rule_refuses_a_summand_without_its_glue_line():
    # the blocks take r at the left's glue rows X and c at the right's glue
    # columns Y; a summand signing without one of them would leave that
    # line of W unchecked.  Both 2-sums below have determinant -2 on rows
    # b and the last row, and pass every other block test: the left
    # signing lacks row x, then the right signing lacks column y
    def labeled(rows, cols, body, kind=RATIONAL):
        return LabeledMatrix(rows, cols, ExactMatrix(kind, body))

    for rows, cols, body, left, right in (
        (["a", "b"], ["p", "y"], [[1, 1], [1, -1]],
         labeled(["a"], ["p", "y"], [[1, 1]]), labeled(["b"], ["y"], [[1]])),
        (["a", "b", "c"], ["p", "q"], [[1, 0], [1, 1], [1, -1]],
         labeled(["a", "x"], ["p"], [[1], [1]]), labeled(["b", "c"], ["q"], [[1], [-1]])),
    ):
        w, b = labeled(rows, cols, body), labeled(rows, cols, [[abs(e) for e in row] for row in body], GF2)
        assert is_totally_unimodular(w.body).witness[2] == -2
        assert not certifies_sum(w, b, left, right, ("x", "y"))
    # the genuine witness of a 3-sum and a 2-sum, each glue line dropped in turn
    left3, right3, glue3 = sum3_corpus(per_unit=1)[0][:3]
    left2, right2, x, y = random_sum2_pair(random.Random(5))
    for left, right, glue, xs, ys in ((left3, right3, glue3, glue3.xs[:2], glue3.ys[:2]),
                                      (left2, right2, (x, y), (x,), (y,))):
        signed_left, signed_right = is_regular(left), is_regular(right)
        s = compose(left, right, glue).result
        w = sign_composition(signed_left, signed_right, glue)
        assert certifies_sum(w, s.B, signed_left, signed_right, glue)
        for u in xs:
            assert not certifies_sum(w, s.B, without(signed_left, u), signed_right, glue), (glue, u)
        for v in ys:
            assert not certifies_sum(w, s.B, signed_left, without(signed_right, v), glue), (glue, v)
    # without row x0 in the left signing, W's row x0 went unchecked: of its
    # entries set to 0 or +-1 in W and B alike, some make W not TU
    signed_left, signed_right = is_regular(left3), is_regular(right3)
    s, w = compose(left3, right3, glue3).result, sign_composition(signed_left, signed_right, glue3)
    short, i, seen = without(signed_left, glue3.x0), w.row_position(glue3.x0), Counter()
    for j, e in product(range(len(w.col_labels)), (0, 1, -1)):
        rows, supp = w.body.to_lists(), s.B.body.to_lists()
        rows[i][j], supp[i][j] = e, abs(e)
        bad, bad_b = labeled(w.row_labels, w.col_labels, rows), labeled(w.row_labels, w.col_labels, supp, GF2)
        assert not certifies_sum(bad, bad_b, short, signed_right, glue3), (j, e)
        seen[is_totally_unimodular(bad.body, force=True).witness is None] += 1
    assert seen[False] > 0, seen


def test_block_rule_refuses_a_3_sum_signing_without_any_glue_line():
    # both signings of a 3-sum hold all six glue lines; each dropped in turn
    # from one signing, and from W and B where they hold it, is refused
    # before W's connector is read, so no missing-label error escapes
    calls = Counter()
    for left, right, glue, _ in sum3_corpus(per_unit=6):
        signed = is_regular(left), is_regular(right)
        s = compose(left, right, glue).result
        w = sign_composition(*signed, glue)
        assert certifies_sum(w, s.B, *signed, glue)
        for line, side in product(glue.xs + glue.ys, (0, 1)):
            short = [without(m, line) if i == side else m for i, m in enumerate(signed)]
            held = line in w.row_labels + w.col_labels
            bad_w, bad_b = (without(w, line), without(s.B, line)) if held else (w, s.B)
            calls[certifies_sum(bad_w, bad_b, *short, glue)] += 1
    assert calls == {False: 432}


def fixture_sums():
    """(witness, B, left signing, right signing, glue) of the sums of the fixture pairs, one per k."""
    pairs = [tuple(parse_standard_repr_document((FIXTURES / f"sum{k}_{side}.json").read_text())
                   for side in ("left", "right")) + (glue,) for k, glue in ((1, None), (2, ("x2", "y2")))]
    built = []
    for left, right, glue in pairs + [sum3_corpus(per_unit=1)[0][:3]]:
        signed_left, signed_right = is_regular(left), is_regular(right)
        w = sign_composition(signed_left, signed_right, glue)
        built.append((w, compose(left, right, glue).result.B, signed_left, signed_right, glue))
    return built


def with_entry(m, u, v, e, kind=RATIONAL):
    """A copy of the labeled matrix m of ``kind`` with entry e at row label u and column label v."""
    rows = m.body.to_lists()
    rows[m.row_position(u)][m.col_position(v)] = e
    return LabeledMatrix(m.row_labels, m.col_labels, ExactMatrix(kind, rows))


def test_certificate_refusals_are_pinned():
    # the certificate's refusals, for each k: a witness that is not rational
    # or a B that is not GF(2) raises; a witness entry 1/2 or 2 where B
    # holds 1, or a summand signing entry 1/2, is refused
    for w, b, signed_left, signed_right, glue in fixture_sums():
        assert certifies_sum(w, b, signed_left, signed_right, glue)
        for bad_w, bad_b in ((LabeledMatrix(w.row_labels, w.col_labels, b.body), b),
                             (w, LabeledMatrix(b.row_labels, b.col_labels, w.body))):
            with pytest.raises(ShapeError, match="signing compares a rational matrix against a GF"):
                certifies_sum(bad_w, bad_b, signed_left, signed_right, glue)
        u, v = next((u, v) for u in b.row_labels for v in b.col_labels if b.entry(u, v))
        for e in (Fraction(1, 2), 2, Fraction(-1, 2), -2):
            assert not certifies_sum(with_entry(w, u, v, e), b, signed_left, signed_right, glue), (glue, e)
        for side in (0, 1):
            signed = [signed_left, signed_right]
            u, v = next((u, v) for u in signed[side].row_labels for v in signed[side].col_labels
                        if signed[side].entry(u, v))
            signed[side] = with_entry(signed[side], u, v, Fraction(1, 2) * signed[side].entry(u, v))
            assert not certifies_sum(w, b, *signed, glue), (glue, side)


def test_certificate_compares_the_witness_with_b_everywhere():
    # B enters the certificate only through its labels and this comparison:
    # a B with any one entry changed is not the witness's support
    for w, b, signed_left, signed_right, glue in fixture_sums():
        for u, v in product(b.row_labels, b.col_labels):
            bad_b = with_entry(b, u, v, 1 - b.entry(u, v), GF2)
            assert not certifies_sum(w, bad_b, signed_left, signed_right, glue), (glue, u, v)


def test_certificate_refuses_a_witness_labeled_unlike_b():
    # the certificate's first test: W must carry B's row and column labels
    # in B's order.  A valid witness with two rows swapped, labels and rows
    # together, one with a column relabeled, and one checked against another
    # sum's B are each refused, for each k, and nothing raises
    sums = fixture_sums()
    for w, b, signed_left, signed_right, glue in sums:
        order = [1, 0] + list(range(2, len(w.row_labels)))
        swapped = LabeledMatrix([w.row_labels[i] for i in order], w.col_labels,
                                ExactMatrix(RATIONAL, [w.body.rows[i] for i in order]))
        relabeled = LabeledMatrix(w.row_labels, ("stray",) + w.col_labels[1:], w.body)
        other_b = next(o for _, o, *_ in sums if (o.row_labels, o.col_labels) != (b.row_labels, b.col_labels))
        for bad_w, bad_b in ((swapped, b), (relabeled, b), (w, other_b)):
            assert not certifies_sum(bad_w, bad_b, signed_left, signed_right, glue), glue


def recorded(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call's arguments and result go, in order, to the returned list."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_certificate_walks_no_forest_on_equal_blocks(monkeypatch):
    # each summand block of the 1-sum and the 2-sum of the fixture pairs is
    # its signing, entry for entry, so no line scaling is solved
    built = fixture_sums()[:2]  # the signing searches walk their forests here
    forests = recorded(monkeypatch, tu_module, "spanning_forest")
    for w, b, signed_left, signed_right, glue in built:
        assert certifies_sum(w, b, signed_left, signed_right, glue)
    assert forests == []


def test_equal_pairs_get_unit_scales_with_no_forest(monkeypatch):
    # an equal pair, of signs or of rationals, is answered at once; a pair
    # with the same support and other entries still walks the forest
    forests = recorded(monkeypatch, tu_module, "spanning_forest")
    graphs = recorded(monkeypatch, tu_module, "_support_graph")
    rng = random.Random(49)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        for entries in ((0, 1, -1), (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4))):
            a = tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(m))
            assert _line_scales(a, a) == ([1] * (m + n), [1] * (m + n)), a
    assert forests == graphs == []
    a = ((1, 1), (1, 1))
    assert _line_scales(a, ((1, 1), (1, -1))) is None
    assert _line_scales(a, ((2, 2), (2, 2))) is not None
    assert len(forests) == len(graphs) == 2


def test_canonical_signing_keeps_a_summand_at_its_target(monkeypatch):
    # a summand whose connector already is the target is assembled as it
    # was read, the very matrix; one with a negated connector line is not
    read = recorded(monkeypatch, sums_module, "_ints")
    assembled = recorded(monkeypatch, sums_module, "_assemble")
    canonical_signing_sum3(*signed_pair(LEFT3_AT_TARGET, RIGHT3_AT_TARGET))
    flipped = [[-x for x in row] if i == 1 else row for i, row in enumerate(RIGHT3_AT_TARGET)]
    canonical_signing_sum3(*signed_pair(LEFT3_AT_TARGET, flipped))
    kept = [[side is summand for side, (_, summand) in zip(args[:2], read[2 * t:2 * t + 2])]
            for t, (args, _) in enumerate(assembled)]
    assert kept == [[True, True], [True, False]]
