import pathlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    FiniteMatroid,
    LabeledMatrix,
    ShapeError,
    SizeGuardError,
    StandardRepr,
    Sum3Labels,
    compose,
    from_cols,
    fundamental_repr,
    is_regular,
    is_totally_unimodular,
    is_tu_signing_of,
    matroids_equal,
    parse_standard_repr_document,
    standardize,
    standardize_tu,
    to_matroid,
)
from tumat.fixtures import fano_standard_repr, network_example, r10_standard_repr
from tumat.sums import _layout

from helpers import (
    SUM3_LABELS,
    assert_exact,
    cofactor_det,
    is_regular_witness,
    labels,
    make_repr,
    naive_matroids_equal,
    plain_rank,
    random_gf2_matrix,
    random_rational_matrix,
    random_standard_repr,
    random_tu_matrix,
    support,
)


def test_standard_repr_validation():
    # X and Y are B's labels, so the one rule left is that they are disjoint
    with pytest.raises(ShapeError, match="X and Y must be disjoint"):
        StandardRepr(LabeledMatrix(["x1", "x2"], ["y1", "x2"], ExactMatrix(GF2, [[1, 0], [0, 1]])))
    s = StandardRepr(LabeledMatrix(["x1", "x2"], ["y1"], ExactMatrix(GF2, [[1], [0]])))
    assert (s.X, s.Y) == (("x1", "x2"), ("y1",))


def test_to_full_layout():
    s = make_repr(["x1", "x2"], ["y1"], ExactMatrix(GF2, [[1], [0]]))
    full = s.to_full()
    assert full.col_labels == ("x1", "x2", "y1")
    assert full.body.to_lists() == [[1, 0, 1], [0, 1, 0]]
    assert s.ground == ("x1", "x2", "y1")


def test_x_is_always_a_base():
    rng = random.Random(3)
    for _ in range(30):
        s = random_standard_repr(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        assert s.to_matroid().is_base(s.X)


def test_standardize_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        s = random_standard_repr(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        again = standardize(s.to_full(), s.X)
        assert again == s and hash(again) == hash(s) and len({again, s}) == 1


def test_standardize_preserves_matroid_every_base():
    rng = random.Random(7)
    for _ in range(8):
        rep = LabeledMatrix(
            labels("r", 3), labels("e", 5), random_rational_matrix(rng, 3, 5)
        )
        m = to_matroid(rep)
        for base in m.bases():
            s = standardize(rep, base)
            assert set(s.X) == set(base)
            assert naive_matroids_equal(s.to_matroid(), m)


def test_standardize_rejects_non_base():
    not_base = "^the given label set is not a base of the column matroid$"
    rep = LabeledMatrix(["r"], ["a", "b"], ExactMatrix(RATIONAL, [[1, 2]]))
    with pytest.raises(ShapeError, match=not_base):
        standardize(rep, ["a", "b"])  # too big
    with pytest.raises(ShapeError, match=r"^labels \['z'\] are not columns of the matrix$"):
        standardize(rep, ["z"])  # not a column
    dep = LabeledMatrix(["r", "s"], ["a", "b"], ExactMatrix(RATIONAL, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeError, match=not_base):
        standardize(dep, ["a", "b"])  # dependent pair
    # an independent set that does not span fails with the same message, over both kinds
    for kind in (RATIONAL, GF2):
        eye = LabeledMatrix(["r", "s"], ["a", "b", "c"], ExactMatrix(kind, [[1, 0, 1], [0, 1, 1]]))
        with pytest.raises(ShapeError, match=not_base):
            standardize(eye, ["a"])
        with pytest.raises(ShapeError, match=not_base):
            standardize(eye, ["c"])
        with pytest.raises(ShapeError, match=not_base):
            standardize(eye, [])
        # a zero row drops out of B; non-spanning and dependent sets are still refused
        zero_row = LabeledMatrix(["r", "z", "s"], ["a", "b", "c", "d"],
                                 ExactMatrix(kind, [[1, 0, 3, 1], [0, 0, 0, 0], [0, 1, 0, 1]]))
        assert standardize(zero_row, ["b", "a"]) == make_repr(
            ["a", "b"], ["c", "d"], ExactMatrix(kind, [[3, 1], [0, 1]]))
        for bad in (["a"], ["a", "c"], ["a", "b", "d"]):
            with pytest.raises(ShapeError, match=not_base):
                standardize(zero_row, bad)


def _rank_r_matrix(rng, kind, m, n, r):
    """An m x n matrix M * G of rank r, and the labels of G's r unit columns, a base of it.

    G is r x n with its unit columns at random positions; M holds the r
    unit rows, so its columns are independent, among zero rows, repeated
    rows and combinations of the unit rows."""
    pool = [0, 1] if kind == GF2 else [0, 0, 1, -1, 2, Fraction(-3, 2), Fraction(1, 3)]
    m_rows = [[int(i == k) for k in range(r)] for i in range(r)]
    for pick in (rng.randrange(3) for _ in range(m - r)):
        m_rows.append([0] * r if pick == 0 or not m_rows else list(rng.choice(m_rows)) if pick == 1
                      else [rng.choice(pool) for _ in range(r)])
    rng.shuffle(m_rows)
    unit_at = sorted(rng.sample(range(n), r))
    g = [[int(j == at) if j in unit_at else rng.choice(pool) for j in range(n)] for at in unit_at]
    body = ExactMatrix(kind, m_rows, n_cols=r) @ ExactMatrix(kind, g, n_cols=n)
    return LabeledMatrix([f"r{i}" for i in range(m)], labels("c", n, 0), body), [f"c{j}" for j in unit_at]


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_standardize_is_certified_by_its_columns(kind):
    # no second reduction in the test: standardize(rep, X) must satisfy
    # rep[:, Y] == rep[:, X] @ B exactly, and with rank(rep) = r known by
    # construction, X is a base exactly when |X| = r and some r x r minor
    # of rep[:, X] has a nonzero cofactor determinant; every other label
    # set is refused with one message.  Inputs of up to 6 columns try every
    # label set, wider ones the known base and a sample
    not_base = "^the given label set is not a base of the column matroid$"
    rng = random.Random(f"standardize {kind}")
    tried = {True: 0, False: 0}
    for trial in range(80):
        m, n = rng.randint(0, 6), rng.randint(0, 10)
        r = 0 if trial % 10 == 0 else rng.randint(0, min(m, n))
        rep, known = _rank_r_matrix(rng, kind, m, n, r)
        cols = rep.col_labels
        if n <= 6:
            sets = [list(x) for k in range(n + 1) for x in combinations(cols, k)]
        else:
            sets = [known] + [rng.sample(cols, r) for _ in range(12)] + [rng.sample(cols, rng.randint(0, n))
                                                                         for _ in range(4)]
        for x in sets:
            at = [rep.col_position(v) for v in x]
            minors = (cofactor_det([[rep.body.rows[i][j] for j in at] for i in rows])
                      for rows in combinations(range(m), len(x)))
            is_base = len(x) == r and any(d % 2 if kind == GF2 else d for d in minors)
            assert is_base or set(x) != set(known)
            tried[is_base] += 1
            if not is_base:
                with pytest.raises(ShapeError, match=not_base):
                    standardize(rep, x)
                continue
            s = standardize(rep, x)
            assert set(s.X) == set(x) and s.X + s.Y == tuple(v for v in cols if v in x) + tuple(
                v for v in cols if v not in x)
            assert_exact(s.B.body)
            assert rep.select(rep.row_labels, s.Y).body == rep.select(rep.row_labels, s.X).body @ s.B.body
    assert min(tried.values()) >= 300


def test_standardize_tu_matches_independent_oracles():
    # X is the base, [I | B] represents the input's matroid (exhaustive
    # equality) and B is TU (subdeterminant scan).
    rng = random.Random(11)
    done = 0
    while done < 15:
        a = random_tu_matrix(rng, 3, 5)
        rep = LabeledMatrix(labels("r", 3), labels("e", 5), a)
        m = to_matroid(rep)
        bases = m.bases()
        if not bases:
            continue
        base = rng.choice(bases)
        s = standardize_tu(rep, base)
        assert set(s.X) == set(base)
        assert naive_matroids_equal(s.to_matroid(), m)
        assert is_totally_unimodular(s.B.body).is_tu
        done += 1


def test_standardize_tu_rejects_bad_input():
    not_tu = LabeledMatrix(["r"], ["a"], ExactMatrix(RATIONAL, [[2]]))
    with pytest.raises(ShapeError):
        standardize_tu(not_tu, ["a"])
    gf2 = LabeledMatrix(["r"], ["a"], ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError):
        standardize_tu(gf2, ["a"])


def test_standardize_tu_force_lifts_the_size_guard():
    # [I_9 | I_9] is TU but past the TU check's size guard: without force
    # standardize_tu refuses it, and with force it returns B = I_9 at the
    # last nine columns
    eye = ExactMatrix.identity(9, RATIONAL)
    rep = LabeledMatrix(labels("r", 9), labels("c", 18), from_cols(eye, eye))
    base = rep.col_labels[9:]
    with pytest.raises(SizeGuardError, match=r"^TU check on a 9x18 matrix exceeds the size guard \(min dim > 8\)$"):
        standardize_tu(rep, base)
    s = standardize_tu(rep, base, force=True)
    assert (s.X, s.Y) == (base, rep.col_labels[:9]) and s.B.body == eye


def test_fundamental_repr_round_trip():
    rng = random.Random(13)
    for _ in range(30):
        s = random_standard_repr(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert fundamental_repr(s.to_matroid(), s.X) == s


def test_fundamental_repr_from_base_family():
    s = fano_standard_repr()
    m = s.to_matroid()
    again = fundamental_repr(FiniteMatroid.from_bases(m.ground, m.bases()), s.X)
    assert again == s
    with pytest.raises(ShapeError):
        fundamental_repr(m, s.Y)  # Y is not a base of the Fano matroid


def test_support():
    rep = network_example()
    sup = support(rep)
    assert sup.kind == GF2
    assert sup.row_labels == rep.row_labels
    assert sup.body.to_lists() == [[1, 1, 0], [0, 1, 1]]


def test_is_regular_fano_and_r10():
    assert is_regular(fano_standard_repr()) is None
    r10 = r10_standard_repr()
    witness = is_regular(r10)
    assert witness.row_labels == r10.X and witness.col_labels == r10.Y
    assert is_tu_signing_of(witness.body, r10.B.body)
    with pytest.raises(ShapeError):
        is_regular(standardize(network_example(), ["a", "b"]))


def test_is_regular_witness():
    r10 = r10_standard_repr()
    witness = is_regular(r10)
    assert witness is not None
    eye = ExactMatrix.identity(5, RATIONAL)
    full = LabeledMatrix(r10.X, r10.ground, from_cols(eye, witness.body))
    assert is_regular_witness(full, r10.to_matroid())
    # a TU matrix for the wrong matroid is refused
    other = LabeledMatrix(
        r10.X, r10.ground, from_cols(eye, ExactMatrix.zeros(5, 5, RATIONAL))
    )
    assert not is_regular_witness(other, r10.to_matroid())
    # a non-TU matrix is refused outright
    bad = LabeledMatrix(["r"], ["a"], ExactMatrix(RATIONAL, [[2]]))
    assert not is_regular_witness(bad, to_matroid(bad))
    with pytest.raises(ShapeError):
        is_regular_witness(fano_standard_repr().B, r10.to_matroid())


def test_to_binary_preserves_matroid():
    # the support of a TU matrix, read over GF(2), represents the same matroid
    rng = random.Random(17)
    for _ in range(10):
        a = random_tu_matrix(rng, 3, 4)
        rep = LabeledMatrix(labels("r", 3), labels("e", 4), a)
        assert naive_matroids_equal(to_matroid(support(rep)), to_matroid(rep))


# Pivot, deletion, contraction and connectivity on a standard representation
# [I | B] need no kernel of their own: a pivot is standardize at the
# exchanged base, deletion and contraction are select without the element's
# line, and the connectivity of a split is the rank of two blocks of B.

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _random_repr(rng, kind, max_rows=5, max_cols=5):
    m, n = rng.randint(1, max_rows), rng.randint(1, max_cols)
    body = random_gf2_matrix(rng, m, n) if kind == GF2 else random_rational_matrix(rng, m, n)
    return make_repr(labels("x", m), labels("y", n), body)


def _plain_rank_of(s):
    """r(S) in the matroid of [I | B], for a list of labels S, by ``helpers.plain_rank``."""
    full, ground = s.to_full().body.to_lists(), list(s.ground)
    return lambda subset: plain_rank(s.kind, [[row[ground.index(v)] for v in subset] for row in full])


def _exchanged(s, x, y):
    """``s`` pivoted at (x, y): standardized at the base X - x + y."""
    return standardize(s.to_full(), [u for u in s.X if u != x] + [y])


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_a_pivot_is_standardize_at_the_exchanged_base(kind):
    # Truemper's pivot on [I | B] at B[x, y] = b != 0: y enters X, x enters
    # Y, B'[y, x] = 1/b, B'[y, v] = B[x, v]/b, B'[u, x] = -B[u, y]/b and
    # B'[u, v] = B[u, v] - B[u, y] B[x, v]/b; pivoting back at (y, x) gives
    # B again by label, and the matroid never changes
    rng = random.Random(f"exchange {kind}")
    done = 0
    while done < 40:
        s = _random_repr(rng, kind)
        spots = [(x, y) for x in s.X for y in s.Y if s.B.entry(x, y)]
        if not spots:
            continue
        x, y = rng.choice(spots)
        t, b = _exchanged(s, x, y), Fraction(s.B.entry(x, y))

        def truemper(u, v):
            e = s.B.entry
            value = (1 / b if u == y and v == x else e(x, v) / b if u == y else -e(u, y) / b if v == x
                     else e(u, v) - e(u, y) * e(x, v) / b)
            return value % 2 if kind == GF2 else value

        assert set(t.X) == set(s.X) - {x} | {y} and set(t.Y) == set(s.Y) - {y} | {x}
        assert all(t.B.entry(u, v) == truemper(u, v) for u in t.X for v in t.Y)
        assert _exchanged(t, y, x).B.select(s.X, s.Y) == s.B
        assert naive_matroids_equal(t.to_matroid(), s.to_matroid())
        done += 1


def test_pivots_on_r10_return_b_by_label():
    r10 = parse_standard_repr_document((FIXTURES / "r10.json").read_text(encoding="utf-8"))
    spots = [(x, y) for x in r10.X for y in r10.Y if r10.B.entry(x, y)]
    assert len(spots) == 15
    for x, y in spots:
        t = _exchanged(r10, x, y)
        assert standardize(t.to_full(), r10.X).B.select(r10.X, r10.Y) == r10.B
        assert matroids_equal(t.to_matroid(), r10.to_matroid())


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_deletion_and_contraction_are_select_without_the_line(kind):
    # deleting a column element y leaves [I | B] without column y, and
    # contracting a row element x (a unit column, so no loop) leaves it
    # without row x: r(S) in M \ y is r(S), and in M / x it is r(S + x) - 1
    rng = random.Random(f"minors {kind}")
    for _ in range(40):
        s = _random_repr(rng, kind, 4, 4)
        x, y = rng.choice(s.X), rng.choice(s.Y)
        rank = _plain_rank_of(s)
        deleted = _plain_rank_of(StandardRepr(s.B.select(s.X, [v for v in s.Y if v != y])))
        contracted = _plain_rank_of(StandardRepr(s.B.select([u for u in s.X if u != x], s.Y)))
        for minor, e in ((deleted, y), (contracted, x)):
            rest = [v for v in s.ground if v != e]
            for subset in (list(c) for k in range(len(rest) + 1) for c in combinations(rest, k)):
                assert minor(subset) == (rank(subset) if e == y else rank(subset + [x]) - rank([x]))


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_connectivity_is_the_rank_of_two_blocks(kind):
    # for E1 = X1 + Y1 and E2 = X2 + Y2, r(E1) = |X1| + rank B[X2, Y1], so
    # lambda(E1) = r(E1) + r(E2) - r(M) = rank B[X1, Y2] + rank B[X2, Y1]
    rng = random.Random(f"connectivity {kind}")
    for _ in range(60):
        s = _random_repr(rng, kind, 6, 6)
        x1, y1 = [u for u in s.X if rng.random() < 0.5], [v for v in s.Y if rng.random() < 0.5]
        x2, y2 = [u for u in s.X if u not in x1], [v for v in s.Y if v not in y1]
        rank = _plain_rank_of(s)
        assert s.B.select(x1, y2).body.rank() + s.B.select(x2, y1).body.rank() == \
            rank(x1 + y1) + rank(x2 + y2) - rank(list(s.ground))


def test_connectivity_at_the_glue_split_of_the_fixture_sums():
    # a k-sum's own split, left rows and columns against right, has
    # lambda = k - 1: the top-right block is zero and the bottom-left one
    # has rank k - 1, over GF(2)
    def read(name):
        return parse_standard_repr_document((FIXTURES / name).read_text(encoding="utf-8"))

    cases = [("sum2_left.json", "sum2_right.json", ("x2", "y2"), 1)]
    cases += [(f"sum3/{p.name[:-10]}-left.json", f"sum3/{p.name[:-10]}-right.json", Sum3Labels(*SUM3_LABELS), 2)
              for p in sorted((FIXTURES / "sum3").glob("*-left.json"))]
    assert len(cases) == 7
    for left, right, glue, k_less_one in cases:
        left, right = read(left), read(right)
        s = compose(left, right, glue).result
        _, _, top, bottom, left_cols, right_cols = _layout(left.B, right.B, glue)
        rank = _plain_rank_of(s)
        assert s.B.select(top, right_cols).body.rank() + s.B.select(bottom, left_cols).body.rank() == \
            rank(top + left_cols) + rank(bottom + right_cols) - rank(list(s.ground)) == k_less_one
