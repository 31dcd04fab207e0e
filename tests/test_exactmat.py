import math
import pathlib
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

import tumat.exactmat as exactmat
from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    LabeledMatrix,
    ShapeError,
    find_tu_signing,
    from_cols,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
    scale_rows_cols,
    standardize,
    to_matroid,
    zmod_linear_independent,
)
from tumat.stdrepr import fundamental_repr
from tumat.exactmat import _echelon, _int_rows_rank, _scaled_int_rows, _supports, gf2_rank_of_ints

from helpers import (
    UNIT_D0S,
    assert_exact,
    cofactor_det,
    gauss_jordan_pivot,
    labels,
    make_repr,
    plain_rank,
    random_gf2_matrix,
    random_rational_matrix,
    support,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_construction_coerces_entries():
    a = ExactMatrix(GF2, [[2, 3], [0, -1]])
    assert a.to_lists() == [[0, 1], [0, 1]]
    assert ExactMatrix(GF2, [[True, False]]).to_lists() == [[1, 0]]
    b = ExactMatrix(RATIONAL, [[1, "2/3"], [Fraction(1, 2), -4], ["-0.25", "3"]])
    assert b[0, 1] == Fraction(2, 3)
    assert b[1, 1] == Fraction(-4)
    assert b.to_lists()[2] == [Fraction(-1, 4), 3]


def test_construction_rejects_bad_input():
    with pytest.raises(ShapeError):
        ExactMatrix("real", [[1]])
    with pytest.raises(ShapeError):
        ExactMatrix(RATIONAL, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        ExactMatrix(RATIONAL, [["1/0"]])
    with pytest.raises(ShapeError):
        ExactMatrix(GF2, [[Fraction(1, 2)]])
    with pytest.raises(ShapeError):
        ExactMatrix(RATIONAL, [[1.5]])
    # rows that are not iterable are a broken precondition, not a TypeError
    with pytest.raises(ShapeError, match=r"^rows must be an iterable of rows of entries, got \[1, 0\]$"):
        ExactMatrix(GF2, [1, 0])
    with pytest.raises(ShapeError, match="^rows must be an iterable of rows of entries, got 5$"):
        ExactMatrix(GF2, 5)
    with pytest.raises(ShapeError) as exc:  # quoted through errors._shown, so bounded
        ExactMatrix(RATIONAL, [[0] * 10_000, 1])
    assert str(exc.value).endswith("got '[[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,'... (30005 characters)")
    # an exponent names a huge number in a few bytes: refused before Fraction expands it
    for s in ("1e5000000", "2E-5000000", "1.5e3"):
        start = time.perf_counter()
        with pytest.raises(ShapeError):
            ExactMatrix(RATIONAL, [[s]])
        assert time.perf_counter() - start < 0.5


def test_rejected_entries_are_quoted_by_a_bounded_prefix():
    # the constructor quotes a value as the document reader does, and a
    # number whose repr passes the int digit limit still gives ShapeError
    with pytest.raises(ShapeError) as exc:
        ExactMatrix(RATIONAL, [["9" * 100_000]])
    assert str(exc.value) == f"cannot use '{'9' * 40}'... (100000 characters) as a rational entry"
    with pytest.raises(ShapeError) as exc:
        ExactMatrix(GF2, [[Fraction(10**5000, 3)]])
    assert str(exc.value) == "cannot use a Fraction too large to show as a GF(2) entry"
    with pytest.raises(ShapeError, match="^unknown scalar kind 'real'$"):
        ExactMatrix("real", [[1]])


def test_empty_matrices():
    a = ExactMatrix(RATIONAL, [], n_cols=3)
    assert a.shape == (0, 3)
    assert ExactMatrix(GF2, []).shape == ExactMatrix(RATIONAL, []).shape == (0, 0)
    b = ExactMatrix(GF2, [], n_cols=0)
    assert b.determinant() == 1
    assert ExactMatrix(RATIONAL, [], n_cols=0).determinant() == Fraction(1)
    assert a.transpose().shape == (3, 0)
    with pytest.raises(ShapeError):
        ExactMatrix(GF2, [], n_cols=-1)


def test_identity_and_zeros():
    i3 = ExactMatrix.identity(3, RATIONAL)
    assert i3.determinant() == 1
    with pytest.raises(ShapeError, match="^unknown scalar kind 'real'$"):
        ExactMatrix.identity(2, "real")
    assert ExactMatrix.zeros(2, 3, GF2).to_lists() == [[0, 0, 0], [0, 0, 0]]


def test_indexing_and_views():
    a = ExactMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6]])
    assert a[1, 2] == 6
    assert a.row(0) == (1, 2, 3)
    assert a.col(1) == (2, 5)
    with pytest.raises(ShapeError):
        a.row(2)
    with pytest.raises(ShapeError):
        a.col(-1)


@pytest.mark.parametrize("pos, message", [
    ((0, -1), "column -1 out of range"), ((0, 3), "column 3 out of range"),
    ((-1, 0), "row -1 out of range"), ((2, 0), "row 2 out of range"),
])
def test_indexing_checks_both_indices_as_row_and_col_do(pos, message):
    # a negative index would otherwise count from the end
    with pytest.raises(ShapeError, match=f"^{message}$"):
        ExactMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6]])[pos]


TWO_BY_THREE = ExactMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6]])


ENTRY_CHECKS = {
    "identity-negative": (lambda: ExactMatrix.identity(-1, GF2), r"n -1 out of range"),
    "identity-bool": (lambda: ExactMatrix.identity(True, GF2), r"n must be an int, got True"),
    "zeros-negative-rows": (lambda: ExactMatrix.zeros(-2, 3, RATIONAL), r"n_rows -2 out of range"),
    "zeros-negative-cols": (lambda: ExactMatrix.zeros(2, -3, RATIONAL), r"n_cols -3 out of range"),
    "n_cols-str": (lambda: ExactMatrix(RATIONAL, [], n_cols="3"), r"n_cols must be an int, got '3'"),
    "n_cols-float": (lambda: ExactMatrix(RATIONAL, [], n_cols=2.5), r"n_cols must be an int, got 2\.5"),
    "n_cols-huge": (lambda: ExactMatrix(GF2, [], n_cols="x" * 100_000),
                    r"n_cols must be an int, got 'x{40}'\.\.\. \(100000 characters\)"),
    "index-not-a-pair": (lambda: TWO_BY_THREE[0], r"an entry is read at a \(row, column\) pair, got 0"),
    "index-str-row": (lambda: TWO_BY_THREE["0", 0], r"row must be an int, got '0'"),
    "index-float-col": (lambda: TWO_BY_THREE[0, 1.0], r"column must be an int, got 1\.0"),
    "submatrix-bool": (lambda: TWO_BY_THREE.submatrix([0], [True]), r"column index must be an int, got True"),
    "pivot-past-end": (lambda: TWO_BY_THREE.pivot(0, 3), r"column 3 out of range"),
    "zmod-fraction": (lambda: zmod_linear_independent(3, [[Fraction(1, 2)]]),
                      r"cannot use Fraction\(1, 2\) as an entry mod 3"),
    "zmod-float": (lambda: zmod_linear_independent(3, [[2.7]]), r"cannot use 2\.7 as an entry mod 3"),
    "zmod-str": (lambda: zmod_linear_independent(3, [["1"]]), r"cannot use '1' as an entry mod 3"),
    "zmod-float-modulus": (lambda: zmod_linear_independent(2.5, [[1]]),
                           r"modulus must be an int of at least 2, got 2\.5"),
    "zmod-int-vector": (lambda: zmod_linear_independent(3, [5]),
                        r"vectors must be a sequence of sequences, got \[5\]"),
    "zmod-none": (lambda: zmod_linear_independent(3, None), r"vectors must be a sequence of sequences, got None"),
    "submatrix-int": (lambda: TWO_BY_THREE.submatrix(5, [0]), r"row indices must be a sequence, got 5"),
    "from-cols-list": (lambda: from_cols(TWO_BY_THREE, [[1]]), r"from_cols joins two ExactMatrix values, got \[\[1\]\]"),
}


@pytest.mark.parametrize("case", ENTRY_CHECKS)
def test_sizes_indices_and_entries_are_checked_where_they_enter(case):
    # a bool, a float or a string is neither truncated nor passed on to fail later as a TypeError
    call, message = ENTRY_CHECKS[case]
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


def test_row_count_is_read_off_the_rows():
    a = ExactMatrix(GF2, [[1, 0], [0, 1], [1, 1]])
    assert a.n_rows == len(a.rows) == 3 and a.transpose().n_rows == 2
    with pytest.raises(AttributeError):
        a.n_rows = 4


def test_equality_and_hash():
    a = ExactMatrix(GF2, [[1, 0]])
    b = ExactMatrix(GF2, [[1, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != ExactMatrix(GF2, [[1, 1]])
    assert ExactMatrix(GF2, [], n_cols=2) != ExactMatrix(GF2, [], n_cols=3)
    assert a != ExactMatrix(RATIONAL, [[1, 0]])


def test_submatrix_allows_repeats():
    a = ExactMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = a.submatrix([0], [2, 2, 0, 0])
    assert s.to_lists() == [[3, 3, 1, 1]]
    assert a.submatrix([], []).shape == (0, 0)
    with pytest.raises(ShapeError):
        a.submatrix([3], [0])
    with pytest.raises(ShapeError):
        a.submatrix([0], [-1])


def test_transpose_involution():
    rng = random.Random(7)
    for _ in range(20):
        a = random_rational_matrix(rng, rng.randrange(5), rng.randrange(5))
        assert a.transpose().transpose() == a


def test_known_determinants():
    assert ExactMatrix(GF2, [[1, 1], [1, 1]]).determinant() == 0
    assert ExactMatrix(GF2, [[1, 1], [1, 0]]).determinant() == 1
    assert ExactMatrix(RATIONAL, [[1, 2], [3, 4]]).determinant() == Fraction(-2)
    assert ExactMatrix(RATIONAL, [["1/2"]]).determinant() == Fraction(1, 2)
    with pytest.raises(ShapeError):
        ExactMatrix(RATIONAL, [[1, 2]]).determinant()


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(0, 7)
        a = random_rational_matrix(rng, n, n)
        assert a.determinant() == cofactor_det(a.to_lists())
    for trial in range(120):
        n = rng.randrange(0, 7)
        if trial % 2:
            # signed permutations: row swaps, and pivots of both signs with
            # zeros below them, where the elimination must still negate rows
            perm = rng.sample(range(n), n)
            rows = [[rng.choice([1, -1]) * (j == perm[i]) for j in range(n)] for i in range(n)]
        else:
            # small integers, zero in the leading column except in the last row
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            for row in rows[:-1]:
                row[0] = 0
        a = ExactMatrix(RATIONAL, rows, n_cols=n)
        assert a.determinant() == cofactor_det(rows), rows


def test_permutation_determinants_are_their_signs():
    # the determinant reads its sign off the order in which the forward pass keys the rows
    for n in range(6):
        for perm in permutations(range(n)):
            cycles, seen = 0, set()
            for i in range(n):
                if i not in seen:
                    cycles += 1
                    while i not in seen:
                        seen.add(i)
                        i = perm[i]
            a = ExactMatrix(RATIONAL, [[int(j == perm[i]) for j in range(n)] for i in range(n)], n_cols=n)
            assert a.determinant() == (-1) ** (n - cycles), perm


def bound_cleared_entries(monkeypatch, rows):
    """Make each ``exactmat._cleared`` step fail at once if an entry it gives passes Hadamard's
    bound for the rows [e_k | row k], which holds every minor of them.  With its gcd division the
    entries here stay over 20 bits below it; without it they double in length at every step and
    pass it within 40 steps, so coefficient growth fails fast instead of hanging."""
    bound = math.prod(1 + sum(x * x for x in row) for row in rows)  # squared
    cleared = exactmat._cleared

    def checked(kind, y, p, f):
        out = cleared(kind, y, p, f)
        assert max(x * x for x in out) <= bound, max(map(abs, out)).bit_length()
        return out

    monkeypatch.setattr(exactmat, "_cleared", checked)


def test_determinant_30x30_is_polynomial(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracles

    rng = random.Random(31)
    rows = [[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)]
    a = ExactMatrix(RATIONAL, rows)
    bound_cleared_entries(monkeypatch, rows)  # 2^103.5; the entries reach 2^82
    start = time.perf_counter()
    det = a.determinant()
    assert time.perf_counter() - start < 1.0
    assert det == oracles.det_fraction(rows) != 0


def test_gf2_determinant_is_parity_of_integer_determinant():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 5)
        a = random_gf2_matrix(rng, n, n)
        expected = int(cofactor_det(a.to_lists())) % 2
        assert a.determinant() == expected


def test_rank_against_nonsingular_submatrix_search():
    # rank = size of the largest nonsingular square submatrix
    from itertools import combinations

    rng = random.Random(17)
    for _ in range(30):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = random_rational_matrix(rng, m, n)
        best = 0
        for k in range(1, min(m, n) + 1):
            found = any(
                a.submatrix(rs, cs).determinant() != 0
                for rs in combinations(range(m), k)
                for cs in combinations(range(n), k)
            )
            if found:
                best = k
        assert a.rank() == best


def test_int_rows_rank_matches_fraction_elimination():
    rng = random.Random(23)
    for trial in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 2:
            # every row an integer combination of at most min(m, n) base rows
            base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, min(m, n)))]
            rows = []
            for _ in range(m):
                coeffs = [rng.randint(-2, 2) for _ in base]
                rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(n)])
        else:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert _int_rows_rank(rows) == plain_rank(RATIONAL, rows), rows


def test_scaled_int_rows_match_the_fraction_products():
    # each entry is cleared by an integer quotient of the row's lcm, which
    # must equal the Fraction product it replaced
    rng = random.Random(131)
    for _ in range(500):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        rows = [[Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 7, 12, 35))) for _ in range(n)]
                for _ in range(m)]
        ints, scales = _scaled_int_rows(rows)
        assert ints == [[int(x * d) for x in row] for row, d in zip(rows, scales)], rows
        assert all(d % x.denominator == 0 for row, d in zip(rows, scales) for x in row)


def test_int_rows_rank_30x30_is_polynomial(monkeypatch):
    # without dividing each cleared row by its gcd the entries double in
    # length at every step, and the time grows exponentially with the order
    rng = random.Random(30)
    rows = [[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)]
    bound_cleared_entries(monkeypatch, rows)  # 2^104; the entries reach 2^76
    start = time.perf_counter()
    rank = _int_rows_rank(rows)
    assert time.perf_counter() - start < 1.0
    assert rank == plain_rank(RATIONAL, rows)


def test_gf2_rank_differs_from_rational_rank():
    rows = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert ExactMatrix(GF2, rows).rank() == 2
    assert ExactMatrix(RATIONAL, rows).rank() == 3


def test_gf2_rank_of_ints():
    assert gf2_rank_of_ints([]) == 0
    assert gf2_rank_of_ints([0b101, 0b011, 0b110]) == 2
    assert gf2_rank_of_ints([1, 2, 4]) == 3


def _same_span(rng, kind, rows):
    """``rows`` after random swaps and additions of a multiple of one row to another."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(0, 3 * len(rows))):
        i, k = rng.randrange(len(rows)), rng.randrange(len(rows))
        if rng.random() < 0.3:
            rows[i], rows[k] = rows[k], rows[i]
        elif i != k:
            c = 1 if kind == GF2 else rng.choice([-2, -1, 1, 3])
            rows[i] = [(x + c * y) % 2 if kind == GF2 else x + c * y for x, y in zip(rows[i], rows[k])]
    return rows


def _packed(rows):
    return [sum(x << j for j, x in enumerate(r)) for r in rows]


def test_echelon_is_the_canonical_reduced_form_of_the_row_space():
    # over GF(2) the form depends only on the span; over Q only up to row scaling,
    # so its supports depend only on the span
    rng = random.Random(43)
    for trial in range(200):
        kind = (GF2, RATIONAL)[trial % 2]
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randint(0, 1) if kind == GF2 else rng.choice([0, 0, 1, -1, 2]) for _ in range(n)]
                for _ in range(m)]
        if kind == GF2:
            out = _echelon(GF2, _packed(rows))
            assert _echelon(GF2, _packed(_same_span(rng, GF2, rows))) == out
            span = {0}
            for y in _packed(rows):
                span |= {y ^ z for z in span}
            assert 2 ** len(out) == len(span) and set(out) <= span
        else:
            out = _echelon(RATIONAL, rows)
            assert _supports(RATIONAL, _echelon(RATIONAL, _same_span(rng, RATIONAL, rows))) == \
                _supports(RATIONAL, out)
            assert len(out) == plain_rank(RATIONAL, rows) == plain_rank(RATIONAL, rows + [list(y) for y in out])
        masks = _supports(kind, out)
        ends = [y.bit_length() - 1 for y in masks]
        assert ends == sorted(set(ends)) and min(ends, default=0) >= 0
        assert all(not y >> e & 1 for e in ends for y in masks if y.bit_length() - 1 != e)


def test_gf2_rank_is_the_length_of_the_echelon_form():
    # the rank stops after the forward pass; the back-reduction changes rows, not their number
    rng = random.Random(44)
    for _ in range(300):
        rows = [rng.getrandbits(rng.randint(1, 10)) for _ in range(rng.randint(0, 7))]
        span = {0}
        for y in rows:
            span |= {y ^ z for z in span}
        assert 2 ** gf2_rank_of_ints(rows) == 2 ** len(_echelon(GF2, rows)) == len(span)


def test_pivot_known_values():
    a = ExactMatrix(RATIONAL, [[-1, 1], [1, 1]])
    assert a.pivot(0, 0).to_lists() == [[1, -1], [0, 2]]
    g = ExactMatrix(GF2, [[1, 1], [1, 0]])
    assert g.pivot(0, 0).to_lists() == [[1, 1], [0, 1]]
    with pytest.raises(ShapeError):
        ExactMatrix(RATIONAL, [[0, 1], [1, 0]]).pivot(0, 0)
    with pytest.raises(ShapeError):
        a.pivot(2, 0)


def test_pivot_is_idempotent():
    rng = random.Random(19)
    done = 0
    while done < 40:
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = random_rational_matrix(rng, m, n)
        spots = [(i, j) for i in range(m) for j in range(n) if a[i, j] != 0]
        if not spots:
            continue
        i, j = rng.choice(spots)
        once = a.pivot(i, j)
        assert once.pivot(i, j) == once
        done += 1


def test_pivot_makes_unit_column():
    a = ExactMatrix(RATIONAL, [[2, 1, 0], [4, 0, 1], [6, 1, 1]]).pivot(1, 0)
    assert a.col(0) == (0, 1, 0)
    assert a.row(1) == (1, 0, Fraction(1, 4))


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_pivot_matches_the_gauss_jordan_formula(kind):
    # pivot reads its result off [A | I] by _coordinates; the oracle is the
    # one Gauss-Jordan step on plain lists, at every nonzero entry of seeded
    # matrices with zero rows, repeated or combined rows, and 1xn or mx1 shapes
    rng = random.Random(f"pivot {kind}")
    make = random_gf2_matrix if kind == GF2 else random_rational_matrix
    shapes = [(1, n) for n in range(1, 6)] + [(m, 1) for m in range(2, 6)]
    shapes += [(rng.randint(2, 6), rng.randint(2, 7)) for _ in range(60)]
    seen = {"zero row": 0, "rank deficient": 0}
    for m, n in shapes:
        rows = make(rng, m, n).to_lists()
        if m > 1 and rng.random() < 0.5:
            rows[rng.randrange(m)] = [0] * n
        if m > 2 and rng.random() < 0.5:
            a, b, c = rng.sample(range(m), 3)
            rows[c] = [(x + y) % 2 if kind == GF2 else x - 2 * y for x, y in zip(rows[a], rows[b])]
        a = ExactMatrix(kind, rows, n_cols=n)
        seen["zero row"] += not all(map(any, rows))
        seen["rank deficient"] += a.rank() < min(m, n)
        for i in range(m):
            for j in range(n):
                if not rows[i][j]:
                    with pytest.raises(ShapeError, match=rf"^zero pivot entry at \({i}, {j}\)$"):
                        a.pivot(i, j)
                    continue
                pivoted = a.pivot(i, j)
                assert_exact(pivoted)
                assert pivoted.to_lists() == gauss_jordan_pivot(kind, rows, i, j), (rows, i, j)
    assert min(seen.values()) >= 10, seen


def test_inverse_round_trip():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.randrange(1, 5)
        a = random_rational_matrix(rng, n, n)
        if a.determinant() == 0:
            continue
        assert a @ a.inverse() == ExactMatrix.identity(n, RATIONAL)
        done += 1
    for d0 in UNIT_D0S:
        g = ExactMatrix(GF2, d0)
        assert g @ g.inverse() == ExactMatrix.identity(2, GF2)
    done = 0
    while done < 25:
        n = rng.randrange(1, 6)
        g = random_gf2_matrix(rng, n, n)
        if g.determinant() == 0:
            continue
        assert g @ g.inverse() == ExactMatrix.identity(n, GF2)
        done += 1
    assert ExactMatrix.identity(0, RATIONAL).inverse() == ExactMatrix.identity(0, RATIONAL)
    assert ExactMatrix.identity(0, GF2).inverse() == ExactMatrix.identity(0, GF2)
    with pytest.raises(ShapeError, match="matrix is singular"):
        ExactMatrix(GF2, [[1, 1], [1, 1]]).inverse()
    with pytest.raises(ShapeError, match="matrix is singular"):
        ExactMatrix(RATIONAL, [[1, "1/2", 0], [2, 1, 3], [0, 0, 1]]).inverse()
    with pytest.raises(ShapeError, match="inverse of non-square matrix"):
        ExactMatrix(RATIONAL, [[1, 0, 0], [0, 1, 0]]).inverse()


def _nonsingular(rng, kind, n):
    """P * L * D * U: a row permutation, unit triangular L and U, and over Q a nonzero diagonal D."""
    pool = [0, 1] if kind == GF2 else [0, 1, -1, 2, Fraction(-3, 2), Fraction(1, 3)]
    order = rng.sample(range(n), n)
    factors = [[[int(order[i] == j) for j in range(n)] for i in range(n)],
               [[1 if i == j else rng.choice(pool) if j < i else 0 for j in range(n)] for i in range(n)],
               [[rng.choice(pool[1:]) if i == j and kind == RATIONAL else int(i == j) for j in range(n)]
                for i in range(n)],
               [[1 if i == j else rng.choice(pool) if j > i else 0 for j in range(n)] for i in range(n)]]
    a = ExactMatrix.identity(n, kind)
    for f in factors:
        a = a @ ExactMatrix(kind, f, n_cols=n)
    return a


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_inverse_is_certified_by_its_products(kind):
    # orders 0-8, with no second reduction in the test: a product of unit
    # triangular factors (and a nonzero diagonal over Q) is nonsingular and
    # its inverse must give the identity both ways; replacing one row by a
    # zero row, a copy of another or a combination of the others makes it
    # singular, and so does any small matrix of cofactor determinant 0
    rng = random.Random(f"inverse {kind}")
    pool = [0, 1] if kind == GF2 else [0, 1, -1, 2, Fraction(-3, 2)]
    for n in range(9):
        for trial in range(6):
            a = _nonsingular(rng, kind, n)
            inv = a.inverse()
            assert_exact(inv)
            assert a @ inv == inv @ a == ExactMatrix.identity(n, kind)
            if not n:
                continue
            rows, i = a.to_lists(), rng.randrange(n)
            others = [k for k in range(n) if k != i]
            if trial % 3 == 0 or not others:
                rows[i] = [0] * n
            elif trial % 3 == 1:
                rows[i] = list(rows[rng.choice(others)])
            else:
                cs = {k: rng.choice(pool) for k in others}
                rows[i] = [sum((cs[k] * rows[k][j] for k in others), Fraction(0)) for j in range(n)]
            with pytest.raises(ShapeError, match="^matrix is singular$"):
                ExactMatrix(kind, rows, n_cols=n).inverse()
        for _ in range(12 if n <= 4 else 0):
            a = ExactMatrix(kind, [[rng.choice(pool) for _ in range(n)] for _ in range(n)], n_cols=n)
            det = cofactor_det(a.to_lists())
            if (det % 2 if kind == GF2 else det) == 0:
                with pytest.raises(ShapeError, match="^matrix is singular$"):
                    a.inverse()
            else:
                assert a @ a.inverse() == a.inverse() @ a == ExactMatrix.identity(n, kind)


def test_matmul():
    a = ExactMatrix(RATIONAL, [[1, 2], [3, 4]])
    b = ExactMatrix(RATIONAL, [[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    g = ExactMatrix(GF2, [[1, 1]]) @ ExactMatrix(GF2, [[1], [1]])
    assert g.to_lists() == [[0]]
    with pytest.raises(ShapeError):
        a @ ExactMatrix(RATIONAL, [[1, 2]])
    with pytest.raises(ShapeError):
        a @ ExactMatrix(GF2, [[1, 0], [0, 1]])


def test_block_assembly():
    i2 = ExactMatrix.identity(2, GF2)
    z = ExactMatrix.zeros(2, 1, GF2)
    assert from_cols(i2, z).to_lists() == [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ShapeError, match="row counts differ"):
        from_cols(i2, ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError, match="mixed scalar kinds"):
        from_cols(i2, ExactMatrix(RATIONAL, [[1], [0]]))


@pytest.mark.parametrize("kind", [GF2, RATIONAL])
def test_every_operation_keeps_entries_exact(kind):
    rng = random.Random(91 if kind == GF2 else 92)
    make = random_gf2_matrix if kind == GF2 else random_rational_matrix
    shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
    shapes += [(0, 0), (0, 3), (3, 0), (1, 1)]
    for m, n in shapes:
        a = make(rng, m, n)
        rows = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []
        cols = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
        results = [
            a,
            a.transpose(),
            a.submatrix(rows, cols),
            a @ make(rng, n, rng.randint(0, 4)),
            from_cols(a, a),
            ExactMatrix.identity(m, kind),
            ExactMatrix.identity(m, kind).inverse(),
            ExactMatrix.zeros(m, n, kind),
        ]
        nonzero = [(i, j) for i in range(m) for j in range(n) if a[i, j]]
        if nonzero:
            results.append(a.pivot(*rng.choice(nonzero)))
        if m == n:
            try:
                results.append(a.inverse())
            except ShapeError:  # singular
                pass
        if kind == RATIONAL:
            results.append(scale_rows_cols(
                a, [rng.choice((1, -1)) for _ in range(m)], [rng.choice((1, -1)) for _ in range(n)]))
        else:
            signing = find_tu_signing(a)
            if signing is not None:
                assert signing.kind == RATIONAL
                results.append(signing)
        lm = LabeledMatrix(labels("r", m), labels("c", n), a)
        results.append(parse_matrix_document(render_matrix_document(lm)).body)
        s = make_repr(labels("x", m), labels("y", n), a)
        results.append(parse_standard_repr_document(render_standard_repr_document(s)).B.body)
        results += [s.to_full().body, standardize(s.to_full(), s.X).B.body, support(lm).body]
        if kind == GF2:
            results.append(fundamental_repr(to_matroid(s.to_full()), s.X).B.body)
        for r in results:
            assert_exact(r)


def test_empty_inner_product_is_exact():
    for kind in (GF2, RATIONAL):
        p = ExactMatrix(kind, [[], []], n_cols=0) @ ExactMatrix(kind, [], n_cols=3)
        assert p.shape == (2, 3) and p == ExactMatrix.zeros(2, 3, kind)
        assert_exact(p)
