import random
import time
from fractions import Fraction

import pytest

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    LabeledMatrix,
    ShapeError,
    find_tu_signing,
    from_blocks,
    from_cols,
    from_rows,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
    scale_rows_cols,
)
from tumat.exactmat import _int_rows_rank, gf2_rank_of_ints

from helpers import (
    UNIT_D0S,
    assert_exact,
    cofactor_det,
    labels,
    make_repr,
    random_gf2_matrix,
    random_rational_matrix,
)


def test_construction_coerces_entries():
    a = ExactMatrix(GF2, [[2, 3], [0, -1]])
    assert a.to_lists() == [[0, 1], [0, 1]]
    b = ExactMatrix(RATIONAL, [[1, "2/3"], [Fraction(1, 2), -4]])
    assert b[0, 1] == Fraction(2, 3)
    assert b[1, 1] == Fraction(-4)


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


def test_empty_matrices():
    a = ExactMatrix(RATIONAL, [], n_cols=3)
    assert a.shape == (0, 3)
    b = ExactMatrix(GF2, [], n_cols=0)
    assert b.determinant() == 1
    assert ExactMatrix(RATIONAL, [], n_cols=0).determinant() == Fraction(1)
    assert a.transpose().shape == (3, 0)
    with pytest.raises(ShapeError):
        ExactMatrix(GF2, [], n_cols=-1)


def test_identity_and_zeros():
    i3 = ExactMatrix.identity(3, RATIONAL)
    assert i3.determinant() == 1
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
        n = rng.randrange(1, 5)
        a = random_rational_matrix(rng, n, n)
        assert a.determinant() == cofactor_det(a.to_lists())


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


def fraction_rank(rows):
    """Rank by plain Gauss elimination over the rationals (test oracle)."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][c] / work[rank][c]
            work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


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
        assert _int_rows_rank(rows) == fraction_rank(rows), rows


def test_int_rows_rank_30x30_is_polynomial():
    # without exact division by the previous pivot the entries grow
    # exponentially and this rank takes minutes
    rng = random.Random(30)
    rows = [[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)]
    start = time.perf_counter()
    rank = _int_rows_rank(rows)
    assert time.perf_counter() - start < 1.0
    assert rank == fraction_rank(rows)


def test_gf2_rank_differs_from_rational_rank():
    rows = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert ExactMatrix(GF2, rows).rank() == 2
    assert ExactMatrix(RATIONAL, rows).rank() == 3


def test_gf2_rank_of_ints():
    assert gf2_rank_of_ints([]) == 0
    assert gf2_rank_of_ints([0b101, 0b011, 0b110]) == 2
    assert gf2_rank_of_ints([1, 2, 4]) == 3


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
    c = ExactMatrix(GF2, [[1, 1]])
    d = ExactMatrix(GF2, [[1]])
    m = from_blocks(i2, z, c, d)
    assert m.to_lists() == [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
    assert from_rows(i2, c).shape == (3, 2)
    assert from_cols(i2, z).shape == (2, 3)
    with pytest.raises(ShapeError):
        from_rows(i2, ExactMatrix(GF2, [[1, 0, 1]]))
    with pytest.raises(ShapeError):
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
            from_blocks(a, a, a, a),
            from_rows(a, a),
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
        for r in results:
            assert_exact(r)


def test_empty_inner_product_is_exact():
    for kind in (GF2, RATIONAL):
        p = ExactMatrix(kind, [[], []], n_cols=0) @ ExactMatrix(kind, [], n_cols=3)
        assert p.shape == (2, 3) and p == ExactMatrix.zeros(2, 3, kind)
        assert_exact(p)
