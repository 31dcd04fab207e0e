import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import tumat.exactmat as exactmat
import tumat.matroid as matroid_module

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    FiniteMatroid,
    LabeledMatrix,
    ShapeError,
    SizeGuardError,
    disjoint_sum,
    matroids_equal,
    to_matroid,
    verify_matroid_axioms,
    zmod_linear_independent,
)
from tumat.cli import main as cli_main
from tumat.documents import render_matrix_document
from tumat.fixtures import fano_columns, incidence_matrix
from tumat.matroid import DEFAULT_EQ_LIMIT

from helpers import (
    fraction_scaled,
    fraction_scales_to_tu,
    labels,
    naive_matroids_equal,
    plain_rank,
    random_gf2_matrix,
    random_rational_matrix,
    random_tu_matrix,
)


def lm(rows, cols, kind, data):
    return LabeledMatrix(rows, cols, ExactMatrix(kind, data, n_cols=len(cols)))


def test_labeled_matrix_validation():
    with pytest.raises(ShapeError):
        lm(["r", "r"], ["c"], GF2, [[1], [0]])
    with pytest.raises(ShapeError):
        lm(["r"], ["c", "c"], GF2, [[1, 0]])
    with pytest.raises(ShapeError):
        lm(["r"], [""], GF2, [[1]])
    with pytest.raises(ShapeError):
        lm(["r"], ["c"], GF2, [[1, 0]])
    with pytest.raises(ShapeError, match="^body is 1x2 but labels say 1x1$"):
        LabeledMatrix(["r"], ["c"], ExactMatrix(GF2, [[1, 0]]))
    with pytest.raises(ShapeError, match=r"^body must be an ExactMatrix, got \[\[1\]\]$"):
        LabeledMatrix(["a"], ["b"], [[1]])


def test_labeled_matrix_access():
    a = lm(["u", "v"], ["a", "b", "c"], RATIONAL, [[1, -1, 0], [0, 1, -1]])
    assert a.kind == RATIONAL
    assert a.entry("v", "b") == 1
    assert a.row_position("u") == 0 and a.col_position("c") == 2
    s = a.select(["v"], ["c", "a"])
    assert s.row_labels == ("v",) and s.col_labels == ("c", "a")
    assert s.body.to_lists() == [[-1, 0]]
    with pytest.raises(ShapeError):
        a.entry("w", "a")
    with pytest.raises(ShapeError):
        a.select(["u"], ["z"])


def test_select_rejects_unknown_and_repeated_labels():
    a = lm(["u", "v"], ["a", "b", "c"], RATIONAL, [[1, -1, 0], [0, 1, -1]])
    with pytest.raises(ShapeError, match="^no row labeled 'w'$"):
        a.select(["u", "w"], ["a"])
    with pytest.raises(ShapeError, match="^no column labeled 'z'$"):
        a.select(["u"], ["a", "z"])
    with pytest.raises(ShapeError, match="^duplicate row labels$"):
        a.select(["v", "v"], ["a", "a"])
    with pytest.raises(ShapeError, match="^duplicate column labels$"):
        a.select(["u", "v"], ["c", "a", "c"])
    s = a.select(["v", "u"], ["c", "a"])
    assert s == lm(["v", "u"], ["c", "a"], RATIONAL, [[-1, 0], [0, 1]])
    assert s.row_position("u") == 1 and s.col_position("a") == 1


def test_labeled_matrix_equality():
    a = lm(["r"], ["c"], GF2, [[1]])
    assert a == lm(["r"], ["c"], GF2, [[1]])
    assert a != lm(["r"], ["d"], GF2, [[1]])
    assert hash(a) == hash(lm(["r"], ["c"], GF2, [[1]]))


def test_vector_matroid_gf2():
    a = lm(["r1", "r2"], ["a", "b", "c"], GF2, [[1, 0, 1], [0, 1, 1]])
    m = to_matroid(a)
    assert m.ground == ("a", "b", "c")
    assert m.rank == 2
    assert m.indep(["a", "b"])
    assert not m.indep(["a", "b", "c"])  # c = a + b over GF(2)
    assert m.indep([])
    assert not m.indep(["z"])  # outside the ground set
    assert m.bases() == [("a", "b"), ("a", "c"), ("b", "c")]
    assert m.is_base({"a", "c"})
    assert not m.is_base({"a"})
    with pytest.raises(ShapeError):
        m.rank_of({"z"})
    with pytest.raises(ShapeError, match="^is_base takes a subset of the ground set$"):
        m.is_base({"a", "z"})


def test_gf2_and_rational_matroids_differ():
    data = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    over_gf2 = to_matroid(lm(["1", "2", "3"], ["a", "b", "c"], GF2, data))
    over_q = to_matroid(lm(["1", "2", "3"], ["a", "b", "c"], RATIONAL, data))
    assert not over_gf2.indep(["a", "b", "c"])
    assert over_q.indep(["a", "b", "c"])
    assert not matroids_equal(over_gf2, over_q)


def test_fano_column_matroid():
    m = to_matroid(fano_columns())
    assert len(m.ground) == 7
    assert m.rank == 3
    assert len(m.bases()) == 28


def test_rational_matroid_with_fractions():
    a = lm(["r1", "r2"], ["a", "b"], RATIONAL, [["1/2", "1/3"], ["1/4", "1/6"]])
    m = to_matroid(a)
    assert not m.indep(["a", "b"])  # b = (2/3) a
    assert m.indep(["a"])


def test_row_scaling_changes_no_vector_query():
    # the base walk leaves the rows it does not clear unscaled, so every
    # query must read supports and ranks alone, never the size of an entry
    rng = random.Random(53)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        rows = random_rational_matrix(rng, m, n).to_lists()
        rows[-1] = list(rows[0]) if rng.random() < 0.4 else rows[-1]  # a repeated row
        xs, ys = labels("x", m), labels("y", n)
        subsets = [rng.sample(ys, rng.randint(0, n)) for _ in range(4)]
        plain = to_matroid(lm(xs, ys, RATIONAL, rows))
        for c in (2, 6, -3):
            scaled = to_matroid(lm(xs, ys, RATIONAL, [[c * x for x in row] for row in rows]))
            assert scaled.bases() == plain.bases()
            assert scaled.count_bases() == plain.count_bases()
            assert [scaled.rank_of(s) for s in subsets] == [plain.rank_of(s) for s in subsets]


def test_from_bases():
    m = FiniteMatroid.from_bases(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert m.rank == 2
    assert m.indep({"a"}) and m.indep({"c"})
    assert not m.indep({"a", "c"})
    assert m.bases() == [("a", "b"), ("b", "c")]
    assert m.rank_of({"a", "c"}) == 1
    with pytest.raises(ShapeError):
        FiniteMatroid.from_bases(["a"], [])
    with pytest.raises(ShapeError):
        FiniteMatroid.from_bases(["a", "b"], [("a",), ("a", "b")])
    with pytest.raises(ShapeError):
        FiniteMatroid.from_bases(["a"], [("a", "z")])


def test_from_bases_matches_vector_matroid():
    rng = random.Random(5)
    for _ in range(10):
        a = lm(
            labels("r", 3), labels("e", 4), GF2,
            random_gf2_matrix(rng, 3, 4).to_lists(),
        )
        m = to_matroid(a)
        if not m.bases():
            continue
        m2 = FiniteMatroid.from_bases(m.ground, m.bases())
        assert naive_matroids_equal(m, m2)


def _oracle_bases(kind, names, data):
    """Every size-r subset of the sorted column names whose columns have rank r."""
    columns = {name: [Fraction(row[j]) for row in data] for j, name in enumerate(names)}
    r = plain_rank(kind, columns.values())
    return [c for c in combinations(sorted(names), r) if plain_rank(kind, [columns[e] for e in c]) == r]


def _oracle_corpus(rng, kind, count):
    """Small matrices with zero columns, parallel columns, dependent rows, no rows and no columns."""
    values = [0, 1] if kind == GF2 else [0, 0, 1, -1, 2, -3, Fraction(1, 2)]
    for t in range(count):
        n_rows, n_cols = rng.randint(0, 5), rng.randint(0, 9) if t % 25 else 0
        data = [[rng.choice(values) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows and n_cols > 2 and t % 3 == 0:  # column k parallel to column j, column z zero
            j, k, z = rng.sample(range(n_cols), 3)
            f = rng.choice([v for v in values if v])
            for row in data:
                row[k], row[z] = (row[j] * f) % 2 if kind == GF2 else row[j] * f, 0
        if n_rows > 1 and t % 4 == 0:  # a dependent row
            data[-1] = [(x + y) % 2 if kind == GF2 else x - 2 * y for x, y in zip(data[0], data[1])]
        names = [f"e{rng.randrange(100)}_{j}" for j in range(n_cols)]
        yield names, data


def test_bases_match_subset_oracle(capsys, tmp_path):
    rng = random.Random(41)
    corpus = [(GF2, case) for case in _oracle_corpus(rng, GF2, 200)]
    corpus += [(RATIONAL, case) for case in _oracle_corpus(rng, RATIONAL, 100)]
    shapes = set()
    doc = tmp_path / "m.json"
    for kind, (names, data) in corpus:
        rep = lm(labels("r", len(data)), names, kind, data)
        m = to_matroid(rep)
        expected = _oracle_bases(kind, names, data)
        assert m.bases() == expected, (kind, names, data)
        assert m.count_bases() == len(expected)
        doc.write_text(render_matrix_document(rep))
        head = f"elements: {len(names)}\nrank: {m.rank}\nbases: {len(expected)}\n"
        for cut in (len(expected) - 1, len(expected)):
            assert cli_main(["matroid", "info", str(doc), "--max-bases", str(cut)]) == 0
            listed = "".join("  " + " ".join(b) + "\n" for b in expected) if cut == len(expected) else ""
            assert capsys.readouterr().out == head + listed
        from_bases = FiniteMatroid.from_bases(m.ground, expected)
        assert (from_bases.bases(), from_bases.count_bases()) == (expected, len(expected))
        shapes.add((len(data) > 0, len(names) > 0, m.rank < len(data)))
    # (has rows, has columns, rows dependent)
    assert shapes >= {(True, True, True), (True, True, False), (True, False, True),
                      (False, True, False), (False, False, False)}


def test_matroids_equal_guard():
    # Only the subset-by-subset fallback is guarded.  U(2,4) over Q is not
    # binary, so it falls back; GF(2) sides never do.
    u24 = to_matroid(lm(["r", "s"], labels("e", 4), RATIONAL, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert matroids_equal(u24, u24)
    with pytest.raises(SizeGuardError):
        matroids_equal(u24, u24, limit=3)
    assert matroids_equal(u24, u24, limit=4)
    bases = FiniteMatroid.from_bases(u24.ground, u24.bases())
    with pytest.raises(SizeGuardError):
        matroids_equal(u24, bases, limit=3)
    a = lm(["r"], labels("e", 3), GF2, [[1, 1, 1]])
    m = to_matroid(a)
    assert matroids_equal(m, m, limit=2)
    other = to_matroid(lm(["r"], labels("f", 3), GF2, [[1, 1, 1]]))
    # different grounds: unequal without tripping the guard
    assert not matroids_equal(m, other, limit=2)
    assert not matroids_equal(u24, FiniteMatroid.from_bases(labels("f", 4), [()]), limit=2)
    # a rational B past the default TU guard is not known binary: fall back
    eye = [[int(i == j) for j in range(9)] for i in range(9)]
    parallel = [row + row for row in eye]
    big_q = to_matroid(lm(labels("r", 9), labels("e", 18), RATIONAL, parallel))
    big_gf2 = to_matroid(lm(labels("r", 9), labels("e", 18), GF2, parallel))
    with pytest.raises(SizeGuardError, match="exhaustive matroid comparison over 18 elements"):
        matroids_equal(big_q, big_gf2, limit=17)
    # base families of different ranks answer before the guard
    ground = labels("e", 20)
    rank_1, rank_2 = (FiniteMatroid.from_bases(ground, [ground[:r]]) for r in (1, 2))
    assert not matroids_equal(rank_1, rank_2)


def test_dense_incidence_side_is_known_binary_quickly():
    # 40 random arcs on 8 nodes, less one row: B at the shared base is a
    # 7x33 network matrix with many parallel arcs, which the minor DP alone
    # took seconds over; repeated lines drop out before it runs
    rng = random.Random(0)
    arcs = []
    while len(arcs) < 40:
        t, h = rng.randrange(8), rng.randrange(8)
        if t != h:
            arcs.append((t, h))
    rows = incidence_matrix(8, arcs).to_lists()[:7]
    q, gf2 = _matrix_matroid(RATIONAL, rows), _matrix_matroid(GF2, _support(rows))
    start = time.perf_counter()
    assert matroids_equal(q, gf2, limit=0) and matroids_equal(gf2, q, limit=0)
    assert time.perf_counter() - start < 2.0


def _row_mixed(kind, rows, rng):
    """Rows after random row additions and a shuffle: the same column matroid."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randrange(4) if len(rows) > 1 else 0):
        i, k = rng.sample(range(len(rows)), 2)
        if kind == GF2:
            rows[i] = [x ^ y for x, y in zip(rows[i], rows[k])]
        else:
            c = rng.choice([1, -1, 2, Fraction(1, 2)])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
    rng.shuffle(rows)
    return rows


def _flipped(kind, rows, rng):
    """Rows with one entry toggled between zero and nonzero."""
    rows = [list(r) for r in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    if kind == GF2:
        rows[i][j] ^= 1
    else:
        rows[i][j] = 0 if rows[i][j] else rng.choice([1, -1])
    return rows


def _matrix_matroid(kind, rows):
    return to_matroid(lm(labels("r", len(rows)), labels("e", len(rows[0])), kind, rows))


def _tu_rows(rng, n_rows, n_cols):
    return random_tu_matrix(rng, n_rows, n_cols).to_lists()


def _support(rows):
    return [[1 if v else 0 for v in row] for row in rows]


def _pair_gf2_gf2(rng, n_rows, n_cols):
    a = random_gf2_matrix(rng, n_rows, n_cols).to_lists()
    return GF2, a, GF2, _row_mixed(GF2, a, rng)


def _pair_tu_q_gf2(rng, n_rows, n_cols):
    a = _tu_rows(rng, n_rows, n_cols)
    return RATIONAL, a, GF2, _row_mixed(GF2, _support(a), rng)


def _pair_q_q(rng, n_rows, n_cols):
    a = _tu_rows(rng, n_rows, n_cols) if rng.random() < 0.5 else \
        random_rational_matrix(rng, n_rows, n_cols).to_lists()
    return RATIONAL, a, RATIONAL, _row_mixed(RATIONAL, a, rng)


def _pair_scaled_column(rng, n_rows, n_cols):
    # a column of a TU matrix scaled by 2 or 1/2 is the same element
    a = _tu_rows(rng, n_rows, n_cols)
    j, c = rng.randrange(n_cols), rng.choice([2, Fraction(1, 2)])
    scaled = [[v * c if k == j else v for k, v in enumerate(row)] for row in a]
    return RATIONAL, scaled, GF2, _row_mixed(GF2, _support(a), rng)


def _pair_non_regular_q(rng, n_rows, n_cols):
    # Fano over Q and random matrices with entries 2, 1/2, 3 are not regular
    if rng.random() < 0.3:
        a = fano_columns().body.to_lists()
        return RATIONAL, a, rng.choice([GF2, RATIONAL]), a
    a = random_rational_matrix(rng, n_rows, n_cols).to_lists()
    return RATIONAL, a, RATIONAL, _row_mixed(RATIONAL, a, rng)


_FAMILIES = [_pair_gf2_gf2, _pair_tu_q_gf2, _pair_q_q, _pair_scaled_column, _pair_non_regular_q, "bases"]


@pytest.mark.parametrize("family, route", [
    pytest.param(f, route, id=getattr(f, "__name__", f) + suffix)
    for route, suffix in (("any", ""), ("base-comparison", "-base-comparison")) for f in _FAMILIES
])
def test_matroids_equal_agrees_with_subset_oracle(monkeypatch, family, route):
    # the base-comparison route keeps the greedy bases but drops the supports, so every pair
    # with equal greedy bases goes through _bases_equal
    if route == "base-comparison":
        monkeypatch.setattr(matroid_module, "_binary_supports", lambda *args: None)
    rng = random.Random(23)
    verdicts = []
    for _ in range(60):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(n_rows, 10 - n_rows)
        if family == "bases":
            m1 = _matrix_matroid(GF2, random_gf2_matrix(rng, n_rows, n_cols).to_lists())
            m2 = _matrix_matroid(GF2, random_gf2_matrix(rng, n_rows, n_cols).to_lists())
            m2 = FiniteMatroid.from_bases(m2.ground, m2.bases())
            if rng.random() < 0.5:
                m2 = FiniteMatroid.from_bases(m1.ground, m1.bases())
        else:
            kind1, a1, kind2, a2 = family(rng, n_rows, n_cols)
            if rng.random() < 0.5:
                a2 = _flipped(kind2, a2, rng)
            m1, m2 = _matrix_matroid(kind1, a1), _matrix_matroid(kind2, a2)
        if rng.random() < 0.5:
            m1, m2 = m2, m1
        expected = naive_matroids_equal(m1, m2)
        assert matroids_equal(m1, m2) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_known_binary_pairs_never_reach_the_subset_loop(monkeypatch):
    # one reduction per side decides: no subset loop, no independence or base query, no rank
    def refuse(*args):
        raise AssertionError("queried the matroid beyond its one reduction")

    monkeypatch.setattr(matroid_module, "_bases_equal", refuse)
    monkeypatch.setattr(FiniteMatroid, "indep", refuse)
    monkeypatch.setattr(FiniteMatroid, "is_base", refuse)
    for module in (exactmat, matroid_module):
        monkeypatch.setattr(module, "_int_rows_rank", refuse)
    rng = random.Random(29)
    verdicts = []
    for _ in range(60):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(n_rows, 10 - n_rows)
        family = rng.choice([_pair_gf2_gf2, _pair_tu_q_gf2, _pair_scaled_column])
        kind1, a1, kind2, a2 = family(rng, n_rows, n_cols)
        if rng.random() < 0.5:
            a2 = _flipped(kind2, a2, rng)
        m1, m2 = _matrix_matroid(kind1, a1), _matrix_matroid(kind2, a2)
        verdicts.append(matroids_equal(m1, m2, limit=0))
    assert True in verdicts and False in verdicts


def test_integer_scales_match_the_fraction_reference(monkeypatch):
    # _scales_to_tu keeps each scale as a pair of ints and hands the TU check
    # the signs of b, each one of the shared sign Fractions; forced or not it
    # answers as the Fraction reference does, and an entry that does not
    # scale to +-1 answers False before the guard, without a TU check.
    # Entries lie in {0, +-1, +-2, +-3, +-6}: drawn at random, or +-1 rows
    # (TU or random) scaled by 1 or 2 and columns by 1 or 3; one matrix in
    # eight is 9x9 or larger
    rng = random.Random(139)
    check, reached = matroid_module.is_totally_unimodular, []
    monkeypatch.setattr(matroid_module, "is_totally_unimodular", lambda a, **kw: reached.append(a) or check(a, **kw))
    shared = tuple(exactmat._SIGNS.values())
    seen = Counter()
    for t in range(2400):
        m, n = (rng.randint(9, 11), rng.randint(9, 12)) if t % 8 == 0 else (rng.randint(1, 7), rng.randint(1, 8))
        if t % 3 == 0:
            b = [[rng.choice((0, 0, 1, -1, 2, -2, 3, -3, 6, -6)) for _ in range(n)] for _ in range(m)]
        else:
            signs = (random_tu_matrix(rng, m, n).to_lists() if t % 3 == 1 else
                     [[rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(m)])
            r, c = [rng.choice((1, 2)) for _ in range(m)], [rng.choice((1, 3)) for _ in range(n)]
            b = [[int(v) * r[i] * c[j] for j, v in enumerate(row)] for i, row in enumerate(signs)]
        off = any(abs(x) not in (0, 1) for row in fraction_scaled(b, n) for x in row)
        for force in (False, True):
            reached.clear()
            got = matroid_module._scales_to_tu(b, n, force)
            assert got == fraction_scales_to_tu(b, n, force), (b, force)
            assert len(reached) == (not off), (b, force)
            assert all(any(x is s for s in shared) for a in reached for row in a.rows for x in row), b
            seen["off" if off else "guard" if min(m, n) > 8 and not force else got] += 1
    assert len(seen) == 4 and min(seen.values()) >= 100, seen


def test_fano_over_q_falls_back_and_differs_from_fano_over_gf2(monkeypatch):
    calls = []
    bases_equal = matroid_module._bases_equal

    def record(m1, m2, limit):
        calls.append(limit)
        return bases_equal(m1, m2, limit)

    monkeypatch.setattr(matroid_module, "_bases_equal", record)
    fano = fano_columns()
    over_q = to_matroid(lm(fano.row_labels, fano.col_labels, RATIONAL, fano.body.to_lists()))
    # same fundamental circuits at the shared base, different matroids
    assert not matroids_equal(over_q, to_matroid(fano))
    assert calls == [DEFAULT_EQ_LIMIT]
    assert matroids_equal(over_q, over_q)
    assert len(calls) == 2


def test_matroids_equal_rank_zero_and_loops():
    empty_gf2 = to_matroid(lm(["r"], [], GF2, [[]]))
    empty_q = to_matroid(lm([], [], RATIONAL, []))
    assert matroids_equal(empty_gf2, empty_q, limit=0)
    no_rows = to_matroid(lm([], labels("e", 3), GF2, []))
    zero_q = to_matroid(lm(["r", "s"], labels("e", 3), RATIONAL, [[0, 0, 0], [0, 0, 0]]))
    assert no_rows.rank == zero_q.rank == 0
    assert matroids_equal(no_rows, zero_q, limit=0)
    assert matroids_equal(zero_q, no_rows, limit=0)
    one_q = to_matroid(lm(["r"], labels("e", 3), RATIONAL, [[0, "1/2", 0]]))
    one_gf2 = to_matroid(lm(["r"], labels("e", 3), GF2, [[0, 1, 0]]))
    other_gf2 = to_matroid(lm(["r"], labels("e", 3), GF2, [[0, 0, 1]]))
    assert not matroids_equal(zero_q, one_q, limit=0)
    assert not matroids_equal(one_gf2, no_rows, limit=0)
    assert matroids_equal(one_q, one_gf2, limit=0)
    assert not matroids_equal(one_q, other_gf2, limit=0)
    for m1 in (no_rows, zero_q, one_q, one_gf2, other_gf2):
        for m2 in (no_rows, zero_q, one_q, one_gf2, other_gf2):
            assert matroids_equal(m1, m2) == naive_matroids_equal(m1, m2)


def test_disjoint_sum_gf2_matches_block_diagonal():
    rng = random.Random(13)
    for _ in range(10):
        a_body = random_gf2_matrix(rng, 2, 3)
        b_body = random_gf2_matrix(rng, 2, 2)
        a = lm(labels("r", 2), labels("a", 3), GF2, a_body.to_lists())
        b = lm(labels("s", 2), labels("b", 2), GF2, b_body.to_lists())
        grid = [row + [0, 0] for row in a_body.to_lists()] + [[0, 0, 0] + row for row in b_body.to_lists()]
        direct = to_matroid(lm(labels("r", 2) + labels("s", 2), labels("a", 3) + labels("b", 2), GF2, grid))
        assert naive_matroids_equal(disjoint_sum(to_matroid(a), to_matroid(b)), direct)


def test_disjoint_sum_rational_and_mixed():
    a = lm(["r"], ["a", "b"], RATIONAL, [[1, 2]])
    b = lm(["s"], ["c"], GF2, [[1]])
    q = disjoint_sum(to_matroid(a), FiniteMatroid.from_bases(["c"], [("c",)]))
    assert q.indep({"a", "c"})
    mixed = disjoint_sum(to_matroid(a), to_matroid(b))
    assert mixed.indep({"a", "c"})
    assert not mixed.indep({"a", "b", "c"})
    rr = disjoint_sum(to_matroid(a), to_matroid(lm(["s"], ["c"], RATIONAL, [[1]])))
    assert rr.indep({"b", "c"}) and not rr.indep({"a", "b"})
    with pytest.raises(ShapeError):
        disjoint_sum(to_matroid(a), to_matroid(a))


def test_axioms_hold_for_vector_matroids():
    rng = random.Random(17)
    for _ in range(5):
        a = lm(labels("r", 2), labels("e", 4), GF2, random_gf2_matrix(rng, 2, 4).to_lists())
        m = to_matroid(a)
        report = verify_matroid_axioms(m.ground, m.indep)
        assert report.is_matroid
        assert report.exchange_counterexample is None
        assert report.maximality_counterexample is None


def test_axioms_catch_maximality_failure():
    ground = ["a", "b"]
    family = {frozenset(), frozenset({"a", "b"})}
    report = verify_matroid_axioms(ground, lambda s: s in family)
    assert not report.maximality_ok
    assert report.maximality_counterexample == (frozenset({"a", "b"}), frozenset({"b"}))
    assert not report.is_matroid


def test_axioms_catch_augmentation_failure_mod_six():
    # columns of [[0,1,2,3],[1,0,3,2]] over the integers mod 6
    cols = [(0, 1), (1, 0), (2, 3), (3, 2)]

    def indep(subset):
        return zmod_linear_independent(6, [cols[j] for j in sorted(subset)])

    assert indep({0})
    assert indep({2, 3})
    assert not indep({0, 2})
    report = verify_matroid_axioms(range(4), indep)
    assert report.base_nonempty
    assert report.maximality_ok
    assert not report.exchange_ok
    assert report.exchange_counterexample == (frozenset({0}), frozenset({2, 3}))


def test_axioms_empty_family():
    report = verify_matroid_axioms(["a"], lambda s: False)
    assert not report.base_nonempty
    assert not report.is_matroid
    with pytest.raises(ShapeError):
        verify_matroid_axioms(["a", "a"], lambda s: True)


def test_zmod_linear_independent():
    assert zmod_linear_independent(6, [(1,)])
    assert not zmod_linear_independent(6, [(2,)])  # 3 * 2 = 0 mod 6
    assert not zmod_linear_independent(6, [(0, 0)])
    assert zmod_linear_independent(6, [])
    assert zmod_linear_independent(5, [(1, 0), (0, 1)])
    assert not zmod_linear_independent(4, [(1, 1), (3, 3)])
    with pytest.raises(ShapeError):
        zmod_linear_independent(1, [(1,)])
    with pytest.raises(ShapeError):
        zmod_linear_independent(6, [(1,), (1, 2)])


def test_zmod_matches_gf2_rank():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randrange(1, 4)
        vecs = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(k)]
        expected = ExactMatrix(GF2, vecs, n_cols=3).rank() == k
        assert zmod_linear_independent(2, vecs) == expected


def test_zmod_guard():
    vecs = [(1,) * 3] * 8
    message = r"^enumerating 6\^8 coefficient tuples exceeds the guard \(1000000\)$"
    with pytest.raises(SizeGuardError, match=message):
        zmod_linear_independent(6, vecs)  # 6^8 > 10^6
    assert not zmod_linear_independent(6, vecs, force=True)
