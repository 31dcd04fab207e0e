import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import tumat.tu as tu_module

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    ShapeError,
    SizeGuardError,
    TuVerdict,
    find_tu_signing,
    from_blocks,
    is_signing_of,
    is_totally_unimodular,
    is_tu_signing_of,
    scale_rows_cols,
)
from tumat.fixtures import fano_b, incidence_matrix, network_example

from helpers import find_tu_signing_bruteforce, naive_tu_verdict, random_tu_matrix, support_gf2


def test_known_verdicts():
    assert is_totally_unimodular(ExactMatrix.identity(4, RATIONAL)).is_tu
    assert is_totally_unimodular(network_example().body).is_tu
    v = is_totally_unimodular(ExactMatrix(RATIONAL, [[1, 1], [-1, 1]]))
    assert not v.is_tu
    assert v.witness == ((0, 1), (0, 1), Fraction(2))


def test_entry_scan_short_circuits():
    v = is_totally_unimodular(ExactMatrix(RATIONAL, [[0, 2], [3, 0]]))
    assert v.witness == ((0,), (1,), Fraction(2))
    # a fractional entry is already a violation on its own
    v = is_totally_unimodular(ExactMatrix(RATIONAL, [["1/2"]]))
    assert v.witness == ((0,), (0,), Fraction(1, 2))
    # entry scan runs before the size guard
    big = ExactMatrix(RATIONAL, [[2 if i == j == 0 else 0 for j in range(9)] for i in range(9)])
    assert is_totally_unimodular(big).witness == ((0,), (0,), Fraction(2))


def test_size_guard():
    big = ExactMatrix.identity(9, RATIONAL)
    with pytest.raises(SizeGuardError):
        is_totally_unimodular(big)
    assert is_totally_unimodular(big, force=True).is_tu
    assert is_totally_unimodular(big, limit=9).is_tu
    with pytest.raises(SizeGuardError):
        is_totally_unimodular(network_example().body, limit=1)


def test_rejects_gf2_input():
    with pytest.raises(ShapeError):
        is_totally_unimodular(ExactMatrix(GF2, [[1]]))


def test_matches_naive_oracle_including_witness():
    rng = random.Random(31)
    pool = [-1, 0, 1]
    for _ in range(80):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 6)
        a = ExactMatrix(
            RATIONAL, [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        )
        expected = naive_tu_verdict(a)
        got = is_totally_unimodular(a)
        if expected is None:
            assert got.is_tu
        else:
            assert not got.is_tu and got.witness == expected


def test_verdict_validation():
    with pytest.raises(ShapeError):
        TuVerdict(True, ((0,), (0,), Fraction(2)))
    with pytest.raises(ShapeError):
        TuVerdict(False, None)
    with pytest.raises(ShapeError):
        TuVerdict(False, ((0, 1), (0,), Fraction(2)))
    with pytest.raises(ShapeError):
        TuVerdict(False, ((0,), (0,), Fraction(1)))
    TuVerdict(False, ((0,), (0,), Fraction(1, 2)))  # fractional witness is legal
    TuVerdict(True)


def test_is_signing_of():
    u = ExactMatrix(GF2, [[1, 0], [1, 1]])
    assert is_signing_of(ExactMatrix(RATIONAL, [[-1, 0], [1, 1]]), u)
    assert not is_signing_of(ExactMatrix(RATIONAL, [[1, 0], [0, 1]]), u)
    assert not is_signing_of(ExactMatrix(RATIONAL, [[2, 0], [1, 1]]), u)
    with pytest.raises(ShapeError):
        is_signing_of(ExactMatrix(RATIONAL, [[1]]), u)
    with pytest.raises(ShapeError):
        is_signing_of(u, u)


def test_is_tu_signing_of():
    u = ExactMatrix(GF2, [[1, 1], [1, 1]])
    assert is_tu_signing_of(ExactMatrix(RATIONAL, [[1, 1], [-1, 1]]) , u) is False
    assert is_tu_signing_of(ExactMatrix(RATIONAL, [[1, 1], [1, 1]]), u)


def test_scale_rows_cols():
    a = ExactMatrix(RATIONAL, [[1, -1], [0, 1]])
    scaled = scale_rows_cols(a, [1, -1], [-1, 1])
    assert scaled.to_lists() == [[-1, -1], [0, -1]]
    with pytest.raises(ShapeError):
        scale_rows_cols(a, [1], [1, 1])
    with pytest.raises(ShapeError):
        scale_rows_cols(a, [1, 2], [1, 1])
    with pytest.raises(ShapeError):
        scale_rows_cols(ExactMatrix(GF2, [[1]]), [1], [1])


def test_scaling_preserves_tu():
    rng = random.Random(37)
    for _ in range(30):
        a = random_tu_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        assert is_totally_unimodular(a).is_tu
        signs_r = [rng.choice((1, -1)) for _ in range(a.n_rows)]
        signs_c = [rng.choice((1, -1)) for _ in range(a.n_cols)]
        assert is_totally_unimodular(scale_rows_cols(a, signs_r, signs_c)).is_tu


def test_find_tu_signing_identity_pattern():
    u = ExactMatrix(GF2, [[1, 0], [0, 1]])
    s = find_tu_signing(u)
    assert s == ExactMatrix.identity(2, RATIONAL)


def test_find_tu_signing_trivial_cases():
    z = ExactMatrix(GF2, [[0, 0], [0, 0]])
    assert find_tu_signing(z) == ExactMatrix.zeros(2, 2, RATIONAL)
    e = ExactMatrix(GF2, [], n_cols=2)
    assert find_tu_signing(e) == ExactMatrix(RATIONAL, [], n_cols=2)
    with pytest.raises(ShapeError):
        find_tu_signing(ExactMatrix(RATIONAL, [[1]]))


def test_fano_has_no_signing_both_searches():
    u = fano_b().body
    assert find_tu_signing(u) is None
    assert find_tu_signing_bruteforce(u) is None


def test_searches_agree_on_random_supports():
    rng = random.Random(41)
    supports = []
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        supports.append([[1 if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)])
    # propagating each sign along a shortest path over the edges signed so
    # far closes a cycle with a chord here and wrongly finds no signing
    supports.append([[0, 0, 0, 1, 1, 1], [1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 1]])
    for rows in supports:
        u = ExactMatrix(GF2, rows, n_cols=len(rows[0]))
        fast = find_tu_signing(u)
        slow = find_tu_signing_bruteforce(u)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_tu_signing_of(fast, u)
            assert is_tu_signing_of(slow, u)
    assert fast is not None  # the fixed support above has a TU signing


def test_signing_of_tu_support_recovers_a_witness():
    rng = random.Random(43)
    for _ in range(15):
        a = random_tu_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        u = support_gf2(a)
        s = find_tu_signing(u)
        assert s is not None and is_tu_signing_of(s, u)


def test_signing_guards():
    # the signing search has no guard of its own: 25 free signs, one TU check
    ones6 = ExactMatrix(GF2, [[1] * 6 for _ in range(6)])
    assert is_tu_signing_of(find_tu_signing(ones6), ones6)
    with pytest.raises(SizeGuardError):
        find_tu_signing_bruteforce(ExactMatrix(GF2, [[1, 1], [1, 1]]), max_nonzeros=3)
    assert (
        find_tu_signing_bruteforce(ExactMatrix(GF2, [[1, 1], [1, 1]]), max_nonzeros=3, force=True)
        is not None
    )


def test_signing_k7_network_support_at_a_path():
    # K7's network matrix at the path 0-1-...-6: column (i, j) has ones at
    # rows i..j-1; 15 columns, 30 free signs, and the all-ones signing is TU
    arcs = [(i, j) for i in range(7) for j in range(i + 2, 7)]
    rows = [[1 if i <= r < j else 0 for i, j in arcs] for r in range(6)]
    assert find_tu_signing(ExactMatrix(GF2, rows)) == ExactMatrix(RATIONAL, rows)


def test_incidence_matrices_are_tu():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randrange(2, 6)
        arcs = []
        for _ in range(rng.randrange(1, 8)):
            t = rng.randrange(n)
            h = rng.randrange(n - 1)
            arcs.append((t, h + 1 if h >= t else h))
        a = incidence_matrix(n, arcs)
        assert is_totally_unimodular(a).is_tu


def oracle_verdict(a):
    expected = naive_tu_verdict(a)
    return TuVerdict(True) if expected is None else TuVerdict(False, expected)


def test_matches_naive_oracle_on_shapes_up_to_6x6():
    # 1xn, mx1, wide, tall and square shapes at varied density, with
    # all-zero rows and columns mixed in
    rng = random.Random(61)
    seen = {"tu": 0, "not tu": 0}
    for _ in range(2000):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        density = rng.random()
        rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        a = ExactMatrix(RATIONAL, rows, n_cols=n)
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a), rows
        seen["tu" if got.is_tu else "not tu"] += 1
    assert min(seen.values()) > 400


def planted_cycle(rng, m, n, k):
    """A matrix that is TU except for one k x k chordless cycle block.

    Rows 0.. hold a random TU matrix on the columns outside the block,
    then come zero rows, then the k cycle rows on the block's columns.
    The cycle's entries multiply to (-1)^(k+1), so the block's
    determinant is +-2; it is the only violator of order k and every
    smaller square is TU.
    """
    block_cols = sorted(rng.sample(range(n), k))
    other_cols = [j for j in range(n) if j not in block_cols]
    top = m - k - rng.randrange(m - k)
    rows = [[0] * n for _ in range(m)]
    if top and other_cols:
        tu = random_tu_matrix(rng, top, len(other_cols))
        for i in range(top):
            for t, j in enumerate(other_cols):
                rows[i][j] = int(tu[i, t])
    block_rows = list(range(m - k, m))
    order = rng.sample(block_cols, k)
    for t, i in enumerate(block_rows):
        rows[i][order[t]] = 1
        rows[i][order[(t + 1) % k]] = -1 if t == 0 and k % 2 == 0 else 1
    signs = [rng.choice((1, -1)) for _ in range(m)], [rng.choice((1, -1)) for _ in range(n)]
    a = scale_rows_cols(ExactMatrix(RATIONAL, rows, n_cols=n), *signs)
    return a, tuple(block_rows), tuple(block_cols)


def test_matches_naive_oracle_on_planted_witnesses():
    rng = random.Random(67)
    for trial in range(160):
        k = 2 + trial % 4
        m = k + 1 + rng.randrange(7 - k)
        n = k + rng.randrange(7 - k)
        a, block_rows, block_cols = planted_cycle(rng, m, n, k)
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a)
        rows, cols, det = got.witness
        assert (rows, cols, abs(det)) == (block_rows, block_cols, 2)


def test_forced_9x11_check_is_fast():
    # computing every determinant on its own takes about 2.5 s on this
    # input (2-core host)
    a = random_tu_matrix(random.Random(9), 9, 11)
    start = time.perf_counter()
    verdict = is_totally_unimodular(a, force=True)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_tu


def cycle_block(rng, k):
    """A k x k chordless cycle with determinant +-2, rows shuffled and sign-scaled."""
    rows = [[0] * k for _ in range(k)]
    for t in range(k):
        rows[t][t] = 1
        rows[t][(t + 1) % k] = -1 if t == 0 and k % 2 == 0 else 1
    rng.shuffle(rows)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    return [[s * v for v in row] for s, row in zip(signs, rows)]


def planted_matrix(rng):
    """A {0, +-1} matrix built to exercise every step before the minor DP.

    One or two random blocks are joined as a 1-sum; when there are two,
    both may hold a violator of one shared order, so the witness is
    decided between blocks.  Equal and negated copies of rows and
    columns, unit lines and zero lines are planted on top, then rows and
    columns are shuffled.  Returns the rows, the column count and
    whether two blocks had violators of the same minimal order.
    """
    # two order-3 cycles make a 6x6 matrix, slow for the naive oracle
    k, n_blocks = 3 if rng.random() < 0.15 else 2, rng.choice((1, 2, 2))
    blocks = []
    for _ in range(n_blocks):
        m, n = rng.randrange(1, 6 - n_blocks), rng.randrange(1, 6 - n_blocks)
        density = rng.random()
        block = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(m)]
        if rng.random() < 0.7:
            block = cycle_block(rng, k) if rng.random() < 0.8 else random_tu_matrix(rng, 2, k).to_lists()
        blocks.append(block)
    orders = [naive_tu_verdict(ExactMatrix(RATIONAL, b)) for b in blocks]
    tie = len(blocks) == 2 and None not in orders and len(orders[0][0]) == len(orders[1][0])
    n = sum(len(b[0]) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [[0] * offset + row + [0] * (n - offset - len(row)) for row in b]
        offset += len(b[0])
    for _ in range(rng.randrange(4)):
        m, sign, plant = len(rows), rng.choice((1, -1)), rng.randrange(6)
        if plant == 0 and m < 5:
            rows.append([sign * v for v in rng.choice(rows)])
        elif plant == 1 and n < 5:
            j = rng.randrange(n)
            for row in rows:
                row.append(sign * row[j])
            n += 1
        elif plant == 2 and m < 5:
            unit = rng.randrange(n)
            rows.append([sign if j == unit else 0 for j in range(n)])
        elif plant == 3 and n < 5:
            i = rng.randrange(m)
            for t, row in enumerate(rows):
                row.append(sign if t == i else 0)
            n += 1
        elif plant == 4 and m < 5:
            rows.append([0] * n)
        elif plant == 5 and n < 5:
            for row in rows:
                row.append(0)
            n += 1
    rng.shuffle(rows)
    perm = rng.sample(range(n), n)
    return [[row[j] for j in perm] for row in rows], n, tie


def test_witness_contract_survives_reduction_and_splitting():
    rng = random.Random(71)
    seen = {"tu": 0, "not tu": 0, "tie": 0}
    for _ in range(2400):
        rows, n, tie = planted_matrix(rng)
        a = ExactMatrix(RATIONAL, rows, n_cols=n)
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a), rows
        seen["tu" if got.is_tu else "not tu"] += 1
        seen["tie"] += tie
    assert min(seen["tu"], seen["not tu"]) >= 400 and seen["tie"] >= 200, seen


def test_same_support_other_signs_are_not_merged():
    # column 2 repeats column 0 and goes; columns 0 and 1 share a support
    # but not a sign pattern, and so do the two rows: both stay
    a = ExactMatrix(RATIONAL, [[1, 1, 1], [1, -1, 1]])
    assert is_totally_unimodular(a).witness == ((0, 1), (0, 1), Fraction(-2))
    # row 1 negates row 0 and goes; row 2 shares row 0's support but not
    # its sign pattern and stays
    a = ExactMatrix(RATIONAL, [[1, -1], [-1, 1], [1, 1]])
    assert is_totally_unimodular(a).witness == ((0, 2), (0, 1), Fraction(2))


def kn_incidence(n):
    return incidence_matrix(n, list(combinations(range(n), 2)))


def refuse_dp(rpos, rneg, rows, cols):
    raise AssertionError("an incidence-like block reached the minor DP")


@pytest.mark.parametrize("build", [
    lambda: kn_incidence(10),
    lambda: kn_incidence(10).transpose(),
], ids=["K10 incidence 10x45", "K10 incidence transposed"])
def test_incidence_blocks_are_certified_without_the_dp(build, monkeypatch):
    a = build()
    assert a.rank() == 9
    monkeypatch.setattr(tu_module, "_first_violator", refuse_dp)
    start = time.perf_counter()
    verdict = is_totally_unimodular(a, force=True)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_tu


def test_forced_one_sum_of_two_tu_blocks_is_fast():
    rng = random.Random(73)
    left, right = random_tu_matrix(rng, 6, 7), random_tu_matrix(rng, 6, 7)
    a = from_blocks(left, ExactMatrix.zeros(6, 7, RATIONAL), ExactMatrix.zeros(6, 7, RATIONAL), right)
    start = time.perf_counter()
    verdict = is_totally_unimodular(a, force=True)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_tu


def test_odd_signed_cycle_falls_through_to_the_dp(monkeypatch):
    # every line has two equal entries, so both sign-scaling tests meet an
    # odd cycle of "scale apart" constraints and the block goes to the DP
    a = ExactMatrix(RATIONAL, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    calls = []
    first_violator = tu_module._first_violator

    def record(*args):
        calls.append(args[2:])
        return first_violator(*args)

    monkeypatch.setattr(tu_module, "_first_violator", record)
    assert is_totally_unimodular(a).witness == ((0, 1, 2), (0, 1, 2), Fraction(2))
    assert calls == [(0b111, 0b111)]
    # a TU block that neither scaling test certifies: K4 at a path
    calls.clear()
    k4 = ExactMatrix(RATIONAL, [[1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]])
    assert is_totally_unimodular(k4).is_tu and calls
