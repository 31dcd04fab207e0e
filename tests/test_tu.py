import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from operator import mul

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
    is_signing_of,
    is_totally_unimodular,
    is_tu_signing_of,
    sign_sum_1,
    standardize,
    to_matroid,
)
from tumat.fixtures import fano_b, incidence_matrix, network_example, r10_b, r10_standard_repr

from helpers import (
    cofactor_det,
    find_tu_signing_bruteforce,
    naive_tu_verdict,
    random_network_matrix,
    random_tu_matrix,
    scale_rows_cols,
    support_gf2,
)


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
    message = r"^TU check on a 9x9 matrix exceeds the size guard \(min dim > 8\)$"
    with pytest.raises(SizeGuardError, match=message):
        is_totally_unimodular(big)
    assert is_totally_unimodular(big, force=True).is_tu


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
        TuVerdict(((0, 1), (0,), Fraction(2)))
    with pytest.raises(ShapeError):
        TuVerdict(((0,), (0,), Fraction(1)))
    TuVerdict(((0,), (0,), Fraction(1, 2)))  # fractional witness is legal
    TuVerdict()


def test_is_signing_of():
    u = ExactMatrix(GF2, [[1, 0], [1, 1]])
    assert is_signing_of(ExactMatrix(RATIONAL, [[-1, 0], [1, 1]]), u)
    assert not is_signing_of(ExactMatrix(RATIONAL, [[1, 0], [0, 1]]), u)
    assert not is_signing_of(ExactMatrix(RATIONAL, [[2, 0], [1, 1]]), u)
    with pytest.raises(ShapeError):
        is_signing_of(ExactMatrix(RATIONAL, [[1]]), u)
    with pytest.raises(ShapeError):
        is_signing_of(u, u)


def test_is_signing_of_needs_magnitude_exactly_one_over_the_support():
    # |x| == y exactly: 2, 1/2, -2 and -1/2 share a numerator or a
    # denominator with 1 but are not +-1, and a nonzero entry is not 0
    u = ExactMatrix(GF2, [[1, 0]])
    for x in (2, Fraction(1, 2), -2, Fraction(-1, 2), Fraction(3, 3)):
        a = ExactMatrix(RATIONAL, [[x, 0]])
        assert is_signing_of(a, u) is (abs(x) == 1), x
    assert not is_signing_of(ExactMatrix(RATIONAL, [[1, Fraction(1, 2)]]), u)


def test_is_tu_signing_of():
    u = ExactMatrix(GF2, [[1, 1], [1, 1]])
    assert is_tu_signing_of(ExactMatrix(RATIONAL, [[1, 1], [-1, 1]]) , u) is False
    assert is_tu_signing_of(ExactMatrix(RATIONAL, [[1, 1], [1, 1]]), u)


def test_scale_rows_cols():
    a = ExactMatrix(RATIONAL, [[1, -1], [0, 1]])
    scaled = scale_rows_cols(a, [1, -1], [-1, 1])
    assert scaled.to_lists() == [[-1, -1], [0, -1]]


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
    while len(supports) < 175:  # larger supports, up to 10 nonzeros; one has no signing
        m, n, density = rng.randrange(2, 5), rng.randrange(3, 6), rng.uniform(0.4, 0.8)
        rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        if sum(map(sum, rows)) <= 10:
            supports.append(rows)
    # column 3 joins the forest under row 1; the pass from row 1 reaches
    # row 2 through column 0 before row 0, then row 3 through row 2, where
    # the path sum restarts
    supports.append([[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 0, 1, 1]])
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
            # Camion: a TU signing is unique up to row and column signs
            assert tu_module._line_scales(fast.rows, slow.rows) is not None
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
    with pytest.raises(ValueError, match="loops"):
        incidence_matrix(2, [(0, 1), (1, 1)])


def test_incidence_matrix_checks_its_nodes():
    # an endpoint outside range(n_nodes), a negative one included, and a
    # node count that is not a size raise ShapeError; so does a loop, which
    # an ``except ValueError`` still catches
    for n_nodes, arcs, message in ((3, [(0, -1)], "head -1 out of range"), (3, [(3, 0)], "tail 3 out of range"),
                                   (3, [(0, 1), (1, 5)], "head 5 out of range"), (-1, [], "n_nodes -1 out of range"),
                                   (2.0, [], "n_nodes must be an int, got 2.0"),
                                   (3, [(1, 1)], "loops have a zero column; pick distinct endpoints")):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            incidence_matrix(n_nodes, arcs)
    with pytest.raises(ValueError, match="loops"):
        incidence_matrix(2, [(0, 1), (1, 1)])
    assert incidence_matrix(3, [(0, 2)]).to_lists() == [[1], [0], [-1]]


def oracle_verdict(a):
    return TuVerdict(naive_tu_verdict(a))


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


def test_forced_signing_of_all_ones_120x120_is_fast():
    # a breadth-first search per signed neighbour of each new vertex, not
    # one pass per vertex, takes about 5 s on this input (2-core host)
    ones = [[1] * 120 for _ in range(120)]
    start = time.perf_counter()
    signing = find_tu_signing(ExactMatrix(GF2, ones), force=True)
    assert time.perf_counter() - start < 1.0
    assert signing == ExactMatrix(RATIONAL, ones)


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


def reduced_masks(grid, rounds=None):
    """Row and column masks left by dropping zero and unit lines and later
    copies of a line, equal or negated, row pass then column pass, until
    neither pass drops a line (or after ``rounds`` rounds): the reduction
    written out on the dense grid."""
    rows, cols = set(range(len(grid))), set(range(len(grid[0])))
    while rounds != 0:
        before = (set(rows), set(cols))
        for lines, other, entry in ((rows, cols, lambda i, j: grid[i][j]),
                                    (cols, rows, lambda j, i: grid[i][j])):
            seen = set()
            for i in sorted(lines):
                line = tuple(entry(i, j) for j in sorted(other))
                if sum(map(bool, line)) < 2 or line in seen or tuple(-x for x in line) in seen:
                    lines.discard(i)
                else:
                    seen.add(line)
        if (rows, cols) == before:
            break
        rounds = None if rounds is None else rounds - 1
    return sum(1 << i for i in rows), sum(1 << j for j in cols)


def staircase(rng, m, n):
    """A signed bidiagonal staircase, with a few stray entries and its lines
    shuffled: dropping a unit column leaves a unit row, and so on inward,
    so most lines go only after several row and column passes."""
    grid = [[rng.choice((1, -1)) if j in (i, i + 1) else 0 for j in range(n)] for i in range(m)]
    for _ in range(rng.randrange(3)):
        grid[rng.randrange(m)][rng.randrange(n)] = rng.choice((1, -1))
    rng.shuffle(grid)
    perm = rng.sample(range(n), n)
    return [[row[j] for j in perm] for row in grid]


def test_pre_pass_reaches_the_fixpoint(monkeypatch):
    # the masks reaching _blocks are the reduce-until-stable masks, on
    # staircases, where lines become removable only after a column pass,
    # and on random sparse matrices with copied and negated rows
    reached, blocks = [], tu_module._blocks
    monkeypatch.setattr(tu_module, "_blocks", lambda *args: reached.append(args[4:]) or blocks(*args))
    rng = random.Random(83)
    late = 0
    for k in range(300):
        m, n = rng.randrange(2, 10), rng.randrange(2, 10)
        if k % 2:
            grid = staircase(rng, m, max(n, m + 1))
        else:
            grid = [[rng.choice((1, -1)) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(m)]
            for _ in range(rng.randrange(3)):
                i, sign = rng.randrange(m), rng.choice((1, -1))
                grid[rng.randrange(m)] = [sign * x for x in grid[i]]
        reached.clear()
        is_totally_unimodular(ExactMatrix(RATIONAL, grid, n_cols=len(grid[0])), force=True)
        assert reached == [reduced_masks(grid)], grid
        late += reduced_masks(grid, rounds=1) != reduced_masks(grid)
    assert late >= 200, late


def kn_incidence(n):
    return incidence_matrix(n, list(combinations(range(n), 2)))


def refuse_dp(rpos, rneg, rows, cols):
    raise AssertionError("a network block reached the minor DP")


def refuse(name):
    def refused(*args):
        raise AssertionError(f"{name} was reached")
    return refused


# F7 2-summed with K4 at a path, along F7's last row and K4's first column
FANO_2SUM = [[1, 1, 0, 1, 0, 0], [1, 0, 1, 1, 0, 0], [0, 1, 1, 1, 1, 0],
             [0, 1, 1, 1, 1, 1], [0, 0, 0, 0, 1, 1]]


# R10 2-summed with K4 at a path, along R10's last row and K4's first column
R10_2SUM = [[1, 1, 0, 0, 1, 0, 0], [1, 1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1, 0, 0], [1, 0, 0, 1, 1, 1, 0], [1, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 1, 1]]


def shuffled_fano_2sums(rng, count):
    """``count`` copies of the ``FANO_2SUM`` support, rows and columns shuffled."""
    shuffled = [(rng.sample(range(5), 5), rng.sample(range(6), 6)) for _ in range(count)]
    return [ExactMatrix(GF2, [[FANO_2SUM[i][j] for j in cols] for i in rows]) for rows, cols in shuffled]


def kn_at_a_path(n, seed):
    """K_n's network matrix at the path 0-1-...-(n-1), sign-scaled at random.

    Row i is the tree arc i -> i+1 and column (i, j), j > i + 1, the arc
    i -> j, whose tree path passes rows i .. j-1 forwards.  The block is
    3-connected, so the pre-pass drops nothing.
    """
    arcs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    rows = [[1 if i <= r < j else 0 for i, j in arcs] for r in range(n - 1)]
    rng = random.Random(seed)
    return scale_rows_cols(ExactMatrix(RATIONAL, rows), [rng.choice((1, -1)) for _ in rows],
                           [rng.choice((1, -1)) for _ in arcs])


@pytest.mark.parametrize("build, n, force", [
    (lambda: kn_incidence(10), 10, True),
    (lambda: kn_incidence(10).transpose(), 10, True),
    (lambda: kn_at_a_path(7, 1), 7, False),
    (lambda: kn_at_a_path(7, 2).transpose(), 7, False),
    (lambda: kn_at_a_path(8, 3), 8, False),
    (lambda: kn_at_a_path(8, 4).transpose(), 8, False),
    (lambda: kn_at_a_path(9, 5), 9, False),
    (lambda: kn_at_a_path(10, 6), 10, True),
], ids=["K10 incidence 10x45", "K10 incidence transposed", "K7 at a path 6x15",
        "K7 at a path transposed", "K8 at a path 7x21", "K8 at a path transposed",
        "K9 at a path 8x28", "K10 at a path 9x36"])
def test_incidence_blocks_are_certified_without_the_dp(build, n, force, monkeypatch):
    # a star tree realizes the incidence matrices, a path tree the others;
    # K9 at a path took seconds in the DP, and min dim 8 passes the guard
    a = build()
    assert a.rank() == n - 1
    monkeypatch.setattr(tu_module, "_minor_dp", refuse_dp)
    start = time.perf_counter()
    verdict = is_totally_unimodular(a, force=force)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_tu


def test_network_leaf_matches_the_naive_oracle(monkeypatch):
    # network matrices of random digraphs at random spanning trees are TU
    # and never reach the DP, nor do their transposes; drawn from 7-9 nodes
    # and 10-15 arcs, most keep a block of 5 lines or more on each side,
    # which the realization search certifies (a block with a 4-line side
    # meets the order-4 rule instead).  On 4-7 nodes, one flipped sign makes
    # most of them not TU, and the screens, the order-4 rule or the DP then
    # find the oracle's witness
    reached = []
    minor_dp, tree = tu_module._minor_dp, tu_module._tree
    trees = []

    def dp(*args):
        reached.append(args[2:])
        return minor_dp(*args)

    def search(paths, on):
        assert min(len(paths), len(on)) >= 5, (paths, on)
        trees.append(tree(paths, on))
        return trees[-1]

    monkeypatch.setattr(tu_module, "_minor_dp", dp)
    monkeypatch.setattr(tu_module, "_tree", search)
    rng, big = random.Random(79), random.Random(80)
    seen = {"searched": 0, "flipped tu": 0, "flipped not tu": 0}
    for _ in range(60):
        large = random_network_matrix(big, big.randrange(7, 10), big.randrange(10, 16))
        a = random_network_matrix(rng, rng.randrange(4, 8), rng.randrange(4, 10))
        for b in (large, large.transpose(), a, a.transpose()):
            reached.clear()
            trees.clear()
            assert is_totally_unimodular(b) == TuVerdict()  # TU by construction
            assert not reached
            seen["searched"] += sum(t is not None for t in trees)
        for b in (a, a.transpose()):
            grid = b.to_lists()
            i, j = rng.choice([(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v])
            grid[i][j] = -grid[i][j]
            flipped = ExactMatrix(RATIONAL, grid, n_cols=b.n_cols)
            got = is_totally_unimodular(flipped)
            assert got == oracle_verdict(flipped), grid
            seen["flipped tu" if got.is_tu else "flipped not tu"] += 1
    assert seen["searched"] >= 85 and min(seen["flipped tu"], seen["flipped not tu"]) >= 20, seen
    # signed incidence matrices of random digraphs: every column has two
    # nonzeros, so the star tree realizes the block with no search, and
    # _star alone decides its signs, with one sign flipped too
    star_of, decided = tu_module._star, []
    monkeypatch.setattr(tu_module, "_star", lambda *args: decided.append(star_of(*args)) or decided[-1])
    star = {"unflipped": 0, "flipped tu": 0, "flipped not tu": 0}
    for _ in range(60):
        n = rng.randrange(4, 7)
        arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(6, 10))]
        a = scale_rows_cols(incidence_matrix(n, arcs), [rng.choice((1, -1)) for _ in range(n)],
                            [rng.choice((1, -1)) for _ in arcs])
        reached.clear()
        trees.clear()
        decided.clear()
        assert is_totally_unimodular(a) == oracle_verdict(a) == TuVerdict()
        assert not reached and not trees
        star["unflipped"] += True in decided
        grid = a.to_lists()
        i, j = rng.choice([(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v])
        grid[i][j] = -grid[i][j]
        flipped = ExactMatrix(RATIONAL, grid, n_cols=a.n_cols)
        trees.clear()
        got = is_totally_unimodular(flipped)
        assert got == oracle_verdict(flipped), grid
        assert not trees
        star["flipped tu" if got.is_tu else "flipped not tu"] += 1
    assert star["unflipped"] >= 30 and min(star.values()) >= 5, star
    # neither graphic nor cographic: R10, with no small violator, is
    # certified by its own leaf; blocks with a Fano minor have an order-3
    # violator, which the screens find; neither searches for a tree
    f7 = ExactMatrix(RATIONAL, fano_b().body.to_lists())
    candidates = []
    monkeypatch.setattr(tu_module, "is_totally_unimodular",
                        lambda cand, **kw: candidates.append(cand) or is_totally_unimodular(cand, **kw))
    assert find_tu_signing(ExactMatrix(GF2, FANO_2SUM)) is None
    for a in (find_tu_signing(r10_b().body), f7, f7.transpose(), candidates[0]):
        reached.clear()
        trees.clear()
        verdict = is_totally_unimodular(a)
        assert verdict == oracle_verdict(a)
        assert not reached and not trees, a.to_lists()


def test_the_realization_search_meets_only_sides_within_the_bound(monkeypatch):
    # no tree realizes a side whose k edges carry fewer than (k + 3) / 2 or
    # more than k(k - 1) / 2 lines, so the network leaf skips it: _tree never
    # receives one, though network matrices and their transposes have such
    # sides.  The bound changes only the work, so only a hook sees it.  A
    # block with a star side is decided by the star before the leaf
    is_network, tree = tu_module._is_network_matrix, tu_module._tree
    sides, searched = Counter(), []

    def network(rpos, rneg, cpos, cneg, rows, cols):
        for pos, neg, lines, edges in ((cpos, cneg, cols, rows), (rpos, rneg, rows, cols)):
            paths = [(pos[j] | neg[j]) & edges for j in tu_module._bits(lines)]
            assert max(map(int.bit_count, paths)) > 2, "a star side reached the realization search"
            k = edges.bit_count()
            sides["inside" if k + 3 <= 2 * len(paths) <= k * (k - 1) else "outside"] += 1
        return is_network(rpos, rneg, cpos, cneg, rows, cols)

    def search(paths, on):
        k, lines = len(on), len(paths)
        assert k + 3 <= 2 * lines <= k * (k - 1), (k, lines)
        searched.append((k, lines))
        return tree(paths, on)

    monkeypatch.setattr(tu_module, "_is_network_matrix", network)
    monkeypatch.setattr(tu_module, "_tree", search)
    rng = random.Random(131)
    for _ in range(400):
        a = random_network_matrix(rng, rng.randrange(4, 10), rng.randrange(3, 15))
        for b in (a, a.transpose()):
            assert is_totally_unimodular(b, force=True).is_tu
    assert sides["outside"] >= 10 and sides["inside"] >= 200 and len(searched) >= 150, (sides, len(searched))


def test_network_search_takes_no_stack_frame_per_edge(monkeypatch):
    # an interval matrix is a network matrix at a path; this one keeps a
    # block of about 290 edges, which a recursive search would need as
    # many stack frames for
    rng = random.Random(83)
    spans = [(a, rng.randrange(a + 1, min(300, a + 40))) for a in (rng.randrange(299) for _ in range(600))]
    a = ExactMatrix(RATIONAL, [[1 if lo <= i <= hi else 0 for lo, hi in spans] for i in range(300)])
    monkeypatch.setattr(tu_module, "_minor_dp", refuse_dp)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert is_totally_unimodular(a, force=True).is_tu
    finally:
        sys.setrecursionlimit(limit)


def test_network_signs_need_every_line_to_be_a_path():
    # the sign step checks each line against the tree it is handed, so no
    # tree the search might get wrong can certify a block
    path = [0b001, 0b011, 0b110, 0b100]  # vertex stars of e0 - e1 - e2
    pos, neg = [0b111, 0b011, 0b101], [0, 0, 0]
    assert tu_module._fits(pos, neg, {0: 0b111, 1: 0b011}, path)
    assert not tu_module._fits(pos, neg, {0: 0b111, 2: 0b101}, path)


def test_star_rule_matches_the_check_of_the_star_tree(monkeypatch):
    # _star solves the star's signs from each line's two entries; on every
    # block the TU check hands it, that answer equals _fits' on the explicit
    # star tree (vertex 0 its centre, then one leaf per edge), and where no
    # side has two nonzeros in each line it is None.  Blocks come from
    # signed incidence matrices of random digraphs, their transposes, 0-2
    # flipped signs, and a column given a third nonzero
    star_of, blocks = tu_module._star, []
    monkeypatch.setattr(tu_module, "_star", lambda *args: blocks.append(args) or star_of(*args))
    rng = random.Random(137)
    while len(blocks) < 5000:
        n = rng.randrange(3, 8)
        arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3, 9))]
        grid = incidence_matrix(n, arcs).to_lists()
        for _ in range(rng.randrange(3)):
            i, j = rng.choice([(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v])
            grid[i][j] = -grid[i][j]
        if rng.random() < 0.25:
            j = rng.randrange(len(arcs))
            i = rng.choice([i for i in range(n) if not grid[i][j]])
            grid[i][j] = rng.choice((1, -1))
        a = ExactMatrix(RATIONAL, grid, n_cols=len(arcs))
        for b in (a, a.transpose()):
            is_totally_unimodular(b)
    seen = Counter()
    for rpos, rneg, cpos, cneg, rows, cols in blocks:
        expected = None
        for pos, neg, lines, edges in ((cpos, cneg, cols, rows), (rpos, rneg, rows, cols)):
            paths = {j: (pos[j] | neg[j]) & edges for j in tu_module._bits(lines)}
            if all(s.bit_count() == 2 for s in paths.values()):
                star = [edges] + [1 << e for e in tu_module._bits(edges)]
                expected = tu_module._fits(pos, neg, paths, star)
                break
        assert star_of(rpos, rneg, cpos, cneg, rows, cols) is expected
        seen[expected] += 1
    assert min(seen[answer] for answer in (True, False, None)) >= 500, seen


def test_forced_one_sum_of_two_tu_blocks_is_fast():
    rng = random.Random(73)
    left, right = random_tu_matrix(rng, 6, 7), random_tu_matrix(rng, 6, 7)
    a = sign_sum_1(left, right)
    start = time.perf_counter()
    verdict = is_totally_unimodular(a, force=True)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_tu


def test_odd_signed_cycle_falls_through_to_the_dp(monkeypatch):
    # every column has two nonzeros, so the star tree realizes the block,
    # but its signs meet an odd cycle of "scale apart" constraints (five
    # columns of two equal entries): the star fails, so the block is not
    # TU, has no violator of order 2 or 3, and goes to the DP for its
    # witness, with no tree search; _star's decisions are recorded as
    # ("star", answer), and _fits' checks of searched trees as "fits"
    a = ExactMatrix(RATIONAL, [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [1, 0, 0, 0, 1]])
    calls, trees = [], []
    minor_dp, tree, fits, order_4 = tu_module._minor_dp, tu_module._tree, tu_module._fits, tu_module._order_4_violator
    star_of = tu_module._star

    def record(*args):
        calls.append(args[2:])
        return minor_dp(*args)

    def star(*args):
        answer = star_of(*args)
        if answer is not None:
            calls.append(("star", answer))
        return answer

    monkeypatch.setattr(tu_module, "_minor_dp", record)
    monkeypatch.setattr(tu_module, "_star", star)
    monkeypatch.setattr(tu_module, "_tree", lambda *args: trees.append(tree(*args)) or trees[-1])
    monkeypatch.setattr(tu_module, "_fits", lambda *args: calls.append("fits") or fits(*args))
    monkeypatch.setattr(tu_module, "_order_4_violator", lambda *args: calls.append("order 4") or order_4(*args))
    assert is_totally_unimodular(a).witness == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), Fraction(2))
    assert calls == [("star", False), (0b11111, 0b11111)] and trees == []
    # of four lines (three columns of two equal entries, one of two
    # opposite), the order-4 rule gives the witness with no DP
    calls.clear()
    a = ExactMatrix(RATIONAL, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [-1, 0, 0, 1]])
    assert is_totally_unimodular(a).witness == ((0, 1, 2, 3), (0, 1, 2, 3), Fraction(2))
    assert calls == [("star", False), "order 4"] and trees == []
    # of three lines, such a cycle is an order-3 violator, which the
    # screens find before the DP
    calls.clear()
    a = ExactMatrix(RATIONAL, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert is_totally_unimodular(a).witness == ((0, 1, 2), (0, 1, 2), Fraction(2))
    assert calls == [("star", False)]
    # K4 at a path: its unit column goes, and a 3x3 block is left with no
    # small violator, so it is TU with no tree; K5 at a path (4x6) keeps a
    # line of three nonzeros on each side, so no star realizes it, and the
    # order-4 rule certifies it; K6 at a path (5x10) has no star side
    # either, a path tree realizes it, and it is certified without the DP
    calls.clear()
    k4 = ExactMatrix(RATIONAL, [[1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]])
    assert is_totally_unimodular(k4).is_tu and calls == [] and trees == []
    assert is_totally_unimodular(kn_at_a_path(5, 7)).is_tu and calls == ["order 4"] and trees == []
    calls.clear()
    assert is_totally_unimodular(kn_at_a_path(6, 7)).is_tu and calls == ["fits"]
    assert len(trees) == 1 and trees[0] is not None


def colour_groups(nodes, rules):
    """The bits of ``nodes`` the rules' supports tie together, one mask per group."""
    groups = []
    while nodes:
        group, grown = nodes & -nodes, True
        while grown:
            grown = False
            for s, _ in rules:
                if s & group and s & ~group:
                    group, grown = group | s, True
        groups.append(group)
        nodes &= ~group
    return groups


def test_colourings_flip_the_one_colouring_that_keeps_each_lowest_bit():
    # against every 2-colouring of up to 6 bits: the mask returned is the
    # only valid colouring in which the lowest bit of each group keeps the
    # first colour, and None means no colouring is valid
    rng = random.Random(89)
    seen = {"none": 0, "several groups": 0, "lone bits": 0}
    for _ in range(1500):
        width = rng.randint(1, 6)
        nodes = rng.randrange(1, 1 << width)
        hidden = rng.randrange(1 << width)
        rules = []
        for _ in range(rng.randrange(5)):
            s = rng.randrange(1, 1 << width) & nodes
            if not s:
                continue
            if rng.random() < 0.7:  # consistent with the hidden colouring
                d = (hidden if rng.random() < 0.5 else ~hidden) & s
            else:
                d = rng.randrange(1 << width) & s
            rules.append((s, d))
        groups = colour_groups(nodes, rules)
        lowest = sum(g & -g for g in groups)
        valid = [c for c in range(1 << width) if not c & ~nodes
                 and all((c ^ d) & s in (0, s) for s, d in rules)]
        got = tu_module._colourings(nodes, rules)
        if not valid:
            assert got is None
            seen["none"] += 1
            continue
        assert [c for c in valid if not c & lowest] == [got]
        seen["several groups"] += len(groups) > 1
        seen["lone bits"] += any(not g & (g - 1) for g in groups)
    assert min(seen.values()) >= 40, seen


def test_tree_realizes_a_path_system_whose_split_meets_two_groups(monkeypatch):
    # each vertex split moves one colouring's mask; on this system the last
    # split's vertex holds two colour groups, and the one move still
    # realizes every path
    paths = {0: 0b11, 1: 0b10111, 2: 0b1001100, 3: 0b10100000, 4: 0b11011}
    on = {e: sum(1 << j for j, p in paths.items() if p >> e & 1) for e in range(8)}
    calls = []
    colourings = tu_module._colourings
    monkeypatch.setattr(tu_module, "_colourings",
                        lambda nodes, rules: calls.append((nodes, rules)) or colourings(nodes, rules))
    stars = tu_module._tree(paths, on)
    assert stars is not None and len(stars) == 9
    assert any(len(colour_groups(*call)) >= 2 and colourings(*call) is not None for call in calls)
    # the stars form a tree on edges 0-7: root it at vertex 0, and read each
    # path off the edges from its two ends up to the root
    ends = {e: [v for v, star in enumerate(stars) if star >> e & 1] for e in range(8)}
    assert all(len(vs) == 2 for vs in ends.values())
    up, queue = {0: 0}, [0]
    for v in queue:  # breadth first: the loop reaches what it appends
        for e in range(8):
            w = sum(ends[e]) - v
            if v in ends[e] and w not in up:
                up[w] = up[v] | 1 << e
                queue.append(w)
    assert len(up) == 9
    pos, neg = {}, {}
    for j, p in paths.items():
        a, b = [v for v in up if sum(p >> e & 1 for e in range(8) if v in ends[e]) == 1]
        assert up[a] ^ up[b] == p
        pos[j], neg[j] = up[a] & p, up[b] & p  # up from a, then down to b
    assert tu_module._fits(pos, neg, paths, stars)



def test_every_3x3_violator_past_order_2_is_a_6_cycle():
    # the order-3 screen's premise, over all 3^9 {0, +-1} matrices: once
    # every 2x2 minor lies in {-1, 0, 1}, |det| >= 2 needs two nonzeros in
    # each row and column, multiplying to +1, and then det is +-2; the
    # checker returns that witness, or else the first 2x2 violator
    seen = Counter()
    for entries in product((0, 1, -1), repeat=9):
        g = [entries[:3], entries[3:6], entries[6:]]
        minors = [((r, s), (c, d), g[r][c] * g[s][d] - g[r][d] * g[s][c])
                  for r, s in combinations(range(3), 2) for c, d in combinations(range(3), 2)]
        det = sum(g[0][j] * (g[1][(j + 1) % 3] * g[2][(j + 2) % 3] - g[1][(j + 2) % 3] * g[2][(j + 1) % 3])
                  for j in range(3))
        got = is_totally_unimodular(ExactMatrix(RATIONAL, g)).witness
        first = next(((rs, cs, d) for rs, cs, d in minors if abs(d) > 1), None)
        if first:
            assert got == first, g
            seen[2] += 1
        elif abs(det) > 1:
            assert all(sum(map(abs, line)) == 2 for line in (*g, *zip(*g))), g
            assert prod(v for row in g for v in row if v) == 1 and abs(det) == 2, g
            assert got == ((0, 1, 2), (0, 1, 2), det), g
            seen[3] += 1
        else:
            assert got is None, g
            seen[0] += 1
    assert seen[3] == 192 and seen[2] > 5000 and seen[0] > 5000, seen


def camion_candidates(monkeypatch, supports):
    """The matrices ``find_tu_signing`` TU-checks for the GF(2) ``supports``,
    one each; a signing it finds is the very matrix it checked."""
    candidates = []
    monkeypatch.setattr(tu_module, "is_totally_unimodular",
                        lambda cand, **kw: candidates.append(cand) or is_totally_unimodular(cand, **kw))
    for k, u in enumerate(supports, 1):
        signing = find_tu_signing(u)
        assert len(candidates) == k and (signing is None or signing is candidates[-1])
    monkeypatch.setattr(tu_module, "is_totally_unimodular", is_totally_unimodular)
    return candidates


def random_supports(rng, count, max_rows, max_cols):
    supports = []
    for _ in range(count):
        m, n, density = rng.randrange(2, max_rows + 1), rng.randrange(2, max_cols + 1), rng.uniform(0.4, 0.9)
        supports.append(ExactMatrix(GF2, [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]))
    return supports


def test_screens_match_the_naive_oracle_on_camion_candidates(monkeypatch):
    seen = Counter()
    for a in camion_candidates(monkeypatch, random_supports(random.Random(89), 300, 6, 7)):
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a), a.to_lists()
        seen[len(got.witness[0]) if got.witness else 0] += 1
    assert seen[2] >= 3 and seen[3] >= 40 and seen[0] >= 150, seen


def test_screens_match_the_naive_oracle_on_planted_cycles():
    # one chordless cycle of order 2 or 3 under TU rows, its own block
    rng = random.Random(97)
    seen = Counter()
    for trial in range(480):
        k = 2 + trial % 2
        a, block_rows, block_cols = planted_cycle(rng, k + 1 + rng.randrange(6 - k), k + rng.randrange(8 - k), k)
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a), a.to_lists()
        assert got.witness[:2] == (block_rows, block_cols)
        seen[k] += 1
    assert min(seen[2], seen[3]) >= 200, seen


def small_violator(rpos, rneg, rows, cols):
    """A square submatrix of order 2 or 3 in the block on masks ``rows``
    and ``cols`` whose determinant leaves {-1, 0, 1}, by cofactor
    expansion over its +1 masks ``rpos`` and -1 masks ``rneg``; or None."""
    ii = [i for i in range(len(rpos)) if rows >> i & 1]
    jj = [j for j in range(cols.bit_length()) if cols >> j & 1]
    return next(((rs, cs) for k in (2, 3) for rs in combinations(ii, k) for cs in combinations(jj, k)
                 if abs(cofactor_det([[(rpos[i] >> j & 1) - (rneg[i] >> j & 1) for j in cs] for i in rs])) > 1),
                None)


def cycle_in_a_wider_block(rng, k):
    """``cycle_block(rng, k)`` with one more row and one more column of
    random signs, redrawn until the (k + 1) x (k + 1) block keeps every
    line, two nonzeros or more each and no two equal up to sign, and has no
    violator of order 2 or 3; rows and columns shuffled.  The cycle is
    still a violator of order k, and both sides have k + 1 lines."""
    while True:
        grid = [row + [rng.choice((0, 1, -1))] for row in cycle_block(rng, k)]
        grid.append([rng.choice((0, 1, -1)) for _ in range(k + 1)])
        sides = [[tuple(line) for line in grid], list(zip(*grid))]
        if all(sum(map(abs, line)) >= 2 for side in sides for line in side) and all(
                len({max(line, tuple(-v for v in line)) for line in side}) == k + 1 for side in sides) and (
                small_violator(*leaf_masks(grid)[:2], (1 << k + 1) - 1, (1 << k + 1) - 1) is None):
            rows, cols = rng.sample(range(k + 1), k + 1), rng.sample(range(k + 1), k + 1)
            return ExactMatrix(RATIONAL, [[grid[i][j] for j in cols] for i in rows])


def test_no_violator_of_order_2_or_3_reaches_the_minor_dp(monkeypatch):
    # the screens decide orders 2 and 3 in full: the DP after them only
    # sees blocks whose minimal violators, if any, have order 4 or more.
    # A block with a 4-line side meets the order-4 rule instead, so the
    # order-4 cycles that reach the DP lie in 5x5 blocks
    rng = random.Random(101)
    candidates = camion_candidates(monkeypatch, random_supports(rng, 400, 6, 7))
    planted = [planted_cycle(rng, 6, 7, k)[0] for k in (2, 3, 4, 5) for _ in range(20)]
    planted += [cycle_in_a_wider_block(rng, 4) for _ in range(20)]
    # each Camion candidate of a shuffled Fano 2-sum has an order-3 violator
    fano = camion_candidates(monkeypatch, shuffled_fano_2sums(rng, 40))
    reached = Counter()
    minor_dp = tu_module._minor_dp

    def dp(rpos, rneg, rows, cols):
        assert small_violator(rpos, rneg, rows, cols) is None
        got = minor_dp(rpos, rneg, rows, cols)
        reached[len(got[0]) if got else 0] += 1
        return got

    monkeypatch.setattr(tu_module, "_minor_dp", dp)
    for a in candidates:
        is_totally_unimodular(a)
    for a in fano:
        assert len(is_totally_unimodular(a).witness[0]) == 3
    # R10 ⊕2 K4 is TU, yet neither a network matrix nor R10, so the DP
    # certifies it
    r10_sum = camion_candidates(monkeypatch, [ExactMatrix(GF2, R10_2SUM)])
    for a in planted + fano + r10_sum + [find_tu_signing(r10_b().body)]:
        assert is_totally_unimodular(a) == oracle_verdict(a)
    assert reached[0] >= 1 and reached[4] >= 20 and reached[5] >= 20, reached


def network_block(rng):
    """A random network matrix on 12-21 nodes and 25-44 arcs, or its transpose."""
    a = random_network_matrix(rng, rng.randint(12, 21), rng.randint(25, 44))
    return a.transpose() if rng.random() < 0.5 else a


def with_line(a, line, as_column):
    """``a`` with ``line`` appended as its last row, or as its last column."""
    if as_column:
        return with_line(a.transpose(), line, False).transpose()
    return ExactMatrix(RATIONAL, a.to_lists() + [line], n_cols=a.n_cols)


def verdict_keeping_extensions(rng, a):
    """``a`` with lines appended that leave its TU verdict as it is: for rows
    and for columns a zero line, a unit line and a later copy of a line, equal
    or negated; and a network block 1-summed after it."""
    out = [sign_sum_1(a, network_block(rng))]
    for as_column in (False, True):
        lines = a.transpose().to_lists() if as_column else a.to_lists()
        unit = [0] * len(lines[0])
        unit[rng.randrange(len(unit))] = rng.choice((1, -1))
        sign = rng.choice((1, -1))
        copy = [sign * v for v in rng.choice(lines)]
        out += [with_line(a, line, as_column) for line in ([0] * len(unit), unit, copy)]
    return out


def reported_det_is_recomputed(a, verdict):
    rows, cols, det = verdict.witness
    return cofactor_det([[a.rows[i][j] for j in cols] for i in rows]) == det


def test_verdicts_are_metamorphic_on_one_sums_of_network_blocks(monkeypatch):
    # 1-sums of network blocks, half with a planted order-2 or order-3 cycle
    # block between them: the network leaf and the screens decide all of
    # them, so nothing reaches the minor DP.  Lines that cannot take part in
    # a lex-first minimal violator leave the verdict as it is; permuting and
    # transposing keep TU-ness and the order of a minimal violator
    monkeypatch.setattr(tu_module, "_minor_dp", refuse_dp)
    rng = random.Random(103)
    for trial in range(24):
        k = (2, 3, 0, 0)[trial % 4]  # the planted violator's order, 0 for none
        blocks = [network_block(rng), network_block(rng)]
        if k:
            blocks.insert(1, planted_cycle(rng, k + 1 + rng.randrange(2), k + rng.randrange(2), k)[0])
        a = blocks[0]
        for b in blocks[1:]:
            a = sign_sum_1(a, b)
        verdict = is_totally_unimodular(a, force=True)
        assert verdict.is_tu == (k == 0)
        if k:
            assert len(verdict.witness[0]) == k and reported_det_is_recomputed(a, verdict)
        for b in verdict_keeping_extensions(rng, a):
            assert is_totally_unimodular(b, force=True) == verdict, a.to_lists()
        row_order, col_order = rng.sample(range(a.n_rows), a.n_rows), rng.sample(range(a.n_cols), a.n_cols)
        for b in (a.submatrix(row_order, col_order), a.transpose()):
            got = is_totally_unimodular(b, force=True)
            assert got.is_tu == verdict.is_tu, a.to_lists()
            if k:
                assert len(got.witness[0]) == k and reported_det_is_recomputed(b, got)


def test_fano_2sum_candidates_are_decided_before_any_tree_search(monkeypatch):
    # the screens find each candidate's order-3 violator, so neither side of
    # the block pays for a failed realization search
    candidates = camion_candidates(monkeypatch, shuffled_fano_2sums(random.Random(107), 40))
    monkeypatch.setattr(tu_module, "_tree", refuse("_tree"))
    monkeypatch.setattr(tu_module, "_minor_dp", refuse("_minor_dp"))
    assert len(candidates) == 40
    for a in candidates:
        got = is_totally_unimodular(a)
        assert got == oracle_verdict(a) and len(got.witness[0]) == 3, a.to_lists()


def chordless_cycle_lengths(grid):
    """The lengths of the chordless cycles of the bipartite support graph
    of ``grid``, by brute force: each k rows and k columns whose nonzeros
    there form one cycle through all 2k of them."""
    m, n = len(grid), len(grid[0])
    lengths = set()
    for k in range(2, min(m, n) + 1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                near = {("r", i): [("c", j) for j in cs if grid[i][j]] for i in rs}
                near.update({("c", j): [("r", i) for i in rs if grid[i][j]] for j in cs})
                if any(len(w) != 2 for w in near.values()):
                    continue
                reached, todo = {("r", rs[0])}, [("r", rs[0])]
                while todo:
                    for w in near[todo.pop()]:
                        if w not in reached:
                            reached.add(w)
                            todo.append(w)
                if len(reached) == 2 * k:
                    lengths.add(2 * k)
    return lengths


def r10_form(grid):
    """"a" when the 5x5 support of ``grid`` has its zeros on one 10-cycle,
    "b" when it has one full row and one full column and the rest is one
    8-cycle, and None otherwise."""
    if 10 in chordless_cycle_lengths([[not x for x in row] for row in grid]):
        return "a"
    full_rows = [i for i, row in enumerate(grid) if all(row)]
    full_cols = [j for j in range(5) if all(row[j] for row in grid)]
    if len(full_rows) == len(full_cols) == 1:
        rest = [[x for j, x in enumerate(row) if j != full_cols[0]] for i, row in enumerate(grid) if i != full_rows[0]]
        if 8 in chordless_cycle_lengths(rest):
            return "b"
    return None


def r10_supports():
    """The support of B at each of R10's 162 bases, as rows of ints."""
    full = r10_standard_repr().to_full()
    return [[[int(x) for x in row] for row in standardize(full, base).B.body.to_lists()]
            for base in to_matroid(full).bases()]


def leaf_masks(grid):
    """``tu._is_r10``'s arguments for the whole of the {0, +-1} ``grid``."""
    m, n = len(grid), len(grid[0])
    rpos = [sum(1 << j for j in range(n) if grid[i][j] == 1) for i in range(m)]
    rneg = [sum(1 << j for j in range(n) if grid[i][j] == -1) for i in range(m)]
    cpos = [sum(1 << i for i in range(m) if grid[i][j] == 1) for j in range(n)]
    cneg = [sum(1 << i for i in range(m) if grid[i][j] == -1) for j in range(n)]
    return rpos, rneg, cpos, cneg, (1 << m) - 1, (1 << n) - 1


def sign_classes(grid):
    """Every signing of the support ``grid`` with its spanning forest at +1,
    one per class up to scaling rows and columns by signs."""
    free = [(i, j) for i, row in enumerate(grid) for j, x in enumerate(row) if x]
    m = len(grid)
    for p, c in tu_module.spanning_forest(tu_module._support_graph(grid)):
        free.remove((min(p, c), max(p, c) - m))
    for signs in product((1, -1), repeat=len(free)):
        signed = [row[:] for row in grid]
        for (i, j), s in zip(free, signs):
            signed[i][j] = s
        yield signed


def test_every_r10_support_is_one_of_two_forms_with_short_chordless_cycles():
    # the R10 leaf rests on these facts: by Camion a signing of either form
    # is TU once its 4- and 6-cycles pass the screens and, in form (b), its
    # one 8-cycle sums to 0 mod 4
    seen = Counter()
    for grid in r10_supports():
        form = r10_form(grid)
        assert chordless_cycle_lengths(grid) == {"a": {4, 6}, "b": {4, 8}}[form], grid
        seen[form] += 1
    assert seen == {"a": 72, "b": 90}


def test_r10_tu_signings_are_certified_without_a_tree_or_the_dp(monkeypatch):
    # the TU signing of each of the 162 supports, rows and columns shuffled
    # and scaled by random signs
    monkeypatch.setattr(tu_module, "_tree", refuse("_tree"))
    monkeypatch.setattr(tu_module, "_minor_dp", refuse("_minor_dp"))
    rng = random.Random(127)
    for grid in r10_supports():
        signing = find_tu_signing(ExactMatrix(GF2, grid))
        rows, cols = rng.sample(range(5), 5), rng.sample(range(5), 5)
        a = scale_rows_cols(signing.submatrix(rows, cols), [rng.choice((1, -1)) for _ in range(5)],
                            [rng.choice((1, -1)) for _ in range(5)])
        assert is_totally_unimodular(a) == oracle_verdict(a) == TuVerdict(), a.to_lists()


def test_r10_leaf_matches_the_naive_oracle_on_every_sign_class(monkeypatch):
    # by Camion one class is TU, and only the leaf decides it; every other
    # class has a violator of order 2 or 3, so the screens decide it before
    # the leaf.  In form (b) no class fails on its 8-cycle alone
    reached = []
    minor_dp, tree = tu_module._minor_dp, tu_module._tree
    monkeypatch.setattr(tu_module, "_minor_dp", lambda *args: reached.append("dp") or minor_dp(*args))
    monkeypatch.setattr(tu_module, "_tree", lambda *args: reached.append("tree") or tree(*args))
    circulant = [[int(x) for x in row] for row in r10_b().body.to_lists()]
    full_row = next(grid for grid in r10_supports() if r10_form(grid) == "b")
    for grid, count in ((circulant, 64), (full_row, 256)):
        seen = Counter()
        for signed in sign_classes(grid):
            reached.clear()
            a = ExactMatrix(RATIONAL, signed)
            got = is_totally_unimodular(a)
            assert got == oracle_verdict(a) and not reached, signed
            seen[len(got.witness[0]) if got.witness else 0] += 1
            if got.is_tu:
                assert tu_module._is_r10(*leaf_masks(signed))
        assert sum(seen.values()) == count and seen[0] == 1 and set(seen) <= {0, 2, 3}, seen


def test_r10_leaf_refuses_near_misses():
    # a 4-cycle and a 6-cycle of zeros; two 4-cycles beside the full row and
    # column; and a full row with no full column.  Each has the right number
    # of nonzeros in its rows, and is not R10, so no signing is certified
    near_misses = [
        [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 1, 0, 0], [1, 1, 0, 1, 0]],
        [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 0, 0, 1, 1], [1, 0, 0, 1, 1]],
        [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 0, 1, 0], [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]],
    ]
    for grid in near_misses:
        assert r10_form(grid) is None
        for signed in sign_classes(grid):
            assert not tu_module._is_r10(*leaf_masks(signed)), signed
            a = ExactMatrix(RATIONAL, signed)
            assert is_totally_unimodular(a) == oracle_verdict(a), signed


def test_blocks_of_fewer_than_4_rows_or_columns_skip_the_network_leaf(monkeypatch):
    # with no violator of order 2 or 3, such a block is TU: it has no square
    # submatrix of order 4, so neither a tree nor the DP is needed.  Shapes
    # up to 3x9 and 9x3, and 1-sums of two blocks up to 3x4 or 4x3, which
    # have 4 rows and 4 columns or more
    monkeypatch.setattr(tu_module, "_is_network_matrix", refuse("_is_network_matrix"))
    monkeypatch.setattr(tu_module, "_minor_dp", refuse("_minor_dp"))
    rng = random.Random(109)
    seen = Counter()
    for trial in range(600):
        blocks = []
        for _ in range(1 + trial % 2):
            m, n = rng.randrange(1, 4), rng.randrange(1, 10 - 5 * (trial % 2))
            if rng.random() < 0.4:
                b = random_tu_matrix(rng, m, n)
            else:
                density = rng.uniform(0.4, 1.0)
                b = ExactMatrix(RATIONAL, [[rng.choice((-1, 1)) if rng.random() < density else 0
                                            for _ in range(n)] for _ in range(m)], n_cols=n)
            blocks.append(b.transpose() if rng.random() < 0.5 else b)
        a = blocks[0] if len(blocks) == 1 else sign_sum_1(*blocks)
        got = is_totally_unimodular(a, force=True)
        assert got == oracle_verdict(a), a.to_lists()
        seen["tu" if got.is_tu else "not tu", len(blocks)] += 1
    assert min(seen.values()) >= 50, seen


def test_a_forced_large_interval_block_meets_the_network_leaf_first(monkeypatch):
    # the dense 300x600 interval matrix, row i with ones in columns
    # i..i+299, is one block whose shorter side has 300 lines: its screens
    # would try millions of row triples, so the leaf runs first and
    # certifies it, and no screen runs at all
    calls = []
    for name in ("_is_network_matrix", "_first_violator", "_minor_dp"):
        inner = getattr(tu_module, name)
        monkeypatch.setattr(tu_module, name,
                            lambda *args, name=name, inner=inner: calls.append(name) or inner(*args))
    a = ExactMatrix(RATIONAL, [[1 if i <= j < i + 300 else 0 for j in range(600)] for i in range(300)])
    assert is_totally_unimodular(a, force=True).is_tu
    assert calls == ["_is_network_matrix"]


def full_pass_candidate(u):
    """The signing ``find_tu_signing`` TU-checks for the GF(2) matrix ``u``,
    as rows of ints, propagated with one full breadth-first pass over the
    signed vertices for each new vertex, with no early exit."""
    m, n = u.shape
    adj = [[m + j for j in range(n) if u.rows[i][j]] for i in range(m)]
    adj += [[i for i in range(m) if u.rows[i][j]] for j in range(n)]
    sign = [{} for _ in range(m + n)]
    seen = [False] * (m + n)
    for p, c in tu_module.spanning_forest(adj):
        seen[p] = True
        sign[c][p] = sign[p][c] = 1
        total, queue = {p: 1}, [p]
        for v in queue:
            for w in adj[v]:
                if seen[w] and w not in total:
                    t = total[v] + sign[v][w]
                    if w in adj[c]:
                        t = sign[c][w] = sign[w][c] = 1 if t % 4 == 3 else -1
                    total[w] = t
                    queue.append(w)
        seen[c] = True
    return [[sign[i].get(m + j, 0) for j in range(n)] for i in range(m)]


def test_signing_stops_its_pass_with_the_same_candidate(monkeypatch):
    # once every signed neighbour of the new vertex has its sign, the rest
    # of the pass would set nothing: the early exit keeps every candidate.
    # Random supports, some with zero lines and some split into two blocks
    rng = random.Random(113)
    supports = random_supports(rng, 2100, 5, 7)
    seen = Counter()
    for t, u in enumerate(supports):
        grid = u.to_lists()
        if t % 3 == 1:  # zero a row and a column
            grid[rng.randrange(len(grid))] = [0] * len(grid[0])
            j = rng.randrange(len(grid[0]))
            for row in grid:
                row[j] = 0
        elif t % 3 == 2:  # disconnected: a second block beside the first
            extra = random_supports(rng, 1, 3, 3)[0].to_lists()
            grid = [row + [0] * len(extra[0]) for row in grid] + [[0] * len(grid[0]) + row for row in extra]
        supports[t] = ExactMatrix(GF2, grid, n_cols=len(grid[0]))
        seen[t % 3] += 1
    candidates = camion_candidates(monkeypatch, supports)
    assert len(candidates) == len(supports)
    for u, cand in zip(supports, candidates):
        assert cand.to_lists() == full_pass_candidate(u), u.to_lists()
        seen["tu"] += is_totally_unimodular(cand).is_tu
    assert min(seen.values()) >= 600, seen


def transpose_law_inputs(rng, per_family=300):
    """Seeded {0, +-1} matrices up to 8x9: random ones, then ``random_tu_matrix``, then network matrices."""
    shapes = [(rng.randint(1, 8), rng.randint(1, 9)) for _ in range(3 * per_family)]
    random_family = [ExactMatrix(RATIONAL, [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)], n_cols=n)
                     for m, n in shapes[:per_family]]
    return (random_family + [random_tu_matrix(rng, m, n) for m, n in shapes[per_family:2 * per_family]]
            + [random_network_matrix(rng, m + 1, n) for m, n in shapes[2 * per_family:]])


def test_transposing_keeps_the_tu_verdict_and_the_signing():
    # TU is closed under transposing: A and its transpose share the verdict
    # and the witness order, a minimally non-TU {0, +-1} matrix has
    # determinant +-2 (Camion), and the transpose's witness, transposed back,
    # is a violator of A; a TU signing is unique up to line signs, so the
    # signing search finds one for U exactly when it finds one for U^T, and
    # the two agree up to row and column signs
    seen = Counter()
    for a in transpose_law_inputs(random.Random(12)):
        verdict, flipped = (is_totally_unimodular(m, force=True) for m in (a, a.transpose()))
        assert verdict.is_tu == flipped.is_tu, a.to_lists()
        if not verdict.is_tu:
            (rows, cols, det), (t_rows, t_cols, t_det) = verdict.witness, flipped.witness
            assert len(rows) == len(t_rows) and abs(det) == abs(t_det) == 2, a.to_lists()
            assert a.submatrix(t_cols, t_rows).determinant() == t_det
        u = support_gf2(a)
        signing, t_signing = (find_tu_signing(m, force=True) for m in (u, u.transpose()))
        assert (signing is None) == (t_signing is None), u.to_lists()
        if signing is not None:
            scales = tu_module._line_scales(t_signing.transpose().rows, signing.rows)
            assert scales and {1, -1}.issuperset(map(mul, *scales)), u.to_lists()
        seen[verdict.is_tu, signing is not None] += 1
    assert seen[True, True] > 300 and seen[False, True] > 20 and seen[False, False] > 20, seen


def eulerian_supports():
    """Every 4x4 0/1 grid with an even count of ones in each line: a free
    3x3 corner, then the last column and row complete the parities."""
    for bits in range(1 << 9):
        grid = [[bits >> 3 * i + j & 1 for j in range(3)] for i in range(3)]
        grid = [row + [sum(row) % 2] for row in grid]
        yield grid + [[sum(col) % 2 for col in zip(*grid)]]


def int_det(grid):
    """Laplace expansion along the first row, on ints."""
    return sum((-1) ** j * v * int_det([row[:j] + row[j + 1:] for row in grid[1:]])
               for j, v in enumerate(grid[0]) if v) if grid else 1


def test_order_4_rule_matches_cofactor_determinants_on_every_eulerian_class():
    # the order-4 rule's premise (Camion), on every 4x4 sign matrix with an
    # Eulerian support, one per class up to line signs: with no violator of
    # order 2 or 3, |det| >= 2 exactly when the entries sum to 2 mod 4, and
    # det is then +-2.  The checker returns the first violator by cofactor
    # determinants
    seen, full = Counter(), (0, 1, 2, 3)
    for grid in eulerian_supports():
        for signed in sign_classes(grid):
            masks = leaf_masks(signed)
            small = small_violator(masks[0], masks[1], masks[4], masks[5])
            det = cofactor_det(signed)
            if small:
                rs, cs = small
                expected = (rs, cs, cofactor_det([[signed[i][j] for j in cs] for i in rs]))
            elif sum(map(sum, signed)) % 4 == 2:
                expected = (full, full, det)
                assert abs(det) == 2 and tu_module._order_4_violator(*masks) == expected, signed
            else:
                expected = None
                assert abs(det) <= 1 and tu_module._order_4_violator(*masks) is None, signed
            assert is_totally_unimodular(ExactMatrix(RATIONAL, signed)).witness == expected, signed
            seen[len(expected[0]) if expected else 0] += 1
    assert seen == {0: 416, 2: 2905, 3: 96, 4: 168}, seen  # 3,585 classes


def test_order_4_rule_stays_silent_off_eulerian_supports():
    # a 4x4 sign matrix with a line of odd count is never the rule's
    # witness, and it needs none: if its determinant leaves {-1, 0, 1},
    # a violator of order 2 or 3 lies inside it, which the checker returns
    rng = random.Random(137)
    seen = Counter()
    while sum(seen.values()) < 20000:
        grid = [[rng.choice((0, 1, -1)) for _ in range(4)] for _ in range(4)]
        if all(sum(map(abs, line)) % 2 == 0 for line in (*grid, *zip(*grid))):
            continue
        masks, big = leaf_masks(grid), abs(int_det(grid)) >= 2
        assert tu_module._order_4_violator(*masks) is None, grid
        got = is_totally_unimodular(ExactMatrix(RATIONAL, grid)).witness
        if big:
            assert got and small_violator(masks[0], masks[1], masks[4], masks[5]), grid
        assert got is None or len(got[0]) <= 3, grid
        seen["det 2 or more" if big else "tu" if got is None else "other"] += 1
    assert min(seen.values()) >= 2000, seen


def with_order_4_violator(rng, n):
    """A 4 x n block, n >= 5, whose only violators have order 4: an odd
    4-cycle, then up to two of the columns of two nonzeros or more, in
    random order, each kept when it copies no column up to sign and makes
    no 2x2 or 3x3 violator with those kept (no more than two fit), then
    copies up to sign and unit columns, which the pre-pass drops, up to n
    columns; columns shuffled and rows scaled by signs."""
    cols = [list(col) for col in zip(*cycle_block(rng, 4))]
    drawn = [list(col) for col in product((0, 1, -1), repeat=4) if sum(map(abs, col)) >= 2]
    rng.shuffle(drawn)
    for col in drawn[:rng.randrange(len(drawn))]:
        if len(cols) < n and col not in cols and [-v for v in col] not in cols and all(
                abs(int_det([[c[i] for c in (col, *pair)] for i in rs])) <= 1
                for k in (2, 3) for rs in combinations(range(4), k) for pair in combinations(cols, k - 1)):
            cols.append(col)
    while len(cols) < n:
        unit = [0] * 4
        unit[rng.randrange(4)] = 1
        sign = rng.choice((1, -1))
        cols.append([sign * v for v in (unit if rng.random() < 0.3 else rng.choice(cols))])
    rng.shuffle(cols)
    return [[sign * v for v in row] for sign, row in zip([rng.choice((1, -1)) for _ in range(4)], zip(*cols))]


def test_blocks_with_a_4_line_side_match_the_naive_oracle_without_a_tree_or_the_dp(monkeypatch):
    # 4 x n and n x 4 blocks, n = 5-9: TU ones, ones with a sign flipped,
    # and ones whose only violators have order 4.  The screens and the
    # order-4 rule decide them all
    monkeypatch.setattr(tu_module, "_tree", refuse("_tree"))
    monkeypatch.setattr(tu_module, "_minor_dp", refuse("_minor_dp"))
    rng = random.Random(139)
    seen = Counter()
    for trial in range(150):
        n = 5 + trial % 5
        if trial % 3 == 0:
            grid = with_order_4_violator(rng, n)
        else:
            grid = (random_network_matrix(rng, 5, n) if trial % 2 else random_tu_matrix(rng, 4, n)).to_lists()
            for _ in range(trial % 3 - 1):
                i, j = rng.choice([(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v])
                grid[i][j] = -grid[i][j]
        a = ExactMatrix(RATIONAL, grid)
        for b in (a, a.transpose()):
            got = is_totally_unimodular(b)
            assert got == oracle_verdict(b), b.to_lists()
            seen[len(got.witness[0]) if got.witness else 0] += 1
    assert seen[4] >= 80 and seen[0] >= 100 and seen[2] >= 30, seen


def test_the_star_certifies_incidence_blocks_before_the_screens(monkeypatch):
    # every column of an incidence matrix has two nonzeros, so the star tree
    # certifies it, or its transpose, before any screen, search or rule runs
    for name in ("_first_violator", "_tree", "_order_4_violator", "_minor_dp"):
        monkeypatch.setattr(tu_module, name, refuse(name))
    for a, force in ((kn_incidence(5), False), (kn_incidence(6), False),
                     (kn_incidence(10), True), (kn_incidence(10).transpose(), True)):
        assert is_totally_unimodular(a, force=force).is_tu


def test_the_order_4_rule_tries_only_lines_of_even_count(monkeypatch):
    # a 4 x 36 block holds every line of two nonzeros or more, up to sign;
    # only the 20 with 2 or 4 nonzeros can lie in an Eulerian 4x4, so the
    # rule draws its quadruples from those alone, at most C(20, 4)
    drawn, pools = [], []

    def counted(lines, r):
        lines = list(lines)
        if r == 4:
            pools.append(len(lines))
        for quad in combinations(lines, r):
            drawn.append(r)
            yield quad

    monkeypatch.setattr(tu_module, "combinations", counted)
    cols = [col for col in product((0, 1, -1), repeat=4)
            if sum(map(abs, col)) >= 2 and next(v for v in col if v) == 1]
    grid = [list(row) for row in zip(*cols)]
    assert len(cols) == 36
    for block in (grid, cols):
        pools.clear()
        drawn.clear()
        rs, cs, det = tu_module._order_4_violator(*leaf_masks(block))
        assert pools == [20] and 0 < drawn.count(4) <= comb(20, 4)
        # called past no screen, it returns an Eulerian 4x4 summing to 2 mod 4
        sub = [[block[i][j] for j in cs] for i in rs]
        assert all(sum(map(abs, line)) % 2 == 0 for line in (*sub, *zip(*sub))) and sum(map(sum, sub)) % 4 == 2
        assert cofactor_det(sub) == det
    # on a TU block the rule tries every quadruple of its even lines
    pools.clear()
    drawn.clear()
    assert is_totally_unimodular(kn_at_a_path(5, 7)).is_tu
    assert drawn.count(4) == comb(pools[0], 4) and pools[0] >= 4
