import random

import pytest

from tumat import (
    GF2,
    RATIONAL,
    ExactMatrix,
    FiniteMatroid,
    LabeledMatrix,
    ShapeError,
    StandardRepr,
    from_cols,
    fundamental_repr,
    is_regular,
    is_totally_unimodular,
    is_tu_signing_of,
    standardize,
    standardize_tu,
    support,
    to_binary,
    to_matroid,
)
from tumat.fixtures import fano_standard_repr, network_example, r10_standard_repr

from helpers import (
    is_regular_witness,
    labels,
    make_repr,
    naive_matroids_equal,
    random_rational_matrix,
    random_standard_repr,
    random_tu_matrix,
)


def test_standard_repr_validation():
    b = LabeledMatrix(["x1"], ["y1"], ExactMatrix(GF2, [[1]]))
    with pytest.raises(ShapeError):
        StandardRepr(["x1"], ["x1"], b)
    with pytest.raises(ShapeError):
        StandardRepr(["x2"], ["y1"], b)
    with pytest.raises(ShapeError):
        StandardRepr(["x1"], ["y2"], b)


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
        assert standardize(s.to_full(), s.X) == s


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
    rep = LabeledMatrix(["r"], ["a", "b"], ExactMatrix(RATIONAL, [[1, 2]]))
    with pytest.raises(ShapeError):
        standardize(rep, ["a", "b"])  # too big
    with pytest.raises(ShapeError):
        standardize(rep, ["z"])  # not a column
    dep = LabeledMatrix(["r", "s"], ["a", "b"], ExactMatrix(RATIONAL, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        standardize(dep, ["a", "b"])  # dependent pair


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
    flag, witness = is_regular(fano_standard_repr())
    assert flag is False and witness is None
    r10 = r10_standard_repr()
    flag, witness = is_regular(r10)
    assert flag is True
    assert witness.row_labels == r10.X and witness.col_labels == r10.Y
    assert is_tu_signing_of(witness.body, r10.B.body)
    with pytest.raises(ShapeError):
        is_regular(standardize(network_example(), ["a", "b"]))


def test_is_regular_witness():
    r10 = r10_standard_repr()
    flag, witness = is_regular(r10)
    assert flag
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


def test_to_binary():
    rep = network_example()
    assert to_binary(rep) == support(rep)
    with pytest.raises(ShapeError):
        to_binary(LabeledMatrix(["r"], ["a"], ExactMatrix(RATIONAL, [[2]])))
    with pytest.raises(ShapeError):
        to_binary(LabeledMatrix(["r"], ["a"], ExactMatrix(GF2, [[1]])))


def test_to_binary_preserves_matroid():
    rng = random.Random(17)
    for _ in range(10):
        a = random_tu_matrix(rng, 3, 4)
        rep = LabeledMatrix(labels("r", 3), labels("e", 4), a)
        assert naive_matroids_equal(to_matroid(to_binary(rep)), to_matroid(rep))
