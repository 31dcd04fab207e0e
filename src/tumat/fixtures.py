"""Built-in matrices used by tests, docs, and the shipped fixture files."""

from __future__ import annotations

from typing import Sequence

from .errors import ShapeError
from .exactmat import GF2, RATIONAL, ExactMatrix, _checked
from .matroid import LabeledMatrix
from .stdrepr import StandardRepr

__all__ = [
    "fano_b",
    "fano_standard_repr",
    "fano_columns",
    "r10_b",
    "r10_standard_repr",
    "incidence_matrix",
    "network_example",
]

# The 3x4 matrix whose [I | B] lists all seven nonzero GF(2)^3 columns.
# Its column matroid is the smallest binary matroid with no TU signing.
_FANO_ROWS = [
    [1, 1, 0, 1],
    [1, 0, 1, 1],
    [0, 1, 1, 1],
]

# Five-element circulant: the classic rank-5, ten-element splitter.
_R10_ROWS = [
    [1, 1, 0, 0, 1],
    [1, 1, 1, 0, 0],
    [0, 1, 1, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 0, 0, 1, 1],
]


def fano_b() -> LabeledMatrix:
    rows = ["x1", "x2", "x3"]
    cols = ["y1", "y2", "y3", "y4"]
    return LabeledMatrix(rows, cols, ExactMatrix(GF2, _FANO_ROWS))


def fano_standard_repr() -> StandardRepr:
    return StandardRepr(fano_b())


def fano_columns() -> LabeledMatrix:
    """All seven nonzero columns over GF(2)^3, labeled e1..e7."""
    cols = [[(v >> i) & 1 for v in range(1, 8)] for i in range(3)]
    labels = [f"e{v}" for v in range(1, 8)]
    return LabeledMatrix(["r1", "r2", "r3"], labels, ExactMatrix(GF2, cols))


def r10_b() -> LabeledMatrix:
    rows = [f"x{i}" for i in range(1, 6)]
    cols = [f"y{i}" for i in range(1, 6)]
    return LabeledMatrix(rows, cols, ExactMatrix(GF2, _R10_ROWS))


def r10_standard_repr() -> StandardRepr:
    return StandardRepr(r10_b())


def incidence_matrix(n_nodes: int, arcs: Sequence[tuple[int, int]]) -> ExactMatrix:
    """Node-arc incidence matrix of a digraph: +1 at the tail, -1 at the head.

    Incidence matrices are totally unimodular, as is every submatrix of
    one, which makes them a convenient TU test corpus.  A node count or
    endpoint that is not an int in range, and a loop, raise ``ShapeError``.
    """
    rows = [[0] * len(arcs) for _ in range(_checked(n_nodes, "n_nodes"))]
    for j, (tail, head) in enumerate(arcs):
        if tail == head:
            raise ShapeError("loops have a zero column; pick distinct endpoints")
        rows[_checked(tail, "tail", n_nodes)][j] = 1
        rows[_checked(head, "head", n_nodes)][j] = -1
    return ExactMatrix(RATIONAL, rows, n_cols=len(arcs))


def network_example() -> LabeledMatrix:
    """A small network-style TU matrix used in docs and CLI fixtures."""
    body = ExactMatrix(RATIONAL, [[1, -1, 0], [0, 1, -1]])
    return LabeledMatrix(["u", "v"], ["a", "b", "c"], body)
