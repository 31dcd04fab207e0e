"""Finite matroids on labeled ground sets, backed by matrices or base lists.

Ground elements are nonempty strings.  A vector-backed matroid is the
column matroid of a labeled matrix over GF(2) or the rationals: a set of
column labels is independent when the selected columns have full column
rank.  All queries are exact, and all read one reduced row-echelon form,
made once per matroid by ``to_matroid``.  A depth-first search over it
lists and counts the bases, visiting only independent sets that extend
to one, so its cost follows them, not C(n, r).  Known-binary pairs are
equal when the supports of their forms are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import itemgetter, or_
from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Sequence

from .errors import ShapeError, SizeGuardError, _shown
from .exactmat import GF2, RATIONAL, ExactMatrix, _SIGNS, _echelon, _eliminate, _exact, _int_rows_rank
from .exactmat import _scaled_int_rows, _supports, gf2_rank_of_ints
from .tu import _line_scales, is_totally_unimodular

DEFAULT_EQ_LIMIT = 18
DEFAULT_ZMOD_ENUM_LIMIT = 10**6

Label = str

__all__ = [
    "Label",
    "LabeledMatrix",
    "FiniteMatroid",
    "AxiomReport",
    "to_matroid",
    "matroids_equal",
    "disjoint_sum",
    "verify_matroid_axioms",
    "zmod_linear_independent",
    "DEFAULT_EQ_LIMIT",
]


def _check_labels(labels: Sequence[Label], what: str) -> tuple[Label, ...]:
    out = tuple(labels)
    for lbl in out:
        if not isinstance(lbl, str) or not lbl:
            raise ShapeError(f"{what} labels must be nonempty strings, got {_shown(lbl)}")
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate {what} labels")
    return out


class LabeledMatrix:
    """An ExactMatrix with distinct row and column labels."""

    __slots__ = ("row_labels", "col_labels", "body")

    def __init__(self, row_labels: Sequence[Label], col_labels: Sequence[Label], body: ExactMatrix):
        self.row_labels = _check_labels(row_labels, "row")
        self.col_labels = _check_labels(col_labels, "column")
        if not isinstance(body, ExactMatrix):
            raise ShapeError(f"body must be an ExactMatrix, got {_shown(body)}")
        if body.shape != (len(self.row_labels), len(self.col_labels)):
            raise ShapeError(
                f"body is {body.n_rows}x{body.n_cols} but labels say "
                f"{len(self.row_labels)}x{len(self.col_labels)}"
            )
        self.body = body

    @property
    def kind(self) -> str:
        return self.body.kind

    def row_position(self, label: Label) -> int:
        return self._positions((label,), True)[0]

    def col_position(self, label: Label) -> int:
        return self._positions((label,), False)[0]

    def _positions(self, labels: Iterable[Label], rows: bool) -> list[int]:
        """The row (``rows``) or column position of each label, in order, by one lookup pass over
        a label-to-position dict built for this call; the first missing label raises."""
        pos = {lbl: i for i, lbl in enumerate(self.row_labels if rows else self.col_labels)}
        try:
            return list(map(pos.__getitem__, labels))
        except KeyError as exc:
            raise ShapeError(f"no {'row' if rows else 'column'} labeled {_shown(exc.args[0])}") from None

    def entry(self, row_label: Label, col_label: Label):
        return self.body[self.row_position(row_label), self.col_position(col_label)]

    def select(self, row_labels: Sequence[Label], col_labels: Sequence[Label]) -> "LabeledMatrix":
        """Submatrix by labels, in order; ``_cut`` raises for a missing label, the constructor for a repeat."""
        return LabeledMatrix(row_labels, col_labels, _cut(self, row_labels, col_labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash((self.row_labels, self.col_labels, self.body))

    def __repr__(self) -> str:
        return f"LabeledMatrix({self.kind}, rows={list(self.row_labels)}, cols={list(self.col_labels)})"


def _labeled(row_labels: Sequence[Label], col_labels: Sequence[Label], body: ExactMatrix) -> LabeledMatrix:
    """A ``LabeledMatrix`` over already checked labels, one per body row or column; no checks."""
    m = object.__new__(LabeledMatrix)
    m.row_labels, m.col_labels, m.body = tuple(row_labels), tuple(col_labels), body
    return m


def _cut(b: LabeledMatrix, rows: Sequence[Label], cols: Sequence[Label]) -> ExactMatrix:
    """``b``'s body on the rows ``rows`` and columns ``cols``, in the order given; labels are not
    checked for repeats.  Each axis's labels are looked up in one ``LabeledMatrix._positions``
    call, which maps that axis afresh, so a missing one raises as ``row_position`` or
    ``col_position`` does.  Labels equal to b's own on an axis are not mapped, and rows stay shared."""
    body_rows = b.body.rows
    kept = body_rows if tuple(rows) == b.row_labels else [body_rows[i] for i in b._positions(rows, True)]
    if tuple(cols) != b.col_labels:
        keep = b._positions(cols, False)
        if len(keep) > 1:
            kept = list(map(itemgetter(*keep), kept))
        else:  # itemgetter of one index returns a bare entry, and of none raises
            kept = [(row[keep[0]],) for row in kept] if keep else [()] * len(kept)
    return _exact(b.kind, kept, len(cols))


class FiniteMatroid:
    """A finite matroid, backed by a base family or by the ``_echelon`` rows of a representation."""

    __slots__ = ("ground", "_pos", "_mode", "_rows", "_bases")

    def __init__(self, ground, _mode, _bases=None):
        self.ground = tuple(ground)
        self._pos = {e: p for p, e in enumerate(sorted(self.ground))}  # column of each element
        self._mode = _mode
        self._rows = None  # set by to_matroid and disjoint_sum, which need _pos first
        self._bases = _bases

    @classmethod
    def from_bases(cls, ground: Sequence[Label], bases: Iterable[Iterable[Label]]) -> "FiniteMatroid":
        """Matroid given by an explicit nonempty family of equal-size bases."""
        ground_t = _check_labels(ground, "ground")
        gset = frozenset(ground_t)
        fam = sorted({frozenset(b) for b in bases}, key=lambda b: tuple(sorted(b)))
        if not fam:
            raise ShapeError("base family must be nonempty")
        sizes = {len(b) for b in fam}
        if len(sizes) != 1:
            raise ShapeError("bases must all have the same size")
        for b in fam:
            if not b <= gset:
                raise ShapeError("base contains labels outside the ground set")
        return cls(ground_t, "bases", _bases=tuple(fam))

    def __repr__(self) -> str:
        return f"FiniteMatroid({len(self.ground)} elements, {self._mode})"

    def indep(self, subset: Iterable[Label]) -> bool:
        """True when the subset is independent; sets outside ground are not."""
        s = frozenset(subset)
        return s <= self._pos.keys() and self.rank_of(s) == len(s)

    def rank_of(self, subset: Iterable[Label]) -> int:
        s = frozenset(subset)
        if not s <= self._pos.keys():
            raise ShapeError("rank_of takes a subset of the ground set")
        if self._mode == "bases":
            return max(len(b & s) for b in self._bases)
        if self._mode == GF2:
            mask = sum(1 << self._pos[e] for e in s)
            return gf2_rank_of_ints(y & mask for y in self._rows)
        cols = [self._pos[e] for e in s]
        return _int_rows_rank([[y[j] for j in cols] for y in self._rows])

    @property
    def rank(self) -> int:
        return len(self._bases[0] if self._mode == "bases" else self._rows)

    def is_base(self, subset: Iterable[Label]) -> bool:
        s = frozenset(subset)
        if not s <= self._pos.keys():
            raise ShapeError("is_base takes a subset of the ground set")
        return len(s) == self.rank and self.indep(s)

    def bases(self) -> list[tuple[Label, ...]]:
        """All bases, lexicographic by sorted label tuple."""
        if self._mode == "bases":
            return [tuple(sorted(b)) for b in self._bases]
        order = list(self._pos)
        return [tuple(order[p] for p in base) for base, _, _ in _prefixes(self._mode, self._rows, 0)]

    def count_bases(self) -> int:
        """The number of bases, counted short of each: two elements over GF(2), one over Q."""
        if self._mode == "bases":
            return len(self._bases)
        walk = _prefixes(self._mode, self._rows, 2 if self._mode == GF2 else 1)
        return sum(_completions(self._mode, y, start) for _, y, start in walk)


def _prefixes(kind: str, rows: list, k: int) -> Iterator[tuple[tuple[int, ...], list, int]]:
    """Depth-first search, in lexicographic order, over the sets P of positions that extend to a
    base.  P carries Y, the ``_echelon`` basis of the row-space vectors vanishing on P; P + j
    extends to a base when a row of Y is nonzero at j and j is at most the end of Y's first
    row, and carries ``_eliminate(Y, j)``.  Yields (P, Y, first position past P) if len(Y) <= k."""
    stack = [((), rows)]
    while stack:
        prefix, rows = stack.pop()
        start = prefix[-1] + 1 if prefix else 0
        if len(rows) <= k:
            yield prefix, rows, start
            continue
        masks = _supports(kind, rows)
        window = reduce(or_, masks)
        ends = [j for j in range(start, masks[0].bit_length()) if window >> j & 1]
        stack.extend((prefix + (j,), _eliminate(kind, rows, j) if rows[1:] else []) for j in reversed(ends))


def _completions(kind: str, rows: list, start: int) -> int:
    """How many ways a ``_prefixes`` node of at most one row, or two GF(2) rows, completes: two
    columns from ``start`` on complete it when they are nonzero and unequal, (1, 0), (0, 1) or (1, 1)."""
    if len(rows) < 2:
        return (_supports(kind, rows)[0] >> start).bit_count() if rows else 1
    y, z = rows[0] >> start, rows[1] >> start
    a, b, c = (y & ~z).bit_count(), (z & ~y).bit_count(), (y & z).bit_count()
    return a * b + a * c + b * c


def to_matroid(rep: LabeledMatrix) -> FiniteMatroid:
    """Column matroid of a labeled matrix over GF(2) or the rationals; ground = column labels.

    The rows, scaled to integers over Q, are reduced once by ``_echelon`` over the sorted ground.
    """
    m = FiniteMatroid(rep.col_labels, rep.kind)
    at = [m._pos[e] for e in rep.col_labels]
    rows = rep.body.rows if rep.kind == GF2 else _scaled_int_rows(rep.body.rows)[0]
    m._rows = _echelon(rep.kind, (_placed(rep.kind, row, at, len(at)) for row in rows))
    return m


def _placed(kind: str, row: Sequence, at: list[int], n: int) -> int | list:
    """``row`` with entry j moved to column ``at[j]`` of n: bit-packed over GF(2), a list over Q."""
    if kind == GF2:
        return sum(x << p for x, p in zip(row, at))
    out = [0] * n
    for x, p in zip(row, at):
        out[p] = x
    return out


def matroids_equal(m1: FiniteMatroid, m2: FiniteMatroid, *, limit: int = DEFAULT_EQ_LIMIT) -> bool:
    """Equality: same ground set and same independent sets.

    A binary matroid determines the reduced row-echelon form of its
    GF(2) representation, so when both vector-backed sides are known
    binary (GF(2)-backed, or rational with rows that scale to a TU
    matrix) equality is equality of the supports of their stored rows.
    Otherwise equal matroids have the same greedy base over the sorted
    ground, the first base of the lexicographic walk ``_prefixes``, so
    different ones answer "not equal"; past that the ranks, the base
    counts and then the bases are compared.  Only this fallback is
    guarded: grounds larger than ``limit`` raise ``SizeGuardError``.
    Within the guard, the TU check of a rational side's B is forced, since
    B has C(n, r) square submatrices.
    """
    if m1._pos.keys() != m2._pos.keys():
        return False
    if m1._mode == "bases" or m2._mode == "bases":
        return _bases_equal(m1, m2, limit)
    supports = [_binary_supports(m, len(m1._pos) <= limit) for m in (m1, m2)]
    if None not in supports:
        return supports[0] == supports[1]
    first, second = (next(_prefixes(m._mode, m._rows, 0))[0] for m in (m1, m2))
    return first == second and _bases_equal(m1, m2, limit)


def _binary_supports(m: FiniteMatroid, force: bool) -> Optional[list[int]]:
    """Bit masks of the supports of ``m``'s rows, or None when ``m`` is not known to be binary.

    A rational ``m`` is binary when B, the non-pivot part of its rows, scales
    to a TU matrix (row scaling is free).  Every minor of [I | B] is then in
    {-1, 0, 1} and equal mod 2 to the matching minor of its support, so the
    supports are the GF(2) form of ``m``.
    """
    masks = _supports(m._mode, m._rows)
    if m._mode == GF2:
        return masks
    pivots = {y.bit_length() - 1 for y in masks}
    rest = [j for j in range(len(m._pos)) if j not in pivots]
    return masks if _scales_to_tu([[y[j] for j in rest] for y in m._rows], len(rest), force) else None


def _scales_to_tu(b: list[list[int]], n: int, force: bool) -> bool:
    """Whether B scales to a TU matrix, which keeps the matroid of [I | B].  A TU scaling of
    B is its sign grid up to line signs, so B must scale to its signs (``tu._line_scales``),
    and then the TU check runs on the signs, as the shared sign Fractions.  Unless ``force``
    is set, a check past the default TU guard counts as not TU.
    """
    signs = [[(v > 0) - (v < 0) for v in row] for row in b]
    if _line_scales(b, signs) is None:
        return False
    rows = [[_SIGNS[s] for s in row] for row in signs]
    try:
        return is_totally_unimodular(_exact(RATIONAL, rows, n), force=force).is_tu
    except SizeGuardError:
        return False


def _bases_equal(m1: FiniteMatroid, m2: FiniteMatroid, limit: float) -> bool:
    """Same rank, then the same number of bases, then the same ``bases()`` lists."""
    if m1.rank != m2.rank:
        return False
    n = len(m1.ground)
    if n > limit:
        raise SizeGuardError(
            f"exhaustive matroid comparison over {n} elements exceeds the guard ({limit})"
        )
    return m1.count_bases() == m2.count_bases() and m1.bases() == m2.bases()


def disjoint_sum(m1: FiniteMatroid, m2: FiniteMatroid) -> FiniteMatroid:
    """Direct sum of two matroids on disjoint ground sets."""
    if m1._pos.keys() & m2._pos.keys():
        raise ShapeError("disjoint_sum needs disjoint ground sets")
    ground = m1.ground + m2.ground
    if m1._mode != m2._mode or m1._mode == "bases":
        return FiniteMatroid.from_bases(ground, [b1 + b2 for b1 in m1.bases() for b2 in m2.bases()])
    m = FiniteMatroid(ground, m1._mode)
    rows = []
    for side in (m1, m2):
        at = [m._pos[e] for e in side._pos]
        bits = range(len(at))
        rows += [_placed(m._mode, [y >> j & 1 for j in bits] if m._mode == GF2 else y, at, len(ground))
                 for y in side._rows]
    m._rows = _echelon(m._mode, rows)
    return m


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking the finite matroid axioms by brute force.

    ``base_nonempty``: some maximal independent set exists.
    ``exchange_counterexample``: a pair (I, B), B maximal, where no element
    of B extends I (augmentation fails); ``exchange_ok`` when None.
    ``maximality_counterexample``: a pair (I, J) with I independent, J a
    subset of I, J dependent; ``maximality_ok`` (closed downward) when None.
    """

    base_nonempty: bool
    exchange_counterexample: Optional[tuple[FrozenSet[Label], FrozenSet[Label]]] = None
    maximality_counterexample: Optional[tuple[FrozenSet[Label], FrozenSet[Label]]] = None

    @property
    def exchange_ok(self) -> bool:
        return self.exchange_counterexample is None

    @property
    def maximality_ok(self) -> bool:
        return self.maximality_counterexample is None

    @property
    def is_matroid(self) -> bool:
        return self.base_nonempty and self.exchange_ok and self.maximality_ok


def verify_matroid_axioms(
    ground: Sequence[Label], indep: Callable[[FrozenSet[Label]], bool]
) -> AxiomReport:
    """Brute-force axiom check of an independence predicate on a finite ground.

    Ground elements may be any hashable, mutually comparable values
    (strings, ints, ...).  Subsets are enumerated ascending by size, then
    lexicographically by sorted labels, so reported counterexamples are
    the first in that order.  Cost is exponential in ``len(ground)``.
    """
    ground_t = tuple(ground)
    if len(set(ground_t)) != len(ground_t):
        raise ShapeError("ground labels must be distinct")
    ordered = sorted(ground_t)
    subsets: list[FrozenSet[Label]] = []
    for k in range(len(ordered) + 1):
        subsets.extend(frozenset(c) for c in combinations(ordered, k))
    family = [s for s in subsets if indep(s)]
    family_set = set(family)

    maximal = [
        s for s in family
        if not any(e not in s and (s | {e}) in family_set for e in ordered)
    ]
    maximal_set = set(maximal)
    exchange = ((s, b) for s in family if s not in maximal_set for b in maximal
                if not any((s | {x}) in family_set for x in sorted(b - s)))
    maximality = ((s, s - {e}) for s in family for e in sorted(s) if s - {e} not in family_set)
    return AxiomReport(bool(maximal), next(exchange, None), next(maximality, None))


def zmod_linear_independent(n: int, vectors: Sequence[Sequence[int]], *, force: bool = False) -> bool:
    """Linear independence over the integers mod n, by full enumeration.

    Vectors are independent when no coefficient tuple other than all
    zeros combines them to the zero vector.  Enumeration visits n^k
    tuples, guarded by ``DEFAULT_ZMOD_ENUM_LIMIT`` unless ``force`` is set.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ShapeError(f"modulus must be an int of at least 2, got {_shown(n)}")
    try:
        k, dims = len(vectors), {len(v) for v in vectors}
    except TypeError:  # the vectors, or one of them, have no length
        raise ShapeError(f"vectors must be a sequence of sequences, got {_shown(vectors)}") from None
    if len(dims) > 1:
        raise ShapeError("vectors must share one length")
    vecs = [tuple(_residue(x, n) for x in v) for v in vectors]
    if n**k > DEFAULT_ZMOD_ENUM_LIMIT and not force:
        raise SizeGuardError(
            f"enumerating {n}^{k} coefficient tuples exceeds the guard ({DEFAULT_ZMOD_ENUM_LIMIT})"
        )
    dim = dims.pop() if dims else 0
    for coeffs in product(range(n), repeat=k):
        if not any(coeffs):
            continue
        if all(sum(c * v[d] for c, v in zip(coeffs, vecs)) % n == 0 for d in range(dim)):
            return False
    return True


def _residue(x, n: int) -> int:
    """An integer entry, an int or an integral ``Fraction``, reduced mod n."""
    if isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1:
        return int(x) % n
    raise ShapeError(f"cannot use {_shown(x)} as an entry mod {n}")
