"""Finite matroids on labeled ground sets, backed by matrices or base lists.

Ground elements are nonempty strings.  A vector-backed matroid is the
column matroid of a labeled matrix over GF(2) or the rationals: a set of
column labels is independent when the selected columns have full column
rank.  All queries are exact.  Equality of two matroids known to be
binary compares their standard representations at one shared base;
other pairs, and the remaining queries, are exhaustive; sizes are desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Callable, FrozenSet, Iterable, Optional, Sequence

from .errors import ShapeError, SizeGuardError
from .exactmat import GF2, RATIONAL, ExactMatrix, gf2_rank_of_ints
from .exactmat import _gauss_jordan, _int_rows_rank
from .tu import is_totally_unimodular, spanning_forest

DEFAULT_EQ_LIMIT = 18
DEFAULT_ZMOD_ENUM_LIMIT = 10**6

Label = str

__all__ = [
    "Label",
    "LabeledMatrix",
    "FiniteMatroid",
    "AxiomReport",
    "to_matroid",
    "indep_cols",
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
            raise ShapeError(f"{what} labels must be nonempty strings, got {lbl!r}")
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate {what} labels")
    return out


class LabeledMatrix:
    """An ExactMatrix with distinct row and column labels."""

    __slots__ = ("row_labels", "col_labels", "body", "_row_pos", "_col_pos")

    def __init__(self, row_labels: Sequence[Label], col_labels: Sequence[Label], body: ExactMatrix):
        self.row_labels = _check_labels(row_labels, "row")
        self.col_labels = _check_labels(col_labels, "column")
        if body.shape != (len(self.row_labels), len(self.col_labels)):
            raise ShapeError(
                f"body is {body.n_rows}x{body.n_cols} but labels say "
                f"{len(self.row_labels)}x{len(self.col_labels)}"
            )
        self.body = body
        self._row_pos = {lbl: i for i, lbl in enumerate(self.row_labels)}
        self._col_pos = {lbl: j for j, lbl in enumerate(self.col_labels)}

    @property
    def kind(self) -> str:
        return self.body.kind

    def row_position(self, label: Label) -> int:
        try:
            return self._row_pos[label]
        except KeyError:
            raise ShapeError(f"no row labeled {label!r}") from None

    def col_position(self, label: Label) -> int:
        try:
            return self._col_pos[label]
        except KeyError:
            raise ShapeError(f"no column labeled {label!r}") from None

    def entry(self, row_label: Label, col_label: Label):
        return self.body[self.row_position(row_label), self.col_position(col_label)]

    def select(self, row_labels: Sequence[Label], col_labels: Sequence[Label]) -> "LabeledMatrix":
        """Submatrix by labels, in the requested order (no repeats)."""
        rs = [self.row_position(lbl) for lbl in row_labels]
        cs = [self.col_position(lbl) for lbl in col_labels]
        for pos, what in ((rs, "row"), (cs, "column")):
            if len(set(pos)) != len(pos):
                raise ShapeError(f"duplicate {what} labels")
        return _labeled(row_labels, col_labels, self.body.submatrix(rs, cs))

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
    m._row_pos = {lbl: i for i, lbl in enumerate(m.row_labels)}
    m._col_pos = {lbl: j for j, lbl in enumerate(m.col_labels)}
    return m


def _int_column(col: Sequence[Fraction]) -> tuple[int, ...]:
    # scaling a column by a positive integer does not change independence
    d = lcm(*(x.denominator for x in col)) if col else 1
    return tuple(int(x * d) for x in col)


class FiniteMatroid:
    """A finite matroid, backed by a column representation or a base family."""

    __slots__ = ("ground", "_ground_set", "_mode", "_cols", "_n_rows", "_bases", "_rank")

    def __init__(self, ground, _mode, _cols=None, _n_rows=0, _bases=None):
        self.ground = tuple(ground)
        self._ground_set = frozenset(self.ground)
        self._mode = _mode
        self._cols = _cols
        self._n_rows = _n_rows
        self._bases = _bases
        self._rank = None

    @classmethod
    def from_matrix(cls, rep: LabeledMatrix) -> "FiniteMatroid":
        """Column matroid of a labeled matrix; ground = column labels."""
        body = rep.body
        if body.kind == GF2:
            cols = {
                lbl: sum(body.rows[i][j] << i for i in range(body.n_rows))
                for j, lbl in enumerate(rep.col_labels)
            }
            return cls(rep.col_labels, GF2, _cols=cols, _n_rows=body.n_rows)
        cols = {
            lbl: _int_column(body.col(j)) for j, lbl in enumerate(rep.col_labels)
        }
        return cls(rep.col_labels, RATIONAL, _cols=cols, _n_rows=body.n_rows)

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
        if not s <= self._ground_set:
            return False
        if self._mode == "bases":
            return any(s <= b for b in self._bases)
        if self._mode == GF2:
            masks = [self._cols[lbl] for lbl in s]
            return gf2_rank_of_ints(masks) == len(s)
        vecs = [self._cols[lbl] for lbl in s]
        return _int_rows_rank(vecs) == len(s)

    def rank_of(self, subset: Iterable[Label]) -> int:
        s = frozenset(subset)
        if not s <= self._ground_set:
            raise ShapeError("rank_of takes a subset of the ground set")
        if self._mode == "bases":
            return max(len(b & s) for b in self._bases)
        if self._mode == GF2:
            return gf2_rank_of_ints(self._cols[lbl] for lbl in s)
        return _int_rows_rank([self._cols[lbl] for lbl in s])

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.rank_of(self.ground)
        return self._rank

    def is_base(self, subset: Iterable[Label]) -> bool:
        s = frozenset(subset)
        if not s <= self._ground_set:
            raise ShapeError("is_base takes a subset of the ground set")
        return len(s) == self.rank and self.indep(s)

    def bases(self) -> list[tuple[Label, ...]]:
        """All bases, lexicographic by sorted label tuple."""
        if self._mode == "bases":
            return [tuple(sorted(b)) for b in sorted(self._bases, key=lambda b: tuple(sorted(b)))]
        r = self.rank
        out = []
        for combo in combinations(sorted(self.ground), r):
            if self.indep(combo):
                out.append(combo)
        return out


def to_matroid(rep: LabeledMatrix) -> FiniteMatroid:
    """Column matroid of a labeled matrix over GF(2) or the rationals."""
    return FiniteMatroid.from_matrix(rep)


def indep_cols(rep: LabeledMatrix, subset: Iterable[Label]) -> bool:
    """True when ``subset`` names columns of full column rank."""
    s = frozenset(subset)
    if not s <= set(rep.col_labels):
        return False
    positions = [rep.col_position(lbl) for lbl in s]
    sub = rep.body.submatrix(range(rep.body.n_rows), positions)
    return sub.rank() == len(s)


def matroids_equal(
    m1: FiniteMatroid, m2: FiniteMatroid, *, limit: int = DEFAULT_EQ_LIMIT
) -> bool:
    """Equality: same ground set and same independent sets.

    Two vector-backed matroids are compared at the greedy base X of ``m1``
    over the sorted ground: X must be a base of ``m2``, and both are
    standardized to [I | B] at X.  A binary matroid is determined by B,
    so when both sides are known binary (GF(2)-backed, or rational with a
    B that scales to a TU matrix) equality is equality of the supports
    of their Bs.  Otherwise all 2^n subsets are compared; only this
    fallback is guarded, and grounds larger than ``limit`` raise
    ``SizeGuardError`` rather than silently approximating.
    """
    if m1._ground_set != m2._ground_set:
        return False
    if m1._mode == "bases" or m2._mode == "bases":
        return _subsets_equal(m1, m2, limit)
    base: list[Label] = []
    for e in sorted(m1._ground_set):
        if m1.indep(base + [e]):
            base.append(e)
    if not m2.is_base(base):
        return False
    rest = sorted(m1._ground_set - set(base))
    supports = [_binary_support(m, base, rest) for m in (m1, m2)]
    if None in supports:
        return _subsets_equal(m1, m2, limit)
    return supports[0] == supports[1]


def _binary_support(
    m: FiniteMatroid, base: list[Label], rest: list[Label]
) -> Optional[list[list[bool]]]:
    """Support of B in the standard form [I | B] of ``m`` at ``base``.

    None when ``m`` is not known to be binary: it is rational and B does
    not scale to a TU matrix.  A TU B has every minor of [I | B] in
    {-1, 0, 1}, equal mod 2 to the matching minor of its support, so
    then ``m`` is the binary matroid of [I | support].
    """
    order = base + rest
    if m._mode == GF2:
        rows = [[m._cols[e] >> i & 1 for e in order] for i in range(m._n_rows)]
    else:
        rows = [[Fraction(m._cols[e][i]) for e in order] for i in range(m._n_rows)]
    b = [rows[r][len(base):] for r in _gauss_jordan(m._mode, rows, range(len(base)))]
    if m._mode == RATIONAL and not _scales_to_tu(b, len(rest)):
        return None
    return [[v != 0 for v in row] for row in b]


def _scales_to_tu(b: list[list[Fraction]], n: int) -> bool:
    """Whether B is TU once scaled so every entry on a spanning forest of its
    support is +-1.  Row and column scaling keep the matroid of [I | B], and
    any TU scaling of B differs from this one only by signs.  A check past
    the default TU guard counts as not TU.
    """
    m = len(b)
    edges = [(i, j) for i in range(m) for j in range(n) if b[i][j]]
    scale = [Fraction(1)] * (m + n)  # rows, then columns
    for p, c in spanning_forest(m, n, edges):
        i, j = (p, c - m) if c >= m else (c, p - m)
        scale[c] = 1 / abs(b[i][j] * scale[p])
    rows = [[v * scale[i] * scale[m + j] for j, v in enumerate(row)] for i, row in enumerate(b)]
    try:
        return is_totally_unimodular(ExactMatrix(RATIONAL, rows, n_cols=n)).is_tu
    except SizeGuardError:
        return False


def _subsets_equal(m1: FiniteMatroid, m2: FiniteMatroid, limit: float) -> bool:
    n = len(m1._ground_set)
    if n > limit:
        raise SizeGuardError(
            f"exhaustive matroid comparison over {n} elements exceeds the guard ({limit})"
        )
    ground = sorted(m1._ground_set)
    for k in range(n + 1):
        for combo in combinations(ground, k):
            if m1.indep(combo) != m2.indep(combo):
                return False
    return True


def disjoint_sum(m1: FiniteMatroid, m2: FiniteMatroid) -> FiniteMatroid:
    """Direct sum of two matroids on disjoint ground sets."""
    if m1._ground_set & m2._ground_set:
        raise ShapeError("disjoint_sum needs disjoint ground sets")
    ground = m1.ground + m2.ground
    if m1._mode == m2._mode == GF2:
        shift = m1._n_rows
        cols = dict(m1._cols)
        cols.update({lbl: mask << shift for lbl, mask in m2._cols.items()})
        return FiniteMatroid(ground, GF2, _cols=cols, _n_rows=shift + m2._n_rows)
    if m1._mode == m2._mode == RATIONAL:
        pad1 = (0,) * m2._n_rows
        pad2 = (0,) * m1._n_rows
        cols = {lbl: vec + pad1 for lbl, vec in m1._cols.items()}
        cols.update({lbl: pad2 + vec for lbl, vec in m2._cols.items()})
        return FiniteMatroid(ground, RATIONAL, _cols=cols, _n_rows=m1._n_rows + m2._n_rows)
    fam = [b1 | b2 for b1 in _base_family(m1) for b2 in _base_family(m2)]
    return FiniteMatroid.from_bases(ground, fam)


def _base_family(m: FiniteMatroid) -> list[FrozenSet[Label]]:
    if m._mode == "bases":
        return list(m._bases)
    return [frozenset(b) for b in m.bases()]


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking the finite matroid axioms by brute force.

    ``base_nonempty``: some maximal independent set exists.
    ``exchange_ok``: every non-maximal independent set can borrow an
    element from every maximal one (augmentation); counterexample is a
    pair (I, B) where no element of B extends I.
    ``maximality_ok``: independence is closed downward; counterexample is
    a pair (I, J) with I independent, J a subset of I, J dependent.
    """

    base_nonempty: bool
    exchange_ok: bool
    maximality_ok: bool
    exchange_counterexample: Optional[tuple[FrozenSet[Label], FrozenSet[Label]]] = None
    maximality_counterexample: Optional[tuple[FrozenSet[Label], FrozenSet[Label]]] = None

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
    base_nonempty = bool(maximal)

    maximality_ok = True
    maximality_cex = None
    for s in family:
        for e in sorted(s):
            smaller = s - {e}
            if smaller not in family_set:
                maximality_ok = False
                maximality_cex = (s, smaller)
                break
        if not maximality_ok:
            break

    exchange_ok = True
    exchange_cex = None
    for s in family:
        if s in maximal_set:
            continue
        for b in maximal:
            if not any((s | {x}) in family_set for x in sorted(b - s)):
                exchange_ok = False
                exchange_cex = (s, b)
                break
        if not exchange_ok:
            break

    return AxiomReport(
        base_nonempty=base_nonempty,
        exchange_ok=exchange_ok,
        maximality_ok=maximality_ok,
        exchange_counterexample=exchange_cex,
        maximality_counterexample=maximality_cex,
    )


def zmod_linear_independent(
    n: int,
    vectors: Sequence[Sequence[int]],
    *,
    enum_limit: int = DEFAULT_ZMOD_ENUM_LIMIT,
    force: bool = False,
) -> bool:
    """Linear independence over the integers mod n, by full enumeration.

    Vectors are independent when no coefficient tuple other than all
    zeros combines them to the zero vector.  Enumeration visits n^k
    tuples, guarded by ``enum_limit``.
    """
    if n < 2:
        raise ShapeError("modulus must be at least 2")
    k = len(vectors)
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise ShapeError("vectors must share one length")
    if n**k > enum_limit and not force:
        raise SizeGuardError(
            f"enumerating {n}^{k} coefficient tuples exceeds the guard ({enum_limit})"
        )
    dim = dims.pop() if dims else 0
    vecs = [tuple(int(x) % n for x in v) for v in vectors]
    for coeffs in product(range(n), repeat=k):
        if not any(coeffs):
            continue
        if all(sum(c * v[d] for c, v in zip(coeffs, vecs)) % n == 0 for d in range(dim)):
            return False
    return True
