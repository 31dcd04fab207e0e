"""Per-layer tracing of tumat from outside, by wrapping its public functions.

A layer is a module of ``src/tumat``.  Each wrapped function is an
operation named ``<layer>.<op>``.  A call opens a span only when it
crosses a layer boundary, i.e. when the innermost open span belongs to
another layer; a call inside its own layer (``matroids_equal`` calling
``FiniteMatroid.indep``, ``find_tu_signing`` calling
``is_totally_unimodular``) is counted and timed inclusively but its time
stays in the enclosing span's self time.  A span's self time is its
duration minus the durations of the spans it opened, so the self times
of one request add up to the time spent inside ``cli.main``.  The
wrapper cost of such a same-layer call (chiefly ``FiniteMatroid.indep``
under ``matroids_equal``) is therefore counted in the enclosing span's
self time, e.g. ``matroid.eq.self_ms``.

The benchmark runs in one thread with no queue between layers, so no
layer ever waits on another and there are no wait metrics to record.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from time import perf_counter

from oracles import free_signs


# The end-to-end metric and workload each per-layer metric should move,
# written down before any optimisation is measured against them.
SHOULD_MOVE = {
    "cli.": "latency_p50_ms on doc-sum; invisible elsewhere",
    "documents.": "latency_p50_ms and requests_per_s on doc-sum",
    "exactmat.construct.": "doc-sum; also signing (one matrix per candidate)",
    "exactmat.": "requests_per_s on compose-verify (GF(2) rank under indep); 3-sums in doc-sum",
    "tu.check.": "latency_p90_ms and requests_per_s on tu-check; also signing",
    "tu.guard_trips": "zero everywhere; a trip is a failed request",
    "tu.sign.": "latency_p90_ms and requests_per_s on signing; no effect on tu-check",
    "matroid.": "requests_per_s and latency_p90_ms on compose-verify; zero on tu-check and doc-sum",
    "stdrepr.": "signing (regular check) and compose-verify",
    "sums.compose.": "latency_p50_ms on doc-sum",
    "sums.": "compose-verify (sign, verify); sums.invalid counts Invalid outcomes",
    "trace.": "none: traced over untraced wall time minus 1, and the traced request count",
}


def should_move(metric) -> str:
    """The SHOULD_MOVE entry with the longest prefix of ``metric``."""
    return SHOULD_MOVE[max((p for p in SHOULD_MOVE if metric.startswith(p)), key=len)]


def lex_rank(combo, n) -> int:
    """Position of a strictly increasing index tuple among all of its size, lexicographically."""
    k, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        rank += sum(comb(n - 1 - v, k - 1 - i) for v in range(prev + 1, c))
        prev = c
    return rank


def submatrices_examined(m, n, witness) -> int:
    """Square submatrices the TU checker's documented order visits up to its verdict.

    Entries first, then orders k = 2, 3, ... with row tuples and then
    column tuples in lexicographic order.  A TU verdict visits all of
    them; a non-TU verdict stops at its witness.
    """
    if witness is None:
        return sum(comb(m, k) * comb(n, k) for k in range(1, min(m, n) + 1))
    rows, cols, _ = witness
    k = len(rows)
    if k == 1:
        return rows[0] * n + cols[0] + 1
    before = m * n + sum(comb(m, j) * comb(n, j) for j in range(2, k))
    return before + lex_rank(rows, m) * comb(n, k) + lex_rank(cols, n) + 1


class Tracer:
    def __init__(self):
        self.frames = []  # op names of the open wrapped calls, innermost last
        self.spans = []  # [layer, seconds covered by child spans]
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self.tu_checks = []  # (m, n, witness) per counted TU check
        self.signed = []  # support grids handed to the signing search

    def wrap(self, op, fn):
        layer = op.partition(".")[0]
        frames, spans = self.frames, self.spans
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        on_return = getattr(self, "_after_" + op.replace(".", "_"), None)

        def traced(*args, **kwargs):
            counted = not frames or frames[-1] != op
            span = [layer, 0.0] if not spans or spans[-1][0] != layer else None
            frames.append(op)
            if span is not None:
                spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counted and layer == "tu" and type(exc).__name__ == "SizeGuardError":
                    self.counts["tu.guard_trips"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                frames.pop()
                if span is not None:
                    spans.pop()
                    self_s[op] += dt - span[1]
                    if spans:
                        spans[-1][1] += dt
                if counted:
                    calls[op] += 1
                    incl_s[op] += dt
            if counted and on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _after_tu_check(self, args, verdict):
        a = args[0]
        self.tu_checks.append((a.n_rows, a.n_cols, verdict.witness))
        if "tu.sign" in self.frames:
            self.counts["tu.sign.candidates"] += 1

    def _after_tu_sign(self, args, signing):
        self.signed.append(args[0].rows)
        self.counts["tu.sign.found"] += signing is not None

    def _after_documents_parse(self, args, _doc):
        self.counts["documents.bytes_in"] += len(args[0].encode())

    def _after_documents_render(self, _args, text):
        self.counts["documents.bytes_out"] += len(text.encode())

    def _after_sums_compose(self, _args, outcome):
        self.counts["sums.invalid"] += not outcome.valid

    def metrics(self) -> dict:
        """Per-layer figures over everything traced so far (times in ms)."""
        calls, self_s, incl_s, counts = self.calls, self.self_s, self.incl_s, self.counts
        submatrices = sum(submatrices_examined(m, n, w) for m, n, w in self.tu_checks)
        candidates = counts["tu.sign.candidates"]
        out = {"cli.self_ms": self_s["cli"] * 1e3}
        for op in ("documents.parse", "documents.render", "exactmat.construct"):
            out[op + ".calls"] = calls[op]
            out[op + ".self_ms"] = self_s[op] * 1e3
        out["documents.bytes_in"] = counts["documents.bytes_in"]
        out["documents.bytes_out"] = counts["documents.bytes_out"]
        for op in ("det", "inverse", "matmul", "rank", "gf2_rank"):
            out[f"exactmat.{op}.calls"] = calls["exactmat." + op]
        out["exactmat.gf2_rank.self_ms"] = self_s["exactmat.gf2_rank"] * 1e3
        out["tu.check.calls"] = calls["tu.check"]
        out["tu.check.self_ms"] = self_s["tu.check"] * 1e3
        out["tu.check.submatrices"] = submatrices
        out["tu.check.ns_per_submatrix"] = incl_s["tu.check"] * 1e9 / submatrices if submatrices else 0.0
        out["tu.guard_trips"] = counts["tu.guard_trips"]
        out["tu.sign.calls"] = calls["tu.sign"]
        out["tu.sign.free_signs"] = sum(free_signs(g) for g in self.signed)
        out["tu.sign.candidates"] = candidates
        out["tu.sign.yield"] = counts["tu.sign.found"] / candidates if candidates else 0.0
        out["tu.sign.self_ms"] = self_s["tu.sign"] * 1e3
        out["matroid.eq.calls"] = calls["matroid.eq"]
        out["matroid.eq.self_ms"] = self_s["matroid.eq"] * 1e3
        out["matroid.indep.calls"] = calls["matroid.indep"]
        out["matroid.indep.us_per_call"] = (
            incl_s["matroid.indep"] * 1e6 / calls["matroid.indep"] if calls["matroid.indep"] else 0.0
        )
        out["matroid.bases.self_ms"] = self_s["matroid.bases"] * 1e3
        out["stdrepr.is_regular.calls"] = calls["stdrepr.is_regular"]
        out["stdrepr.is_regular.self_ms"] = self_s["stdrepr.is_regular"] * 1e3
        out["stdrepr.to_matroid.calls"] = calls["stdrepr.to_matroid"]
        out["sums.compose.calls"] = calls["sums.compose"]
        out["sums.compose.self_ms"] = self_s["sums.compose"] * 1e3
        out["sums.invalid"] = counts["sums.invalid"]
        out["sums.sign.self_ms"] = self_s["sums.sign"] * 1e3
        out["sums.verify.self_ms"] = self_s["sums.verify"] * 1e3
        return out


def targets(tumat):
    """(owner, attribute, op) for every traced public function of tumat."""
    m = tumat
    return [
        (m.cli, "main", "cli"),
        (m.documents, "parse_document", "documents.parse"),
        (m.documents, "parse_matrix_document", "documents.parse"),
        (m.documents, "parse_standard_repr_document", "documents.parse"),
        (m.documents, "render_matrix_document", "documents.render"),
        (m.documents, "render_standard_repr_document", "documents.render"),
        (m.exactmat.ExactMatrix, "__init__", "exactmat.construct"),
        (m.exactmat.ExactMatrix, "determinant", "exactmat.det"),
        (m.exactmat.ExactMatrix, "inverse", "exactmat.inverse"),
        (m.exactmat.ExactMatrix, "__matmul__", "exactmat.matmul"),
        (m.exactmat.ExactMatrix, "rank", "exactmat.rank"),
        (m.exactmat, "_int_rows_rank", "exactmat.rank"),
        (m.exactmat, "gf2_rank_of_ints", "exactmat.gf2_rank"),
        (m.tu, "is_totally_unimodular", "tu.check"),
        (m.tu, "find_tu_signing", "tu.sign"),
        (m.matroid, "matroids_equal", "matroid.eq"),
        (m.matroid.FiniteMatroid, "indep", "matroid.indep"),
        (m.matroid.FiniteMatroid, "bases", "matroid.bases"),
        (m.stdrepr, "is_regular", "stdrepr.is_regular"),
        (m.stdrepr.StandardRepr, "to_matroid", "stdrepr.to_matroid"),
        (m.sums, "standard_repr_sum_1", "sums.compose"),
        (m.sums, "standard_repr_sum_2", "sums.compose"),
        (m.sums, "standard_repr_sum_3", "sums.compose"),
        (m.sums, "sign_sum_1", "sums.sign"),
        (m.sums, "sign_sum_2", "sums.sign"),
        (m.sums, "canonical_signing_sum3", "sums.sign"),
        (m.sums, "verify_is_sum_k_of", "sums.verify"),
    ]


def install(tracer, tumat, modules):
    """Wrap every target in place; returns a function that undoes it.

    Functions are rebound in every module that imported them by name,
    methods are replaced on their class.
    """
    undo = []
    for owner, attr, op in targets(tumat):
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(op, orig))
            undo.append((owner, attr, orig))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(op, orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                    undo.append((mod, name, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall
