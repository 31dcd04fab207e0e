"""Command-line interface.

Exit codes: 0 on success or a positive verdict, 1 on a negative verdict
(not TU, no signing, not regular, not equal, Invalid sum), 2 on parse or
shape errors, 3 when a size guard trips.  Guards can be lifted with
``--force`` or widened with the environment variables TUMAT_TU_LIMIT
(every TU check) and TUMAT_EQ_LIMIT (``matroid eq`` only, and there only
the subset-by-subset comparison of matroids not known to be binary).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Optional, Sequence

from .documents import (
    DocumentError,
    parse_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
)
from .errors import ShapeError, SizeGuardError
from .matroid import DEFAULT_EQ_LIMIT, LabeledMatrix, _labeled, matroids_equal, to_matroid
from .stdrepr import StandardRepr, is_regular
from .sums import Sum3Labels, compose, sign_composition
from .tu import DEFAULT_TU_LIMIT, find_tu_signing, is_totally_unimodular, is_tu_signing_of

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError(f"environment variable {name} must be an integer, got {raw!r}")
    if value < 0:
        raise DocumentError(f"environment variable {name} must not be negative, got {raw!r}")
    return value


def _tu_limit() -> int:
    return _env_int("TUMAT_TU_LIMIT", DEFAULT_TU_LIMIT)


def _eq_limit(force: bool) -> float:
    limit = _env_int("TUMAT_EQ_LIMIT", DEFAULT_EQ_LIMIT)
    return math.inf if force else limit


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _write_all(out_dir: str, texts: dict[str, str]) -> None:
    """Write every text to a temporary file in out_dir, then move each into place in order."""
    moves, target = [], out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            target = os.path.join(out_dir, name)
            moves.append((os.path.join(out_dir, f".{name}.{os.getpid()}.tmp"), target))
            with open(moves[-1][0], "w", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, target in moves:
            os.replace(tmp, target)
    except OSError as exc:
        for tmp, _ in moves:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise DocumentError(f"cannot write {target}: {exc}") from None


def _load_matrix(path: str) -> LabeledMatrix:
    doc = parse_document(_read(path))
    if isinstance(doc, StandardRepr):
        return doc.to_full()
    return doc


def _load_standard_repr(path: str) -> StandardRepr:
    return parse_standard_repr_document(_read(path))


def _fmt_labels(labels) -> str:
    return "[" + ", ".join(labels) + "]"


def cmd_tu_check(args) -> int:
    m = _load_matrix(args.input)
    verdict = is_totally_unimodular(m.body, limit=_tu_limit(), force=args.force)
    if verdict.is_tu:
        print("TU")
        return EXIT_OK
    rows, cols, det = verdict.witness
    print(
        "not TU: rows "
        + _fmt_labels(m.row_labels[i] for i in rows)
        + " cols "
        + _fmt_labels(m.col_labels[j] for j in cols)
        + f" det {det}"
    )
    return EXIT_NEGATIVE


def cmd_tu_sign(args) -> int:
    m = _load_matrix(args.input)
    if m.kind != "gf2":
        raise ShapeError("tu sign takes a GF(2) document")
    signing = find_tu_signing(m.body, tu_limit=_tu_limit(), force=args.force)
    if signing is None:
        print("no TU signing", file=sys.stderr)
        return EXIT_NEGATIVE
    _write_out(render_matrix_document(_labeled(m.row_labels, m.col_labels, signing)), args.output)
    return EXIT_OK


def _glue(args):
    """The glue value named by -k and the label flags (see ``tumat.sums.compose``)."""
    if args.k == 1:
        return None
    if args.k == 2:
        if args.x is None or args.y is None:
            raise DocumentError("--k 2 needs --x and --y")
        return (args.x, args.y)
    fields = (args.x0, args.x1, args.x2, args.y0, args.y1, args.y2)
    if any(v is None for v in fields):
        raise DocumentError("--k 3 needs --x0 --x1 --x2 --y0 --y1 --y2")
    return Sum3Labels(*fields)


def cmd_sum(args) -> int:
    left = _load_standard_repr(args.left)
    right = _load_standard_repr(args.right)
    outcome = compose(left, right, _glue(args))
    if not outcome.valid:
        print(f"invalid {args.k}-sum [{outcome.reason}]: {outcome.message}", file=sys.stderr)
        return EXIT_NEGATIVE
    _write_out(render_standard_repr_document(outcome.result), args.output)
    return EXIT_OK


def cmd_regular_check(args) -> int:
    s = _load_standard_repr(args.input)
    flag, witness = is_regular(s, tu_limit=_tu_limit(), force=args.force)
    if not flag:
        print("not regular")
        return EXIT_NEGATIVE
    print("regular")
    if args.output is not None:
        _write_out(render_matrix_document(witness), args.output)
    return EXIT_OK


def cmd_matroid_info(args) -> int:
    m = to_matroid(_load_matrix(args.input))
    print(f"elements: {len(m.ground)}")
    print(f"rank: {m.rank}")
    bases = m.bases()
    print(f"bases: {len(bases)}")
    if len(bases) <= args.max_bases:
        for b in bases:
            print("  " + " ".join(b))
    return EXIT_OK


def cmd_matroid_eq(args) -> int:
    left = to_matroid(_load_matrix(args.left))
    right = to_matroid(_load_matrix(args.right))
    if matroids_equal(left, right, limit=_eq_limit(args.force)):
        print("equal")
        return EXIT_OK
    print("not equal")
    return EXIT_NEGATIVE


def cmd_verify_composition(args) -> int:
    left = _load_standard_repr(args.left)
    right = _load_standard_repr(args.right)
    tu_limit = _tu_limit()
    signed = []
    for name, summand in (("left", left), ("right", right)):
        flag, signing = is_regular(summand, tu_limit=tu_limit, force=args.force)
        if not flag:
            print(f"{name} summand not regular", file=sys.stderr)
            return EXIT_NEGATIVE
        signed.append(signing)
    glue = _glue(args)
    outcome = compose(left, right, glue)
    if not outcome.valid:
        print(f"invalid {args.k}-sum [{outcome.reason}]: {outcome.message}", file=sys.stderr)
        return EXIT_NEGATIVE
    s = outcome.result
    witness = sign_composition(*signed, glue)
    # For a TU witness W that reduces mod 2 to B, [I | W] over Q and [I | B]
    # over GF(2) are the same matroid, so this check certifies the sum regular.
    if not is_tu_signing_of(witness.body, s.B.body, limit=tu_limit, force=args.force):
        print("composition check failed: witness does not certify the sum", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.out_dir is not None:
        # the sum goes in last, so a new sum.json always comes with its witness
        _write_all(args.out_dir, {
            "witness.json": render_matrix_document(witness),
            "sum.json": render_standard_repr_document(s),
        })
    print(f"verified {args.k}-sum composition: regular")
    return EXIT_OK


def _add_sum_args(p: argparse.ArgumentParser) -> None:
    """-k, the two summands and the glue label flags that ``_glue`` reads."""
    p.add_argument("-k", "--k", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--x", help="glue row label (k=2)")
    p.add_argument("--y", help="glue column label (k=2)")
    for name in ("x0", "x1", "x2", "y0", "y1", "y2"):
        p.add_argument(f"--{name}", help=f"glue label {name} (k=3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumat",
        description="Exact tools for totally unimodular matrices, binary matroids, and their sums.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    tu = top.add_parser("tu", help="total unimodularity").add_subparsers(dest="sub", required=True)
    p = tu.add_parser("check", help="check a matrix document for total unimodularity")
    p.add_argument("input")
    p.add_argument("--force", action="store_true", help="lift size guards")
    p.set_defaults(func=cmd_tu_check)
    p = tu.add_parser("sign", help="search for a TU signing of a GF(2) matrix document")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the witness here instead of stdout")
    p.add_argument("--force", action="store_true", help="lift size guards")
    p.set_defaults(func=cmd_tu_sign)

    p = top.add_parser("sum", help="compose two standard representation documents")
    _add_sum_args(p)
    p.add_argument("-o", "--output", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_sum)

    reg = top.add_parser("regular", help="regularity").add_subparsers(dest="sub", required=True)
    p = reg.add_parser("check", help="decide regularity of a GF(2) standard representation")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the TU signing witness here")
    p.add_argument("--force", action="store_true", help="lift size guards")
    p.set_defaults(func=cmd_regular_check)

    mat = top.add_parser("matroid", help="matroid queries").add_subparsers(dest="sub", required=True)
    p = mat.add_parser("info", help="rank, element count, and bases of a document's matroid")
    p.add_argument("input")
    p.add_argument("--max-bases", type=int, default=50, help="list bases up to this count")
    p.set_defaults(func=cmd_matroid_info)
    p = mat.add_parser("eq", help="matroid equality of two documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--force", action="store_true", help="lift size guards")
    p.set_defaults(func=cmd_matroid_eq)

    ver = top.add_parser("verify", help="verification pipelines").add_subparsers(dest="sub", required=True)
    p = ver.add_parser(
        "composition",
        help="check that a k-sum of two regular summands is regular, with witnesses",
    )
    _add_sum_args(p)
    p.add_argument("--out-dir", help="directory for the sum and witness documents")
    p.add_argument("--force", action="store_true", help="lift size guards")
    p.set_defaults(func=cmd_verify_composition)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call; ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
