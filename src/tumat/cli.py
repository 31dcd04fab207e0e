"""Command-line interface.

Exit codes: 0 on success or a positive verdict, 1 on a negative verdict
(not TU, no signing, not regular, not equal, Invalid sum), 2 on parse,
shape or write errors, 3 when a size guard trips.  Each guard is a module
constant (``tumat.tu.DEFAULT_TU_LIMIT`` for every TU check,
``tumat.matroid.DEFAULT_EQ_LIMIT`` for ``matroid eq``'s base comparison
of matroids not known to be binary), and ``--force`` lifts every guard.
``verify composition`` TU-checks its two summands only: the sum's witness
is certified by its blocks (``tumat.sums.certifies_sum``).

Each input file is read as bytes and decoded from UTF-8 once, with the
universal newlines of text mode kept: ``\\r\\n`` and a lone ``\\r`` read
as ``\\n``.

Each command line is parsed by its command's own parser, which its
leading words pick.  A plain line (positionals, and exact option strings
used once, each with its one value) is read off that parser's own
actions; argparse reads any other line, so usage errors and help read as
the nested parse writes them: a missing or unknown word is reported by
the parser that owns it, and leftover arguments by the top parser.
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
from .exactmat import GF2
from .matroid import DEFAULT_EQ_LIMIT, LabeledMatrix, _labeled, matroids_equal, to_matroid
from .stdrepr import StandardRepr, is_regular
from .sums import Sum3Labels, certifies_sum, compose, sign_composition
from .tu import find_tu_signing, is_totally_unimodular

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3


def _read(path: str) -> str:
    """The file's text as text mode reads it: UTF-8 decoded once, universal newlines kept."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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
    verdict = is_totally_unimodular(m.body, force=args.force)
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
    if m.kind != GF2:
        raise ShapeError("tu sign takes a GF(2) document")
    signing = find_tu_signing(m.body, force=args.force)
    if signing is None:
        print("no TU signing", file=sys.stderr)
        return EXIT_NEGATIVE
    _write_out(render_matrix_document(_labeled(m.row_labels, m.col_labels, signing)), args.output)
    return EXIT_OK


def _glue(args):
    """The glue value named by -k and the label flags (see ``tumat.sums.compose``);
    a missing flag is refused first, then a flag that -k does not read."""
    if args.k == 2 and (args.x is None or args.y is None):
        raise DocumentError("--k 2 needs --x and --y")
    fields = (args.x0, args.x1, args.x2, args.y0, args.y1, args.y2)
    if args.k == 3 and any(v is None for v in fields):
        raise DocumentError("--k 3 needs --x0 --x1 --x2 --y0 --y1 --y2")
    read = {1: (), 2: ("x", "y"), 3: ("x0", "x1", "x2", "y0", "y1", "y2")}
    for name in read[2] + read[3]:
        if name not in read[args.k] and getattr(args, name) is not None:
            raise DocumentError(f"--k {args.k} takes no --{name}")
    return None if args.k == 1 else (args.x, args.y) if args.k == 2 else Sum3Labels(*fields)


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
    witness = is_regular(s, force=args.force)
    if witness is None:
        print("not regular")
        return EXIT_NEGATIVE
    if args.output is not None:  # written first, so a write error prints no verdict
        _write_out(render_matrix_document(witness), args.output)
    print("regular")
    return EXIT_OK


def cmd_matroid_info(args) -> int:
    m = to_matroid(_load_matrix(args.input))
    print(f"elements: {len(m.ground)}")
    print(f"rank: {m.rank}")
    count = m.count_bases()
    print(f"bases: {count}")
    for b in m.bases() if count <= args.max_bases else ():
        print("  " + " ".join(b))
    return EXIT_OK


def cmd_matroid_eq(args) -> int:
    left = to_matroid(_load_matrix(args.left))
    right = to_matroid(_load_matrix(args.right))
    if matroids_equal(left, right, limit=math.inf if args.force else DEFAULT_EQ_LIMIT):
        print("equal")
        return EXIT_OK
    print("not equal")
    return EXIT_NEGATIVE


def cmd_verify_composition(args) -> int:
    left = _load_standard_repr(args.left)
    right = _load_standard_repr(args.right)
    glue = _glue(args)
    signed = []
    for name, summand in (("left", left), ("right", right)):
        signing = is_regular(summand, force=args.force)
        if signing is None:
            print(f"{name} summand not regular", file=sys.stderr)
            return EXIT_NEGATIVE
        signed.append(signing)
    outcome = compose(left, right, glue)
    if not outcome.valid:
        print(f"invalid {args.k}-sum [{outcome.reason}]: {outcome.message}", file=sys.stderr)
        return EXIT_NEGATIVE
    s = outcome.result
    witness = sign_composition(*signed, glue)
    # W's blocks hold the two certified summand signings, joined as the sum
    # joins them, so W is TU; a TU W that reduces mod 2 to B makes [I | W]
    # over Q and [I | B] over GF(2) the same matroid: the sum is regular.
    if not certifies_sum(witness, s.B, *signed, glue):
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


class _Once(argparse.Action):
    """Store the flag's value; a second use of the flag is a usage error of the command's parser."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: given more than once")
        setattr(namespace, self.dest, values)


def _add_sum_args(p: argparse.ArgumentParser) -> None:
    """-k, the two summands and the glue label flags that ``_glue`` reads, each given at most once."""
    p.add_argument("-k", "--k", type=int, choices=(1, 2, 3), required=True, action=_Once)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--x", help="glue row label (k=2)", action=_Once)
    p.add_argument("--y", help="glue column label (k=2)", action=_Once)
    for name in ("x0", "x1", "x2", "y0", "y1", "y2"):
        p.add_argument(f"--{name}", help=f"glue label {name} (k=3)", action=_Once)


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


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, read by the parser that argv's leading command words pick:
    off its own actions by ``_plain`` if the line is plain, else by argparse."""
    top = parser = _parser()
    i = 0
    while i < len(argv) and (sub := _commands(parser).get(argv[i])) is not None:
        parser, i = sub, i + 1
    if (args := _plain(parser, argv[i:])) is not None:
        return args
    args, extras = parser.parse_known_args(argv[i:])
    if extras:
        top.error("unrecognized arguments: " + " ".join(extras))
    return args


@functools.cache
def _table(parser: argparse.ArgumentParser):
    """A command parser's options by exact option string, positionals, required options, prefix characters
    and defaults, read off its own actions; None unless each is a store, store-true or ``_Once`` action."""
    options = {s: a for s, a in parser._option_string_actions.items() if not isinstance(a, argparse._HelpAction)}
    positionals = [a for a in parser._actions if not a.option_strings]
    if any(type(a) not in (argparse._StoreAction, argparse._StoreTrueAction, _Once)
           for a in [*options.values(), *positionals]):
        return None
    defaults = {a.dest: a.default for a in parser._actions[::-1] if a.default is not argparse.SUPPRESS}
    required = {a for a in options.values() if a.required}
    return options, positionals, required, tuple(parser.prefix_chars), {**parser._defaults, **defaults}


def _plain(parser: argparse.ArgumentParser, argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """``parser.parse_known_args(argv)``'s namespace, with no extras, if each word is a positional, an exact
    option string used once or its one value, and only option strings start with a prefix character; else None."""
    if (table := _table(parser)) is None:
        return None
    options, positionals, required, prefix, defaults = table
    args, given, read, words = argparse.Namespace(), {}, [], iter(argv)
    vars(args).update(defaults)
    for word in words:
        if not word.startswith(prefix):
            read.append(word)
        elif (action := options.get(word)) is None or action in given or action.nargs is None and (
                word := next(words, word)).startswith(prefix):  # a missing value reads as the option string
            return None
        else:
            given[action] = word
    if len(read) != len(positionals) or not required.issubset(given):
        return None
    try:  # the type call and the choices check of argparse's own value reader
        for action, word in [*given.items(), *zip(positionals, read)]:
            value = action.const if action.nargs == 0 else word if action.type is None else action.type(word)
            if action.choices is not None and value not in action.choices:
                return None
            setattr(args, action.dest, value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return args


@functools.cache
def _commands(parser: argparse.ArgumentParser) -> dict:
    """The sub-parsers of ``parser`` by command word (none for a command's own parser)."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except OSError:  # stderr failed as well: nothing can be reported, but the exit code still can
        return EXIT_PARSE


def _run(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except (DocumentError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # a file error is a DocumentError, so this one is stdout's
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # closed, stdout is not flushed again at exit
            sys.stdout.close()
        return EXIT_PARSE
    except SizeGuardError as exc:
        print(f"size guard: {exc}; pass --force to run anyway", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
