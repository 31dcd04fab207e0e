"""A fixed catalogue of one-line mutants of ``src/tumat`` that the suite must kill.

    python tests/mutation_audit.py

Each mutant names a module, one line of it (its text without the leading
indentation, which must occur exactly once in ``src/``), the text that
replaces it, the test files that must kill it, and a kind: "verdict" when
it changes an answer, "work" when it changes only the work done.  The
script copies the repository once into a temporary directory and applies
each mutant there in turn, never in the checkout.  It runs ``pytest -x`` on
the mutant's test files with a timeout of ``TIMEOUT`` seconds per mutant,
and prints each mutant as killed, survived or timed out, with its time.
It exits 1 when a mutant is not killed.

pytest does not collect this file; ``test_hygiene.py`` checks that every
mutant still applies, and runs none.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # the replaced line, without its indentation
    new: str  # the text in its place, indented like the old line
    tests: tuple[str, ...]  # the test files that must kill it
    kind: str  # "verdict" or "work"


TU, SUMS, MATROID, EXACTMAT = "src/tumat/tu.py", "src/tumat/sums.py", "src/tumat/matroid.py", "src/tumat/exactmat.py"
DOCUMENTS, CLI = "src/tumat/documents.py", "src/tumat/cli.py"
T_TU, T_SUMS, T_MATROID, T_EXACTMAT = "tests/test_tu.py", "tests/test_sums.py", "tests/test_matroid.py", "tests/test_exactmat.py"
T_STDREPR, T_DOCUMENTS, T_ACCEPTANCE, T_CLI = ("tests/test_stdrepr.py", "tests/test_documents.py",
                                               "tests/test_acceptance.py", "tests/test_cli.py")

MUTANTS = (
    Mutant("r10-counts-of-support-b", TU,
           "return counts in ([3, 3, 3, 3, 3], [3, 3, 3, 3, 5]) and counts == sorted(",
           "return counts in ([3, 3, 3, 3, 3], [3, 3, 3, 5, 5]) and counts == sorted(", (T_TU,), "verdict"),
    Mutant("signing-parity", TU,
           "t = at_c[w] = sign[w][c] = 1 if t % 4 == 3 else -1",
           "t = at_c[w] = sign[w][c] = 1 if t % 4 == 1 else -1", (T_TU,), "verdict"),
    Mutant("dp-first-order-5", TU,
           "if k > 3 and dets and (max(dets.values()) > 1 or min(dets.values()) < -1):",
           "if k > 4 and dets and (max(dets.values()) > 1 or min(dets.values()) < -1):", (T_TU,), "verdict"),
    Mutant("blocks-under-5-lines-are-tu", TU, "if short < 4:", "if short < 5:", (T_TU,), "verdict"),
    Mutant("order-4-accepts-sum-0-mod-4", TU,
           "if not sa ^ sb ^ sc ^ sd and (ta + tb + tc + td) % 4 == 2:",
           "if not sa ^ sb ^ sc ^ sd and (ta + tb + tc + td) % 2 == 0:", (T_TU,), "verdict"),
    Mutant("order-4-skips-the-even-count-on-short-lines", TU,
           "if not sa ^ sb ^ sc ^ sd and (ta + tb + tc + td) % 4 == 2:",
           "if (ta + tb + tc + td) % 4 == 2:", (T_TU,), "verdict"),
    Mutant("order-4-tries-lines-of-3", TU, "if not (p | q).bit_count() & 1:", "if True:", (T_TU,), "verdict"),
    # the witness's 4x4 read with each -1 as +1, which gives a wrong determinant
    Mutant("order-4-witness-grid-adds-the-minus-bit", TU,
           "grid = [[_SIGNS[(pos[j] >> e & 1) - (neg[j] >> e & 1)] for e in _bits(short)] for j in chosen]",
           "grid = [[_SIGNS[(pos[j] >> e & 1) + (neg[j] >> e & 1)] for e in _bits(short)] for j in chosen]",
           (T_TU,), "verdict"),
    # swapping lo and hi in the star rule keeps each rule's parity, so it is
    # no mutant; dropping the -1 entry at lo is one
    Mutant("star-rule-drops-the-minus-entry", TU,
           "rules.append((s, pos[j] & (s ^ lo) | neg[j] & lo))",
           "rules.append((s, pos[j] & (s ^ lo)))", (T_TU,), "verdict"),
    # a star that fails leaves its block not TU: certifying it, or sending it
    # on to the R10 and network leaves, is a mutant
    Mutant("star-certifies-a-failed-star", TU, "if star:", "if star is not None:", (T_TU,), "verdict"),
    Mutant("failed-star-meets-the-leaves", TU,
           "if star is None and (_is_r10(rpos, rneg, cpos, cneg, rows, cols) or (",
           "if (_is_r10(rpos, rneg, cpos, cneg, rows, cols) or (", (T_TU,), "work"),
    # a unit line's mask times 3 has two bits, and its lowest bit, which the key reads, is kept
    Mutant("pre-pass-keeps-unit-lines", TU, "s = p | q", "s = (p | q) * 3", (T_TU,), "verdict"),
    Mutant("pre-pass-keeps-negated-copies", TU,
           "key = (q, p) if q & s & -s else (p, q)  # first nonzero +1", "key = (p, q)", (T_TU,), "verdict"),
    Mutant("screen-3x3-parity", TU,
           "if not ((neg[i] ^ neg[h] ^ neg[g]) & (a | b | c)).bit_count() & 1:",
           "if ((neg[i] ^ neg[h] ^ neg[g]) & (a | b | c)).bit_count() & 1:", (T_TU,), "verdict"),
    Mutant("certificate-bottom-left-rank-below", SUMS,
           "if any(any(row[n:]) for row in blocks[:len(top)]) or _int_rows_rank(bl) != len(xs):",
           "if any(any(row[n:]) for row in blocks[:len(top)]) or _int_rows_rank(bl) > len(xs):", (T_SUMS,), "verdict"),
    Mutant("certificate-skips-zero-top-right", SUMS,
           "if any(any(row[n:]) for row in blocks[:len(top)]) or _int_rows_rank(bl) != len(xs):",
           "if _int_rows_rank(bl) != len(xs):", (T_SUMS,), "verdict"),
    # the bottom-left block cut out of the witness's first read one column short
    Mutant("certificate-bottom-left-one-column-short", SUMS,
           "bl = [row[:n] for row in blocks[len(top):]]",
           "bl = [row[:n - 1] for row in blocks[len(top):]]", (T_SUMS,), "verdict"),
    Mutant("certificate-skips-canonical-connector", SUMS,
           "if h and tuple(tuple(map(_NUMERATOR, row[:h])) for row in blocks[:h]) not in _SIGNED_CONNECTORS.values():",
           "if False:", (T_SUMS,), "verdict"),
    Mutant("certificate-skips-the-3-sum-glue-lines", SUMS,
           "if not all({*glue.xs} <= {*s.row_labels} and {*glue.ys} <= {*s.col_labels} for s in (signed_left, signed_right)):",
           "if False:", (T_SUMS,), "verdict"),
    # the signed connector table read with x0 and x1, or y0 and y1, the wrong way round
    Mutant("signed-connectors-swap-the-glue-rows", SUMS,
           "d0: tuple(tuple(target[r][c] for c in (g[0], g[1], 2)) for r in (0, 1 + f[0], 1 + f[1]))",
           "d0: tuple(tuple(target[r][c] for c in (g[0], g[1], 2)) for r in (0, 1 + f[1], 1 + f[0]))",
           (T_SUMS, T_CLI), "verdict"),
    Mutant("signed-connectors-swap-the-glue-columns", SUMS,
           "d0: tuple(tuple(target[r][c] for c in (g[0], g[1], 2)) for r in (0, 1 + f[0], 1 + f[1]))",
           "d0: tuple(tuple(target[r][c] for c in (g[1], g[0], 2)) for r in (0, 1 + f[0], 1 + f[1]))",
           (T_SUMS, T_CLI), "verdict"),
    Mutant("bases-equal-counts-only", MATROID,
           "return m1.count_bases() == m2.count_bases() and m1.bases() == m2.bases()",
           "return m1.count_bases() == m2.count_bases()", (T_MATROID,), "verdict"),
    Mutant("line-scales-skip-final-check", TU, "if x * ni * nj != y * di * dj:", "if False:", (T_SUMS,), "verdict"),
    Mutant("network-side-bound-always-true", TU,
           "if k + 3 <= 2 * lines.bit_count() <= k * (k - 1):", "if True:", (T_TU,), "work"),
    Mutant("cleared-without-gcd", EXACTMAT,
           "return [x // g for x in out] if g > 1 else out", "return out", (T_EXACTMAT,), "work"),
    Mutant("certificate-u-from-top", SUMS,
           "u, v = bottom[i], left[next(j for j, e in enumerate(bl[i]) if e)]",
           "u, v = top[i], left[next(j for j, e in enumerate(bl[i]) if e)]", (T_SUMS, T_ACCEPTANCE, T_CLI), "verdict"),
    Mutant("certificate-right-block-without-v", SUMS,
           "blocks = _cut(witness, (*rows, *left_rows, *signed_right.row_labels), (*cols, *signed_left.col_labels, *right_cols)).rows",
           "blocks = _cut(witness, (*rows, *left_rows, *signed_right.row_labels), (*cols, *signed_left.col_labels, *signed_right.col_labels)).rows",
           (T_SUMS, T_ACCEPTANCE, T_CLI), "verdict"),
    Mutant("zero-column-guard-reads-the-left", SUMS,
           "if not any(row[0] for row in reads[1].rows):",
           "if not any(row[0] for row in reads[0].rows):", (T_SUMS, T_ACCEPTANCE, T_CLI), "verdict"),
    # the left column y2 guard reads its rows one line early, off the read's connector
    Mutant("column-y2-guard-reads-the-connector-row-x1", SUMS,
           "for u, row in zip(top, g_left[3:]):  # column y2 at the left's rows but x0, x1",
           "for u, row in zip(top, g_left[2:]):", (T_SUMS,), "verdict"),
    Mutant("certificate-skips-the-left-glue-rows", SUMS,
           "or not {*xs} <= {*signed_left.row_labels} or not {*ys} <= {*signed_right.col_labels}:",
           "or not {*ys} <= {*signed_right.col_labels}:", (T_SUMS,), "verdict"),
    Mutant("certificate-drops-integer-check", SUMS,
           "if strict and max(map(_DENOMINATOR, chain.from_iterable(m.rows)), default=1) > 1:",
           "if False:", (T_SUMS,), "verdict"),
    Mutant("certificate-witness-read-drops-the-b-comparison", SUMS,
           "if w is None or any(tuple(map(abs, row)) != t for row, t in zip(w.rows, b.body.rows)):",
           "if w is None:", (T_SUMS,), "verdict"),
    Mutant("line-scales-equal-pair-compares-supports", TU, "if a == b:",
           "if [[bool(x) for x in row] for row in a] == [[bool(y) for y in row] for row in b]:", (T_SUMS,), "verdict"),
    Mutant("resign-rebuilds-a-summand-at-its-target", SUMS,
           "if -1 not in signs:  # the connector already is the target: the summand is kept as it is",
           "if False:", (T_SUMS,), "work"),
    # the 3-sum re-signing applies the connector's row signs and leaves every column as it was read
    Mutant("resign-signs-rows-but-not-columns", SUMS,
           "col = [*signs[3:], *(cs.get(v, 1) for v in cols)]",
           "col = [1] * (3 + len(cols))", (T_SUMS,), "verdict"),
    # the 3-sum re-signing applies the column signs to every row and drops each row's own sign
    Mutant("resign-negated-row-keeps-column-signs", SUMS,
           "return _exact(_SIGNED, [tuple(map(mul, row, col if r > 0 else flip))",
           "return _exact(_SIGNED, [tuple(map(mul, row, col))", (T_SUMS,), "verdict"),
    Mutant("assembly-weighs-by-d0-not-its-inverse", SUMS,
           "basis = [_head(kind, w, basis) for w in ((det * d, -det * b), (-det * c, det * a))]",
           "basis = [_head(kind, w, basis) for w in ((a, b), (c, d))]", (T_SUMS, T_ACCEPTANCE), "verdict"),
    # item 13's second sums mutant: r placed at the wrong row of a 2-sum
    Mutant("assembly-weighs-bottom-rows-reversed", SUMS,
           "return _stacked(top, (row[:n] for row in r[h:]), basis, tail)",
           "return _stacked(top, (row[:n] for row in r[h:][::-1]), basis, tail)",
           (T_SUMS, T_ACCEPTANCE), "verdict"),
    Mutant("equality-guard-one-past-the-limit", MATROID, "if n > limit:", "if n > limit + 1:",
           (T_MATROID, T_CLI), "verdict"),
    Mutant("coordinates-skip-the-base-test", EXACTMAT,
           "if [_last(kind, y) for y in reduced] != list(range(n, len(order))):", "if False:",
           (T_EXACTMAT, T_STDREPR), "verdict"),
    Mutant("pivot-base-without-column-j", EXACTMAT,
           "base = [j if k == i else n + k for k in range(self.n_rows)]", "base = [n + k for k in range(self.n_rows)]",
           (T_EXACTMAT,), "verdict"),
    Mutant("matmul-keeps-gf2-sums-unreduced", EXACTMAT,
           "rows = [[x & 1 for x in row] for row in rows]", "pass", (T_EXACTMAT,), "verdict"),
    Mutant("documents-keep-a-repeated-key", DOCUMENTS,
           "_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)", "_DECODER = json.JSONDecoder()",
           (T_DOCUMENTS, T_CLI), "verdict"),
    Mutant("guard-trip-exits-2", CLI, "return EXIT_GUARD", "return EXIT_PARSE", (T_CLI,), "verdict"),
    # the plain command-line reader leaves to argparse a value outside its
    # option's choices (-k 4 read as 4) and an option given twice (-k 3 -k 2
    # read as a 2-sum)
    Mutant("plain-reader-skips-choices", CLI,
           "if action.choices is not None and value not in action.choices:", "if False:", (T_CLI,), "verdict"),
    Mutant("plain-reader-keeps-a-repeated-option", CLI,
           "elif (action := options.get(word)) is None or action in given or action.nargs is None and (",
           "elif (action := options.get(word)) is None or action.nargs is None and (", (T_CLI,), "verdict"),
)


def applied(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's line replaced; raises unless the line occurs exactly once."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(at) != 1:
        raise ValueError(f"{mutant.name}: its line occurs {len(at)} times in {mutant.path}")
    line = lines[at[0]]
    lines[at[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    return "".join(lines)


def run(mutant: Mutant, copy: pathlib.Path) -> tuple[str, float]:
    """Apply the mutant in ``copy``, run its test files, restore the module; (outcome, seconds)."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(applied(original, mutant), encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT)
        outcome = {0: "survived", 1: "killed"}.get(done.returncode, f"error (pytest exit {done.returncode})")
    except subprocess.TimeoutExpired:
        outcome = "timed out"
    finally:
        target.write_text(original, encoding="utf-8")
    return outcome, time.perf_counter() - start


def main() -> int:
    missed = 0
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for mutant in MUTANTS:
            outcome, seconds = run(mutant, copy)
            missed += outcome != "killed"
            print(f"{mutant.name:40} {mutant.kind:8} {outcome:10} {seconds:6.1f} s  {' '.join(mutant.tests)}",
                  flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} killed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
