"""Self-tests of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that corpora are seeded (same seed, same bytes; another seed,
other bytes), that the output checks reject a corrupted signing, a
wrong exit code and a tampered sum document, that the 3-sum base
summands are regular by the benchmark's own brute-force search, that
one round of every workload passes its checks at this commit, and that
traced self times add up to each request's wall time within the
measured tracing overhead.  Prints one PASS or FAIL line per test and
exits 1 if any fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import oracles  # noqa: E402
import run as bench  # noqa: E402

SELFTEST_WORK = os.path.join(bench.WORK, f"selftest-{os.getpid()}")


def write_docs(req, stem):
    """Write a request's documents under the self-test folder; returns their paths."""
    paths = []
    for j, text in enumerate(req.docs):
        paths.append(os.path.join(SELFTEST_WORK, f"{stem}-{j}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def execute(cli, req):
    """Run a request through tumat once."""
    return bench.call(cli, req.args + write_docs(req, "request"))


def corpus_digest(workload, seed):
    h = hashlib.sha256()
    for r in range(2):
        for req in corpus.build(workload, seed, r):
            h.update(json.dumps([req.args, req.docs]).encode())
    return h.hexdigest()


def test_corpus_is_seeded(cli):
    for workload in corpus.WORKLOADS:
        assert corpus_digest(workload, 1) == corpus_digest(workload, 1), workload
        assert corpus_digest(workload, 1) != corpus_digest(workload, 2), workload


def test_check_rejects_corrupted_signing(cli):
    # R10's support graph has no bridge, so a TU signing with one sign
    # flipped is not a rescaling of it and, by Camion's theorem, not TU.
    rows, cols = corpus.names("x", 5), corpus.names("y", 5)
    req = corpus.Request("R10", ["tu", "sign"], [corpus.matrix_doc("gf2", rows, cols, corpus.R10)],
                         corpus.tu_signing(rows, cols, corpus.R10))
    code, out, err = execute(cli, req)
    assert req.expect(code, out, err) is None
    doc = json.loads(out)
    for i, j in product(range(5), range(5)):
        if doc["data"][i][j] != "0":
            bad = json.loads(out)
            bad["data"][i][j] = str(-int(bad["data"][i][j]))
            assert req.expect(code, json.dumps(bad), err) is not None, (i, j)


def test_check_rejects_wrong_exit_code(cli):
    for req in corpus.build("tu-check", 1, 0):
        code, out, err = execute(cli, req)
        assert req.expect(code, out, err) is None, req.tag
        assert req.expect(1 - code, out, err) is not None, req.tag
        assert req.expect(3, "", "size guard: refused\n") is not None, req.tag


def test_check_rejects_tampered_sum(cli):
    for req in corpus.build("doc-sum", 1, 0):
        if not req.tag.startswith("sum "):
            continue
        code, out, err = execute(cli, req)
        assert req.expect(code, out, err) is None, req.tag
        doc = json.loads(out)
        doc["B"][-1][0] = "1" if doc["B"][-1][0] == "0" else "0"
        assert req.expect(code, json.dumps(doc), err) is not None, req.tag
        doc = json.loads(out)
        doc["X"][0], doc["X"][1] = doc["X"][1], doc["X"][0]
        assert req.expect(code, json.dumps(doc), err) is not None, req.tag


def has_tu_signing(grid):
    cells = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v]
    for signs in product((1, -1), repeat=len(cells)):
        signed = [list(row) for row in grid]
        for (i, j), s in zip(cells, signs):
            signed[i][j] = s
        if oracles.is_tu(signed):
            return True
    return False


def test_sum3_bases_are_regular(cli):
    for d0 in corpus.SUM3_BASE:
        for xs, ys, grid in corpus.sum3_base_pair(d0):
            assert has_tu_signing(grid), d0


def test_one_round_passes(cli):
    for workload in corpus.WORKLOADS:
        for req in corpus.build(workload, 1, 0):
            problem = req.expect(*execute(cli, req))
            assert problem is None, (workload, req.tag, problem)


def test_self_times_add_up(cli):
    tumat = sys.modules["tumat"]
    for workload in ("compose-verify", "doc-sum"):
        batch = [(req, req.args + write_docs(req, f"{workload}-{i}"))
                 for i, req in enumerate(corpus.build(workload, 1, 0))]
        # The overhead measured on one short round swings with the host, even
        # below zero; five alternations of the round steady it.
        _, plain, traced = bench.traced_loop(tumat, [batch] * 5)
        overhead = sum(traced.lat) / sum(plain.lat) - 1
        for rec in traced.per_request:
            attributed = sum(rec["self_ms"].values())
            assert attributed <= rec["wall_ms"] * (1 + 1e-9), rec
            assert rec["wall_ms"] - attributed <= rec["wall_ms"] * max(overhead, 0.01), (overhead, rec)


def main() -> int:
    cli = bench.import_tumat().cli
    os.makedirs(SELFTEST_WORK, exist_ok=True)
    failed = 0
    try:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test(cli)
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(SELFTEST_WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
