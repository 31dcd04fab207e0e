"""One-off timings of the ROADMAP's Baselines table, outside the gated runs.

Usage, from the repository root:

    python3 perfbench/baselines.py

Each row runs once, in its own child process, with a time limit of
``LIMIT_S`` seconds; a row that hits the limit is recorded as "over the
limit" with its input unchanged.  Inputs are fixed (seed 0).  The record, with the Python
version, nproc and git sha, goes to ``perfbench/_results/baselines.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import product
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from corpus import names, network_matrix, random_tu, repr_doc, support  # noqa: E402
from oracles import free_signs  # noqa: E402

ROWS = {
    "tu_check_8x10": "is_totally_unimodular, TU input, 8x10",
    "tu_check_9x11": "is_totally_unimodular, TU input, 9x11 (force)",
    "tu_check_k7_network": "is_totally_unimodular, K7 network matrix at a path tree, 6x15",
    "tu_check_k8_network": "is_totally_unimodular, K8 network matrix at a path tree, 7x21",
    "tu_sign_k7_network": "find_tu_signing, K7 network support, 6x15, 24 free signs (force)",
    "matroid_eq_18": "matroids_equal, GF(2), 18 elements, self-comparison",
    "verify_k2_19": "tumat verify composition -k 2, sum with 19 elements, TUMAT_EQ_LIMIT=30",
    "int_rows_rank_20": "_int_rows_rank, random 20x20, entries in [-3, 3]",
    "int_rows_rank_30": "_int_rows_rank, random 30x30, entries in [-3, 3]",
}

LIMIT_S = 60.0


def path_tree(n):
    return {v: v - 1 for v in range(1, n)}


def tree_with_free_signs(n, target):
    """The first tree in Pruefer order whose network support has ``target`` free signs."""
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = [x for x in range(n) if degree[x] == 1]
        edges.append((u, w))
        adj = {v: [] for v in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        parent, stack = {}, [0]
        seen = {0}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        if free_signs(support(network_matrix(n, parent))) == target:
            return parent
    raise ValueError(f"no tree of K{n} has {target} free signs")


def run_row(row):
    """Build the row's input, then time only the operation; prints seconds as JSON."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tumat import GF2, RATIONAL, ExactMatrix, LabeledMatrix, find_tu_signing
    from tumat import is_totally_unimodular, matroids_equal, to_matroid
    from tumat.exactmat import _int_rows_rank

    rng = random.Random(0)
    if row.startswith("tu_check"):
        grid = {
            "tu_check_8x10": lambda: random_tu(rng, 8, 10),
            "tu_check_9x11": lambda: random_tu(rng, 9, 11),
            "tu_check_k7_network": lambda: network_matrix(7, path_tree(7)),
            "tu_check_k8_network": lambda: network_matrix(8, path_tree(8)),
        }[row]()
        a = ExactMatrix(RATIONAL, grid)
        t0 = perf_counter()
        verdict = is_totally_unimodular(a, force=True)
        detail = "TU" if verdict.is_tu else "not TU"
    elif row == "tu_sign_k7_network":
        u = ExactMatrix(GF2, support(network_matrix(7, tree_with_free_signs(7, 24))))
        t0 = perf_counter()
        detail = "signed" if find_tu_signing(u, force=True) is not None else "no signing"
    elif row == "matroid_eq_18":
        body = [[int(i == j) for j in range(9)] + [rng.randrange(2) for _ in range(9)] for i in range(9)]
        rep = LabeledMatrix(names("r", 9), names("e", 18), ExactMatrix(GF2, body))
        m1, m2 = to_matroid(rep), to_matroid(rep)
        t0 = perf_counter()
        detail = "equal" if matroids_equal(m1, m2, limit=18) else "not equal"
    elif row == "verify_k2_19":
        while True:
            left = (names("p", 3) + ["g"], names("q", 5) + ["h"], support(random_tu(rng, 4, 6)))
            right = (["g"] + names("s", 4), ["h"] + names("t", 5), support(random_tu(rng, 5, 6)))
            if any(left[2][-1]) and any(r[0] for r in right[2]):
                break
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            paths = []
            for side, (xs, ys, grid) in (("left", left), ("right", right)):
                paths.append(os.path.join(tmp, side + ".json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    fh.write(repr_doc(xs, ys, grid))
            env = dict(os.environ, TUMAT_EQ_LIMIT="30", PYTHONPATH=os.path.join(ROOT, "src"))
            t0 = perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "tumat.cli", "verify", "composition", "-k", "2",
                 "--x", "g", "--y", "h", *paths],
                env=env, capture_output=True, text=True,
            )
            detail = f"exit {done.returncode}: {(done.stdout or done.stderr).strip()}"
    else:
        n = 20 if row.endswith("20") else 30
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        t0 = perf_counter()
        detail = f"rank {_int_rows_rank(rows)}"
    print(json.dumps({"seconds": perf_counter() - t0, "detail": detail}))


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--row", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        run_row(args.row)
        return 0
    record = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "git_sha": git_sha(),
              "limit_s": LIMIT_S, "rows": []}
    for row, what in ROWS.items():
        try:
            done = subprocess.run([sys.executable, __file__, "--row", row],
                                  capture_output=True, text=True, timeout=LIMIT_S)
            result = json.loads(done.stdout) if done.returncode == 0 else {"error": done.stderr[-500:]}
        except subprocess.TimeoutExpired:
            result = {"seconds": None, "detail": f"over the limit ({LIMIT_S:g} s)"}
        record["rows"].append({"row": row, "operation": what, **result})
        shown = "-" if result.get("seconds") is None else f"{result['seconds']:.3f} s"
        print(f"{what:78s} {shown:>12s}  {result.get('detail', result.get('error', ''))}", flush=True)
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", "baselines.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
