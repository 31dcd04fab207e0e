"""Seeded closed-loop benchmark of the tumat command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload tu-check --seed 1 --seconds 30 --trace 0

Load model: one client in one process, no threads.  Each request calls
``tumat.cli.main(argv)`` in-process with stdout and stderr captured, and
the next request starts only after the previous one returns (a closed
loop), as a batch tool is used.  Interpreter start-up is left out; the
import of tumat is counted in ``setup_s``.

The seed draws the corpus: rounds of requests whose mix of categories and
shapes is fixed per workload (see ``corpus.py``).  Set-up imports tumat
afresh, builds the rounds and writes them as documents under
``perfbench/_work``; it is repeated and its median reported.  A run is a
fixed amount of work, the same on every host and at every commit: a
fixed number of whole passes over all rounds, so every request slot is
timed equally often.  ``--seconds`` only caps it: no further pass starts
once that much time has passed.  Each slot's latency is its median over
the passes, so a stall of a shared machine during one pass moves one
sample, not the figure; tu-check, whose slots each take tens to hundreds
of milliseconds, makes one pass over more rounds instead.

A shared host also runs whole stretches of seconds to minutes up to 1.7
times slower than usual, which no median within one run removes.  So a
fixed reference task of the benchmark's own (``reference_task``, pure
Python like tumat, never calling it) is timed before the first request
and after every request, and every time the run reports is scaled to
the host speed at which that task takes ``REFERENCE_MS``:

    reported ms = wall ms * REFERENCE_MS / (median reference time of
                  the probes within PROBE_WINDOW requests of it, in ms)

The median over neighbouring probes follows the host's slow and fast
stretches but not a single disturbed probe.  End-to-end times are
therefore milliseconds (and seconds) at reference host speed; the
unscaled wall-clock figures and the reference times are printed beside
them and kept in the record.  Every output is then checked against the
construction with the oracles in ``oracles.py`` outside the timed
region; a wrong exit code, wrong output, exception or guard trip counts
as a failed request.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
pass in which each round runs twice in a row, untraced and then with
every public tumat function wrapped (``tracer.py``), and reports the
per-layer metrics of the traced requests and the tracing overhead.
Either way the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with
input-property shares and the sha256 of all outputs, goes to
``perfbench/_results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from itertools import combinations
from math import ceil
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from oracles import det_fraction, det_int  # noqa: E402

SETUP_REPEATS = 9

# Distinct rounds built per run, and whole passes made over them.  Every
# workload has at least 100 slots, so at least 10 lie beyond latency_p90_ms.
# The costs of tu-check's 8x10 and signing's Fano slots vary from seed to
# seed, so those workloads draw more rounds and pass over them fewer times.
ROUNDS = {"tu-check": 10, "signing": 12, "compose-verify": 5, "doc-sum": 8}
PASSES = {"tu-check": 1, "signing": 2, "compose-verify": 3, "doc-sum": 15}


# The reference task: a Fraction elimination, integer determinants of all
# 3x3 minors of a small {0,+-1} matrix, and a JSON round trip, fixed
# here so that it is the same task at every commit.
_REF_RATIONAL = [[3, -1, 2, 0, 1], [1, 2, -3, 1, 0], [0, 1, 1, -2, 3], [2, 0, -1, 3, -1], [-1, 3, 0, 1, 2]]
_REF_SIGNS = [[1, 0, -1, 1, 0, 1], [0, 1, 1, 0, -1, 1], [-1, 1, 0, 1, 1, 0], [1, -1, 1, 0, 0, -1]]
_REF_DOC = {"field": "gf2", "rows": [f"r{i}" for i in range(12)],
            "data": [[str((i * j + i + j) % 2) for j in range(12)] for i in range(12)]}
REFERENCE_MS = 1.0  # the reference task's time on the reference host
PROBES = 2  # reference tasks timed after each request
PROBE_WINDOW = 3  # a request is scaled by the probes up to this many requests away


def reference_task():
    det_fraction(_REF_RATIONAL)
    for rs in combinations(range(4), 3):
        for cs in combinations(range(6), 3):
            det_int([[_REF_SIGNS[r][c] for c in cs] for r in rs])
    json.loads(json.dumps(_REF_DOC))


def reference_ms() -> float:
    """Mean time of PROBES reference tasks, in ms, with the collector off."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PROBES):
            reference_task()
        return (perf_counter() - t0) * 1e3 / PROBES
    finally:
        gc.enable()


def import_tumat():
    """Import tumat from source afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "tumat" or n.startswith("tumat.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tumat
    import tumat.cli

    return tumat


def work_dir(workload):
    """This process's document folder, so that concurrent runs never share one."""
    return os.path.join(WORK, f"{workload}-{os.getpid()}")


def setup(workload, seed):
    """Import tumat, build every round and write its documents."""
    tumat = import_tumat()
    shutil.rmtree(work_dir(workload), ignore_errors=True)
    plan = []
    for r in range(ROUNDS[workload]):
        folder = os.path.join(work_dir(workload), str(r))
        os.makedirs(folder)
        batch = []
        for i, req in enumerate(corpus.build(workload, seed, r)):
            paths = []
            for j, text in enumerate(req.docs):
                path = os.path.join(folder, f"{i}-{j}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                paths.append(path)
            batch.append((req, req.args + paths))
        plan.append(batch)
    return tumat, plan


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Run:
    """What one closed-loop client saw: latencies, outputs and round times.

    ``lat`` and ``keys`` hold each request's wall time and slot in the
    order sent.  With ``probe`` set, ``ref_ms`` holds the reference time
    measured before the first request and after each one.

    Outputs are ((round, slot), (exit code, stdout, stderr) or None); a
    result that repeats its slot's first result verbatim is stored as
    None, so the benchmark's own memory does not grow with the run.
    """

    def __init__(self, probe=False):
        self.lat, self.keys, self.outputs, self.round_walls, self.per_request = [], [], [], [], []
        self._first = {}
        self.ref_ms = [reference_ms()] if probe else None

    def round(self, cli, plan, r, tracer=None):
        """Send the requests of round r one after another.

        With a tracer, also record each request's wall time and the self
        time of every operation it spent time in.
        """
        t_round = perf_counter()
        for slot, (_req, argv) in enumerate(plan[r]):
            before = dict(tracer.self_s) if tracer is not None else None
            t0 = perf_counter()
            result = call(cli, argv)
            wall = perf_counter() - t0
            self.lat.append(wall)
            self.keys.append((r, slot))
            if self.ref_ms is not None:
                self.ref_ms.append(reference_ms())
            if self._first.setdefault((r, slot), result) is not result and self._first[(r, slot)] == result:
                result = None
            self.outputs.append(((r, slot), result))
            if tracer is not None:
                spent = {op: (s - before.get(op, 0.0)) * 1e3 for op, s in tracer.self_s.items()}
                self.per_request.append({"slot": [r, slot], "wall_ms": wall * 1e3,
                                         "self_ms": {op: v for op, v in spent.items() if v}})
        self.round_walls.append(perf_counter() - t_round)

    def slot_latencies(self):
        """Each slot's latencies, one per pass, scaled to reference host speed.

        Request i ran between probes i and i + 1; it is scaled by the
        median of the probes from PROBE_WINDOW before it to PROBE_WINDOW
        after it.
        """
        slots = {}
        for i, (key, wall) in enumerate(zip(self.keys, self.lat)):
            near = self.ref_ms[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
            slots.setdefault(key, []).append(wall * REFERENCE_MS / statistics.median(near))
        return slots


def closed_loop(cli, plan, passes, seconds) -> Run:
    """Make ``passes`` whole passes over the rounds; none starts after ``seconds``."""
    run = Run(probe=True)
    start = perf_counter()
    for p in range(passes):
        if p and perf_counter() - start >= seconds:
            break
        for r in range(len(plan)):
            run.round(cli, plan, r)
    return run


def traced_loop(tumat, plan):
    """Make one pass, running each round untraced and then traced.

    Alternating round by round lets both runs see the same state of a
    shared machine, so their ratio is the tracing overhead.  Returns
    (tracer, untraced run, traced run).
    """
    tracer, plain, traced = tracing.Tracer(), Run(), Run()
    modules = [m for name, m in sys.modules.items() if name == "tumat" or name.startswith("tumat.")]
    for r in range(len(plan)):
        plain.round(tumat.cli, plan, r)
        uninstall = tracing.install(tracer, tumat, modules)
        try:
            traced.round(tumat.cli, plan, r, tracer)
        finally:
            uninstall()
    return tracer, plain, traced


def check(plan, *runs):
    """Check every output of the given runs against its request's expectation.

    Returns (failures by tag, {(slot, output): problem or None}).
    """
    verdicts = {}
    failures = Counter()
    for outputs in runs:
        first = {}
        for key, result in outputs:
            if result is None:
                problem = first[key]
            else:
                if (key, result) not in verdicts:
                    try:
                        verdicts[(key, result)] = plan[key[0]][key[1]][0].expect(*result)
                    except (ValueError, KeyError, TypeError) as exc:
                        verdicts[(key, result)] = f"unreadable output: {exc}"
                problem = verdicts[(key, result)]
                first.setdefault(key, problem)
            if problem is not None:
                failures[plan[key[0]][key[1]][0].tag] += 1
    return failures, verdicts


def outputs_sha256(verdicts) -> str:
    h = hashlib.sha256()
    for key, (code, out, err) in sorted(verdicts, key=lambda kr: (kr[0], repr(kr[1]))):
        h.update(f"{key[0]}/{key[1]}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def histogram(values):
    return {str(k): v for k, v in sorted(Counter(values).items(), key=lambda kv: str(kv[0]))}


def input_properties(workload, plan) -> dict:
    """Shares of the input properties later optimisations must cite."""
    reqs = [req for batch in plan for req, _ in batch]
    props = [req.props for req in reqs]
    n = len(props)
    if workload == "tu-check":
        return {
            "one_sum_decomposable_share": sum(p["one_sum_decomposable"] for p in props) / n,
            "witness_order_histogram": histogram(p["witness_order"] or "TU" for p in props),
        }
    if workload == "signing":
        return {
            "free_signs_histogram": histogram(p["free_signs"] for p in props),
            "regular_share": sum(p["regular"] for p in props) / n,
        }
    if workload == "compose-verify":
        return {
            "ground_set_size_histogram": histogram(p["elements"] for p in props),
            "k_histogram": histogram(p["k"] or "none" for p in props),
        }
    sizes = sorted(p["bytes"] for p in props)
    return {
        "document_bytes_total_per_round": sum(sizes) / len(plan),
        "document_bytes_min": sizes[0],
        "document_bytes_median": statistics.median(sizes),
        "document_bytes_max": sizes[-1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tumat")):
        print(f"tumat sources not found under {SRC}", file=sys.stderr)
        return 2

    setup_walls, setup_times = [], []
    ref_before = reference_ms()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        tumat, plan = setup(args.workload, args.seed)
        setup_walls.append(perf_counter() - t0)
        ref_after = reference_ms()
        setup_times.append(setup_walls[-1] * 2 * REFERENCE_MS / (ref_before + ref_after))
        ref_before = ref_after
    cli = tumat.cli

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load_model": "closed loop, one client, one process, no threads",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_walls,
        "reference_ms": REFERENCE_MS,
        "input_properties": input_properties(args.workload, plan),
        "layer_waits": "none: one thread, no queue between layers",
    }
    if args.trace:
        tracer, plain, traced = traced_loop(tumat, plan)
        runs = (plain, traced)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = sum(traced.lat) / sum(plain.lat) - 1
        metrics["trace.requests"] = len(traced.lat)
        record["should_move"] = {name: tracing.should_move(name) for name in metrics}
        record["per_request_trace"] = traced.per_request
        record["trace_note"] = ("the wrapper cost of calls inside a span of their own layer, chiefly "
                                "FiniteMatroid.indep under matroids_equal, is counted in that span's self time")
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        run = closed_loop(cli, plan, PASSES[args.workload], args.seconds)
        runs = (run,)
        # each slot at its median over the passes; all slots weigh the same
        ordered = sorted(statistics.median(lat) for lat in run.slot_latencies().values())
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "requests_per_s": len(ordered) / sum(ordered),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_p90_ms": nearest_rank(ordered, 0.9) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_kb / 1024,
        }
        record["passes"] = len(run.round_walls) // len(plan)
        walls = sorted(run.lat)
        record["wall_clock"] = {"latency_p50_ms": statistics.median(walls) * 1e3,
                                "latency_p90_ms": nearest_rank(walls, 0.9) * 1e3,
                                "requests_per_s": len(walls) / sum(walls),
                                "setup_s": statistics.median(setup_walls)}
        record["reference_task_ms"] = {"median": statistics.median(run.ref_ms), "min": min(run.ref_ms),
                                       "max": max(run.ref_ms), "samples": run.ref_ms}
        record["latency_p90_samples_beyond"] = len(ordered) - ceil(0.9 * len(ordered))
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}

    failures, verdicts = check(plan, *(run.outputs for run in runs))
    attempted = sum(len(run.outputs) for run in runs)
    round_walls = runs[0].round_walls
    failed = sum(failures.values())
    record.update({
        "rounds": len(round_walls),
        "round_seconds": round_walls,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures_by_tag": dict(failures),
        "outputs_sha256": outputs_sha256(verdicts),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    })
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work_dir(args.workload), ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(round_walls)}  requests {attempted}  failed {failed}")
    print(f"error_rate {failed / attempted:.6f} ratio  outputs sha256 {record['outputs_sha256']}")
    if "latency_p90_samples_beyond" in record:
        print(f"latency_p90_ms has {record['latency_p90_samples_beyond']} samples beyond it")
    for key, value in record["input_properties"].items():
        print(f"input {key}: {value}")
    for tag, count in failures.items():
        print(f"FAILED {count} x {tag}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "wall_clock" in record:
        print("unscaled wall clock: " + "  ".join(f"{k} {v:.6g}" for k, v in record["wall_clock"].items()))
        print(f"reference task median {record['reference_task_ms']['median']:.4g} ms "
              f"(REFERENCE_MS {REFERENCE_MS})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
