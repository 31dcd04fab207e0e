"""The benchmark's tracer must find every function it wraps, and its corpora must pass."""

import ast
import contextlib
import importlib
import io
import pathlib
import sys

import pytest

import tumat
import tumat.cli  # noqa: F401  (targets() reaches every submodule through the package)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = []
    for owner, attr, op in tracer.targets(tumat):
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{op}: {getattr(owner, '__name__', owner)}.{attr}")
    assert not missing


def test_tracer_counts_every_tu_check(monkeypatch):
    # the signing search and matroid equality's binary test run their TU
    # checks through is_totally_unimodular, which the tracer wraps: one check
    # per signing search and one per rational side of an equality
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from tumat.fixtures import fano_b, r10_b, r10_standard_repr

    t = tracer.Tracer()
    uninstall = tracer.install(t, tumat, [m for name, m in sys.modules.items() if name.partition(".")[0] == "tumat"])
    try:
        r10 = r10_b()
        signing = tumat.find_tu_signing(r10.body)
        assert signing is not None and tumat.find_tu_signing(fano_b().body) is None
        rational = tumat.StandardRepr(tumat.LabeledMatrix(r10.row_labels, r10.col_labels, signing))
        assert tumat.matroids_equal(rational.to_matroid(), r10_standard_repr().to_matroid())
    finally:
        uninstall()
    got = t.metrics()
    assert (got["tu.sign.calls"], got["tu.check.calls"], got["tu.sign.candidates"]) == (2, 3, 2)


@pytest.mark.parametrize("workload", ["tu-check", "signing", "compose-verify", "doc-sum"])
@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_round_replays_correctly(monkeypatch, tmp_path, workload, seed):
    # round 0 of the benchmark corpus, each request checked by its own expectation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    wrong = []
    for i, req in enumerate(corpus.build(workload, seed, 0)):
        paths = []
        for j, text in enumerate(req.docs):
            paths.append(tmp_path / f"{i}-{j}.json")
            paths[-1].write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tumat.cli.main(req.args + [str(p) for p in paths])
        reason = req.expect(code, out.getvalue(), err.getvalue())
        if reason is not None:
            wrong.append(f"{req.tag}: {reason}")
    assert not wrong


def test_baselines_imports_resolve():
    # perfbench/baselines.py imports from tumat inside its functions, so a
    # renamed name would only fail when that baseline runs
    tree = ast.parse((PERFBENCH / "baselines.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "tumat"]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert not missing
