"""The benchmark's tracer must find every function it wraps, and its corpora must pass."""

import ast
import contextlib
import importlib
import io
import pathlib

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


@pytest.mark.parametrize("workload", ["tu-check", "signing", "compose-verify", "doc-sum"])
@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_round_replays_correctly(monkeypatch, tmp_path, workload, seed):
    # round 0 of the benchmark corpus, each request checked by its own expectation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("TUMAT_TU_LIMIT", "TUMAT_EQ_LIMIT"):
        monkeypatch.delenv(name, raising=False)
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
