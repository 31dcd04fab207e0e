"""The benchmark's per-layer tracer must find every function it wraps."""

import pathlib

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
