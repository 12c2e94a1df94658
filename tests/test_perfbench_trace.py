"""The benchmark's traced run still fits the package: every attribute that
perfbench/spans.py patches exists, and a traced construction, verification
and stage replay report no problems.  This reads perfbench/ and changes
nothing there."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_construction_and_replay(monkeypatch):
    spans, run = load(monkeypatch, "spans"), load(monkeypatch, "run")
    from syndetic import certificate, generators, pipeline

    tracer = spans.Tracer()
    targets = spans.library_targets()
    with spans.patched(targets, tracer.wrap):
        s = generators.striped_set((0, 2_000), 5, 2)
        cert = pipeline.fg_construct(s, 2, 2)
        verdict = certificate.verify_fg(cert, s)
        problems = run.replay(tracer, s, cert)
    assert verdict.passed, verdict
    assert problems == []
    patched_layers = {name.split(".", 1)[0] for _, _, name, _ in targets}
    assert patched_layers <= {span.layer for span in tracer.spans}
    # the patches are undone on exit
    assert pipeline.fg_construct.__module__ == "syndetic.pipeline"
