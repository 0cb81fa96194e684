"""The traced benchmark run still finds every binding it wraps.

``bench/tracer.py`` wraps lyapinit functions by name from outside the
package, and its per-layer counts rely on them.  A refactor that renames or
stops calling one of them would silently break the traced run; this test
installs the tracer on the same modules as ``bench/run.py`` and checks
counts end to end, the quadrature counts the benchmark pins among them.
It reads ``bench/`` and never edits it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import lyapinit
from lyapinit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _traced(argv, monkeypatch):
    """Spans and per-layer metrics of one traced ``cli.main(argv)``."""
    tracing = _load("tracer", monkeypatch)
    modules = {name: getattr(lyapinit, name) for name in _load("run", monkeypatch).MODULES}
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)  # raises if a required binding is gone
        tracer.recording = True
        assert cli.main(argv) == 0
    finally:
        tracer.recording = False
        tracer.uninstall()
    spans = tracer.take()
    return spans, tracing.layer_metrics(spans)


def test_tracer_wraps_every_required_binding_and_counts_haar_matrices(tmp_path, monkeypatch):
    trials, depth = 130, 7
    spans, metrics = _traced([
        "simulate", "--experiment", "lln", "--d", "3", "--alpha", "0.1",
        "--ensemble", "orthogonal", "--scale", "crit", "--depth", str(depth),
        "--trials", str(trials), "--workers", "2", "--seed", "41",
        "--out", str(tmp_path / "lln.json"),
    ], monkeypatch)
    assert metrics["ensembles.haar_batch.matrices"] == trials * depth
    assert metrics["dynamics.trial_steps"] == trials * depth
    assert any(span.name == "dynamics.block" for span in spans)
    assert not hasattr(lyapinit.dynamics.haar_orthogonal_batch, "__wrapped__")


@pytest.mark.parametrize("argv, calls", [
    # the critical sigma and the exponent: one integral each, never I(d, 1)
    (["simulate", "--experiment", "clt", "--d", "2", "--alpha", "0.1", "--scale", "crit",
      "--depth", "4", "--trials", "1000", "--seed", "3"], 2),
    # I(d, alpha) and I(d, 1) per width
    (["table", "--alpha", "0.1", "--dims", "2", "3", "--format", "json"], 4),
    # the 35 default widths: still one call each, however much of it is memoised
    (["table", "--alpha", "0.001", "--format", "json"], 70),
    # mc-orth-w2's command: the orthogonal critical scale needs I(d, alpha) and I(d, 1)
    (["simulate", "--experiment", "lln", "--d", "3", "--alpha", "0.1", "--ensemble", "orthogonal",
      "--scale", "crit", "--depth", "4", "--trials", "130", "--workers", "2", "--seed", "41"], 2),
])
def test_traced_quadrature_count_matches_the_benchmark_pin(argv, calls, tmp_path, monkeypatch):
    _, metrics = _traced([*argv, "--out", str(tmp_path / "out")], monkeypatch)
    assert metrics["quad.calls"] == calls


def test_traced_init_sampled_counts_match_the_benchmark_pin(tmp_path, monkeypatch):
    # init-sampled pins one QR per candidate layer and no batched draw
    depth, candidates = 9, 6  # the default candidate count, ceil(2 sqrt(depth))
    _, metrics = _traced([
        "init", "--d", "4", "--alpha", "0.1", "--depth", str(depth), "--kind", "orthogonal",
        "--sampled", "--seed", "7", "--out", str(tmp_path / "stack.json"),
    ], monkeypatch)
    assert metrics["quad.calls"] == 2
    assert metrics["ensembles.haar_single.calls"] == candidates * depth
    assert metrics["ensembles.haar_batch.matrices"] == 0
