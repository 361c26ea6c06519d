"""The traced benchmark run (``bench/run.py --trace 1``) wraps public names of
every pdmpkit layer and the callables of the benchmark's models; this test
fails as soon as one of those names is deleted or renamed."""

import importlib
from pathlib import Path

import pdmpkit
import pdmpkit.cli
import pdmpkit.verify  # noqa: F401  (the tracer wraps every layer)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_binds_every_layer_and_benchmark_model(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer(pdmpkit)  # looks up every name it wraps in every layer
    cases = [c for wl in workloads.WORKLOADS.values() for c in wl.cases]
    assert {c.model for c in cases} == set(workloads.MODELS)
    for case in cases:
        model = tracer.instrument(pdmpkit.cli.build_model(case.config))
        assert model.flow.phi.__wrapped__ is not None
        assert model.rate.__wrapped__ is not None
