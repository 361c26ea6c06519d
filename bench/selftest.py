"""Tests of the benchmark itself: every output check passes on the real
outputs of its case and rejects a deliberately wrong answer; the span
arithmetic and the wrappers do what layers.py relies on; BENCHMARK.json
names exactly the metrics the benchmark prints.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.  It runs one round of every workload (about 10 s).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pdmpkit as pk  # noqa: E402
import pdmpkit.cli  # noqa: E402,F401
import pdmpkit.verify  # noqa: E402,F401

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
_RUNS: dict = {}


def _case(workload: str, model: str):
    """(case, model, inputs, reference, outputs) of one real run, cached."""
    key = (workload, model)
    if key not in _RUNS:
        case = next(c for c in workloads.WORKLOADS[workload].cases if c.model == model)
        built = pk.cli.build_model(case.config)
        inputs = case.prepare(built, SEED)
        ref = case.reference(built, inputs)
        _RUNS[key] = (case, built, inputs, ref, case.run(built, inputs))
    return _RUNS[key]


def _rejects(workload: str, model: str, keyword: str, **wrong):
    """The case check passes on the real outputs, and with the outputs in
    ``wrong`` substituted it reports a problem mentioning ``keyword``."""
    case, built, inputs, ref, out = _case(workload, model)
    assert case.check(built, inputs, ref, out) == [], case.check(built, inputs, ref, out)
    bad = case.check(built, inputs, ref, {**out, **wrong})
    assert any(keyword in r for r in bad), (keyword, bad)


# -- mc_density ---------------------------------------------------------------


def test_mc_m1_rejects_uniform_offered_as_two_x():
    _, built, _, _, _ = _case("mc_density", "m1")
    _rejects("mc_density", "m1", "histogram", hist=np.ones(built.grid.n_cells))


def test_mc_rejects_restriction_and_censoring_errors():
    _, _, _, _, out = _case("mc_density", "m1")
    _rejects("mc_density", "m1", "restrict_density", restricted=out["restricted"] * 1.01)
    _rejects("mc_density", "m1", "censored", censored=1.0 / 8000)


def test_mc_cell_cycle_rejects_shifted_histogram():
    _, built, _, _, out = _case("mc_density", "cell_cycle")
    sl = built.grid.block_slice(0)
    hist = out["hist"].copy()
    hist[sl] = np.roll(hist[sl], 10)  # newborn sizes one unit too large
    _rejects("mc_density", "cell_cycle", "histogram", hist=hist)


def test_mc_slab_rejects_velocity_bias():
    _, _, _, _, out = _case("mc_density", "kinetic_slab")
    h = out["hist"].reshape(-1, 4).copy()
    h[:, 3] += h[:, 0] * 0.3  # move 30% of the v=-1 mass to v=+1
    h[:, 0] *= 0.7
    _rejects("mc_density", "kinetic_slab", "histogram", hist=h.ravel())


def test_byte_identity_check():
    m1 = pk.cli.build_model({"model": {"name": "m1", "params": {"n_cells": 50}}})
    init = pk.GridDensity.uniform(m1.grid)
    saved = os.environ.pop("PDMP_THREADS", None)
    try:
        default = pk.estimate_density(m1, init, 1.0, 2500, 7)[0].values
        os.environ["PDMP_THREADS"] = "1"
        single = pk.estimate_density(m1, init, 1.0, 2500, 7)[0].values
        other_seed = pk.estimate_density(m1, init, 1.0, 2500, 8)[0].values
    finally:
        os.environ.pop("PDMP_THREADS", None)
        if saved is not None:
            os.environ["PDMP_THREADS"] = saved
    assert checks.bytes_identical(single, default, "threads") is None
    assert checks.bytes_identical(other_seed, default, "threads") is not None


# -- pde_density --------------------------------------------------------------


def test_pde_m1_rejects_mass_error_uniform_and_wrong_duhamel():
    _, built, _, _, out = _case("pde_density", "m1")
    _rejects("pde_density", "m1", "evolve: mass", f=out["f"] * 1.01)
    _rejects("pde_density", "m1", "vs 2x", f=np.ones(built.grid.n_cells))
    _rejects("pde_density", "m1", "t=0.3: mass", short=out["short"] * 1.01)
    _rejects("pde_density", "m1", "duhamel", oracle=np.roll(out["oracle"], 5))


def test_pde_cell_cycle_rejects_mass_error_and_drift():
    _, built, _, _, out = _case("pde_density", "cell_cycle")
    _rejects("pde_density", "cell_cycle", "mass", f=out["f"] * 1.01)
    uniform = pk.GridDensity.uniform(built.grid).values
    _rejects("pde_density", "cell_cycle", "lift after", f=uniform)


def test_pde_slab_rejects_mass_error_and_non_uniform():
    _, built, _, _, out = _case("pde_density", "kinetic_slab")
    _rejects("pde_density", "kinetic_slab", "mass", f=out["f"] * 1.01)
    x = built.grid.blocks[0].centers[:, 0]
    _rejects("pde_density", "kinetic_slab", "vs uniform", f=out["f"] * 2.0 * x)


# -- stationary_chain ---------------------------------------------------------


def test_chain_cell_cycle_rejects_wrong_newborn_and_round_trip():
    _, _, _, _, out = _case("stationary_chain", "cell_cycle")
    _rejects("stationary_chain", "cell_cycle", "p1_invariant", newborn=np.roll(out["newborn"], 50))
    _rejects("stationary_chain", "cell_cycle", "round trip", round_trip=1e-3)


def test_chain_slab_rejects_wrong_lift_and_resolvent():
    _, built, _, _, out = _case("stationary_chain", "kinetic_slab")
    x = built.grid.blocks[0].centers[:, 0]
    _rejects("stationary_chain", "kinetic_slab", "lift", lift=out["lift"] * 2.0 * x)
    _rejects("stationary_chain", "kinetic_slab", "lam*R(0.5)f",
             masses=[1.01] + list(out["masses"][1:]))
    fixed = list(out["fixed"])
    fixed[1] = fixed[1] * 1.01
    _rejects("stationary_chain", "kinetic_slab", "lam*R(1.0)u", fixed=fixed)


def test_chain_m1_rejects_uniform_lift_and_biased_duality():
    _, built, _, _, out = _case("stationary_chain", "m1")
    _rejects("stationary_chain", "m1", "lift vs 2x", lift=np.ones(built.grid.n_cells))
    lhs, _, se = out["duality"]
    _rejects("stationary_chain", "m1", "z-score", duality=(lhs, lhs + 5.0 * se, se))


# -- spans and metrics ----------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    # span 0 [0, 100] has children 1 [10, 50] and 2 [30, 70] (two threads);
    # span 3 [20, 30] is a child of 1
    table = spans.SpanTable(
        names=["verify.a", "simulate.b", "simulate.c", "models.d"],
        name=np.array([0, 1, 2, 3]), t0=np.array([0, 10, 30, 20]),
        t1=np.array([100, 50, 70, 30]), parent=np.array([-1, 0, 0, 1]),
        work=np.ones(4, dtype=np.int64))
    assert table.self_time().tolist() == [40, 30, 40, 10]


def test_tracer_records_nesting_and_uninstalls():
    tracer = spans.Tracer(pk)
    original = pk.semigroup.transport_step
    m1 = tracer.instrument(pk.cli.build_model({"model": {"name": "m1", "params": {"n_cells": 20}}}))
    tracer.install()
    try:
        with tracer.span("case.m1"):
            pk.semigroup.evolve(m1, pk.GridDensity.uniform(m1.grid), 0.1, 0.05)
    finally:
        tracer.uninstall()
    assert pk.semigroup.transport_step is original
    t = tracer.table()
    ev = np.nonzero(t.is_named("semigroup.evolve"))[0]
    steps = np.nonzero(t.is_named("semigroup.transport_step"))[0]
    assert ev.size == 1 and steps.size == 2
    assert set(t.parent[steps]) == {ev[0]}
    phi = t.is_named("models.phi")
    assert phi.any() and (t.work[phi] == 20).any()
    assert (t.self_time() >= 0).all()


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = ["setup_s", "solve_s", *(f"{m}_s" for m in workloads.MODELS), "peak_rss_mb"]
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.spec()


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
