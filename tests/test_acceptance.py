"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, so a full run gives a twelve-line scoreboard:

    pytest tests/test_acceptance.py -s
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

from pdmpkit import (
    CellCycleParams,
    DensityPair,
    GridDensity,
    KineticSlabParams,
    NoInvariantDensityError,
    StatePoint,
    advance,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    cell_cycle_lift,
    cocycle,
    estimate_density,
    evolve,
    hazard_integral,
    invariant_of_K,
    k_stochasticity_defect,
    lift_invariant,
    p1_apply,
    p1_invariant,
    project_invariant,
    resolvent_G,
    sample_holding,
)
from pdmpkit.core import ContinuousAxis, DiscreteAxis, InteriorGrid, ModeBlock
from pdmpkit.semigroup import trace_plus
from pdmpkit.verify import (
    change_of_variables_gap,
    duhamel_oracle,
    green_residual,
    mc_vs_pde,
    resolvent_duality,
    restrict_density,
)


def _report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _l1(model, a, b):
    return float(np.abs(a - b) @ model.grid.weights)


def _all_models():
    return [
        build_drift_redistribute("m1", n_cells=100),
        build_drift_redistribute("m2", n_cells=100),
        build_drift_redistribute("m3", n_cells=100),
        build_cell_cycle(CellCycleParams(n_x=100, x_max=20.0, n_y=5)),
        build_kinetic_slab(KineticSlabParams(n_x=100)),
    ]


def _interior_samples(model, rng, n):
    """n random interior points per mode, with room to flow a short while."""
    pts = []
    for block in model.grid.blocks:
        for _ in range(n // len(model.grid.blocks) + 1):
            coords = np.empty(block.dim)
            for k, ax in enumerate(block.axes):
                if isinstance(ax, ContinuousAxis):
                    lo, hi = ax.lo, ax.hi
                    coords[k] = lo + (0.25 + 0.5 * rng.random()) * (hi - lo)
                else:
                    coords[k] = ax.values[rng.integers(ax.n)]
            pts.append(StatePoint(coords, block.mode))
    return pts[:n] if len(pts) >= n else pts


def test_criterion_01_law_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_flow = worst_coc = worst_haz = 0.0
    for model in _all_models():
        for x in _interior_samples(model, rng, 1000):
            tp = min(1.0, 0.2 * float(model.flow.hit_plus(x.coords[None, :], x.mode)[0]))
            if not np.isfinite(tp) or tp <= 0:
                tp = 0.1
            t, s = 0.6 * tp * rng.random(), 0.4 * tp * rng.random()
            # group law
            y = advance(model, x, t)
            assert isinstance(y, StatePoint)
            z1 = advance(model, y, s)
            z2 = advance(model, x, t + s)
            assert isinstance(z1, StatePoint) and isinstance(z2, StatePoint)
            scale = max(1.0, float(np.abs(z2.coords).max()))
            worst_flow = max(worst_flow, float(np.abs(z1.coords - z2.coords).max()) / scale)
            # cocycle law J_{t+s}(x) = J_s(x) J_t(phi_s x)
            lhs = cocycle(model, x, t + s)
            rhs = cocycle(model, x, s) * cocycle(model, advance(model, x, s), t)
            worst_coc = max(worst_coc, abs(lhs - rhs) / max(1.0, abs(lhs)))
            # hazard additivity
            h = hazard_integral(model, x, t + s)
            hh = hazard_integral(model, x, t) + hazard_integral(model, y, s)
            worst_haz = max(worst_haz, abs(h - hh) / max(1.0, abs(h)))
    elapsed = time.perf_counter() - started
    ok = worst_flow < 1e-9 and worst_coc < 1e-9 and worst_haz < 1e-6 and elapsed < 5
    _report(1, "law suite", ok,
            f"flow {worst_flow:.1e}, cocycle {worst_coc:.1e}, hazard {worst_haz:.1e}, {elapsed:.1f}s")


def test_criterion_02_change_of_variables():
    started = time.perf_counter()
    f1 = lambda X, mode: np.exp(-X[:, 0]) * (1 + X[:, 0])
    f5 = lambda X, mode: np.exp(-X[:, 0]) * (1 + np.abs(X[:, 1]))
    gaps = {}
    for tag, build, f in (("m1", lambda n: build_drift_redistribute("m1", n_cells=n), f1),
                          ("m5", lambda n: build_kinetic_slab(KineticSlabParams(n_x=n)), f5)):
        errs = []
        for n in (250, 500, 1000):
            lhs, rhs = change_of_variables_gap(build(n), f, n_s=20000)
            errs.append(abs(lhs - rhs) / abs(lhs))
        gaps[tag] = errs
    elapsed = time.perf_counter() - started
    ok = elapsed < 5
    detail = []
    for tag, errs in gaps.items():
        r1, r2 = errs[0] / max(errs[1], 1e-300), errs[1] / max(errs[2], 1e-300)
        ok = ok and errs[2] < 1e-3 and r1 >= 1.7 and r2 >= 1.7
        detail.append(f"{tag}: rel {errs[2]:.1e} at n=1000, halving ratios {r1:.1f}/{r2:.1f}")
    _report(2, "change of variables", ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_03_green_identity():
    started = time.perf_counter()
    m1 = build_drift_redistribute("m1", n_cells=200)
    x = m1.grid.blocks[0].centers[:, 0]
    cases = [
        ("x(1-x)", GridDensity(m1.grid, x * (1 - x)), -(1 - 2 * x)),
        ("2x", GridDensity(m1.grid, 2 * x), -np.full_like(x, 2.0)),
    ]
    residuals = [green_residual(m1, f, tv) for _, f, tv in cases]
    m5 = build_kinetic_slab(KineticSlabParams(n_x=200))
    residuals.append(green_residual(m5, GridDensity.uniform(m5.grid), np.zeros(m5.grid.n_cells)))
    # convergence probe on a function with a genuine discretization error
    rs = []
    for n in (200, 400):
        m = build_drift_redistribute("m1", n_cells=n)
        xs = m.grid.blocks[0].centers[:, 0]
        rs.append(green_residual(m, GridDensity(m.grid, -xs * np.log(xs)), np.log(xs) + 1))
    ratio = rs[0] / rs[1]
    elapsed = time.perf_counter() - started
    ok = max(residuals) < 1e-6 and 1.7 <= ratio <= 2.3 and elapsed < 5
    _report(3, "Green identity", ok,
            f"max residual {max(residuals):.1e}, halving ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_04_holding_time_law():
    started = time.perf_counter()
    q = 1.0
    m3 = build_drift_redistribute("m3", n_cells=100, q=q)
    rng = np.random.default_rng(7)
    x = StatePoint(np.array([0.5]), 0)
    draws = np.array([sample_holding(m3, x, rng)[0] for _ in range(100_000)])
    ks = stats.kstest(draws, "expon", args=(0.0, 1.0 / q)).statistic
    m1 = build_drift_redistribute("m1", n_cells=100)
    hits = {sample_holding(m1, StatePoint(np.array([0.3]), 0), rng) for _ in range(50)}
    elapsed = time.perf_counter() - started
    deterministic = hits == {(0.7, "boundary-hit")}
    ok = ks < 0.01 and deterministic and elapsed < 10
    _report(4, "holding-time law", ok,
            f"KS {ks:.4f} at 1e5 draws, boundary hit deterministic={deterministic}, {elapsed:.1f}s")


def test_criterion_05_chain_fixed_point_and_lift():
    started = time.perf_counter()
    m1 = build_drift_redistribute("m1", n_cells=200)
    res = invariant_of_K(m1, tol=1e-10)
    dev = _l1(m1, res.pair.interior.values, np.ones(m1.grid.n_cells))
    dev += float(np.abs(res.pair.boundary).sum())
    f_star, c = lift_invariant(m1, res.pair)

    # stationary transport balance as an independent boundary-value problem:
    # f' = p (the outflow level), f(0) = 0, f(1) = p; solved by collocation
    def odes(x, y, p):
        return np.full_like(y, p[0])

    def bc(ya, yb, p):
        return np.array([ya[0], yb[0] - p[0]])

    xs = np.linspace(0, 1, 64)
    sol = integrate.solve_bvp(odes, bc, xs, np.atleast_2d(xs), p=[1.0])
    assert sol.success
    centers = m1.grid.blocks[0].centers[:, 0]
    oracle = sol.sol(centers)[0]
    oracle /= oracle @ m1.grid.weights
    lift_err = _l1(m1, f_star.values, oracle)

    back = project_invariant(m1, f_star)
    rt = _l1(m1, back.interior.values, res.pair.interior.values)
    rt += float(np.abs(back.boundary - res.pair.boundary).sum())
    elapsed = time.perf_counter() - started
    ok = (dev < 1e-10 and res.iterations == 1 and lift_err < 1e-3 and rt < 1e-4
          and elapsed < 5)
    _report(5, "chain fixed point and lift", ok,
            f"pair dev {dev:.1e} in {res.iterations} sweep(s), lift L1 {lift_err:.1e}, "
            f"round trip {rt:.1e}, {elapsed:.1f}s")


def test_criterion_06_stationarity_and_ergodicity():
    started = time.perf_counter()
    m1 = build_drift_redistribute("m1", n_cells=200)
    x = m1.grid.blocks[0].centers[:, 0]
    f_star = GridDensity(m1.grid, 2.0 * x)
    drift = _l1(m1, evolve(m1, f_star, 1.0, 1e-3).values, f_star.values)
    g = evolve(m1, GridDensity.uniform(m1.grid), 20.0, 1e-3)
    mix = _l1(m1, g.values, f_star.normalized().values)
    elapsed = time.perf_counter() - started
    ok = drift < 1e-2 and mix < 2e-2 and elapsed < 30
    _report(6, "stationarity under evolution", ok,
            f"stationary drift {drift:.1e}, ergodic gap at t=20 {mix:.1e}, {elapsed:.1f}s")


def _cycle_compare_grid(nx, ny, xhi=12.0):
    b0 = ModeBlock(0, [ContinuousAxis.uniform(0.0, xhi, nx),
                       DiscreteAxis(np.array([0.0]), np.array([1.0]))])
    b1 = ModeBlock(1, [ContinuousAxis.uniform(0.0, xhi, nx),
                       ContinuousAxis.uniform(0.0, 1.0, ny)])
    return InteriorGrid([b0, b1])


def test_criterion_07_monte_carlo_vs_pde():
    started = time.perf_counter()
    m1 = build_drift_redistribute("m1", n_cells=200)
    rep = mc_vs_pde(m1, GridDensity.uniform(m1.grid), 1.0, 100_000, 7, 1.0 / 200)
    l1_m1 = rep["l1"]

    # histogram on the 200-cell model, reference solution on a refined one
    p_mc = CellCycleParams(n_x=200, x_max=20.0, n_y=20)
    m_mc = build_cell_cycle(p_mc)
    f1, _ = p1_invariant(p_mc)
    fbar, _, _ = cell_cycle_lift(p_mc, f1)
    mc, censored = estimate_density(m_mc, fbar.normalized(), 2.0, 100_000, 11)

    p_ref = CellCycleParams(n_x=800, x_max=20.0, n_y=40)
    m_ref = build_cell_cycle(p_ref)
    f1r, _ = p1_invariant(p_ref)
    fbr, _, _ = cell_cycle_lift(p_ref, f1r)
    pde = evolve(m_ref, fbr.normalized(), 2.0, 0.0125)

    compare = _cycle_compare_grid(60, 5)
    a = restrict_density(mc, compare)
    b = restrict_density(pde, compare)
    l1_cc = float(np.abs(a.values - b.values) @ compare.weights)
    elapsed = time.perf_counter() - started
    ok = l1_m1 <= 0.05 and l1_cc <= 0.07 and elapsed < 60
    _report(7, "Monte Carlo vs PDE", ok,
            f"L1 m1 {l1_m1:.3f} (<=0.05), cell cycle {l1_cc:.3f} (<=0.07), "
            f"censored {censored:.1e}, {elapsed:.1f}s")


def test_criterion_08_duhamel_oracle():
    started = time.perf_counter()
    m1 = build_drift_redistribute("m1", n_cells=200)
    f0 = GridDensity.uniform(m1.grid)
    oracle, tail = duhamel_oracle(m1, f0, 0.3, n_max=2, n_s=48, seed=5)
    solved = evolve(m1, f0, 0.3, 0.005)
    gap = _l1(m1, oracle.values, solved.values)
    elapsed = time.perf_counter() - started
    ok = gap <= 5e-3 + tail and elapsed < 30
    _report(8, "Duhamel oracle", ok,
            f"L1 {gap:.2e} vs bound {5e-3 + tail:.2e} (tail {tail:.2e}), {elapsed:.1f}s")


def test_criterion_09_resolvent():
    started = time.perf_counter()
    norms = []
    for variant in ("m1", "m2", "m3"):
        m = build_drift_redistribute(variant, n_cells=200)
        f = GridDensity.uniform(m.grid)
        for lam in (0.5, 1.0, 4.0):
            norms.append(lam * resolvent_G(m, f, lam).density.total_mass)
    contraction = max(norms)

    m1 = build_drift_redistribute("m1", n_cells=200)
    f = GridDensity.uniform(m1.grid)
    stochastic = 1.0 * resolvent_G(m1, f, 1.0).density.total_mass

    psi = lambda X, mode: np.cos(2.5 * X[:, 0])
    lhs, mc, se = resolvent_duality(m1, f, psi, 1.0, 3000, 9)
    z = abs(lhs - mc) / se

    limit = _l1(m1, 1e3 * resolvent_G(m1, f, 1e3).density.values, f.values)
    elapsed = time.perf_counter() - started
    ok = (contraction <= 1 + 1e-4 and abs(stochastic - 1) <= 1e-4 and z <= 3
          and limit <= 1e-2 and elapsed < 60)
    _report(9, "resolvent", ok,
            f"max lam*mass {contraction:.6f}, m1 {stochastic:.6f}, duality z {z:.2f}, "
            f"lam=1e3 limit {limit:.1e}, {elapsed:.1f}s")


def test_criterion_10_cell_cycle():
    started = time.perf_counter()
    p = CellCycleParams(n_x=2000, x_max=20.0, n_y=4)
    f1, uniqueness = p1_invariant(p)
    dx = p.size_axis().dx
    mass_gap = abs(float(p1_apply(p, f1).sum() * dx) - float(f1.sum() * dx))

    model = build_cell_cycle(p)
    res = invariant_of_K(model, tol=1e-10)
    sl = model.grid.block_slice(0)
    newborn = res.pair.interior.values[sl]
    newborn = newborn / (newborn.sum() * dx)
    chain_gap = float(np.abs(newborn - f1).sum() * dx)

    pf = CellCycleParams(n_x=800, x_max=20.0, n_y=40)
    f1f, _ = p1_invariant(pf)
    fbar, integrable, _ = cell_cycle_lift(pf, f1f)
    f1_mass = float(f1f.sum() * pf.size_axis().dx)
    lift_mass_gap = abs(fbar.total_mass - 2.0 * f1_mass)

    mf = build_cell_cycle(pf)
    init = fbar.normalized()
    drift = float(np.abs(evolve(mf, init, 2.0, 0.0125).values - init.values) @ mf.grid.weights)
    elapsed = time.perf_counter() - started
    ok = (mass_gap < 1e-8 and uniqueness > 1 and chain_gap < 1e-3
          and lift_mass_gap < 1e-6 and integrable and drift < 2e-2 and elapsed < 60)
    _report(10, "cell cycle", ok,
            f"division mass gap {mass_gap:.1e}, uniqueness value {uniqueness:.3f}, "
            f"chain gap {chain_gap:.1e}, lift mass gap {lift_mass_gap:.1e}, "
            f"stationary drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_11_stochasticity_defect():
    started = time.perf_counter()
    defects = {}
    for variant in ("m1", "m3"):
        m = build_drift_redistribute(variant, n_cells=200)
        pair = DensityPair(GridDensity.uniform(m.grid), np.zeros(m.gamma_minus.n_cells))
        defects[variant] = k_stochasticity_defect(m, pair)
    m2 = build_drift_redistribute("m2", n_cells=200)
    pair2 = DensityPair(GridDensity.uniform(m2.grid), np.zeros(0))
    defects["m2"] = k_stochasticity_defect(m2, pair2)
    with pytest.raises(NoInvariantDensityError):
        invariant_of_K(m2)
    elapsed = time.perf_counter() - started
    ok = (abs(defects["m1"]) < 1e-6 and abs(defects["m3"]) < 1e-6
          and defects["m2"] == 1.0 and elapsed < 5)
    _report(11, "K stochasticity defect", ok,
            f"m1 {defects['m1']:.1e}, m3 {defects['m3']:.1e}, m2 {defects['m2']}, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    cfg = {"model": {"name": "m1", "params": {"n_cells": 100}}, "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    # vary what the output must not depend on: hash order and BLAS/OpenMP threads
    for hash_seed, threads in (("0", "1"), ("1", "2")):
        out = tmp_path / f"run{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "pdmpkit.cli", str(cfg_path), "simulate",
             "--t", "1", "--paths", "5000", "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "density.csv").read_bytes())
    elapsed = time.perf_counter() - started
    identical = outputs[0] == outputs[1]
    ok = identical and elapsed < 30
    _report(12, "determinism", ok,
            f"density.csv byte-identical across PYTHONHASHSEED={{0,1}} with "
            f"OMP/OPENBLAS threads {{1,2}}: {identical}, {elapsed:.1f}s")
