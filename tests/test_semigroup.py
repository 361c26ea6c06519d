import math

import numpy as np
import pytest

from pdmpkit import (
    CellCycleParams,
    GridDensity,
    KineticSlabParams,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    evolve,
    resolvent_G,
    trace_minus,
    trace_plus,
    transport_step,
)
from pdmpkit.core import orbit_hazard
from pdmpkit.semigroup import inject

from test_core import exponential_growth_model


@pytest.fixture
def m1():
    return build_drift_redistribute("m1", n_cells=200)


class TestTransport:
    def test_m1_shifts_and_absorbs(self, m1):
        f = GridDensity(m1.grid, np.ones(m1.grid.n_cells))
        g = transport_step(m1, f, 0.3)
        assert g.total_mass == pytest.approx(0.7, abs=1e-12)
        centers = m1.grid.blocks[0].centers[:, 0]
        np.testing.assert_allclose(g.values[centers > 0.31], 1.0, rtol=1e-12)
        np.testing.assert_array_equal(g.values[centers < 0.29], 0.0)

    def test_m3_static_decay(self):
        q = 1.5
        m3 = build_drift_redistribute("m3", n_cells=100, q=q)
        f = GridDensity.uniform(m3.grid)
        g = transport_step(m3, f, 0.4)
        np.testing.assert_allclose(g.values, f.values * math.exp(-q * 0.4), rtol=1e-13)

    def test_m2_exact_translation_at_integer_cfl(self):
        m2 = build_drift_redistribute("m2", n_cells=100, span=(0.0, 5.0))
        dx = 0.05
        vals = np.zeros(100)
        vals[20:40] = 1.0
        f = GridDensity(m2.grid, vals)
        g = transport_step(m2, f, 4 * dx)
        np.testing.assert_allclose(g.values[24:44], 1.0, rtol=1e-12)
        assert g.values[:24].max() < 1e-12

    def test_semigroup_property(self, m1):
        f = GridDensity(m1.grid, 2.0 * m1.grid.blocks[0].centers[:, 0])
        one = transport_step(m1, f, 0.25)
        two = transport_step(m1, transport_step(m1, f, 0.1), 0.15)
        np.testing.assert_allclose(one.values, two.values, atol=1e-10)

    @pytest.mark.parametrize("n_x", [100, 400, 1000])
    def test_half_cell_step_keeps_the_slab_uniform(self, n_x):
        # at dt = half a crossing time the first cell centers sit exactly dt
        # from the inflow walls; rounding must not decide whether they stay
        slab = build_kinetic_slab(KineticSlabParams(n_x=n_x))
        u = GridDensity.uniform(slab.grid)
        f = evolve(slab, u, 1.0, 0.5 * slab.min_crossing_time)
        assert float(np.abs(f.values - u.values) @ slab.grid.weights) < 1e-9

    def test_fractional_cell_step_keeps_the_slab_uniform(self):
        # at dt = one crossing of the fastest speed, |v| = 0.75 moves 3/4 cell
        slab = build_kinetic_slab(KineticSlabParams(
            n_x=12, velocities=(-1.0, -0.75, 0.75, 1.0), nu_weights=(1.0,) * 4))
        u = GridDensity.uniform(slab.grid)
        f = evolve(slab, u, 40 * slab.min_crossing_time, slab.min_crossing_time)
        assert float(np.abs(f.values - u.values) @ slab.grid.weights) < 1e-9

    def test_dt_must_be_positive(self, m1):
        with pytest.raises(ValueError):
            transport_step(m1, GridDensity.uniform(m1.grid), 0.0)


class TestTraces:
    def test_linear_density_traces(self, m1):
        centers = m1.grid.blocks[0].centers[:, 0]
        f = GridDensity(m1.grid, 2.0 * centers)
        assert trace_plus(m1, f)[0] == pytest.approx(2.0, rel=1e-10)
        assert trace_minus(m1, f)[0] == pytest.approx(0.0, abs=1e-10)

    def test_empty_boundary_gives_empty_trace(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        assert trace_plus(m2, GridDensity.uniform(m2.grid)).size == 0


class TestEvolve:
    def test_inject_adds_the_influx_mass(self):
        model = build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4))
        rng = np.random.default_rng(1)
        vals = rng.random(model.grid.n_cells)
        influx = rng.random(model.gamma_minus.n_cells)
        before = float(vals @ model.grid.weights)
        inject(model, vals, influx)
        assert float(vals @ model.grid.weights) - before == pytest.approx(
            float(influx @ model.gamma_minus.weights), rel=1e-13)


    def test_mass_conserved_on_conservative_model(self, m1):
        f = GridDensity.uniform(m1.grid)
        g = evolve(m1, f, 0.8, 1e-3)
        assert g.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_pure_jump_relaxes_to_uniform(self):
        m3 = build_drift_redistribute("m3", n_cells=100, q=2.0)
        vals = np.zeros(100)
        vals[:50] = 2.0
        f = GridDensity(m3.grid, vals)
        g = evolve(m3, f, 4.0, 1e-2)
        # after 8 mean holding times the profile is flat to ~e^{-8}
        assert float(np.abs(g.values - 1.0).max()) < 5e-3

    def test_approximate_semigroup_law(self, m1):
        f = GridDensity.uniform(m1.grid)
        whole = evolve(m1, f, 0.5, 1e-3)
        halves = evolve(m1, evolve(m1, f, 0.25, 1e-3), 0.25, 1e-3)
        assert float(np.abs(whole.values - halves.values) @ m1.grid.weights) < 1e-6

    def test_cfl_warning(self, m1):
        with pytest.warns(UserWarning, match="crossing"):
            evolve(m1, GridDensity.uniform(m1.grid), 0.1, 0.05)

    def test_bad_steps_rejected(self, m1):
        f = GridDensity.uniform(m1.grid)
        with pytest.raises(ValueError):
            evolve(m1, f, 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve(m1, f, 1.0, 2.0)


_SLAB4 = dict(velocities=(-1.0, -0.5, 0.5, 1.0), nu_weights=(1.0,) * 4, kernel=np.ones((4, 4)))

# name -> (model builder, step length)
_STEP_CASES = {
    "m1": (lambda: build_drift_redistribute("m1", n_cells=200), 0.002),
    "m3": (lambda: build_drift_redistribute("m3", n_cells=100, q=1.5), 0.01),
    "cell_cycle": (lambda: build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4)), 0.05),
    "specular_slab": (lambda: build_kinetic_slab(KineticSlabParams(n_x=50, kernel=np.ones((2, 2)))),
                      0.013),
    "diffuse_slab": (lambda: build_kinetic_slab(KineticSlabParams(n_x=20, boundary="diffuse",
                                                                  **_SLAB4)), 0.03),
    # no closed-form hazard: the quadrature fallback
    "exp_growth": (lambda: exponential_growth_model(n=30), 0.01),
}


def _evolve_by_public_steps(model, f, t, h):
    """The splitting loop of evolve, one call of the public per-step
    functions at a time: transport_step, trace_plus at both ends of the
    step, the exact jumped mass f (1 - exp(-hazard up to min(h, t+))), its
    post-jump density and inject."""
    n = int(t / h + 1e-9)
    steps = [h] * n + ([t - n * h] if t - n * h > 1e-12 * max(t, 1.0) else [])
    w, wplus = model.grid.weights, model.gamma_plus.weights
    for s in steps:
        q = np.concatenate([
            -np.expm1(-orbit_hazard(model, b.centers, b.mode,
                                    np.minimum(model.flow.hit_plus(b.centers, b.mode), s)))
            for b in model.grid.blocks])
        moved = transport_step(model, f, s)
        u = f.values * q
        flux = 0.5 * s * (trace_plus(model, f) + trace_plus(model, moved))
        if flux.size:
            exited = f.total_mass - moved.total_mass - float(u @ w)
            if exited <= 0.0:
                flux = np.zeros_like(flux)
            elif flux @ wplus > 0.0:
                flux = flux * (exited / float(flux @ wplus))
        jumped = model.post_jump(u, flux)
        vals = moved.values + jumped.interior.values
        inject(model, vals, jumped.boundary)
        f = GridDensity(model.grid, np.maximum(vals, 0.0))
    return f


class TestAssembledStep:
    @pytest.mark.parametrize("name", list(_STEP_CASES))
    @pytest.mark.parametrize("steps", [12, 12.4])
    def test_evolve_matches_the_public_step_functions(self, name, steps):
        build, h = _STEP_CASES[name]
        model = build()
        f = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()
        got = evolve(model, f, steps * h, h).values
        want = _evolve_by_public_steps(model, f, steps * h, h).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


class TestResolvent:
    def test_positive_discount_required(self, m1):
        with pytest.raises(ValueError):
            resolvent_G(m1, GridDensity.uniform(m1.grid), 0.0)

    def test_m3_closed_form(self):
        # pure jump with uniform restart from a uniform input: no redistribution
        # effect, so R(lam) f = f / lam exactly
        m3 = build_drift_redistribute("m3", n_cells=100, q=2.0)
        f = GridDensity.uniform(m3.grid)
        for lam in (0.5, 1.0, 3.0):
            res = resolvent_G(m3, f, lam)
            assert res.converged
            np.testing.assert_allclose(res.density.values, f.values / lam, rtol=1e-6)

    def test_consistent_with_time_integration(self, m1):
        # lam R f against a Simpson sum of e^{-lam t} P(t) f dt
        lam = 2.0
        f = GridDensity.uniform(m1.grid)
        res = resolvent_G(m1, f, lam)
        horizon, n = 6.0, 48
        ts = np.linspace(0, horizon, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (horizon / n) / 3.0
        acc = w[0] * f.values.copy()
        g = f
        dt = horizon / n
        for t, wt in zip(ts[1:], w[1:]):
            g = evolve(m1, g, dt, 2e-3)
            acc += wt * math.exp(-lam * t) * g.values
        gap = float(np.abs(res.density.values - acc) @ m1.grid.weights)
        assert gap < 1e-2

    def test_truncation_reported_when_budget_too_small(self, m1):
        res = resolvent_G(m1, GridDensity.uniform(m1.grid), 0.5, max_terms=3)
        assert not res.converged
        assert res.tail_mass > 0
