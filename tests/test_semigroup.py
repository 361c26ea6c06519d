import math

import numpy as np
import pytest

from pdmpkit import (
    GridDensity,
    KineticSlabParams,
    build_drift_redistribute,
    build_kinetic_slab,
    evolve,
    resolvent_G,
    trace_minus,
    trace_plus,
    transport_step,
)


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
