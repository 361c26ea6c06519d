import dataclasses
import math

import numpy as np
import pytest

from pdmpkit import (
    CellCycleParams,
    DensityPair,
    GridDensity,
    KineticSlabParams,
    apply_R0,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    evolve,
    resolvent_G,
    trace_minus,
    trace_plus,
    transport_step,
)
from pdmpkit.core import JumpLaw, orbit_hazard
from pdmpkit.semigroup import _free_step, _trace_matrix, inject
from pdmpkit.simulate import simulate_ensemble

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

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_dt_must_be_finite(self, m1, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            transport_step(m1, GridDensity.uniform(m1.grid), dt)


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

    def test_inflow_restart_of_a_custom_model_keeps_the_mass(self):
        # exp growth without interior jumps: the outflux at hi re-enters at lo,
        # into the entry cell the model derives from its grid
        model = exponential_growth_model()
        ratio = model.gamma_plus.weights / model.gamma_minus.weights
        restart = dataclasses.replace(
            model,
            rate=lambda X, mode: np.zeros(X.shape[0]),
            cumulative_hazard=lambda X, mode, t: np.zeros(X.shape[0]),
            jump=JumpLaw(sample=model.jump.sample,
                         p0=lambda h, hp: np.zeros(model.grid.n_cells),
                         p_partial=lambda h, hp: hp * ratio),
        )
        g = evolve(restart, GridDensity.uniform(restart.grid), 1.0, 0.01)
        assert g.total_mass == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("t, dt", [(math.inf, 0.01), (math.inf, math.inf), (math.nan, 0.01)])
    def test_non_finite_times_rejected(self, m1, t, dt):
        with pytest.raises(ValueError, match="need 0 < dt <= t < inf"):
            evolve(m1, GridDensity.uniform(m1.grid), t, dt)

    @pytest.mark.xfail(strict=True, reason="evolve books the mass that crosses the outer face "
                       "x = x_max as outflux on Gamma+, and the jump law re-injects it")
    def test_mass_that_leaves_the_grid_is_lost(self):
        # about 4.8% of the cell-cycle paths from the uniform density on (0, 8) grow
        # past x = 8 by t = 0.5; the evolved density must lose that mass too
        model = build_cell_cycle(CellCycleParams(n_x=20, n_y=4, x_max=8.0))
        u = GridDensity.uniform(model.grid)
        left = simulate_ensemble(model, u, 0.5, 20_000, seed=3).left_grid / 20_000
        lost = 1.0 - evolve(model, u, 0.5, 0.05).total_mass
        assert lost == pytest.approx(left, abs=0.01)


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
    # velocity 0.5 never collides
    "diffuse_slab_zero_theta": (lambda: build_kinetic_slab(KineticSlabParams(
        n_x=20, boundary="diffuse", **{**_SLAB4, "kernel": [[1.0, 1.0, 0.0, 1.0], [1.0, 2.0, 0.0, 0.5],
                                                           [0.5, 1.0, 0.0, 1.0], [1.0, 0.5, 0.0, 1.0]]})),
        0.03),
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


def _evolve_by_three_products(model, f, t, h):
    """evolve's step one part at a time: the products T f, S f and S (T f),
    the mass budget f.w - (T f).w - (q f).w from three dot products, and the
    flux pin that scales the trapezoid of the clamped traces to it."""
    n = int(t / h + 1e-9)
    steps = [h] * n + ([t - n * h] if t - n * h > 1e-12 * max(t, 1.0) else [])
    S = _trace_matrix(model, -1.0)
    w, wplus = model.grid.weights, model.gamma_plus.weights
    f = f.values
    for s in steps:
        T, q = _free_step(model, s)
        moved, u = T @ f, f * q
        flux = 0.5 * s * (np.maximum(S @ f, 0.0) + np.maximum(S @ moved, 0.0))
        exited = float(f @ w) - float(moved @ w) - float(u @ w)
        shape_mass = float(flux @ wplus)
        if exited <= 0.0:
            flux = np.zeros_like(flux)
        elif shape_mass > 0.0:
            flux = flux * (exited / shape_mass)
        vals = moved + model.jump.p0(u, flux)
        inject(model, vals, model.jump.p_partial(u, flux))
        f = np.maximum(vals, 0.0)
    return GridDensity(model.grid, f)


class TestAssembledStep:
    @pytest.mark.parametrize("name", list(_STEP_CASES))
    @pytest.mark.parametrize("steps", [12, 12.4])
    def test_evolve_matches_the_public_step_functions(self, name, steps):
        self._check_against(_evolve_by_public_steps, name, steps)

    @pytest.mark.parametrize("name", list(_STEP_CASES))
    @pytest.mark.parametrize("steps", [12, 12.4])
    def test_evolve_matches_the_step_by_three_products(self, name, steps):
        # the stacked operator carries the half step on the traces, and its
        # exit row w (1 - q) - T^T w replaces the three dot products
        self._check_against(_evolve_by_three_products, name, steps)

    @staticmethod
    def _check_against(reference, name, steps):
        build, h = _STEP_CASES[name]
        model = build()
        f = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()
        got = evolve(model, f, steps * h, h).values
        want = reference(model, f, steps * h, h).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())

    @pytest.mark.parametrize("name", list(_STEP_CASES))
    @pytest.mark.parametrize("steps", [1, 0.4])
    def test_free_step_is_nonnegative(self, name, steps):
        # evolve applies T without a clamp and takes the trace of T f as
        # (S T) f: both rest on T >= 0 acting on nonnegative densities
        build, h = _STEP_CASES[name]
        T, q = _free_step(build(), steps * h)
        assert T.data.min(initial=0.0) >= 0.0
        assert np.all((q >= 0.0) & (q <= 1.0))


def neumann_resolvent(model, f, lam, tol=1e-14, max_terms=10_000):
    """The perturbation series R0 sum_n K^n (f, 0), summed term by term until a
    chain term's mass falls below tol x mass(f): the oracle for resolvent_G."""
    pair = DensityPair(f, np.zeros(model.gamma_minus.n_cells))
    total = np.zeros(model.grid.n_cells)
    for _ in range(max_terms):
        r_int, r_out = apply_R0(model, pair, lam)
        total += r_int.values
        pair = model.post_jump(model.rate_values() * r_int.values, r_out)
        if pair.norm(model) < tol * f.total_mass:
            return total
    raise AssertionError(f"the series did not converge in {max_terms} terms")


def _diffuse_slab():
    return build_kinetic_slab(KineticSlabParams(n_x=60, boundary="diffuse", **_SLAB4))


_SERIES_CASES = [
    *[("diffuse slab", _diffuse_slab, lam) for lam in (0.5, 1.0, 4.0)],
    ("m1", lambda: build_drift_redistribute("m1", n_cells=200), 1.0),
    ("m3", lambda: build_drift_redistribute("m3", n_cells=100, q=2.0), 1.0),
    ("cell cycle", lambda: build_cell_cycle(CellCycleParams(n_x=100, x_max=20.0, n_y=4)), 0.5),
]


class TestResolvent:
    def test_positive_discount_required(self, m1):
        with pytest.raises(ValueError):
            resolvent_G(m1, GridDensity.uniform(m1.grid), 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_finite_discount_required(self, m1, lam):
        # NaN passed lam <= 0 and came back converged with a zero density
        with pytest.raises(ValueError, match="positive, finite discount"):
            resolvent_G(m1, GridDensity.uniform(m1.grid), lam)

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

    @pytest.mark.parametrize("name, build, lam", _SERIES_CASES,
                             ids=[f"{name} lam={lam}" for name, _, lam in _SERIES_CASES])
    def test_matches_the_neumann_series(self, name, build, lam):
        model = build()
        f = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()
        res = resolvent_G(model, f, lam)
        want = neumann_resolvent(model, f, lam)
        assert res.converged
        assert float(np.abs(res.density.values - want) @ model.grid.weights) \
            <= 1e-9 * float(want @ model.grid.weights)

    def test_truncation_reported_when_budget_too_small(self):
        # GMRES needs 9 iterations here
        slab = _diffuse_slab()
        res = resolvent_G(slab, GridDensity.uniform(slab.grid), 0.5, max_terms=3)
        assert not res.converged
        assert res.tail_mass > 0
