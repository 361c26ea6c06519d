import dataclasses

import numpy as np
import pytest
from scipy import integrate

from pdmpkit import (
    BoundaryGrid,
    CellCycleParams,
    DensityPair,
    DivergentIntegralError,
    GridDensity,
    ModelError,
    NoInvariantDensityError,
    StatePoint,
    apply_K,
    apply_R0,
    build_cell_cycle,
    build_drift_redistribute,
    invariant_of_K,
    k_stochasticity_defect,
    lift_invariant,
    project_invariant,
    simulate_path,
)
from pdmpkit import chain
from pdmpkit.simulate import sample_from_density

from test_core import exponential_growth_model


def uniform_pair(model):
    return DensityPair(GridDensity.uniform(model.grid), np.zeros(model.gamma_minus.n_cells))


class TestR0:
    def test_m1_integrates_along_the_drift(self):
        # no interior rate: R0(f, 0)(x) = int_0^x f, so f = 1 gives x
        m1 = build_drift_redistribute("m1", n_cells=200)
        pair = DensityPair(GridDensity(m1.grid, np.ones(m1.grid.n_cells)), np.zeros(1))
        r, outflux = apply_R0(m1, pair, 0.0)
        centers = m1.grid.blocks[0].centers[:, 0]
        np.testing.assert_allclose(r.values, centers, rtol=1e-12)
        assert outflux[0] == pytest.approx(1.0, rel=1e-10)

    def test_m1_boundary_term_propagates_inward(self):
        # a unit density on Gamma- adds the constant 1 along every orbit
        m1 = build_drift_redistribute("m1", n_cells=200)
        pair = DensityPair(GridDensity.zero(m1.grid), np.ones(1))
        r, outflux = apply_R0(m1, pair, 0.0)
        np.testing.assert_allclose(r.values, 1.0, rtol=1e-12)
        assert outflux[0] == pytest.approx(1.0, rel=1e-10)

    def test_m3_is_scaled_identity(self):
        # static flow at rate q: R0(f) = f / (lam + q)
        q = 2.0
        m3 = build_drift_redistribute("m3", n_cells=100, q=q)
        f = GridDensity(m3.grid, 1.0 + m3.grid.blocks[0].centers[:, 0])
        for lam in (0.0, 1.0, 5.0):
            r, _ = apply_R0(m3, DensityPair(f, np.zeros(0)), lam)
            np.testing.assert_allclose(r.values, f.values / (lam + q), rtol=1e-7)

    def test_cache_keeps_at_most_eight_discounts(self):
        m1 = build_drift_redistribute("m1", n_cells=100)
        pair = uniform_pair(m1)
        lams = [0.25 * k for k in range(1, 11)]
        first = [apply_R0(m1, pair, lam)[0].values for lam in lams]
        assert len(chain._CACHE[m1]) <= 8
        # evicted discounts are rebuilt to the same matrices
        again = [apply_R0(m1, pair, lam)[0].values for lam in lams]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert len(chain._CACHE[m1]) <= 8

    def test_no_inflow_boundary_gives_empty_boundary_blocks(self):
        m3 = build_drift_redistribute("m3", n_cells=30, q=2.0)
        m_int, b_int, m_out, b_out = chain._matrices(m3, 0.0)
        assert m_int.shape == (30, 30)
        assert b_int.shape == (30, 0) and b_out.shape == (0, 0)
        assert m_out.shape == (0, 30)

    def test_discount_shrinks_mass_monotonically(self):
        m1 = build_drift_redistribute("m1", n_cells=100)
        pair = uniform_pair(m1)
        masses = [apply_R0(m1, pair, lam)[0].total_mass for lam in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(masses, masses[1:]))


class TestR0Builder:
    """The batched R0 assembly from a model's face-time hook."""

    def test_exp_growth_inflow_term(self):
        # x' = x on (lo, 2) with rate x^2: a unit inflow density arrives at x
        # with survival e^{-(x^2 - lo^2)/2} and cocycle lo/x
        lo = 0.5
        m = exponential_growth_model(lo=lo, n=8)
        x = m.grid.blocks[0].centers[:, 0]
        r, _ = apply_R0(m, DensityPair(GridDensity.zero(m.grid), np.ones(1)), 0.0)
        np.testing.assert_allclose(r.values, np.exp(-(x**2 - lo**2) / 2) * lo / x, rtol=1e-12)

    def test_exp_growth_interior_rows(self):
        # R0 of f = 1 at x: int_lo^x e^{-(x^2 - y^2)/2} dy / x (y = the size t earlier)
        lo = 0.5
        m = exponential_growth_model(lo=lo, n=8)
        x = m.grid.blocks[0].centers[:, 0]
        r, _ = apply_R0(m, DensityPair(GridDensity(m.grid, np.ones(8)), np.zeros(1)), 0.0)
        want = [integrate.quad(lambda y: np.exp(-(xi**2 - y**2) / 2), lo, xi, epsabs=1e-13)[0] / xi
                for xi in x]
        np.testing.assert_allclose(r.values, want, rtol=1e-7)

    def test_static_orbit_without_hazard_diverges(self):
        m3 = build_drift_redistribute("m3", n_cells=20, q=0.0)
        with pytest.raises(DivergentIntegralError):
            apply_R0(m3, uniform_pair(m3), 0.0)

    def test_wrong_face_times_are_refused(self):
        m1 = build_drift_redistribute("m1", n_cells=20)
        bad = dataclasses.replace(m1, backward_orbit=lambda X, mode, axis, a: 2.0 * (X[:, 0] - a))
        with pytest.raises(ModelError):
            apply_R0(bad, uniform_pair(bad), 0.0)

    def test_inflow_boundary_without_axis_is_refused(self):
        m1 = build_drift_redistribute("m1", n_cells=20)
        bare = dataclasses.replace(m1, gamma_minus=BoundaryGrid(0, np.array([[0.0]]), np.array([1.0])))
        with pytest.raises(ModelError):
            apply_R0(bare, uniform_pair(bare), 0.0)


class TestK:
    @pytest.mark.parametrize("variant", ["m1", "m3"])
    def test_conservative_chain_preserves_mass(self, variant):
        m = build_drift_redistribute(variant, n_cells=150)
        out = apply_K(m, uniform_pair(m), 0.0)
        assert out.norm(m) == pytest.approx(1.0, abs=1e-9)

    def test_substochastic_with_discount(self):
        m1 = build_drift_redistribute("m1", n_cells=150)
        out = apply_K(m1, uniform_pair(m1), 1.0)
        assert out.norm(m1) < 1.0

    def test_m1_post_jump_density_is_uniform(self):
        m1 = build_drift_redistribute("m1", n_cells=150)
        out = apply_K(m1, uniform_pair(m1), 0.0)
        np.testing.assert_allclose(out.interior.values, 1.0, rtol=1e-9)
        np.testing.assert_allclose(out.boundary, 0.0)

    def test_agrees_with_single_step_monte_carlo(self):
        # one chain sweep vs the histogram of simulated first post-jump states
        m3 = build_drift_redistribute("m3", n_cells=20, q=1.0)
        f0 = GridDensity(m3.grid, 0.5 + m3.grid.blocks[0].centers[:, 0]).normalized()
        predicted = apply_K(m3, DensityPair(f0, np.zeros(0)), 0.0)
        rng = np.random.default_rng(23)
        counts = np.zeros(m3.grid.n_cells)
        n = 20_000
        for _ in range(n):
            x0 = sample_from_density(m3, f0, rng)
            path = simulate_path(m3, x0, 1e9, rng, max_jumps=1)
            post = path.events[0].post_state
            counts[m3.grid.locate(post.coords[None, :], post.mode)[0]] += 1
        mc = counts / n / m3.grid.weights
        l1 = float(np.abs(mc - predicted.interior.values) @ m3.grid.weights)
        assert l1 < 0.05


class TestInvariant:
    def test_m1_fixed_point_is_uniform(self):
        m1 = build_drift_redistribute("m1", n_cells=150)
        res = invariant_of_K(m1, tol=1e-10)
        assert res.iterations == 1
        assert res.residual < 1e-12
        np.testing.assert_allclose(res.pair.interior.values, 1.0, atol=1e-10)

    def test_cell_cycle_period_two_chain_converges(self):
        # post-jump states alternate interior/boundary; the damped iteration
        # must still settle on the half/half invariant pair
        model = build_cell_cycle(CellCycleParams(n_x=100, x_max=20.0, n_y=4))
        res = invariant_of_K(model, tol=1e-10)
        assert res.residual < 1e-8
        assert res.pair.interior.total_mass == pytest.approx(0.5, abs=1e-6)
        bmass = float(res.pair.boundary @ model.gamma_minus.weights)
        assert bmass == pytest.approx(0.5, abs=1e-6)

    def test_no_invariant_without_jumps(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        with pytest.raises(NoInvariantDensityError):
            invariant_of_K(m2)

    def test_zero_init_rejected(self):
        m1 = build_drift_redistribute("m1", n_cells=50)
        zero = DensityPair(GridDensity.zero(m1.grid), np.zeros(1))
        with pytest.raises(ValueError):
            invariant_of_K(m1, init=zero)


class TestLiftAndProjection:
    def test_m1_lift_is_linear_density(self):
        m1 = build_drift_redistribute("m1", n_cells=200)
        res = invariant_of_K(m1)
        f_star, c = lift_invariant(m1, res.pair)
        assert c == pytest.approx(0.5, abs=1e-12)
        centers = m1.grid.blocks[0].centers[:, 0]
        np.testing.assert_allclose(f_star.values, 2.0 * centers, rtol=1e-10)

    def test_round_trip(self):
        m1 = build_drift_redistribute("m1", n_cells=200)
        res = invariant_of_K(m1)
        f_star, _ = lift_invariant(m1, res.pair)
        back = project_invariant(m1, f_star)
        l1 = float(np.abs(back.interior.values - res.pair.interior.values) @ m1.grid.weights)
        assert l1 < 1e-6

    def test_m3_lift_reproduces_jump_density(self):
        # pure jump at constant rate: f* equals the chain's invariant density
        m3 = build_drift_redistribute("m3", n_cells=100, q=3.0)
        res = invariant_of_K(m3)
        f_star, c = lift_invariant(m3, res.pair)
        assert c == pytest.approx(1.0 / 3.0, rel=1e-9)
        np.testing.assert_allclose(f_star.values, res.pair.interior.values, rtol=1e-9)


class TestDefect:
    def test_conservative_models(self):
        for variant in ("m1", "m3"):
            m = build_drift_redistribute(variant, n_cells=100)
            assert k_stochasticity_defect(m, uniform_pair(m)) == pytest.approx(0.0, abs=1e-9)

    def test_jumpless_model_loses_everything(self):
        m2 = build_drift_redistribute("m2", n_cells=100)
        assert k_stochasticity_defect(m2, uniform_pair(m2)) == 1.0
