import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate, sparse

from pdmpkit import (
    BoundaryGrid,
    CellCycleParams,
    ContinuousAxis,
    ConvergenceError,
    DensityPair,
    DivergentIntegralError,
    GridDensity,
    KineticSlabParams,
    ModelError,
    NoInvariantDensityError,
    StatePoint,
    apply_K,
    apply_R0,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    invariant_of_K,
    k_stochasticity_defect,
    lift_invariant,
    project_invariant,
)
from pdmpkit import chain, simulate

from test_core import exponential_growth_model


def uniform_pair(model):
    return DensityPair(GridDensity.uniform(model.grid), np.zeros(model.gamma_minus.n_cells))


def r0_blocks(model, lam):
    """The four R0 blocks (interior and outgoing-boundary rows, interior and
    inflow-boundary columns) as dense arrays, one apply_R0 per unit vector."""
    n, n_b, n_p = model.grid.n_cells, model.gamma_minus.n_cells, model.gamma_plus.n_cells
    A = np.zeros((n + n_p, n + n_b))
    for i, e in enumerate(np.eye(n + n_b)):
        r, out = apply_R0(model, DensityPair(GridDensity(model.grid, e[:n]), e[n:]), lam)
        A[:, i] = np.concatenate([r.values, out])
    return A[:n, :n], A[:n, n:], A[n:, :n], A[n:, n:]


def whole_rows(model, mode, X, lam):
    """The whole rows of chain._rows at the points X: (interior, inflow) CSR."""
    rows = chain._rows(model, mode, X, lam)
    return rows[:, :model.grid.n_cells], rows[:, model.grid.n_cells:]


def dense_r0(model, lam):
    """The whole-row R0 of chain._rows at the cell centers and the outgoing-boundary
    points: (interior rows, outgoing rows), each an (interior, inflow) CSR pair."""
    cells = [whole_rows(model, b.mode, b.centers, lam) for b in model.grid.blocks]
    cells = tuple(sparse.vstack(m, format="csr") for m in zip(*cells))
    return cells, whole_rows(model, model.gamma_plus.mode, model.gamma_plus.points, lam)


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
        m_int, b_int, m_out, b_out = r0_blocks(m3, 0.0)
        assert m_int.shape == (30, 30)
        assert b_int.shape == (30, 0) and b_out.shape == (0, 0)
        assert m_out.shape == (0, 30)

    def test_discount_shrinks_mass_monotonically(self):
        m1 = build_drift_redistribute("m1", n_cells=100)
        pair = uniform_pair(m1)
        masses = [apply_R0(m1, pair, lam)[0].total_mass for lam in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(masses, masses[1:]))


def _reach(m_int, x):
    """How far behind its center each row of a 1-d drift's R0 reaches: the
    distance to the center of its farthest cell."""
    coo = m_int.tocoo()
    farthest = np.full(x.size, np.inf)
    np.minimum.at(farthest, coo.row, x[coo.col])
    return x - farthest


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

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_static_orbit_cutoff_by_root_finding(self, lam):
        # m3's orbits never leave the grid: each stops where lam t + q t reaches the
        # cutoff, and R0 is 1 / (lam + q) on the diagonal, with or without a closed form
        m3 = build_drift_redistribute("m3", n_cells=6, q=2.0)
        want = r0_blocks(m3, lam)
        got = r0_blocks(dataclasses.replace(m3, cumulative_hazard=None), lam)
        np.testing.assert_allclose(want[0], np.eye(6) / (lam + 2.0), rtol=0, atol=1e-9)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9 * np.abs(b).max(initial=0.0))

    def test_cutoff_stops_drifting_orbits(self):
        # m1 at lam = 100: the discount exponent 100 t reaches the cutoff 45 at t = 0.45, so
        # only orbits from x < 0.45 reach Gamma- (with weight e^{-100 x}), and no row
        # reaches more than 0.45 behind its center
        m1 = build_drift_redistribute("m1", n_cells=200)
        m_int, b_int = whole_rows(m1, 0, m1.grid.blocks[0].centers, 100.0)
        x = m1.grid.blocks[0].centers[:, 0]
        want = np.where(x < 0.45, np.exp(-100.0 * x), 0.0)
        np.testing.assert_allclose(b_int.toarray()[:, 0], want, rtol=1e-12, atol=0)
        assert _reach(m_int, x).max() <= 0.45 + 1e-9

    def test_cutoff_stops_orbits_that_never_hit_gamma_minus(self):
        # m2 on (0, 10) at lam = 9: orbits leave through the face at 0 or stop at t = 45/9
        m2 = build_drift_redistribute("m2", n_cells=200, span=(0.0, 10.0))
        m_int = whole_rows(m2, 0, m2.grid.blocks[0].centers, 9.0)[0]
        x = m2.grid.blocks[0].centers[:, 0]
        reach = _reach(m_int, x)
        assert reach.max() <= 5.0 + 1e-9
        np.testing.assert_allclose(reach[x > 5.0], 5.0, rtol=0, atol=1e-9)

    def test_wrong_face_times_are_refused(self):
        # the face times are checked when the model is built, before any R0 row
        m1 = build_drift_redistribute("m1", n_cells=20)
        with pytest.raises(ModelError):
            bad = dataclasses.replace(m1, backward_orbit=lambda X, m, axis, a: 2.0 * (X[:, 0] - a))
            apply_R0(bad, uniform_pair(bad), 0.0)

    def test_inflow_boundary_without_axis_is_refused(self):
        m1 = build_drift_redistribute("m1", n_cells=20)
        bare = dataclasses.replace(m1, gamma_minus=BoundaryGrid(0, np.array([[0.0]]), np.array([1.0])))
        with pytest.raises(ModelError):
            apply_R0(bare, uniform_pair(bare), 0.0)


def _slab(boundary):
    return build_kinetic_slab(KineticSlabParams(n_x=60, velocities=(-1.0, -0.5, 0.5, 1.0),
                                                nu_weights=(1.0,) * 4, kernel=np.ones((4, 4)),
                                                boundary=boundary))


SWEPT_CASES = [
    *[("m1", lambda: build_drift_redistribute("m1", n_cells=200), lam)
      for lam in (0.0, 1.0, 100.0)],
    ("m2", lambda: build_drift_redistribute("m2", n_cells=200, span=(0.0, 10.0)), 9.0),
    ("m3", lambda: build_drift_redistribute("m3", n_cells=50, q=2.0), 0.5),
    ("exp-growth", lambda: exponential_growth_model(n=20), 0.5),
    ("specular slab", lambda: _slab("specular"), 0.5),
    ("diffuse slab", lambda: _slab("diffuse"), 0.5),
    *[("cell cycle", lambda: build_cell_cycle(CellCycleParams(n_x=200, x_max=20.0, n_y=4)), lam)
      for lam in (0.0, 0.5, 4.0)],
    # one size cell: phase I has no axis to sweep and keeps whole rows next to swept phase II
    ("cell cycle 1x4", lambda: build_cell_cycle(CellCycleParams(n_x=1, x_max=20.0, n_y=4)), 0.5),
]


def _one_axis(model, mode):
    return sum(isinstance(a, ContinuousAxis) for a in model.grid.block(mode).axes) <= 1


def _cycle_phase_two(model, lam, f, fb):
    """Swept and whole-row R0 of (f, fb) on cell-cycle phase II, its cell centers
    then its outgoing-boundary points: (swept, whole rows, points, weights)."""
    b = model.grid.block(1)
    r, out = apply_R0(model, DensityPair(GridDensity(model.grid, f), fb), lam)
    rows = [whole_rows(model, 1, X, lam) for X in (b.centers, model.gamma_plus.points)]
    return (np.concatenate([r.values[model.grid.block_slice(1)], out]),
            np.concatenate([m @ f + mb @ fb for m, mb in rows]),
            np.concatenate([b.centers, model.gamma_plus.points]),
            np.concatenate([b.weights, model.gamma_plus.weights]))


class TestSweep:
    """R0 swept face to face, against the whole rows of chain._rows."""

    @pytest.mark.parametrize("name, build, lam", SWEPT_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in SWEPT_CASES])
    def test_sweep_matches_whole_rows(self, name, build, lam):
        # to roundoff on blocks with one continuous axis; the cell cycle's phase II
        # interpolates its pickups, and the tests below bound its difference
        model = build()
        (m_int, b_int), (m_out, b_out) = dense_r0(model, lam)
        rows = np.concatenate([np.full(b.n_cells, _one_axis(model, b.mode))
                               for b in model.grid.blocks])
        rng = np.random.default_rng(7)
        for _ in range(3):
            f, fb = rng.random(model.grid.n_cells), rng.random(model.gamma_minus.n_cells)
            r, out = apply_R0(model, DensityPair(GridDensity(model.grid, f), fb), lam)
            pairs = [(r.values[rows], (m_int @ f + b_int @ fb)[rows])]
            if _one_axis(model, model.gamma_plus.mode):
                pairs.append((out, m_out @ f + b_out @ fb))
            for got, want in pairs:
                scale = np.abs(want).max(initial=0.0)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_cell_cycle_phase_two_converges_to_whole_rows(self):
        # smooth data, away from the corner characteristic x = y, where whole rows
        # jump between picking up the inflow boundary and leaving through x = 0
        errors = []
        for n_x in (150, 300, 600):
            model = build_cell_cycle(CellCycleParams(n_x=n_x, x_max=20.0, n_y=4))
            X = np.concatenate([b.centers for b in model.grid.blocks])
            f = np.cos(X[:, 0]) ** 2 * (1.0 + X[:, 1])
            fb = 1.0 + np.sin(model.gamma_minus.points[:, 0]) ** 2
            got, want, P, w = _cycle_phase_two(model, 0.0, f, fb)
            away = P[:, 0] - P[:, 1] > 0.5
            errors.append(np.abs(got - want)[away] @ w[away] / (np.abs(want)[away] @ w[away]))
        assert max(errors) < 1e-3
        assert errors[1] < errors[0] / 1.5 and errors[2] < errors[1] / 1.5

    @pytest.mark.parametrize("n_x", [400, 1200])
    def test_cell_cycle_outgoing_rows_exact_when_clock_slabs_span_whole_cells(self, n_x):
        # dy / dx is an integer, so every pickup lands on a face point
        model = build_cell_cycle(CellCycleParams(n_x=n_x, x_max=20.0, n_y=4))
        rng = np.random.default_rng(7)
        f, fb = rng.random(model.grid.n_cells), rng.random(model.gamma_minus.n_cells)
        got, want, _, _ = _cycle_phase_two(model, 0.0, f, fb)
        out = slice(model.grid.block(1).n_cells, None)
        np.testing.assert_allclose(got[out], want[out], rtol=0, atol=1e-12 * np.abs(want[out]).max())

    def test_exact_landings_store_no_roundoff_corner(self):
        # dy / dx = 5, so every outgoing-boundary row of phase II picks up on a face
        # point; roundoff in its corner fraction must not add a near-zero second corner
        model = build_cell_cycle(CellCycleParams(n_x=400, x_max=20.0, n_y=4))
        rows = chain._matrices(model, 0.0)[0]
        pickups = rows[:, model.grid.n_cells + model.gamma_minus.n_cells:]
        assert pickups.nnz and np.count_nonzero(np.abs(pickups.data) < 1e-9) == 0

    @pytest.mark.parametrize("name, build, lam", SWEPT_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in SWEPT_CASES])
    def test_rows_store_interior_then_inflow_then_face_entries(self, name, build, lam):
        # the stored order of each row fixes the summation order of every apply_R0;
        # pickups that are zero (not taken, or a zero corner weight) are not stored
        model = build()
        rows = chain._matrices(model, lam)[0]
        n_cells, n_pair = model.grid.n_cells, model.grid.n_cells + model.gamma_minus.n_cells
        assert rows.shape[1] >= n_pair
        part = np.searchsorted([n_cells, n_pair], rows.indices, side="right")
        row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
        assert np.all(np.diff(part)[row[1:] == row[:-1]] >= 0)
        assert np.all(rows.data[part > 0] != 0)

    def test_cache_does_not_keep_its_model_alive(self):
        gc.collect()
        cached = len(chain._CACHE)
        m1 = build_drift_redistribute("m1", n_cells=50)
        apply_R0(m1, uniform_pair(m1), 0.0)
        assert len(chain._CACHE) == cached + 1
        ref = weakref.ref(m1)
        del m1
        gc.collect()
        assert ref() is None
        assert len(chain._CACHE) == cached

    def test_cell_cycle_rows_stay_linear_in_the_grid(self):
        # on the 2000 x 4 cell cycle, whole rows held 2.0 M nonzeros in phase I and 0.6 M in
        # phase II and its outgoing-boundary rows; swept across the clock axis, all rows,
        # the face points and the factorized transfer stay under 0.4 M
        model = build_cell_cycle(CellCycleParams(n_x=2000, x_max=20.0, n_y=4))
        rows, face_rows, lu = chain._matrices(model, 0.0)
        stored = [rows, face_rows, lu.L, lu.U]
        assert sum(m.nnz for m in stored) < 400_000


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
        n = 20_000
        # every path is censored right after its first jump, where the engine leaves it
        X, _, censored = next(simulate._run_chunks(m3, f0, 1e9, n, 23, max_jumps=1))
        assert censored.all()
        counts = np.bincount(m3.grid.locate(X, 0), minlength=m3.grid.n_cells)
        mc = counts / n / m3.grid.weights
        l1 = float(np.abs(mc - predicted.interior.values) @ m3.grid.weights)
        assert l1 < 0.05


def power_invariant(model, tol=1e-14, max_iters=20_000):
    """The chain's invariant pair by normalized power iteration, each sweep
    averaged with the previous iterate so that a chain alternating between
    interior and boundary states settles too: the oracle for invariant_of_K."""
    pair = uniform_pair(model)
    for _ in range(max_iters):
        swept = apply_K(model, pair, 0.0)
        mean = 0.5 * (swept.interior.values + pair.interior.values)
        mixed = DensityPair(GridDensity(model.grid, mean), 0.5 * (swept.boundary + pair.boundary))
        mixed = mixed.scaled(1.0 / mixed.norm(model))
        if mixed.l1(pair, model) < tol:
            return mixed
        pair = mixed
    raise AssertionError(f"the power iteration did not converge in {max_iters} sweeps")


_INVARIANT_CASES = [
    ("m1", lambda: build_drift_redistribute("m1", n_cells=150)),
    ("diffuse slab", lambda: _slab("diffuse")),
    ("cell cycle", lambda: build_cell_cycle(CellCycleParams(n_x=100, x_max=20.0, n_y=4))),
]


class TestInvariant:
    def test_m1_fixed_point_is_uniform(self):
        m1 = build_drift_redistribute("m1", n_cells=150)
        res = invariant_of_K(m1, tol=1e-10)
        assert res.iterations == 1
        assert res.residual < 1e-12
        np.testing.assert_allclose(res.pair.interior.values, 1.0, atol=1e-10)

    @pytest.mark.parametrize("name, build", _INVARIANT_CASES,
                             ids=[name for name, _ in _INVARIANT_CASES])
    def test_matches_damped_power_iteration(self, name, build):
        model = build()
        got, want = invariant_of_K(model, tol=1e-10).pair, power_invariant(model)
        assert got.l1(want, model) <= 1e-9

    def test_cell_cycle_period_two_chain_converges(self):
        # post-jump states alternate interior/boundary, so -1 is an eigenvalue
        # of K too; the solve must still settle on the half/half invariant pair
        model = build_cell_cycle(CellCycleParams(n_x=100, x_max=20.0, n_y=4))
        res = invariant_of_K(model, tol=1e-10)
        assert res.residual < 1e-8
        assert res.pair.interior.total_mass == pytest.approx(0.5, abs=1e-6)
        bmass = float(res.pair.boundary @ model.gamma_minus.weights)
        assert bmass == pytest.approx(0.5, abs=1e-6)

    def test_too_few_applications_of_K_raise(self):
        # ARPACK needs about 56 applications of K here; one allows a single restart
        model = build_cell_cycle(CellCycleParams(n_x=400, x_max=20.0, n_y=4))
        with pytest.raises(ConvergenceError):
            invariant_of_K(model, max_iters=1)

    def test_chain_too_small_for_arpack(self):
        # one phase-I cell, one phase-II cell and one inflow cell: three unknowns,
        # too few for ARPACK; K loses mass off the short grid, its top eigenvalue is 0.805
        model = build_cell_cycle(CellCycleParams(n_x=1, n_y=1, x_max=4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invariant_of_K(model, tol=1e-10)
        want = power_invariant(model)
        np.testing.assert_allclose(want.interior.values, [0.1206, 0.0], rtol=0, atol=1e-4)
        np.testing.assert_allclose(want.boundary, [0.1294], rtol=0, atol=1e-4)
        assert res.pair.l1(want, model) <= 1e-9
        assert res.mass_ratio == pytest.approx(0.805, abs=1e-3)

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
