import dataclasses
import math

import numpy as np
import pytest

from pdmpkit import build_drift_redistribute
from pdmpkit.core import (
    BoundaryGrid,
    ContinuousAxis,
    DensityPair,
    DiscreteAxis,
    FlowMap,
    GridDensity,
    InteriorGrid,
    JumpLaw,
    ModeBlock,
    ModelError,
    PdmpModel,
    StatePoint,
    _csr_rows,
    advance,
    cocycle,
    gauss3,
    hazard_crossing,
    hazard_integral,
    hitting_time,
    l1_distance,
    orbit_hazard,
)


def exponential_growth_model(lo=0.5, hi=2.0, n=50):
    """1-d flow x' = x on (lo, hi): phi_t(x) = x e^t, J_t = e^t."""
    axis = ContinuousAxis.uniform(lo, hi, n)
    grid = InteriorGrid([ModeBlock(0, [axis])])

    def phi(t, X, mode):
        X = np.atleast_2d(X)
        t = np.asarray(t, dtype=float)
        out = X.copy()
        out[:, 0] = X[:, 0] * np.exp(t)
        return out

    jac = lambda t, X, mode: np.exp(np.broadcast_to(np.asarray(t, dtype=float),
                                                    (np.atleast_2d(X).shape[0],)))
    hit_plus = lambda X, mode: np.log(hi / np.atleast_2d(X)[:, 0])
    hit_minus = lambda X, mode: np.log(np.atleast_2d(X)[:, 0] / lo)
    rate = lambda X, mode: np.atleast_2d(X)[:, 0] ** 2

    def sample(X, mode, rng):
        n = X.shape[0]
        return lo + (hi - lo) * rng.random((n, 1)), np.zeros(n, dtype=np.int64)

    return PdmpModel(
        name="exp-growth",
        flow=FlowMap(phi=phi, jac=jac, hit_plus=hit_plus, hit_minus=hit_minus),
        grid=grid,
        gamma_minus=BoundaryGrid(0, np.array([[lo]]), np.array([lo]),
                                 axis=(0, DiscreteAxis([lo], [1.0]))),
        gamma_plus=BoundaryGrid(0, np.array([[hi]]), np.array([hi])),
        rate=rate,
        jump=JumpLaw(sample=sample,
                     p0=lambda h, hp: np.zeros(grid.n_cells),
                     p_partial=lambda h, hp: np.zeros(1)),
        backward_orbit=lambda X, mode, axis, a: np.log(X[:, 0] / a),
        in_state_space=lambda X, m: (lo <= X[:, 0]) & (X[:, 0] <= hi),
    )


class TestAxesAndGrid:
    def test_axis_basics(self):
        ax = ContinuousAxis.uniform(0.0, 2.0, 8)
        assert ax.n == 8
        assert ax.dx == pytest.approx(0.25)
        assert ax.centers[0] == pytest.approx(0.125)
        assert ax.centers[-1] == pytest.approx(1.875)

    def test_locate_and_out_of_range(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10)])])
        idx = grid.locate(np.array([[0.05], [0.95], [1.5], [-0.1]]), 0)
        assert list(idx) == [0, 9, -1, -1]

    def test_interpolate_linear_exact(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 40)])])
        vals = 3.0 * grid.blocks[0].centers[:, 0] + 1.0
        probes = np.array([[0.3], [0.55], [0.9001]])
        out = grid.interpolate(vals, probes, 0)
        np.testing.assert_allclose(out, 3.0 * probes[:, 0] + 1.0, rtol=1e-12)

    def test_interpolate_ghost_zeros_outside(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10)])])
        vals = np.ones(10)
        far = grid.interpolate(vals, np.array([[1.2], [-0.2]]), 0)
        np.testing.assert_array_equal(far, [0.0, 0.0])

    @pytest.mark.parametrize("faces", [[0.0, 1.0, 3.0], [1.0, 0.0], [0.0, 0.0],
                                       [0.0, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf]],
                             ids=["unequal", "decreasing", "flat", "nan", "nan last", "inf"])
    def test_continuous_axis_refuses_faces_it_cannot_describe(self, faces):
        # cells are located and weighed by faces[1] - faces[0] alone
        with pytest.raises(ValueError, match="finite, increasing and equally spaced"):
            ContinuousAxis(faces)

    def test_continuous_axis_takes_roundoff_spacing(self):
        ContinuousAxis(np.linspace(-3.0, 7.0, 2001))
        ContinuousAxis([0.0, 0.1, 0.2, 0.30000000000000004])

    @pytest.mark.parametrize("values, weights, message", [
        ([0.0, 1.0], [1.0, np.nan], "weights must be finite and positive"),
        ([0.0, 1.0], [np.inf, 1.0], "weights must be finite and positive"),
        ([0.0, 1.0], [1.0, 0.0], "weights must be finite and positive"),
        ([0.0, np.nan], [1.0, 1.0], "values must be finite"),
        ([0.0, np.inf], [1.0, 1.0], "values must be finite"),
        ([1.0, 0.0, 1.0], [1.0, 1.0, 1.0], "values must be distinct"),
        ([1.0, 1.0 + 1e-12], [1.0, 1.0], "values must be distinct"),
    ], ids=["nan weight", "inf weight", "zero weight", "nan value", "inf value", "repeated",
            "within roundoff"])
    def test_discrete_axis_refuses_what_nearest_cannot_tell(self, values, weights, message):
        with pytest.raises(ValueError, match=message):
            DiscreteAxis(values, weights)

    def test_two_mode_offsets(self):
        b0 = ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 4)])
        b1 = ModeBlock(1, [ContinuousAxis.uniform(0.0, 1.0, 4),
                           DiscreteAxis(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))])
        grid = InteriorGrid([b0, b1])
        assert grid.n_cells == 4 + 8
        assert grid.block_slice(1) == slice(4, 12)

    def test_interpolation_matrix_reproduces_linear_functions(self):
        block = ModeBlock(0, [ContinuousAxis.uniform(0.0, 2.0, 16),
                              ContinuousAxis.uniform(-1.0, 1.0, 8)])
        c = block.centers
        rng = np.random.default_rng(4)
        # probes anywhere between the outermost cell centers
        probes = np.column_stack([rng.uniform(c[:, 0].min(), c[:, 0].max(), 50),
                                  rng.uniform(c[:, 1].min(), c[:, 1].max(), 50)])
        probes[:3] = c[[0, 17, -1]]
        P = _csr_rows(*block.corners(probes), block.n_cells)
        assert P.shape == (50, block.n_cells)
        linear = lambda X: 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5
        np.testing.assert_allclose(P @ linear(c), linear(probes), rtol=1e-12)
        np.testing.assert_allclose(P @ np.ones(block.n_cells), 1.0, rtol=1e-14)
        grid = InteriorGrid([block])
        np.testing.assert_array_equal(grid.interpolate(linear(c), probes, 0), P @ linear(c))
        assert grid.interpolate(linear(c), np.zeros((0, 2)), 0).shape == (0,)
        empty = _csr_rows(*block.corners(np.zeros((0, 2))), block.n_cells)
        assert empty.shape == (0, block.n_cells)

    def test_interpolation_matrix_ghost_zeros_and_discrete_misses(self):
        block = ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10),
                              DiscreteAxis(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))])
        probes = np.array([
            [0.0, 1.0],     # on the edge: halfway to the ghost cell center
            [-0.06, 1.0],   # beyond the ghost half-cell
            [1.06, -1.0],
            [0.5, 0.5],     # off the discrete axis
            [0.55, -1.0],   # a cell center
        ])
        idx, w = block.corners(probes)
        assert idx.shape == w.shape == (5, 2)  # the continuous axis doubles, the discrete keeps
        P = _csr_rows(idx, w, block.n_cells)
        np.testing.assert_allclose(P @ np.ones(block.n_cells), [0.5, 0.0, 0.0, 0.0, 1.0],
                                   rtol=1e-12)
        np.testing.assert_array_equal(abs(P).sum(axis=1).A1[1:4], 0.0)
        assert P[4].toarray().ravel().tolist() == [0.0] * 10 + [1.0] + [0.0] * 9


class TestNearest:
    """DiscreteAxis.nearest against the (points x values) distance table."""

    @staticmethod
    def _by_table(values, x):
        d = np.abs(x[:, None] - values[None, :])
        j = np.argmin(d, axis=1)
        return j, d[np.arange(x.size), j] <= 1e-9 * max(1.0, float(np.abs(values).max()))

    @pytest.mark.parametrize("values", [[0.0], [3.0, -1.0, 0.5, 2.0], [-40.0, 25.0, 7.5]],
                             ids=["one value", "unsorted", "wide"])
    def test_agrees_with_the_distance_table(self, values):
        ax = DiscreteAxis(values, np.ones(len(values)))
        tol = 1e-9 * max(1.0, float(np.abs(ax.values).max()))
        v = np.sort(ax.values)
        x = np.concatenate([ax.values, ax.values + 0.5 * tol, ax.values - 0.5 * tol,
                            ax.values + 2.0 * tol, ax.values - 2.0 * tol,
                            v[:-1] + 0.3 * np.diff(v), v[:-1] + 0.7 * np.diff(v),
                            [v[0] - 10.0, v[-1] + 10.0]])
        j, on = ax.nearest(x)
        want_j, want_on = self._by_table(ax.values, x)
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_array_equal(on, want_on)
        n = ax.n
        assert on[:3 * n].all() and not on[3 * n:].any()

    def test_random_points_on_a_large_axis(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(np.linspace(-5.0, 5.0, 300))
        x = rng.uniform(-6.0, 6.0, 2000)
        x[:300] = values
        j, on = DiscreteAxis(values, np.ones(300)).nearest(x)
        want_j, want_on = self._by_table(values, x)
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_array_equal(on, want_on)

    def test_memory_does_not_grow_with_points_times_values(self):
        import tracemalloc

        ax = DiscreteAxis(np.linspace(0.0, 1.0, 5000), np.ones(5000))
        x = np.random.default_rng(0).random(5000)
        tracemalloc.start()
        try:
            ax.nearest(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 5000 x 5000 distance table takes 200 MB


class TestDerivedGeometry:
    def test_exp_growth_entry_cell_and_crossing_time(self):
        model = exponential_growth_model(n=30)
        np.testing.assert_array_equal(model.entry_cells, [0])
        # the narrowest crossing is the last cell, [1.95, 2]
        assert model.min_crossing_time == pytest.approx(math.log(2.0 / 1.95), rel=1e-12)

    @pytest.mark.parametrize("side", ["gamma_minus", "gamma_plus"])
    def test_boundary_point_off_the_grid_is_rejected(self, side):
        model = exponential_growth_model()
        with pytest.raises(ModelError, match="off the grid"):
            dataclasses.replace(model, **{side: BoundaryGrid(0, np.array([[2.5]]), np.array([1.0]))})

    def test_boundary_the_flow_never_reaches_is_rejected(self):
        model = exponential_growth_model()
        never = dataclasses.replace(model.flow, hit_plus=lambda X, mode: np.full(X.shape[0], np.inf))
        with pytest.raises(ModelError, match="positive and finite"):
            dataclasses.replace(model, flow=never)


class TestGridDensity:
    def test_mass_and_normalization(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 2.0, 20)])])
        f = GridDensity(grid, np.full(20, 3.0))
        assert f.total_mass == pytest.approx(6.0)
        assert f.normalized().total_mass == pytest.approx(1.0)

    def test_uniform_has_unit_mass(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 5.0, 13)])])
        assert GridDensity.uniform(grid).total_mass == pytest.approx(1.0)

    def test_negative_values_rejected(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 4)])])
        with pytest.raises(ValueError):
            GridDensity(grid, np.array([1.0, -0.5, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pair_with_non_finite_boundary_values_rejected(self, bad):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 4)])])
        with pytest.raises(ValueError, match="boundary density values must be finite"):
            DensityPair(GridDensity.uniform(grid), np.array([0.5, bad]))

    def test_pair_l1_is_the_hand_sum(self):
        model = exponential_growth_model()
        rng = np.random.default_rng(0)
        f, g = (GridDensity(model.grid, rng.random(model.grid.n_cells)) for _ in range(2))
        a, b = DensityPair(f, np.array([0.3])), DensityPair(g, np.array([1.1]))
        hand = float(np.sum(np.abs(f.values - g.values) * model.grid.weights)) + 0.8 * 0.5
        assert a.l1(b, model) == pytest.approx(hand, rel=1e-14)
        assert b.l1(a, model) == a.l1(b, model)

    def test_l1_distance(self):
        grid = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 4)])])
        f = GridDensity(grid, np.array([1.0, 1.0, 1.0, 1.0]))
        g = GridDensity(grid, np.array([1.0, 3.0, 1.0, 1.0]))
        assert l1_distance(f, g) == pytest.approx(0.5)


class TestFlowOperations:
    def setup_method(self):
        self.model = exponential_growth_model()

    def test_advance_matches_closed_form(self):
        x = StatePoint(np.array([0.8]), 0)
        y = advance(self.model, x, 0.5)
        assert isinstance(y, StatePoint)
        assert y.coords[0] == pytest.approx(0.8 * math.exp(0.5), rel=1e-12)

    def test_advance_clamps_at_boundary(self):
        x = StatePoint(np.array([1.9]), 0)
        out = advance(self.model, x, 10.0)
        assert isinstance(out, tuple)
        point, side = out
        assert side == "plus"
        assert point.coords[0] == pytest.approx(2.0, rel=1e-12)

    def test_advance_backward_to_incoming_boundary(self):
        x = StatePoint(np.array([0.6]), 0)
        point, side = advance(self.model, x, -10.0)
        assert side == "minus"
        assert point.coords[0] == pytest.approx(0.5, rel=1e-12)

    def test_cocycle_closed_form_and_finite_difference(self):
        x = StatePoint(np.array([1.0]), 0)
        t = 0.5
        assert cocycle(self.model, x, t) == pytest.approx(math.exp(0.5), rel=1e-12)
        # volume factor agrees with d(phi_t)/dx by central differences
        eps = 1e-6
        up = advance(self.model, StatePoint(np.array([1.0 + eps]), 0), t)
        dn = advance(self.model, StatePoint(np.array([1.0 - eps]), 0), t)
        fd = (up.coords[0] - dn.coords[0]) / (2 * eps)
        assert cocycle(self.model, x, t) == pytest.approx(fd, rel=1e-6)

    def test_hitting_times(self):
        x = StatePoint(np.array([1.0]), 0)
        assert hitting_time(self.model, x, "forward") == pytest.approx(math.log(2.0))
        assert hitting_time(self.model, x, "backward") == pytest.approx(math.log(2.0))
        with pytest.raises(ValueError):
            hitting_time(self.model, x, "sideways")

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ModelError):
            advance(self.model, StatePoint(np.array([1.0, 2.0]), 0), 0.1)

    def test_unknown_mode_raises(self):
        with pytest.raises(ModelError):
            advance(self.model, StatePoint(np.array([1.0]), 3), 0.1)


class TestHazard:
    def test_quadrature_against_closed_form(self):
        # rate x^2 along x e^t: integral = x^2 (e^{2t} - 1) / 2
        model = exponential_growth_model()
        x = StatePoint(np.array([0.7]), 0)
        t = 0.4
        expected = 0.7**2 * (math.exp(2 * t) - 1) / 2
        assert hazard_integral(model, x, t) == pytest.approx(expected, rel=1e-8)

    def test_orbit_hazard_quadrature_with_per_row_times(self):
        model = exponential_growth_model()
        x = np.array([0.6, 0.7, 1.3])
        t = np.array([0.0, 0.4, 0.2])
        expected = x**2 * np.expm1(2 * t) / 2
        np.testing.assert_allclose(orbit_hazard(model, x[:, None], 0, t), expected,
                                   rtol=1e-8, atol=1e-14)
        np.testing.assert_allclose(orbit_hazard(model, x[:, None], 0, 0.4),
                                   x**2 * np.expm1(0.8) / 2, rtol=1e-8)

    def test_hazard_crossing_round_trip(self):
        # rate x^2 along x e^t: the hazard reaches xi at t = log(1 + 2 xi / x^2) / 2
        model = exponential_growth_model()
        x = np.array([0.6, 0.7, 1.1, 1.5, 0.9])
        xi = np.array([0.05, 0.3, 0.2, 0.5, 5.0])
        tp = model.flow.hit_plus(x[:, None], 0)
        s = hazard_crossing(model, x[:, None], 0, xi, horizon=tp)
        exact = 0.5 * np.log1p(2.0 * xi / x**2)
        assert np.all(exact[:4] < tp[:4]) and exact[4] > tp[4]
        np.testing.assert_allclose(s[:4], exact[:4], rtol=0, atol=1e-9)
        assert s[4] == tp[4]  # the horizon comes first
        np.testing.assert_allclose(orbit_hazard(model, x[:4, None], 0, s[:4]), xi[:4], rtol=1e-8)

    def test_hazard_crossing_bounded_hazard(self):
        # open orbits x + t with rate e^{-x}: H(t) = e^{-x} (1 - e^{-t}) never reaches e^{-x}
        m2 = build_drift_redistribute("m2", n_cells=10)
        model = dataclasses.replace(m2, rate=lambda X, mode: np.exp(-X[:, 0]),
                                    cumulative_hazard=None, inverse_hazard=None)
        x = np.array([0.5, 1.0, 2.0, 0.5, 3.0])
        xi = np.exp(-x) * np.array([0.3, 0.9, 0.01, 1.2, 1.01])
        s = hazard_crossing(model, x[:, None], 0, xi, horizon=model.flow.hit_plus(x[:, None], 0))
        np.testing.assert_allclose(s[:3], -np.log1p(-xi[:3] * np.exp(x[:3])), rtol=0, atol=1e-9)
        assert np.all(np.isinf(s[3:]))

    def test_negative_time_rejected(self):
        model = exponential_growth_model()
        with pytest.raises(ValueError):
            hazard_integral(model, StatePoint(np.array([0.7]), 0), -1.0)


def test_gauss3_is_exact_for_quintics():
    quintic = lambda t: 3 * t**5 - t**4 + 2 * t**2 - 7
    anti = lambda t: t**6 / 2 - t**5 / 5 + 2 * t**3 / 3 - 7 * t
    a = np.array([0.0, -1.5, 2.0, 0.25])
    b = np.array([1.0, 0.5, 5.0, 0.3])
    c = np.array([1.0, -2.0, 0.5, 3.0])  # per-interval scale: f must see the right index
    got = gauss3(a, b, np.array([1, 3, 7, 2]), lambda t, seg: c[seg] * quintic(t))
    np.testing.assert_allclose(got, c * (anti(b) - anti(a)), rtol=1e-12)


def test_boundary_grid_empty():
    g = BoundaryGrid.empty(2, 0)
    assert g.n_cells == 0
    assert g.weights.sum() == 0.0


def test_boundary_axis_must_reproduce_the_points():
    # the cells of the axis must be the boundary cells, in order
    with pytest.raises(ModelError):
        BoundaryGrid(0, np.array([[0.0]]), np.array([1.0]), axis=(0, DiscreteAxis([0.5], [1.0])))
    pts = np.array([[0.0, -1.0], [1.0, 1.0]])
    with pytest.raises(ModelError):
        BoundaryGrid(0, pts, np.ones(2), axis=(1, DiscreteAxis([1.0, -1.0], [1.0, 1.0])))
    g = BoundaryGrid(0, pts, np.ones(2), axis=(1, DiscreteAxis([-1.0, 1.0], [1.0, 1.0])))
    idx, w = g.stencil(pts)
    np.testing.assert_array_equal(idx[:, 0], [0, 1])
    np.testing.assert_array_equal(w[:, 0], [1.0, 1.0])
