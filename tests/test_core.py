import math

import numpy as np
import pytest

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
    OUT_OF_DOMAIN,
    PdmpModel,
    StatePoint,
    advance,
    cocycle,
    gauss3,
    hazard_integral,
    hitting_time,
    invert_hazard,
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
        P = block.interpolation_matrix(probes)
        assert P.shape == (50, block.n_cells)
        linear = lambda X: 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5
        np.testing.assert_allclose(P @ linear(c), linear(probes), rtol=1e-12)
        np.testing.assert_allclose(P @ np.ones(block.n_cells), 1.0, rtol=1e-14)
        np.testing.assert_array_equal(block.interpolate(linear(c), probes), P @ linear(c))
        assert block.interpolation_matrix(np.zeros((0, 2))).shape == (0, block.n_cells)

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
        P = block.interpolation_matrix(probes)
        np.testing.assert_allclose(P @ np.ones(block.n_cells), [0.5, 0.0, 0.0, 0.0, 1.0],
                                   rtol=1e-12)
        np.testing.assert_array_equal(abs(P).sum(axis=1).A1[1:4], 0.0)
        assert P[4].toarray().ravel().tolist() == [0.0] * 10 + [1.0] + [0.0] * 9

    def test_corners_match_the_interpolation_matrix(self):
        block = ModeBlock(1, [ContinuousAxis.uniform(0.0, 1.0, 4),
                              DiscreteAxis(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))])
        probes = np.array([[0.3, 1.0], [0.9, -1.0]])
        idx, w = block.corners(probes)
        assert idx.shape == w.shape == (2, 2)
        values = np.arange(8.0)
        np.testing.assert_array_equal((w * values[idx]).sum(axis=1),
                                      block.interpolation_matrix(probes) @ values)


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

    def test_invert_hazard_round_trip(self):
        model = exponential_growth_model()
        x = StatePoint(np.array([0.7]), 0)
        xi = 0.3
        s = invert_hazard(model, x, xi, 1.0)
        assert hazard_integral(model, x, s) == pytest.approx(xi, abs=1e-9)

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


def test_out_of_domain_sentinel_is_singleton():
    assert OUT_OF_DOMAIN is type(OUT_OF_DOMAIN)()
    assert repr(OUT_OF_DOMAIN) == "OUT_OF_DOMAIN"


def test_boundary_grid_empty():
    g = BoundaryGrid.empty(2, 0)
    assert g.n_cells == 0
    assert g.total_measure == 0.0


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
