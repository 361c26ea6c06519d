import math

import numpy as np
import pytest

from pdmpkit import (
    CellCycleParams,
    GridDensity,
    KineticSlabParams,
    ModelError,
    StatePoint,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    cell_cycle_lift,
    hitting_time,
    p1_apply,
    p1_invariant,
)
from pdmpkit import chain


class TestDriftRedistribute:
    def test_unknown_variant(self):
        with pytest.raises(ModelError):
            build_drift_redistribute("m9")

    def test_parameters_recorded(self):
        m = build_drift_redistribute("m3", n_cells=64, q=2.5)
        assert m.params["q"] == 2.5
        assert m.params["n_cells"] == 64

    def test_m3_inverse_hazard(self):
        m = build_drift_redistribute("m3", q=4.0)
        assert m.inverse_hazard(np.array([[0.5]]), 0, np.array([2.0]))[0] == pytest.approx(0.5)

    def test_m2_sampler_refuses(self):
        m = build_drift_redistribute("m2")
        with pytest.raises(ModelError):
            m.jump.sample(np.array([[1.0]]), 0, np.random.default_rng(0))

    def test_m1_restart_lands_inside(self):
        m = build_drift_redistribute("m1")
        rng = np.random.default_rng(1)
        for _ in range(20):
            X, modes = m.jump.sample(np.array([[1.0]]), 0, rng)
            assert 0.0 <= X[0, 0] <= 1.0


class TestCellCycleDivision:
    def test_division_operator_closed_form(self):
        # toy rates: P1 f1(x) = 2 e^{1-2x} int_0^{2x-1} e^z f1(z) dz; with
        # f1 = 1 on (1/2, 3/2) the inner integral is elementary
        p = CellCycleParams(n_x=2000, x_max=20.0)
        ax = p.size_axis()
        x = ax.centers
        f1 = np.where((x > 0.5) & (x < 1.5), 1.0, 0.0)
        got = p1_apply(p, f1)
        upper = np.clip(2 * x - 1, 0.5, 1.5)
        expected = np.where(upper > 0.5, 2 * np.exp(1 - 2 * x) * (np.exp(upper) - np.exp(0.5)), 0.0)
        assert float(np.abs(got - expected).sum() * ax.dx) < 2e-3

    def test_division_preserves_mass(self):
        p = CellCycleParams(n_x=500, x_max=20.0)
        rng = np.random.default_rng(2)
        x = p.size_axis().centers
        f1 = np.where((x > 0.5) & (x < 6.0), rng.random(p.n_x), 0.0)
        dx = p.size_axis().dx
        assert p1_apply(p, f1).sum() * dx == pytest.approx(f1.sum() * dx, rel=1e-12)

    def test_invariant_is_a_fixed_point(self):
        p = CellCycleParams(n_x=500, x_max=20.0)
        f1, uniqueness = p1_invariant(p)
        dx = p.size_axis().dx
        assert float(np.abs(p1_apply(p, f1) - f1).sum() * dx) < 1e-8
        assert f1.sum() * dx == pytest.approx(1.0, abs=1e-10)
        assert uniqueness > 1.0

    def test_newborn_size_map(self):
        p = CellCycleParams()
        # toy instance: a newborn of size x came from a mother entering
        # phase II at size 2x - t_phase2
        assert p.newborn_size(1.5) == pytest.approx(2.0)


@pytest.fixture(scope="module")
def model():
    return build_cell_cycle(CellCycleParams(n_x=200, x_max=20.0, n_y=10))


class TestCellCycleModel:

    def test_phase_two_lifetime_is_fixed(self, model):
        # any state entering phase II leaves it exactly t_phase2 later
        for x in (0.8, 2.0, 5.0):
            t = hitting_time(model, StatePoint(np.array([x, 0.0]), 1), "forward")
            assert t == pytest.approx(1.0, rel=1e-12)

    def test_phase_transition_keeps_size(self, model):
        rng = np.random.default_rng(3)
        X, modes = model.jump.sample(np.array([[2.3, 0.0]]), 0, rng)
        assert modes[0] == 1
        np.testing.assert_allclose(X[0], [2.3, 0.0])

    def test_division_halves_size(self, model):
        rng = np.random.default_rng(4)
        X, modes = model.jump.sample(np.array([[3.0, 1.0]]), 1, rng)
        assert modes[0] == 0
        assert X[0, 0] == pytest.approx(1.5)

    def test_phase_two_backward_orbit_stops_at_size_zero(self):
        # toy growth G(x) = x, no hazard in phase II: at discount 0 the R0 row
        # at (x, y) integrates 1 over the min(x, y) the orbit spends inside
        # the grid, and reaches the inflow boundary only when y <= x
        m = build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4))
        X = np.vstack([m.grid.centers(1), m.gamma_plus.points])
        rows = chain._rows(m, 1, X, 0.0)
        rows, b_rows = rows[:, :m.grid.n_cells], rows[:, m.grid.n_cells:]
        np.testing.assert_allclose(rows.sum(axis=1).A1, np.minimum(X[:, 0], X[:, 1]),
                                   rtol=0, atol=1e-12)
        short = np.flatnonzero(X[:, 0] < X[:, 1])
        assert short.size and b_rows[short].nnz == 0

    def test_rate_only_in_phase_one(self, model):
        r0 = model.rate(np.array([[2.0, 0.0]]), 0)
        r1 = model.rate(np.array([[2.0, 0.5]]), 1)
        assert r0[0] == pytest.approx(1.0)
        assert r1[0] == 0.0


class TestCellCycleLift:
    def test_toy_mass_and_phase_durations(self):
        p = CellCycleParams(n_x=400, x_max=20.0, n_y=20)
        f1, _ = p1_invariant(p)
        fbar, integrable, mean_phase1 = cell_cycle_lift(p, f1)
        dx = p.size_axis().dx
        assert fbar.total_mass == pytest.approx(2.0 * f1.sum() * dx, abs=1e-6)
        assert integrable
        # unit entry rate: expected phase-I duration is 1 from every size
        for z in (0.6, 1.0, 3.0):
            assert mean_phase1(np.array([z]))[0] == pytest.approx(1.0, rel=1e-9)

    def test_mean_phase_one_with_a_size_dependent_entry_rate(self):
        # g = 1 and entry rate x/2, so Q = x^2/4: the expected phase-I
        # duration from size z is e^{z^2/4} int_z^inf e^{-t^2/4} dt
        p = CellCycleParams(n_x=40, x_max=20.0, n_y=4, entry_rate=lambda x: x / 2.0,
                            hazard_anti=lambda x: x * x / 4.0,
                            hazard_anti_inv=lambda q: 2.0 * np.sqrt(q))
        _, _, mean_phase1 = cell_cycle_lift(p, np.full(p.n_x, 1.0 / p.x_max))
        z = np.array([0.0, 0.5, 1.0, 3.0, 8.0])
        expected = [math.sqrt(math.pi) * math.exp(zi * zi / 4.0) * math.erfc(zi / 2.0) for zi in z]
        np.testing.assert_allclose(mean_phase1(z), expected, rtol=1e-9, atol=0)

    def test_phases_split_evenly_in_the_toy_instance(self):
        p = CellCycleParams(n_x=400, x_max=20.0, n_y=20)
        f1, _ = p1_invariant(p)
        fbar, _, _ = cell_cycle_lift(p, f1)
        model = build_cell_cycle(p)
        w = model.grid.weights
        sl0 = model.grid.block_slice(0)
        mass0 = float(fbar.values[sl0] @ w[sl0])
        assert mass0 == pytest.approx(0.5 * fbar.total_mass, rel=1e-6)


class TestKineticSlab:
    def test_boundary_weights_are_speed_times_nu(self):
        m = build_kinetic_slab(KineticSlabParams(velocities=(-2.0, 1.0), nu_weights=(0.5, 3.0),
                                                 boundary="diffuse"))
        np.testing.assert_allclose(m.gamma_plus.weights, [1.0, 3.0])

    def test_crossing_time_from_entry(self):
        m = build_kinetic_slab(KineticSlabParams(length=2.0))
        for point in m.gamma_minus.points:
            t = hitting_time(m, StatePoint(point, 0), "forward")
            assert t == pytest.approx(2.0)

    def test_specular_wall_flips_velocity(self):
        m = build_kinetic_slab(KineticSlabParams())
        rng = np.random.default_rng(5)
        X, modes = m.jump.sample(np.array([[1.0, 1.0]]), 0, rng)
        np.testing.assert_allclose(X[0], [1.0, -1.0])

    def test_specular_needs_symmetric_velocities(self):
        with pytest.raises(ModelError):
            build_kinetic_slab(KineticSlabParams(velocities=(-1.0, 2.0)))

    def test_zero_velocity_rejected(self):
        with pytest.raises(ModelError):
            build_kinetic_slab(KineticSlabParams(velocities=(0.0, 1.0)))

    def test_expanding_wall_operator_rejected(self):
        with pytest.raises(ModelError):
            build_kinetic_slab(KineticSlabParams(boundary=np.array([[0.0, 2.0], [2.0, 0.0]])))

    @pytest.mark.parametrize("field", ["kernel", "boundary"])
    @pytest.mark.parametrize("matrix", [[[0.5, -0.25], [0.25, 0.5]], np.full((2, 3), 0.5),
                                        [[0.5, np.nan], [0.25, 0.5]], [[0.5, np.inf], [0.25, 0.5]],
                                        [[0.5, 0.25], [0.25]]],
                             ids=["negative", "2x3", "nan", "inf", "ragged"])
    def test_malformed_velocity_matrix_rejected(self, field, matrix):
        # refused at construction: a negative collision kernel would make
        # evolve gain mass, and a non-finite one would fail only there
        with pytest.raises(ModelError, match=f"{field} must be a finite, nonnegative"):
            build_kinetic_slab(KineticSlabParams(n_x=20, **{field: matrix}))

    def test_collision_sampler_matches_density_operator(self):
        # histogram of sampled post-collision states against p0 applied to
        # the same single-cell collision intensity
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = build_kinetic_slab(KineticSlabParams(n_x=50, kernel=kernel))
        rng = np.random.default_rng(6)
        # intensity concentrated on the cell holding (0.505, +1)
        cell = m.grid.locate(np.array([[0.505, 1.0]]), 0)[0]
        h_int = np.zeros(m.grid.n_cells)
        h_int[cell] = 1.0 / m.grid.weights[cell]
        predicted = m.jump.p0(h_int, np.zeros(2))
        counts = np.zeros(m.grid.n_cells)
        n = 20_000
        for _ in range(n):
            x = 0.50 + 0.02 * rng.random()
            X, modes = m.jump.sample(np.array([[x, 1.0]]), 0, rng)
            counts[m.grid.locate(X, modes[0])[0]] += 1
        mc = counts / n / m.grid.weights
        assert float(np.abs(mc - predicted) @ m.grid.weights) < 0.05


class TestDerivedGeometry:
    """The boundary geometry each model derives at construction, against closed forms."""

    def test_drift_redistribute(self):
        m1 = build_drift_redistribute("m1", n_cells=200)
        np.testing.assert_array_equal(m1.entry_cells, [0])
        for got in (m1.trace_step_plus, m1.trace_step_minus, m1.min_crossing_time):
            np.testing.assert_allclose(got, 1.0 / 200, rtol=1e-12)
        m3 = build_drift_redistribute("m3")
        assert m3.entry_cells.size == m3.trace_step_plus.size == m3.trace_step_minus.size == 0
        assert m3.min_crossing_time == math.inf

    def test_cell_cycle(self):
        m = build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4))
        dx, dy = 0.2, 0.25
        # each Gamma- cell enters phase II at clock cell 0 of its size column
        np.testing.assert_array_equal(m.entry_cells, m.grid.offsets[1] + 4 * np.arange(40))
        np.testing.assert_allclose(m.trace_step_plus, np.full(40, dy), rtol=1e-12)
        np.testing.assert_allclose(m.trace_step_minus, np.full(40, dy), rtol=1e-12)
        assert m.min_crossing_time == pytest.approx(dx, rel=1e-12)

    def test_four_velocity_slab(self):
        vels = np.array([-1.0, -0.5, 0.5, 1.0])
        m = build_kinetic_slab(KineticSlabParams(n_x=50, velocities=tuple(vels),
                                                 nu_weights=(1.0,) * 4))
        dx = 1.0 / 50
        # negative velocities enter at x = L, into the last cell
        np.testing.assert_array_equal(m.entry_cells, [49 * 4, 49 * 4 + 1, 2, 3])
        np.testing.assert_allclose(m.trace_step_plus, dx / np.abs(vels), rtol=1e-12)
        np.testing.assert_allclose(m.trace_step_minus, dx / np.abs(vels), rtol=1e-12)
        assert m.min_crossing_time == pytest.approx(dx, rel=1e-12)


_VELS, _NU = (-1.0, -0.5, 0.5, 1.0), (0.5, 1.5, 1.0, 2.0)


def _conservative_wall_matrix():
    """A random wall matrix Hm[j, i] >= 0 whose every Gamma+ cell i sends out
    all its mass: sum_j Hm[j, i] |v_j| nu_j = |v_i| nu_i."""
    bw = np.abs(_VELS) * np.asarray(_NU)
    Hm = np.random.default_rng(11).random((4, 4))
    return Hm * bw / (Hm * bw[:, None]).sum(axis=0)


_WALLS = {"specular": "specular", "diffuse": "diffuse", "matrix": _conservative_wall_matrix()}
_KERNELS = {
    "none": None,
    "uniform": np.ones((4, 4)),
    # velocity 0.5 never collides: theta = 0 there
    "zero_theta": np.array([[0.3, 1.0, 0.0, 2.0],
                            [1.2, 0.0, 0.0, 0.5],
                            [0.0, 0.7, 0.0, 1.0],
                            [0.4, 2.0, 0.0, 0.1]]),
}


def _jump_law_models():
    yield "m1", build_drift_redistribute("m1", n_cells=30)
    yield "m3", build_drift_redistribute("m3", n_cells=20, q=1.5)
    for wall, boundary in _WALLS.items():
        for kern, kernel in _KERNELS.items():
            yield f"slab-{wall}-{kern}", build_kinetic_slab(KineticSlabParams(
                n_x=7, velocities=_VELS, nu_weights=_NU, boundary=boundary, kernel=kernel))


def _slab_p0(p, h_int):
    """The collision gain, element by element: a jumped density h at velocity
    b lands at velocity a with density k[a, b] nu[b] h / theta[b], where
    theta[b] = sum_a k[a, b] nu[a]; velocities with theta = 0 send nothing."""
    vels, nu = np.asarray(p.velocities), np.asarray(p.nu_weights)
    h = h_int.reshape(p.n_x, vels.size)
    out = np.zeros_like(h)
    if p.kernel is None:
        return out.ravel()
    k = np.asarray(p.kernel)
    for b in range(vels.size):
        theta = sum(k[a, b] * nu[a] for a in range(vels.size))
        if theta > 0:
            for a in range(vels.size):
                out[:, a] += k[a, b] * nu[b] * h[:, b] / theta
    return out.ravel()


def _slab_p_partial(p, h_plus):
    """The wall law, element by element.  Specular: the outflux density of
    velocity v re-enters at -v, its mass |v| nu(v) h kept.  Diffuse: a wall's
    outflux mass re-enters as one density over every velocity that leaves the
    wall, per the inflow measure |v| nu(v).  A matrix: its product."""
    vels, nu = np.asarray(p.velocities), np.asarray(p.nu_weights)
    bw = np.abs(vels) * nu
    out = np.zeros(vels.size)
    if isinstance(p.boundary, np.ndarray):
        return p.boundary @ h_plus
    for i, v in enumerate(vels):
        if p.boundary == "specular":
            j = int(np.flatnonzero(vels == -v)[0])
            out[j] += h_plus[i] * bw[i] / bw[j]
        else:
            wall = p.length if v > 0 else 0.0  # outflow of v at this wall
            enters = [j for j, u in enumerate(vels) if (u > 0) == (wall == 0.0)]
            for j in enters:
                out[j] += h_plus[i] * bw[i] / sum(bw[enters])
    return out


def _defining_p0(model, h_int, h_plus):
    if model.name == "kinetic_slab":
        return _slab_p0(model.params["slab"], h_int)
    # uniform restart on (0, 1): all jumped mass, spread over the unit interval
    mass = sum(h_int * model.grid.weights) + sum(h_plus * model.gamma_plus.weights)
    return np.full(model.grid.n_cells, mass)


def _defining_p_partial(model, h_int, h_plus):
    if model.name == "kinetic_slab":
        return _slab_p_partial(model.params["slab"], h_plus)
    return np.zeros(model.gamma_minus.n_cells)


class TestJumpLawFormulas:
    """p0 and p_partial of the built-in laws against their defining formulas,
    on random nonnegative inputs."""

    @pytest.fixture(params=list(_jump_law_models()), ids=lambda case: case[0])
    def model(self, request):
        return request.param[1]

    @staticmethod
    def _inputs(model, seed):
        rng = np.random.default_rng(seed)
        return rng.random(model.grid.n_cells), rng.random(model.gamma_plus.n_cells)

    def test_matches_the_defining_formulas(self, model):
        h_int, h_plus = self._inputs(model, 1)
        for got, want in ((model.jump.p0(h_int, h_plus), _defining_p0(model, h_int, h_plus)),
                          (model.jump.p_partial(h_int, h_plus),
                           _defining_p_partial(model, h_int, h_plus))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max(initial=0))

    def test_linear(self, model):
        (a_int, a_plus), (b_int, b_plus) = self._inputs(model, 2), self._inputs(model, 3)
        for law in (model.jump.p0, model.jump.p_partial):
            got = law(0.7 * a_int + 2.5 * b_int, 0.7 * a_plus + 2.5 * b_plus)
            want = 0.7 * law(a_int, a_plus) + 2.5 * law(b_int, b_plus)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max(initial=0))

    def test_conserves_the_jumped_mass(self, model):
        # the interior intensity is rate x density, as in every route: a
        # velocity that never collides carries none
        f, h_plus = self._inputs(model, 4)
        h_int = model.rate_values() * f
        out = model.post_jump(h_int, h_plus)
        mass_in = h_int @ model.grid.weights + h_plus @ model.gamma_plus.weights
        mass_out = out.interior.total_mass + out.boundary @ model.gamma_minus.weights
        assert mass_out == pytest.approx(mass_in, rel=1e-14)
