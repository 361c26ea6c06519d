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
    jump_terms,
    transport_step,
)
from pdmpkit import verify
from pdmpkit.core import ContinuousAxis, InteriorGrid, ModeBlock, PdmpError
from pdmpkit.semigroup import inject
from pdmpkit.verify import (
    change_of_variables_gap,
    duhamel_oracle,
    green_residual,
    mc_vs_pde,
    resolvent_duality,
    restrict_density,
)


@pytest.fixture
def m1():
    return build_drift_redistribute("m1", n_cells=200)


class TestGreenIdentity:
    def test_quadratic(self, m1):
        x = m1.grid.blocks[0].centers[:, 0]
        f = GridDensity(m1.grid, x * (1 - x))
        assert green_residual(m1, f, -(1 - 2 * x)) < 1e-9

    def test_detects_an_inconsistent_transport_image(self, m1):
        x = m1.grid.blocks[0].centers[:, 0]
        f = GridDensity(m1.grid, 2 * x)
        assert green_residual(m1, f, np.ones_like(x)) > 0.1


class TestChangeOfVariables:
    def test_matching_resolutions_are_exact(self, m1):
        f = lambda X, mode: np.sin(3 * X[:, 0]) + 2
        lhs, rhs = change_of_variables_gap(m1, f, n_s=200)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_refuses_models_without_outgoing_boundary(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        with pytest.raises(PdmpError):
            change_of_variables_gap(m2, lambda X, mode: X[:, 0])


def _duhamel_by_public_steps(model, f0, t, n_s):
    """The two-jump expansion of duhamel_oracle, one vector at a time through
    the public transport_step, jump_terms and inject: every jumped density is
    carried by each lag separately, and the inner trapezoid of each k sums
    j = 0..k in turn."""
    ds, s = t / n_s, np.linspace(0.0, t, n_s + 1)
    sw = np.ones(n_s + 1)
    sw[1:-1:2], sw[2:-1:2] = 4.0, 2.0
    sw = sw / 3.0

    def push(g, m):
        return g if m == 0 else transport_step(model, GridDensity(model.grid, g), s[m]).values

    def jumped(g):
        gain, influx = jump_terms(model, GridDensity(model.grid, g))
        vals = gain.values.copy()
        inject(model, vals, influx)
        return vals

    total = transport_step(model, f0, t).values.copy()
    after = [jumped(push(f0.values, k)) for k in range(n_s + 1)]
    for k in range(n_s + 1):
        total += ds * sw[k] * push(after[k], n_s - k)
    for k in range(1, n_s + 1):
        acc = np.zeros(model.grid.n_cells)
        for j in range(k + 1):
            acc += ds * (0.5 if j in (0, k) else 1.0) * push(after[j], k - j)
        total += ds * sw[k] * push(jumped(acc), n_s - k)
    return np.maximum(total, 0.0)


_DUHAMEL_CASES = {
    "m1": (lambda: build_drift_redistribute("m1", n_cells=200), 0.3, 8),
    "cell cycle 40x4": (lambda: build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4)), 0.3, 6),
}


class TestDuhamel:
    def test_short_horizon_agrees_with_solver(self, m1):
        f0 = GridDensity.uniform(m1.grid)
        oracle, tail = duhamel_oracle(m1, f0, 0.2, n_max=2, seed=1)
        solved = evolve(m1, f0, 0.2, 0.005)
        gap = float(np.abs(oracle.values - solved.values) @ m1.grid.weights)
        assert gap < 5e-3 + tail

    def test_refuses_fat_tails(self, m1):
        f0 = GridDensity.uniform(m1.grid)
        with pytest.raises(PdmpError, match="truncated expansion"):
            duhamel_oracle(m1, f0, 2.0, n_max=1, seed=1, tail_paths=500)

    @pytest.mark.parametrize("name", list(_DUHAMEL_CASES))
    def test_oracle_matches_the_one_vector_expansion(self, name):
        build, t, n_s = _DUHAMEL_CASES[name]
        model = build()
        f0 = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()
        oracle, _ = duhamel_oracle(model, f0, t, n_max=2, n_s=n_s, seed=2, tail_paths=400)
        assert np.array_equal(oracle.values, _duhamel_by_public_steps(model, f0, t, n_s))

    @pytest.mark.parametrize("n_s", [0, 3, -2])
    def test_bad_interval_count_fails_before_any_path_is_drawn(self, m1, monkeypatch, n_s):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths were drawn before n_s was checked")

        monkeypatch.setattr(verify, "simulate_ensemble", no_paths)
        with pytest.raises(ValueError, match="positive even integer"):
            duhamel_oracle(m1, GridDensity.uniform(m1.grid), 0.2, n_s=n_s)

    @pytest.mark.parametrize("t", [0.0, -0.1])
    def test_nonpositive_horizon_fails_before_any_path_is_drawn(self, m1, monkeypatch, t):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths were drawn before t was checked")

        monkeypatch.setattr(verify, "simulate_ensemble", no_paths)
        with pytest.raises(ValueError, match="t must be positive"):
            duhamel_oracle(m1, GridDensity.uniform(m1.grid), t)


class TestRestriction:
    def test_mass_conserved(self, m1):
        coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 20)])])
        f = GridDensity(m1.grid, 2.0 * m1.grid.blocks[0].centers[:, 0])
        r = restrict_density(f, coarse)
        assert r.total_mass == pytest.approx(f.total_mass, rel=1e-12)

    def test_mass_outside_target_window_dropped(self):
        m2 = build_drift_redistribute("m2", n_cells=100, span=(0.0, 5.0))
        coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 2.5, 10)])])
        f = GridDensity.uniform(m2.grid)
        assert restrict_density(f, coarse).total_mass == pytest.approx(0.5, abs=1e-12)


class TestCrossChecks:
    def test_mc_vs_pde_report(self, m1):
        rep = mc_vs_pde(m1, GridDensity.uniform(m1.grid), 0.5, 5000, 3, 1.0 / 200)
        assert set(rep) == {"l1", "censored_mass", "pde_defect", "defect_gap"}
        assert rep["l1"] < 0.3
        assert rep["defect_gap"] < 0.02

    def test_resolvent_duality_consistent(self, m1):
        f = GridDensity.uniform(m1.grid)
        psi = lambda X, mode: X[:, 0]
        lhs, mc, se = resolvent_duality(m1, f, psi, 2.0, 500, 7)
        assert abs(lhs - mc) < 4 * se


def _cycle_duality():
    model = build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4))
    size = np.concatenate([b.centers[:, 0] for b in model.grid.blocks])
    # start well inside the size window, so little mass grows past x_max
    f = GridDensity(model.grid, (size < 3.0).astype(float))
    return model, f, lambda X, mode: np.exp(-X[:, 0] / 4) * (1.0 + mode)


def _slab_duality():
    model = build_kinetic_slab(KineticSlabParams(
        n_x=20, velocities=(-1.0, -0.5, 0.5, 1.0), nu_weights=(1.0,) * 4,
        kernel=np.ones((4, 4)), boundary="diffuse"))
    f = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells))
    return model, f, lambda X, mode: np.cos(2.0 * X[:, 0]) + X[:, 1]


@pytest.mark.parametrize("case", [_cycle_duality, _slab_duality])
def test_resolvent_duality_with_boundary_jumps(case):
    """Two modes with boundary jumps (cell cycle); wall and rate jumps
    between velocities (slab)."""
    model, f, psi = case()
    lhs, mc, se = resolvent_duality(model, f, psi, 1.0, 2000, 1)
    assert abs(lhs - mc) <= 4 * se


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_resolvent_duality_stops_paths_at_the_window(seed):
    """Mass started up to x_max = 8 grows out of the gridded window: the grid
    resolvent loses it, and the paths stop counting where they leave."""
    model = build_cell_cycle(CellCycleParams(n_x=40, x_max=8.0, n_y=4))
    f = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells))
    psi = lambda X, mode: np.exp(-X[:, 0] / 4) * (1.0 + mode)
    lhs, mc, se = resolvent_duality(model, f, psi, 1.0, 2000, seed)
    assert abs(lhs - mc) <= 4 * se
