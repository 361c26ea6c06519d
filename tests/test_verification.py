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
)
from pdmpkit.core import ContinuousAxis, InteriorGrid, ModeBlock, PdmpError
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
