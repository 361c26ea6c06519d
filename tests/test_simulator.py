import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from pdmpkit import (
    CellCycleParams,
    GridDensity,
    KineticSlabParams,
    ModelError,
    PathEvent,
    StatePoint,
    advance,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    estimate_density,
    sample_holding,
    simulate_path,
    step,
)
from pdmpkit.core import ContinuousAxis, DiscreteAxis, InteriorGrid, ModeBlock
from pdmpkit import simulate
from pdmpkit.simulate import sample_from_density, simulate_ensemble
from pdmpkit.verify import resolvent_duality

from test_core import exponential_growth_model


@pytest.fixture
def m1():
    return build_drift_redistribute("m1", n_cells=100)


@pytest.fixture
def m3():
    return build_drift_redistribute("m3", n_cells=100, q=2.0)


class TestHoldingTimes:
    def test_pure_jump_is_exponential(self, m3):
        rng = np.random.default_rng(0)
        x = StatePoint(np.array([0.4]), 0)
        draws = np.array([sample_holding(m3, x, rng)[0] for _ in range(20_000)])
        ks = stats.kstest(draws, "expon", args=(0.0, 0.5)).statistic
        assert ks < 0.015

    def test_forced_boundary_hit(self, m1):
        rng = np.random.default_rng(1)
        x = StatePoint(np.array([0.25]), 0)
        for _ in range(20):
            sigma, cause = sample_holding(m1, x, rng)
            assert cause == "boundary-hit"
            assert sigma == pytest.approx(0.75)

    def test_infinite_lifetime_without_jumps(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        rng = np.random.default_rng(2)
        sigma, cause = sample_holding(m2, StatePoint(np.array([1.0]), 0), rng)
        assert cause == "never" and sigma == math.inf


class TestPaths:
    def test_m1_jump_times_are_renewal_crossings(self, m1):
        # starting at x0 the boundary is hit at 1 - x0, then every unit time
        rng = np.random.default_rng(3)
        path = simulate_path(m1, StatePoint(np.array([0.3]), 0), 3.0, rng)
        times = [e.time for e in path.events]
        assert times[0] == pytest.approx(0.7)
        for a, b in zip(times, times[1:]):
            assert 0 < b - a <= 1.0 + 1e-12

    def test_jump_count_is_poisson(self, m3):
        rng = np.random.default_rng(4)
        t, q = 2.0, 2.0
        counts = np.array([
            simulate_path(m3, StatePoint(np.array([0.5]), 0), t, rng).jump_count
            for _ in range(4000)
        ])
        assert counts.mean() == pytest.approx(q * t, rel=0.05)
        assert counts.var() == pytest.approx(q * t, rel=0.10)

    def test_censoring_at_max_jumps(self, m3):
        rng = np.random.default_rng(5)
        path = simulate_path(m3, StatePoint(np.array([0.5]), 0), 50.0, rng, max_jumps=3)
        assert path.censored
        assert path.final_state is None
        assert path.events[-1].cause == "censored"

    def test_m2_without_jump_mechanism(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        rng = np.random.default_rng(6)
        path = simulate_path(m2, StatePoint(np.array([1.0]), 0), 2.5, rng)
        assert path.jump_count == 0
        assert path.final_state.coords[0] == pytest.approx(3.5)

    def test_step_reports_pre_and_post_states(self, m1):
        rng = np.random.default_rng(7)
        ev = step(m1, StatePoint(np.array([0.9]), 0), rng)
        assert ev.cause == "boundary-jump"
        assert ev.pre_state.coords[0] == pytest.approx(1.0)
        assert 0.0 <= ev.post_state.coords[0] <= 1.0

    def test_step_never_flows_by_an_infinite_time(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        steps = []

        def phi(t, X, mode):
            steps.append(np.asarray(t))
            return m2.flow.phi(t, X, mode)

        tracked = dataclasses.replace(m2, flow=dataclasses.replace(m2.flow, phi=phi))
        ev = step(tracked, StatePoint(np.array([1.0]), 0), np.random.default_rng(2))
        assert ev == PathEvent(math.inf, "never", None, None)
        assert all(np.isfinite(t).all() for t in steps)

    def test_same_seed_reproduces_path(self, m3):
        x0 = StatePoint(np.array([0.5]), 0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            runs.append(simulate_path(m3, x0, 5.0, rng))
        t1 = [e.time for e in runs[0].events]
        t2 = [e.time for e in runs[1].events]
        assert t1 == t2


class TestSampleFromDensity:
    def test_stays_in_supporting_cells(self, m1):
        vals = np.zeros(m1.grid.n_cells)
        vals[40] = 1.0
        f = GridDensity(m1.grid, vals).normalized()
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = sample_from_density(m1, f, rng)
            assert 0.40 <= x.coords[0] <= 0.41

    def test_zero_density_rejected(self, m1):
        with pytest.raises(ValueError):
            sample_from_density(m1, GridDensity(m1.grid, np.zeros(m1.grid.n_cells)),
                                np.random.default_rng(0))


class TestEstimateDensity:
    def test_mass_accounting(self, m3):
        f, censored = estimate_density(m3, GridDensity.uniform(m3.grid), 1.0, 2000, 13)
        assert f.total_mass + censored == pytest.approx(1.0, abs=1e-12)
        assert censored == 0.0

    def test_point_initial_condition(self, m1):
        f, _ = estimate_density(m1, StatePoint(np.array([0.2]), 0), 0.5, 500, 13)
        # no jump can happen before t=0.5 from x=0.2: all mass near 0.7
        idx = np.nonzero(f.values)[0]
        centers = m1.grid.blocks[0].centers[idx, 0]
        assert np.all(np.abs(centers - 0.7) < 0.01)

    def test_seed_alone_fixes_the_result(self, m3):
        init = GridDensity.uniform(m3.grid)
        runs = [estimate_density(m3, init, 1.0, 3000, seed) for seed in (17, 17, 18)]
        assert runs[0][0].values.tobytes() == runs[1][0].values.tobytes()
        assert runs[0][1] == runs[1][1]
        assert not np.array_equal(runs[0][0].values, runs[2][0].values)

    def test_out_of_window_counts_as_censored(self):
        m2 = build_drift_redistribute("m2", n_cells=50, span=(0.0, 5.0))
        f, censored = estimate_density(m2, StatePoint(np.array([4.5]), 0), 1.0, 200, 19)
        assert censored == 1.0
        assert f.total_mass == 0.0
        ens = simulate_ensemble(m2, StatePoint(np.array([4.5]), 0), 1.0, 200, 19)
        assert (ens.censored, ens.left_grid) == (0, 200)

    def test_censoring_is_counted_apart_from_leaving_the_grid(self, m3):
        init = GridDensity.uniform(m3.grid)
        ens = simulate_ensemble(m3, init, 1.0, 2000, 23, max_jumps=3)
        # P(N(1) >= 3) for a rate-2 Poisson count is 0.32
        assert 0.25 < ens.censored / 2000 < 0.40
        assert ens.left_grid == 0
        assert ens.counts.sum() + ens.censored == 2000
        _, censored = estimate_density(m3, init, 1.0, 2000, 23, max_jumps=3)
        assert censored == ens.censored / 2000

    def test_cell_cycle_root_finding_matches_the_closed_form_inverse(self):
        # without hazard_anti_inv the engine finds each phase-I holding time by root finding
        p = CellCycleParams(n_x=40, x_max=8.0, n_y=4)
        closed = build_cell_cycle(p)
        found = build_cell_cycle(dataclasses.replace(p, hazard_anti_inv=None))
        assert closed.inverse_hazard is not None and found.inverse_hazard is None
        init = GridDensity.uniform(closed.grid)
        want = estimate_density(closed, init, 2.0, 3000, 29)
        got = estimate_density(found, init, 2.0, 3000, 29)
        assert got[0].values.tobytes() == want[0].values.tobytes()
        assert got[1] == want[1]

    def test_sampler_leaving_the_state_space_raises(self, m1):
        def outside(X, mode, rng):
            return np.full_like(X, 2.0), np.zeros(X.shape[0], dtype=np.int64)

        bad = dataclasses.replace(m1, jump=dataclasses.replace(m1.jump, sample=outside))
        with pytest.raises(ModelError):
            estimate_density(bad, GridDensity.uniform(bad.grid), 2.0, 100, 3)

    @pytest.mark.parametrize("mode", [-1, 7])
    def test_sampler_returning_an_undeclared_mode_raises(self, m1, mode):
        def stray(X, m, rng):
            return X.copy(), np.full(X.shape[0], mode, dtype=np.int64)

        bad = dataclasses.replace(m1, jump=dataclasses.replace(m1.jump, sample=stray))
        with pytest.raises(ModelError, match=f"mode {mode} is not declared"):
            simulate_ensemble(bad, GridDensity.uniform(bad.grid), 2.0, 100, 3)
        with pytest.raises(ModelError, match=f"mode {mode} is not declared"):
            simulate_path(bad, StatePoint(np.array([0.5]), 0), 2.0, np.random.default_rng(3))

    def test_nan_holding_time_raises(self, m3):
        bad = dataclasses.replace(m3, inverse_hazard=lambda X, m, xi: np.full(xi.shape, np.nan))
        with pytest.raises(ModelError, match="holding time of 'm3' is NaN"):
            estimate_density(bad, GridDensity.uniform(bad.grid), 1.0, 10, 3)

    @pytest.mark.parametrize("post, message", [
        (lambda X: X[1:].copy(), "returned shapes"),  # one state short
        (lambda X: np.hstack([X, X]), "returned 2-d states in mode 0"),
    ], ids=["shape", "dimension"])
    def test_sampler_of_the_wrong_shape_raises(self, m1, post, message):
        def sample(X, mode, rng):
            return post(X), np.zeros(X.shape[0], dtype=np.int64)

        bad = dataclasses.replace(m1, jump=dataclasses.replace(m1.jump, sample=sample))
        with pytest.raises(ModelError, match=message):
            estimate_density(bad, GridDensity.uniform(bad.grid), 2.0, 100, 3)

    def test_no_paths_are_refused(self, m1):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            estimate_density(m1, GridDensity.uniform(m1.grid), 1.0, 0, 3)

    def test_empty_interior_grid_is_refused(self):
        m2 = build_drift_redistribute("m2", n_cells=50)
        empty = dataclasses.replace(m2, grid=InteriorGrid([ModeBlock(0, [DiscreteAxis([], [])])]))
        with pytest.raises(ValueError, match="empty interior grid"):
            estimate_density(empty, StatePoint(np.array([0.5]), 0), 1.0, 10, 3)

    def test_slab_sampler_refuses_a_mass_losing_wall(self):
        # the walls send back half of what reaches them
        slab = build_kinetic_slab(KineticSlabParams(n_x=20, boundary=[[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ModelError, match="mass-losing wall"):
            simulate_path(slab, StatePoint(np.array([0.5, 1.0]), 0), 2.0, np.random.default_rng(0))

    def test_slab_sampler_refuses_a_collision_without_a_kernel(self):
        slab = build_kinetic_slab(KineticSlabParams(n_x=20))
        with pytest.raises(ModelError, match="no jump mechanism"):
            slab.jump.sample(np.array([[0.5, 1.0]]), 0, np.random.default_rng(0))

    def test_negative_declared_mode_is_refused(self):
        with pytest.raises(ModelError, match="numbered from 0"):
            InteriorGrid([ModeBlock(-1, [ContinuousAxis.uniform(0.0, 1.0, 4)])])

    def test_flow_leaving_the_chart_raises(self):
        m2 = build_drift_redistribute("m2", n_cells=50, span=(0.0, 5.0))
        chart = dataclasses.replace(m2, in_state_space=lambda X, m: X[:, 0] <= 3.0)
        with pytest.raises(ModelError):
            estimate_density(chart, StatePoint(np.array([2.5]), 0), 1.0, 10, 3)

    def test_scalar_flow_leaving_the_chart_raises(self):
        m2 = build_drift_redistribute("m2", n_cells=50, span=(0.0, 5.0))
        chart = dataclasses.replace(m2, in_state_space=lambda X, m: X[:, 0] <= 3.0)
        x, rng = StatePoint(np.array([2.5]), 0), np.random.default_rng(0)
        with pytest.raises(ModelError, match="left the chart"):
            advance(chart, x, 1.0)
        with pytest.raises(ModelError, match="left the chart"):
            simulate_path(chart, x, 1.0, rng)
        # a rate jump one time unit on: the flow to it leaves the chart first
        timed = dataclasses.replace(chart, inverse_hazard=lambda X, m, xi: np.ones_like(xi))
        with pytest.raises(ModelError, match="left the chart"):
            step(timed, x, rng)


def _with_a_2d_mode(model):
    """model with a second, 2-d mode that no path visits."""
    block = model.grid.blocks[0]
    grid = InteriorGrid([block, ModeBlock(1, [block.axes[0], block.axes[0]])])
    return dataclasses.replace(model, grid=grid, backward_orbit=None)


_BAD_ARGUMENTS = {  # what to change in a good call, the error and its message
    "zero horizon": (dict(t=0.0), ValueError, "horizon"),
    "negative horizon": (dict(t=-1.0), ValueError, "horizon"),
    "infinite horizon": (dict(t=math.inf), ValueError, "horizon"),
    "no jump allowed": (dict(max_jumps=0), ValueError, "max_jumps"),
    "undeclared mode": (dict(x=StatePoint(np.array([0.5]), 3)), ModelError, "mode 3"),
    "wrong dimension": (dict(x=StatePoint(np.array([0.5, 0.5]), 0)), ModelError, "dimension"),
    "mixed dimensions": (dict(m=_with_a_2d_mode), ModelError, "one dimension"),
}
_ENTRY_POINTS = {  # each takes (model, x, t, max_jumps); step and sample_holding only x
    "simulate_path": lambda m, x, t, max_jumps: simulate_path(
        m, x, t, np.random.default_rng(0), max_jumps),
    "simulate_ensemble": lambda m, x, t, max_jumps: simulate_ensemble(m, x, t, 10, 0, max_jumps),
    "step": lambda m, x, t, max_jumps: step(m, x, np.random.default_rng(0)),
    "sample_holding": lambda m, x, t, max_jumps: sample_holding(m, x, np.random.default_rng(0)),
}


def _refuses(entry, change):
    """Whether ``entry`` checks what ``change`` breaks: every entry point
    checks the start point, the engine's three the model's dimensions, and
    the two that take them the horizon and max_jumps."""
    if "x" in change:
        return True
    if "m" in change:  # sample_holding flows one point and runs no engine
        return entry != "sample_holding"
    return entry in ("simulate_path", "simulate_ensemble")


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in _ENTRY_POINTS for bad, (change, _, _) in _BAD_ARGUMENTS.items()
    if _refuses(entry, change)])
def test_bad_arguments_are_refused(m1, entry, bad):
    good = dict(m=m1, x=StatePoint(np.array([0.5]), 0), t=1.0, max_jumps=10)
    _ENTRY_POINTS[entry](**good)
    change, error, message = _BAD_ARGUMENTS[bad]
    change = {k: v(m1) if k == "m" else v for k, v in change.items()}
    with pytest.raises(error, match=message):
        _ENTRY_POINTS[entry](**(good | change))


def test_sample_holding_takes_modes_of_any_dimension(m1):
    x = StatePoint(np.array([0.3]), 0)
    assert sample_holding(_with_a_2d_mode(m1), x, np.random.default_rng(0)) == (0.7, "boundary-hit")


def _coarse_bins(model, coarse):
    """Coarse bin of each fine cell; the last bin collects paths that were
    censored or left the grid."""
    parts = [coarse.locate(b.centers, b.mode) for b in model.grid.blocks]
    return np.concatenate(parts), coarse.n_cells


def _scalar_counts(model, init, t, n_paths, seed, bins, n_bins):
    counts = np.zeros(n_bins + 1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(n_paths):
        path = simulate_path(model, sample_from_density(model, init, rng), t, rng)
        cell = -1 if path.censored else model.grid.locate(
            path.final_state.coords[None, :], path.final_state.mode)[0]
        counts[bins[cell] if cell >= 0 else n_bins] += 1
    return counts


def _engine_counts(model, init, t, n_paths, seed, bins, n_bins):
    ens = simulate_ensemble(model, init, t, n_paths, seed)
    counts = np.bincount(bins, weights=ens.counts, minlength=n_bins)
    return np.append(counts, ens.censored + ens.left_grid)


def _cycle_case():
    p = CellCycleParams(n_x=40, x_max=8.0, n_y=4)
    size = ContinuousAxis.uniform(0.0, 8.0, 8)
    coarse = InteriorGrid([ModeBlock(0, [size, DiscreteAxis([0.0], [1.0])]),
                           ModeBlock(1, [size, ContinuousAxis.uniform(0.0, 1.0, 4)])])
    return build_cell_cycle(p), coarse, 2.0


def _slab_case():
    vels = (-1.0, -0.5, 0.5, 1.0)
    p = KineticSlabParams(n_x=20, velocities=vels, nu_weights=(1.0,) * 4,
                          kernel=np.ones((4, 4)), boundary="diffuse")
    coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10),
                                         DiscreteAxis(vels, (1.0,) * 4)])])
    return build_kinetic_slab(p), coarse, 0.3


def _m3_case():
    coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10)])])
    return build_drift_redistribute("m3", n_cells=50, q=2.0), coarse, 0.5


def _exp_growth_case():
    model = exponential_growth_model(n=30)
    coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.5, 2.0, 5)])])
    return model, coarse, 0.5


@pytest.mark.parametrize("case, n_paths", [
    (_m3_case, 2000),
    (_cycle_case, 2000),
    (_slab_case, 2000),
    (_exp_growth_case, 300),  # no inverse hazard: root finding in both engines
])
def test_batched_engine_samples_the_scalar_law(case, n_paths):
    """Two-sample chi-square between the batched engine and a loop over
    simulate_path, on coarse bins of X(t).  simulate_path is a one-row run
    of the same engine, so this compares the engine with itself under other
    generators; the closed-form laws above check it independently."""
    model, coarse, t = case()
    # a ramp over the cell numbering, so that no model starts at equilibrium
    init = GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()
    bins, n_bins = _coarse_bins(model, coarse)
    scalar = _scalar_counts(model, init, t, n_paths, 31, bins, n_bins)
    batched = _engine_counts(model, init, t, 2 * n_paths, 37, bins, n_bins)
    table = np.array([scalar, batched])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 3
    p_value = stats.chi2_contingency(table)[1]
    assert p_value > 1e-3


def _ramp(model):
    return GridDensity(model.grid, np.linspace(0.2, 1.8, model.grid.n_cells)).normalized()


def _digest(ens):
    return hashlib.sha256(
        ens.counts.tobytes() + np.array([ens.censored, ens.left_grid]).tobytes()).hexdigest()


# (model, init, t, n_paths, seed, max_jumps, sha256 of the ensemble): digests taken
# when each chunk still ran its own event loop, so they pin every generator's draws
_SEEDED_RUNS = {
    "m1": (lambda: build_drift_redistribute("m1", n_cells=100), _ramp, 2.0, 3500, 41, 100_000,
           "a9ee4069cce5323a018965fcd1a90ddc331a6c12b3f6d6af3a035d19933d7d71"),
    "m3": (lambda: build_drift_redistribute("m3", n_cells=100, q=2.0), _ramp, 1.0, 2500, 43, 3,
           "5b498242cb2a1c6b10bf5c4f53edacb7e3ed0faaf1b2c2b448f7db4431e6515a"),
    "cycle": (lambda: _cycle_case()[0], _ramp, 2.0, 2500, 47, 100_000,
              "12f39d8f5dc5c88043b67197fc3ec8edafe31d4aabba3cd23ceb8e1e30b68dc8"),
    "slab": (lambda: _slab_case()[0], _ramp, 0.3, 2500, 53, 100_000,
             "e9210f2214e411c2c9fa55c0938a47314d192b9d55cac183d6ce6a740016ca56"),
    "exp_growth": (lambda: exponential_growth_model(n=30), _ramp, 0.5, 1500, 59, 100_000,
                   "e065905763d66f735fd3fcf12ded5322aece31030d99c379dd8b7a53f3804ccf"),
    "point": (lambda: build_drift_redistribute("m1", n_cells=100),
              lambda model: StatePoint(np.array([0.3]), 0), 2.5, 1500, 61, 100_000,
              "94ec8e50d5880ccee8b07e373c0c336b6db5e264bf4476fcc58f2a317f27561d"),
}


@pytest.mark.parametrize("name", sorted(_SEEDED_RUNS))
def test_seeded_ensembles_keep_their_bytes(name):
    build, init, t, n_paths, seed, max_jumps, want = _SEEDED_RUNS[name]
    model = build()
    assert _digest(simulate_ensemble(model, init(model), t, n_paths, seed, max_jumps)) == want


def _duality(model):
    f = GridDensity(model.grid, 2.0 * model.grid.blocks[0].centers[:, 0]).normalized()
    return resolvent_duality(model, f, lambda X, mode: np.cos(2.5 * X[:, 0]), 1.0, 2500, 3)


@pytest.mark.parametrize("group", [1, 2])
def test_grouping_chunks_leaves_the_output_unchanged(monkeypatch, group):
    """One chunk per loop (the schedule of one generator at a time) and two
    groups of at most two chunks give what the default single loop gives."""
    runs = [_SEEDED_RUNS[name][:6] for name in ("m3", "cycle", "slab", "point")]
    m1 = build_drift_redistribute("m1", n_cells=200)

    def outputs():
        out = []
        for build, init, t, n_paths, seed, max_jumps in runs:
            model = build()
            out.append(simulate_ensemble(model, init(model), t, n_paths, seed, max_jumps))
        return out, _duality(m1)

    default, default_duality = outputs()
    monkeypatch.setattr(simulate, "_GROUP", group)
    sizes, engine = [], simulate._run_paths

    def counted(model, X, *rest):
        sizes.append(X.shape[0])
        return engine(model, X, *rest)

    monkeypatch.setattr(simulate, "_run_paths", counted)
    grouped, grouped_duality = outputs()
    for a, b in zip(default, grouped):
        assert np.array_equal(a.counts, b.counts)
        assert (a.censored, a.left_grid) == (b.censored, b.left_grid)
    assert np.array_equal(default_duality, grouped_duality)
    # the 2 500 m3 paths run group by group, and no loop holds more than a group
    per_group = group * simulate._CHUNK
    first = [min(per_group, 2500 - i) for i in range(0, 2500, per_group)]
    assert sizes[:len(first)] == first and max(sizes) == per_group


def _state_bytes(x):
    return b"none" if x is None else x.coords.tobytes() + np.int64(x.mode).tobytes()


def _event_bytes(ev):
    return (np.float64(ev.time).tobytes() + ev.cause.encode()
            + _state_bytes(ev.pre_state) + _state_bytes(ev.post_state))


def _paths_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        for ev in path.events:
            h.update(_event_bytes(ev))
        h.update(_state_bytes(path.final_state) + bytes([path.censored]))
    return h.hexdigest()


# (model, t, max_jumps, seed, sha256 of 10 paths from the ramp, one generator each): digests taken when
# simulate_path still had its own event loop over sample_holding, step and advance
_SEEDED_PATHS = {
    "m1": (lambda: build_drift_redistribute("m1", n_cells=100), 3.0, 1_000_000, 71,
           "0c4975517459147ce3c34f101cae9b9b14ae529d67e993f992f0e7a2e1f9dd53"),
    "m2": (lambda: build_drift_redistribute("m2", n_cells=50), 2.5, 1_000_000, 73,
           "24fe43c41aac2acbdc6788f80ad2a8c53a1a3fb500d0efac36280d1cb1020a2a"),
    "m3": (lambda: build_drift_redistribute("m3", n_cells=100, q=2.0), 2.0, 1_000_000, 79,
           "8e3f7e19b829563b219afdae4ad4f9b5e376f4ea0a92408fcd13fa5191e646e3"),
    "m3_censored": (lambda: build_drift_redistribute("m3", n_cells=100, q=2.0), 50.0, 3, 83,
                    "c1458cb80ab542c4ecdbab33d1e9241f9b650f5bdb4a826786b77accb7f403f5"),
    "slab2": (lambda: build_kinetic_slab(KineticSlabParams(n_x=20, kernel=np.ones((2, 2)))),
              1.5, 1_000_000, 89,
              "d10b510a291673adef7ccf093a6413bad42a275f286aec2a40240bff1c7cba50"),
    "slab4": (lambda: _slab_case()[0], 0.5, 1_000_000, 97,
              "281e126ec69b98bbc0c69b1edb06f41472e843ab168d56f1e75f01ac3b9cf6b4"),
    "cycle": (lambda: _cycle_case()[0], 2.0, 1_000_000, 101,
              "f6df4a69bff93da8ce933a78d66acef8310774b322fcbce787e9755998a4bd48"),
    "exp_growth": (lambda: exponential_growth_model(n=30), 1.0, 1_000_000, 103,
                   "f7af0d7f4643d4e7b23763cb184b8699c312d66fdc899f20384649d80e500664"),
}


@pytest.mark.parametrize("name", sorted(_SEEDED_PATHS))
def test_seeded_paths_keep_their_bytes(name):
    build, t, max_jumps, seed, want = _SEEDED_PATHS[name]
    model = build()
    paths = []
    for rng in map(np.random.default_rng, [[seed, k] for k in range(10)]):
        paths.append(simulate_path(model, sample_from_density(model, _ramp(model), rng), t, rng,
                                   max_jumps))
    assert _paths_digest(paths) == want


# sha256 of 10 steps, and of 200 holding times, from points drawn from the ramp
_SEEDED_STEPS = {
    "m1": ("boundary-jump", "6a28602ac2fab6d8a0c0d4ad74b10a4250c07223a963dd1cbd6be9fed5fa45bd"),
    "m2": ("never", "4f54b844d7591dc0fac785ac96b21d0dedadc3402e8fbf555d705b36fbdc4501"),
    "m3": ("rate-jump", "676aa402fe114841d0fce71a5ffbfd8f070280eb9d21852743ae4051ee3730bf"),
}
_SEEDED_HOLDING_TIMES = {
    "m1": "0970ac2926162134aa0d6959d67f50e8659cfd970d857867f24fdffd952c6a0b",
    "m3": "b7fc7f166eafbca34f52b895d76f962e860eac4099f0bfc5fc10c9d1bbcef339",
}


@pytest.mark.parametrize("variant", sorted(_SEEDED_STEPS))
def test_seeded_steps_keep_their_bytes(variant):
    cause, want = _SEEDED_STEPS[variant]
    model = build_drift_redistribute(variant, n_cells=50)
    rng = np.random.default_rng(107)
    events = [step(model, sample_from_density(model, _ramp(model), rng), rng, t0=0.25 * k)
              for k in range(10)]
    assert {ev.cause for ev in events} == {cause}
    assert hashlib.sha256(b"".join(map(_event_bytes, events))).hexdigest() == want


@pytest.mark.parametrize("variant", sorted(_SEEDED_HOLDING_TIMES))
def test_seeded_holding_times_keep_their_bytes(variant):
    model = build_drift_redistribute(variant, n_cells=50, q=2.0)
    rng = np.random.default_rng(109)
    draws = [sample_holding(model, sample_from_density(model, _ramp(model), rng), rng)
             for _ in range(200)]
    digest = hashlib.sha256(b"".join(np.float64(s).tobytes() + c.encode() for s, c in draws))
    assert digest.hexdigest() == _SEEDED_HOLDING_TIMES[variant]
