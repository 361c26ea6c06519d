"""The benchmark's three workloads: one density route each, on the same
three models (m1, cell_cycle, kinetic_slab).

A case is one model on one route.  ``prepare`` makes the inputs once during
set-up, ``reference`` computes what the outputs are checked against, ``run``
is the timed call sequence and ``check`` lists what is wrong with its
outputs.  Every call into pdmpkit goes through a module attribute
(``pk.simulate.estimate_density``), so the traced run sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import pdmpkit as pk
from pdmpkit.core import ContinuousAxis, DiscreteAxis, InteriorGrid, ModeBlock

import checks

MODELS = ("m1", "cell_cycle", "kinetic_slab")
SLAB_VELOCITIES = [-1.0, -0.5, 0.5, 1.0]
SLAB_KERNEL = [[1.0] * 4 for _ in range(4)]  # symmetric: uniform is invariant


@dataclass(frozen=True)
class Case:
    model: str
    config: dict  # pdmpkit.cli configuration of the model
    prepare: Callable  # (model, seed) -> inputs
    reference: Callable  # (model, inputs) -> reference
    run: Callable  # (model, inputs) -> outputs
    check: Callable  # (model, inputs, reference, outputs) -> list of reasons


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple


def _cfg(name: str, **params) -> dict:
    return {"model": {"name": name, "params": params}}


def _case_seed(seed: int, model: str) -> int:
    return 8 * seed + MODELS.index(model)


def _centers(model) -> np.ndarray:
    return model.grid.blocks[0].centers[:, 0]


def _density(model, values) -> "pk.GridDensity":
    return pk.core.GridDensity(model.grid, values)


def _reasons(*found) -> list:
    return [r for r in found if r]


# ---------------------------------------------------------------------------
# mc_density: Monte Carlo histograms of X(t) from a stationary density


def _mc_case(model_name, config, t, n_paths, init, reference, coarse, factors):
    def prepare(model, seed):
        return {"init": init(model), "seed": _case_seed(seed, model_name), "coarse": coarse(model)}

    def run(model, inp):
        hist, censored = pk.simulate.estimate_density(model, inp["init"], t, n_paths, inp["seed"])
        restricted = pk.verify.restrict_density(hist, inp["coarse"])
        return {"hist": hist.values, "censored": censored,
                "restricted": restricted.values * inp["coarse"].weights}

    def check(model, inp, ref, out):
        own = checks.coarse_masses(out["hist"], model.grid, factors)
        return _reasons(
            checks.histogram_matches(own, ref, n_paths),
            checks.same_values(out["restricted"], own, 1e-12, "restrict_density vs cell sums"),
            checks.censored_is_zero(out["censored"]),
        )

    return Case(model_name, {**config, "task": {"t": t, "n_paths": n_paths}}, prepare,
                reference, run, check)


def _m1_two_x(model):
    return _density(model, 2.0 * _centers(model))


def _m1_coarse(model):
    return InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10)])])


def _m1_bin_masses(model, inp):
    k = np.arange(10.0)
    return ((k + 1) ** 2 - k ** 2) / 100.0  # integral of 2x over [k/10, (k+1)/10]


def _cycle_lift(model):
    p = model.params["cc"]
    f1, _ = pk.models.p1_invariant(p)
    fbar, _, _ = pk.models.cell_cycle_lift(p, f1, model)
    return fbar.normalized()


def _cycle_coarse(model):
    p = model.params["cc"]
    size = ContinuousAxis.uniform(0.0, p.x_max, 20)
    return InteriorGrid([
        ModeBlock(0, [size, DiscreteAxis([0.0], [1.0])]),
        ModeBlock(1, [size, ContinuousAxis.uniform(0.0, p.t_phase2, 2)]),
    ])


_CYCLE_MC_FACTORS = ((10, 1), (10, 10))


def _slab_coarse(model):
    p = model.params["slab"]
    return InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, p.length, 5),
                                       DiscreteAxis(p.velocities, p.nu_weights)])])


def _uniform(model):
    return pk.core.GridDensity.uniform(model.grid)


MC_DENSITY = Workload(
    "mc_density",
    (
        _mc_case("m1", _cfg("m1", n_cells=200), 2.0, 8000, _m1_two_x, _m1_bin_masses,
                 _m1_coarse, ((20,),)),
        _mc_case("cell_cycle", _cfg("cell_cycle", n_x=200, n_y=20), 2.0, 5000, _cycle_lift,
                 lambda model, inp: checks.coarse_masses(inp["init"].values, model.grid,
                                                         _CYCLE_MC_FACTORS),
                 _cycle_coarse, _CYCLE_MC_FACTORS),
        _mc_case("kinetic_slab",
                 _cfg("kinetic_slab", n_x=50, velocities=SLAB_VELOCITIES,
                      nu_weights=[1.0] * 4, kernel=SLAB_KERNEL),
                 1.0, 3000, _uniform, lambda model, inp: np.full(20, 1.0 / 20), _slab_coarse,
                 ((10, 1),)),
    ),
)


# ---------------------------------------------------------------------------
# pde_density: evolve by operator splitting, plus the Duhamel oracle on m1

MASS_TOL = 1e-9
STATIONARY_DRIFT_TOL = 2e-2  # the acceptance suite's bound (criteria 6 and 10)
DUHAMEL_TOL = 5e-3  # plus the oracle's tail estimate (criterion 8)


def _evolve_case(model_name, config, t, dt, init, target, tol, what):
    """evolve from init to t; the result must keep its mass and sit within
    tol of target (L1)."""

    def prepare(model, seed):
        return {"init": init(model)}

    def run(model, inp):
        step = dt if dt is not None else model.min_crossing_time
        return {"f": pk.semigroup.evolve(model, inp["init"], t, step).values}

    def check(model, inp, ref, out):
        w = model.grid.weights
        return _reasons(
            checks.mass_is(float(out["f"] @ w), 1.0, MASS_TOL, "evolve"),
            checks.l1_within(out["f"], ref, w, tol, what),
        )

    return Case(model_name, {**config, "task": {"t": t, "dt": dt}}, prepare,
                lambda model, inp: target(model, inp).values, run, check)


def _m1_pde_case():
    t_long, dt_long = 8.0, 0.002
    t_short, dt_short, n_s = 0.3, 0.005, 48

    def prepare(model, seed):
        return {"init": _uniform(model), "seed": _case_seed(seed, "m1")}

    def reference(model, inp):
        return 2.0 * _centers(model)

    def run(model, inp):
        f0 = inp["init"]
        long = pk.semigroup.evolve(model, f0, t_long, dt_long)
        oracle, tail = pk.verify.duhamel_oracle(model, f0, t_short, n_max=2, n_s=n_s,
                                                seed=inp["seed"])
        short = pk.semigroup.evolve(model, f0, t_short, dt_short)
        return {"f": long.values, "oracle": oracle.values, "tail": tail, "short": short.values}

    def check(model, inp, ref, out):
        w = model.grid.weights
        return _reasons(
            checks.mass_is(float(out["f"] @ w), 1.0, MASS_TOL, "evolve"),
            checks.l1_within(out["f"], ref, w, STATIONARY_DRIFT_TOL, "m1 at t=8 vs 2x"),
            checks.mass_is(float(out["short"] @ w), 1.0, MASS_TOL, "evolve to t=0.3"),
            checks.l1_within(out["short"], out["oracle"], w, DUHAMEL_TOL + out["tail"],
                             "evolve vs duhamel_oracle at t=0.3"),
        )

    config = {**_cfg("m1", n_cells=200),
              "task": {"t": t_long, "dt": dt_long,
                       "duhamel": {"t": t_short, "dt": dt_short, "n_max": 2, "n_s": n_s}}}
    return Case("m1", config, prepare, reference, run, check)


PDE_DENSITY = Workload(
    "pde_density",
    (
        _m1_pde_case(),
        _evolve_case("cell_cycle", _cfg("cell_cycle", n_x=800, n_y=40), 2.0, 0.0125,
                     _cycle_lift, lambda model, inp: inp["init"], STATIONARY_DRIFT_TOL,
                     "cell-cycle lift after t=2"),
        # dt = dx (one whole cell per step at |v| = 1) keeps every cell center
        # clear of the inflow-wall tie at half a cell
        _evolve_case("kinetic_slab", _cfg("kinetic_slab", n_x=400, kernel=[[1.0, 1.0], [1.0, 1.0]]),
                     2.0, None, _uniform, lambda model, inp: _uniform(model), 1e-3,
                     "slab after t=2 vs uniform"),
    ),
)


# ---------------------------------------------------------------------------
# stationary_chain: invariant densities through the embedded chain, and the
# resolvent

CHAIN_TOL = 1e-10
RESOLVENT_TOL = 1e-6
SLAB_LAMBDAS = (0.5, 1.0, 4.0)
DUALITY_PATHS = 800
DUALITY_ZMAX = 4.0


def _pair_l1(model, a, b) -> float:
    d = float(np.abs(a.interior.values - b.interior.values) @ model.grid.weights)
    return d + float(np.abs(a.boundary - b.boundary) @ model.gamma_minus.weights)


def _cycle_chain_case():
    def prepare(model, seed):
        return {}

    def reference(model, inp):
        f1, _ = pk.models.p1_invariant(model.params["cc"])
        return f1

    def run(model, inp):
        res = pk.chain.invariant_of_K(model, tol=CHAIN_TOL)
        f_star, _ = pk.chain.lift_invariant(model, res.pair)
        back = pk.chain.project_invariant(model, f_star)
        return {"newborn": res.pair.interior.values[model.grid.block_slice(0)],
                "round_trip": _pair_l1(model, back, res.pair),
                "stats": {"iterations": res.iterations}}

    def check(model, inp, f1, out):
        dx = model.params["cc"].size_axis().dx
        newborn = out["newborn"] / (out["newborn"].sum() * dx)
        return _reasons(
            checks.l1_within(newborn, f1, np.full(f1.size, dx), 1e-3,
                             "chain newborn marginal vs p1_invariant"),
            checks.l1_within(np.array([out["round_trip"]]), np.zeros(1), np.ones(1), 1e-4,
                             "lift/project round trip"),
        )

    return Case("cell_cycle", _cfg("cell_cycle", n_x=2000, n_y=4), prepare, reference, run,
                check)


def _slab_chain_case():
    def prepare(model, seed):
        rng = np.random.default_rng(_case_seed(seed, "kinetic_slab"))
        return {"f": _density(model, 0.5 + rng.random(model.grid.n_cells)).normalized(),
                "u": _uniform(model)}

    def run(model, inp):
        res = pk.chain.invariant_of_K(model, tol=CHAIN_TOL)
        f_star, _ = pk.chain.lift_invariant(model, res.pair)
        masses, fixed, terms = [], [], 0
        for lam in SLAB_LAMBDAS:
            rf = pk.semigroup.resolvent_G(model, inp["f"], lam)
            ru = pk.semigroup.resolvent_G(model, inp["u"], lam)
            masses.append(lam * rf.density.total_mass)
            fixed.append(lam * ru.density.values)
            terms += rf.terms + ru.terms
        return {"lift": f_star.values, "masses": masses, "fixed": fixed,
                "stats": {"iterations": res.iterations, "terms": terms}}

    def check(model, inp, ref, out):
        w, u = model.grid.weights, inp["u"].values
        found = [checks.l1_within(out["lift"], u, w, RESOLVENT_TOL, "slab lift vs uniform")]
        for lam, mass, fixed in zip(SLAB_LAMBDAS, out["masses"], out["fixed"]):
            found.append(checks.mass_is(mass, 1.0, RESOLVENT_TOL, f"lam*R({lam})f"))
            found.append(checks.l1_within(fixed, u, w, RESOLVENT_TOL, f"lam*R({lam})u vs u"))
        return _reasons(*found)

    config = _cfg("kinetic_slab", n_x=400, velocities=SLAB_VELOCITIES, nu_weights=[1.0] * 4,
                  kernel=SLAB_KERNEL, boundary="diffuse")
    return Case("kinetic_slab", {**config, "task": {"lam": list(SLAB_LAMBDAS)}}, prepare,
                lambda model, inp: None, run, check)


def _duality_psi(X, mode):
    return np.cos(2.5 * X[:, 0])


def _m1_chain_case():
    def prepare(model, seed):
        return {"seed": _case_seed(seed, "m1")}

    def reference(model, inp):
        return 2.0 * _centers(model)

    def run(model, inp):
        res = pk.chain.invariant_of_K(model, tol=CHAIN_TOL)
        f_star, _ = pk.chain.lift_invariant(model, res.pair)
        lhs, mc, se = pk.verify.resolvent_duality(model, f_star, _duality_psi, 1.0,
                                                  DUALITY_PATHS, inp["seed"])
        return {"lift": f_star.values, "duality": (lhs, mc, se),
                "stats": {"iterations": res.iterations}}

    def check(model, inp, two_x, out):
        return _reasons(
            checks.l1_within(out["lift"], two_x, model.grid.weights, 1e-3, "m1 lift vs 2x"),
            checks.z_score_within(*out["duality"], DUALITY_ZMAX),
        )

    config = {**_cfg("m1", n_cells=200), "task": {"lam": 1.0, "n_paths": DUALITY_PATHS}}
    return Case("m1", config, prepare, reference, run, check)


STATIONARY_CHAIN = Workload(
    "stationary_chain",
    (_cycle_chain_case(), _slab_chain_case(), _m1_chain_case()),
)

WORKLOADS = {w.name: w for w in (MC_DENSITY, PDE_DENSITY, STATIONARY_CHAIN)}
