"""The model contract: every route hands a model's callables the inputs that the
FlowMap, JumpLaw and PdmpModel docstrings promise.

Each callable of four models is wrapped in a checker of its arguments (and
of the shape of what it returns), and every route runs once on the wrapped
model.  A built-in model relies on the contract instead of re-coercing its
inputs, so a route that breaks it would feed the model something it does
not expect."""

import dataclasses

import numpy as np
import pytest

from pdmpkit import (
    CellCycleParams,
    DensityPair,
    FlowMap,
    GridDensity,
    JumpLaw,
    KineticSlabParams,
    NoInvariantDensityError,
    StatePoint,
    apply_R0,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    estimate_density,
    evolve,
    invariant_of_K,
    lift_invariant,
    resolvent_G,
    simulate_path,
)
from pdmpkit.verify import duhamel_oracle, green_residual, resolvent_duality

from test_core import exponential_growth_model


def _floats(a, shape, what):
    assert type(a) is np.ndarray and a.dtype == np.float64, f"{what}: {type(a)}"
    assert a.shape == shape, f"{what}: shape {a.shape}, expected {shape}"


def checked(model):
    """The model with each callable wrapped in a check of the contract."""
    dims = {b.mode: b.dim for b in model.grid.blocks}

    def wrap(name, fn, times=None, per_row=True):
        """``times`` says what the time-like argument must be: "scalar or
        rows" for t of phi and jac (their first argument), "rows" for t of
        cumulative_hazard, xi of inverse_hazard and a of backward_orbit
        (their last argument)."""
        if fn is None:
            return None

        def call(*args):
            X_at = 1 if name in ("phi", "jac") else 0
            X, mode = args[X_at], args[X_at + 1]
            assert type(X) is np.ndarray and X.dtype == np.float64 and X.ndim == 2, \
                f"{name}: X is {type(X)} {getattr(X, 'shape', '')} {getattr(X, 'dtype', '')}"
            assert X.shape[1] == dims[mode], f"{name}: {X.shape[1]} columns in mode {mode}"
            n, before = X.shape[0], X.copy()
            if times is not None:
                t = args[0] if X_at == 1 else args[-1]
                if not (times == "scalar or rows" and isinstance(t, float)):
                    _floats(t, (n,), f"{name}: time argument")
            out = fn(*args)
            assert np.array_equal(X, before, equal_nan=True), f"{name} modified X"
            if per_row:
                shape = (n, X.shape[1]) if name == "phi" else (n,)
                assert np.shape(out) == shape, f"{name} returned shape {np.shape(out)}"
            return out
        return call

    def jump_operator(name, fn):
        def call(h_int, h_plus):
            _floats(h_int, (model.grid.n_cells,), f"{name}: h_int")
            _floats(h_plus, (model.gamma_plus.n_cells,), f"{name}: h_plus")
            return fn(h_int, h_plus)
        return call

    flow, jump = model.flow, model.jump
    return dataclasses.replace(
        model,
        flow=FlowMap(phi=wrap("phi", flow.phi, "scalar or rows"),
                     jac=wrap("jac", flow.jac, "scalar or rows"),
                     hit_plus=wrap("hit_plus", flow.hit_plus),
                     hit_minus=wrap("hit_minus", flow.hit_minus)),
        rate=wrap("rate", model.rate),
        jump=JumpLaw(sample=wrap("sample", jump.sample, per_row=False),
                     p0=jump_operator("p0", jump.p0),
                     p_partial=jump_operator("p_partial", jump.p_partial)),
        cumulative_hazard=wrap("cumulative_hazard", model.cumulative_hazard, "rows"),
        inverse_hazard=wrap("inverse_hazard", model.inverse_hazard, "rows"),
        backward_orbit=wrap("backward_orbit", model.backward_orbit, "rows"),
        in_state_space=wrap("in_state_space", model.in_state_space),
    )


MODELS = [
    ("m1", lambda: build_drift_redistribute("m1", n_cells=20)),
    ("cell cycle", lambda: build_cell_cycle(CellCycleParams(n_x=10, x_max=4.0, n_y=2))),
    ("4-velocity slab", lambda: build_kinetic_slab(KineticSlabParams(
        n_x=8, velocities=(-1.0, -0.5, 0.5, 1.0), nu_weights=(1.0,) * 4,
        kernel=np.ones((4, 4)), boundary="diffuse"))),
    ("exp-growth", lambda: exponential_growth_model(n=10)),
]


@pytest.mark.parametrize("build", [b for _, b in MODELS], ids=[name for name, _ in MODELS])
def test_every_route_keeps_the_model_contract(build):
    model = checked(build())
    f0 = GridDensity.uniform(model.grid)
    block = model.grid.blocks[0]
    estimate_density(model, f0, 0.2, 200, seed=1)
    simulate_path(model, StatePoint(block.centers[0], block.mode), 0.5, np.random.default_rng(2))
    evolve(model, f0, 0.1, min(0.05, model.min_crossing_time))
    apply_R0(model, DensityPair(f0, np.zeros(model.gamma_minus.n_cells)), 0.5)
    if model.name == "exp-growth":  # its jump law puts no mass anywhere
        with pytest.raises(NoInvariantDensityError):
            invariant_of_K(model)
    else:
        lift_invariant(model, invariant_of_K(model).pair)
    resolvent_G(model, f0, 1.0)
    duhamel_oracle(model, f0, 0.05, n_max=2, n_s=4, tail_paths=200)
    resolvent_duality(model, f0, lambda X, mode: X[:, 0], 1.0, 50, seed=3)
    green_residual(model, f0, np.zeros(model.grid.n_cells))
