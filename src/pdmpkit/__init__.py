"""Simulation and numerical analysis of piecewise deterministic Markov
processes with boundary jumps: exact trajectory sampling, density evolution
of the induced substochastic semigroup, and invariant densities through the
embedded jump chain.

The operator routes (``chain``, ``semigroup`` and ``verify``) need scipy, so
their names resolve on first use (PEP 562): ``import pdmpkit`` and the Monte
Carlo route load numpy alone."""

from importlib import import_module as _import_module

from .core import (
    BoundaryGrid,
    ContinuousAxis,
    ConvergenceError,
    DensityPair,
    DiscreteAxis,
    DivergentIntegralError,
    FlowMap,
    GridDensity,
    InteriorGrid,
    JumpLaw,
    ModeBlock,
    ModelError,
    NoInvariantDensityError,
    PdmpError,
    PdmpModel,
    StatePoint,
    advance,
    cocycle,
    hazard_integral,
    hitting_time,
)
from .models import (
    CellCycleParams,
    KineticSlabParams,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
    cell_cycle_lift,
    p1_apply,
    p1_invariant,
)
from .simulate import Path, PathEvent, estimate_density, sample_holding, simulate_path, step

__version__ = "0.1.0"

_LAZY = {
    "chain": ("apply_K", "apply_R0", "invariant_of_K", "k_stochasticity_defect",
              "lift_invariant", "project_invariant"),
    "semigroup": ("evolve", "jump_terms", "resolvent_G", "trace_minus", "trace_plus",
                  "transport_step"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("chain", "semigroup", "verify")

__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + [*_OWNER, *_LAZY])


def __getattr__(name: str):
    # not cached: a name stays the same object as its submodule's, even one patched later
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
