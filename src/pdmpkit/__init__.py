"""Simulation and numerical analysis of piecewise deterministic Markov
processes with boundary jumps: exact trajectory sampling, density evolution
of the induced substochastic semigroup, and invariant densities through the
embedded jump chain."""

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
    OUT_OF_DOMAIN,
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
from .chain import (
    apply_K,
    apply_R0,
    invariant_of_K,
    k_stochasticity_defect,
    lift_invariant,
    project_invariant,
)
from .semigroup import evolve, jump_terms, resolvent_G, trace_minus, trace_plus, transport_step

__version__ = "0.1.0"
