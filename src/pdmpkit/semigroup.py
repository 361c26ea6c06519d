"""Density evolution for the induced semigroup.

The free (pre-jump) semigroup is applied exactly in one semi-Lagrangian
step: trace each cell center backward along the flow, interpolate, and
weight by the volume cocycle and the survival factor.  The full evolution
splits each time step into this free step plus explicit jump gain and
boundary-injection terms.  The resolvent of the full generator is summed as
the perturbation series (free resolvent, then jump, then free resolvent,
...) using the jump-chain building blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DensityPair, GridDensity, PdmpModel, orbit_hazard

__all__ = [
    "transport_step",
    "trace_plus",
    "trace_minus",
    "jump_terms",
    "inject",
    "evolve",
    "resolvent_G",
    "ResolventResult",
]


def transport_step(model: PdmpModel, f: GridDensity, dt: float) -> GridDensity:
    """One exact step of the free semigroup (transport with absorption at
    the outgoing boundary and exponential survival against the jump rate)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = np.zeros(model.grid.n_cells)
    for block in model.grid.blocks:
        mode = block.mode
        X = block.centers
        back = model.flow.phi(-dt, X, mode)
        vals = model.grid.interpolate(f.values, back, mode)
        vals = vals * np.asarray(model.flow.jac(-dt, X, mode), dtype=float)
        vals = vals * np.exp(-orbit_hazard(model, back, mode, dt))
        # cells whose backward orbit crossed the inflow boundary have left E;
        # a center exactly dt from the wall is kept whichever way it rounds
        tminus = np.asarray(model.flow.hit_minus(X, mode), dtype=float)
        vals[tminus < dt * (1 - 1e-9)] = 0.0
        out[model.grid.block_slice(mode)] = vals
    return GridDensity(model.grid, np.maximum(out, 0.0))


def _trace(model: PdmpModel, f: GridDensity, boundary, sign: float) -> np.ndarray:
    if boundary.n_cells == 0:
        return np.zeros(0)
    z = boundary.points
    mode = boundary.mode
    h = np.broadcast_to(
        np.asarray(
            model.trace_step_plus if sign < 0 else model.trace_step_minus, dtype=float
        ),
        (boundary.n_cells,),
    )
    vals = []
    for k in (0.5, 1.5):
        s = sign * k * h
        P = model.flow.phi(s, z, mode)
        v = model.grid.interpolate(f.values, P, mode)
        vals.append(v * np.asarray(model.flow.jac(s, z, mode), dtype=float))
    return np.maximum(0.5 * (3.0 * vals[0] - vals[1]), 0.0)


def trace_plus(model: PdmpModel, f: GridDensity) -> np.ndarray:
    """Outgoing-boundary trace of f·J by two-point extrapolation along the
    incoming characteristic."""
    return _trace(model, f, model.gamma_plus, -1.0)


def trace_minus(model: PdmpModel, f: GridDensity) -> np.ndarray:
    """Inflow-boundary trace, extrapolated forward along the flow."""
    return _trace(model, f, model.gamma_minus, +1.0)


def jump_terms(model: PdmpModel, f: GridDensity):
    """Jump gain into the interior and influx onto the inflow boundary:
    the jump law applied to (rate x f, outgoing trace of f)."""
    jumped = model.post_jump(model.rate_values() * f.values, trace_plus(model, f))
    return jumped.interior, jumped.boundary


def inject(model: PdmpModel, vals: np.ndarray, influx: np.ndarray) -> None:
    """Add an inflow-boundary density to the cell values ``vals`` in place:
    the mass ``influx x w-`` of each incoming boundary cell goes to the first
    interior cell of its entry characteristic."""
    if influx.size:
        mass = influx * model.gamma_minus.weights
        np.add.at(vals, model.entry_cells, mass / model.grid.weights[model.entry_cells])


def _jumped_mass(model: PdmpModel, f: GridDensity, h: float) -> np.ndarray:
    """Exact per-cell mass density undergoing a rate jump within a step of
    length h: f x (1 - exp(-hazard up to min(h, boundary-hit time)))."""
    out = np.zeros(model.grid.n_cells)
    for block in model.grid.blocks:
        mode = block.mode
        X = block.centers
        horizon = np.minimum(np.asarray(model.flow.hit_plus(X, mode), dtype=float), h)
        hz = orbit_hazard(model, X, mode, horizon)
        sl = model.grid.block_slice(mode)
        out[sl] = f.values[sl] * -np.expm1(-hz)
    return out


def evolve(model: PdmpModel, f0: GridDensity, t: float, dt: float) -> GridDensity:
    """Solve the forward (Fokker-Planck) problem by operator splitting:
    free transport, then the jump gain, then injection of the boundary
    influx over the first cell of each entry characteristic.  The gain
    redistributes the step's exact jumped mass, and the boundary flux is a
    trapezoid of the outgoing trace before and after transport, so mass is
    conserved to second order in dt on conservative models."""
    if not (0 < dt <= t):
        raise ValueError("need 0 < dt <= t")
    if dt > model.min_crossing_time * (1 + 1e-12):
        warnings.warn(
            f"dt={dt} exceeds the minimum cell crossing time "
            f"({model.min_crossing_time}); transport is under-resolved",
            stacklevel=2,
        )
    n_full = int(t / dt + 1e-9)
    steps = [dt] * n_full
    rem = t - n_full * dt
    if rem > 1e-12 * max(t, 1.0):
        steps.append(rem)
    f = f0
    cell_w = model.grid.weights
    wplus = model.gamma_plus.weights
    for h in steps:
        transported = transport_step(model, f, h)
        u = _jumped_mass(model, f, h)
        flux = 0.5 * h * (trace_plus(model, f) + trace_plus(model, transported))
        if flux.size:
            # the traces give the flux's shape on the outgoing boundary; its
            # total is pinned to the step's exact mass budget so that nothing
            # is created or destroyed by the extrapolation error
            exited = f.total_mass - transported.total_mass - float(u @ cell_w)
            shape_mass = float(flux @ wplus)
            if exited <= 0.0:
                flux = np.zeros_like(flux)
            elif shape_mass > 0.0:
                flux = flux * (exited / shape_mass)
        vals = transported.values + model.jump.p0(u, flux)
        inject(model, vals, model.jump.p_partial(u, flux))
        f = GridDensity(model.grid, np.maximum(vals, 0.0))
    return f


@dataclass
class ResolventResult:
    density: GridDensity
    terms: int
    converged: bool
    tail_mass: float  # mass of the first neglected chain term


def resolvent_G(
    model: PdmpModel,
    f: GridDensity,
    lam: float,
    tol: float = 1e-10,
    max_terms: int = 500,
) -> ResolventResult:
    """Resolvent of the full generator as the perturbation series
    sum_n (free resolvent . jump)^n . free resolvent, truncated when the
    chain term's mass falls below tol x mass(f)."""
    from . import chain  # deferred import; chain also uses trace_plus above

    if lam <= 0:
        raise ValueError("the resolvent series needs a positive discount")
    pair = DensityPair(f, np.zeros(model.gamma_minus.n_cells))
    total = np.zeros(model.grid.n_cells)
    fnorm = max(f.total_mass, 1e-300)
    theta = model.rate_values()
    tail = math.inf
    converged = False
    terms = 0
    for terms in range(1, max_terms + 1):
        r_int, r_out = chain.apply_R0(model, pair, lam)
        total += r_int.values
        pair = model.post_jump(theta * r_int.values, r_out)
        tail = pair.norm(model)
        if tail < tol * fnorm:
            converged = True
            break
    return ResolventResult(GridDensity(model.grid, total), terms, converged, tail)
