"""Density evolution for the induced semigroup.

The free (pre-jump) semigroup is applied exactly in one semi-Lagrangian
step: trace each cell center backward along the flow, interpolate, and
weight by the volume cocycle and the survival factor; for a step length h
that is one sparse matrix, and so are the boundary traces.  The evolution
splits each step into the free step, the jump gain and boundary injection,
and assembles its matrices once per step length.  The resolvent is summed as
the perturbation series using the jump-chain building blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import DensityPair, GridDensity, PdmpModel, _csr_rows, orbit_hazard

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


def _free_step(model: PdmpModel, h: float):
    """The linear parts of a step of length h: the free step as one sparse
    matrix (interpolation at the backward orbits of the cell centers, rows
    weighted by cocycle and survival), and the exact fraction of each cell's
    mass that jumps by rate: 1 - exp(-hazard up to min(h, boundary hit))."""
    parts, q = [], np.zeros(model.grid.n_cells)
    for block in model.grid.blocks:
        mode, X = block.mode, block.centers
        back = model.flow.phi(-h, X, mode)
        weight = model.flow.jac(-h, X, mode) * np.exp(-orbit_hazard(model, back, mode, h))
        idx, w = block.corners(back)
        parts.append(_csr_rows(idx + model.grid.offsets[mode], weight[:, None] * w, q.size))
        horizon = np.minimum(np.asarray(model.flow.hit_plus(X, mode), dtype=float), h)
        q[model.grid.block_slice(mode)] = -np.expm1(-orbit_hazard(model, X, mode, horizon))
    return (parts[0] if len(parts) == 1 else sparse.vstack(parts, format="csr")), q


def transport_step(model: PdmpModel, f: GridDensity, dt: float) -> GridDensity:
    """One exact step of the free semigroup (transport with absorption at
    the outgoing boundary and exponential survival against the jump rate)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return GridDensity(model.grid, np.maximum(_free_step(model, dt)[0] @ f.values, 0.0))


def _trace_matrix(model: PdmpModel, sign: float) -> sparse.csr_matrix:
    """The boundary trace of f·J as one sparse matrix: 0.5 (3 P_{h/2} - P_{3h/2})
    along the flow (sign -1: back from the outgoing boundary; +1: forward)."""
    boundary = model.gamma_plus if sign < 0 else model.gamma_minus
    if boundary.n_cells == 0:
        return sparse.csr_matrix((0, model.grid.n_cells))
    z, mode = boundary.points, boundary.mode
    h = np.asarray(model.trace_step_plus if sign < 0 else model.trace_step_minus, dtype=float)
    idx, w = [], []
    for k, c in ((0.5, 1.5), (1.5, -0.5)):
        s = sign * k * h
        i, wk = model.grid.block(mode).corners(model.flow.phi(s, z, mode))
        idx.append(i + model.grid.offsets[mode])
        w.append((c * np.asarray(model.flow.jac(s, z, mode), dtype=float))[:, None] * wk)
    return _csr_rows(np.hstack(idx), np.hstack(w), model.grid.n_cells)


def trace_plus(model: PdmpModel, f: GridDensity) -> np.ndarray:
    """Outgoing-boundary trace of f·J by two-point extrapolation along the
    incoming characteristic."""
    return np.maximum(_trace_matrix(model, -1.0) @ f.values, 0.0)


def trace_minus(model: PdmpModel, f: GridDensity) -> np.ndarray:
    """Inflow-boundary trace, extrapolated forward along the flow."""
    return np.maximum(_trace_matrix(model, +1.0) @ f.values, 0.0)


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


def evolve(model: PdmpModel, f0: GridDensity, t: float, dt: float) -> GridDensity:
    """Solve the forward (Fokker-Planck) problem by operator splitting:
    free transport, then the jump gain, then injection of the boundary
    influx over the first cell of each entry characteristic.  The gain
    redistributes the step's exact jumped mass, and the boundary flux is a
    trapezoid of the outgoing trace before and after transport, so mass is
    conserved to second order in dt on conservative models.  The linear
    parts of a step are assembled once per step length."""
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
    ops = {h: _free_step(model, h) for h in set(steps)}
    trace = _trace_matrix(model, -1.0)
    cell_w = model.grid.weights
    wplus = model.gamma_plus.weights
    f = f0.values
    for h in steps:
        T, q = ops[h]
        transported = np.maximum(T @ f, 0.0)
        u = f * q
        flux = 0.5 * h * (np.maximum(trace @ f, 0.0) + np.maximum(trace @ transported, 0.0))
        if flux.size:
            # the traces give the flux's shape on the outgoing boundary; its
            # total is pinned to the step's exact mass budget so that nothing
            # is created or destroyed by the extrapolation error
            exited = float(f @ cell_w) - float(transported @ cell_w) - float(u @ cell_w)
            shape_mass = float(flux @ wplus)
            if exited <= 0.0:
                flux = np.zeros_like(flux)
            elif shape_mass > 0.0:
                flux = flux * (exited / shape_mass)
        vals = transported + model.jump.p0(u, flux)
        inject(model, vals, model.jump.p_partial(u, flux))
        f = np.maximum(vals, 0.0)
    return GridDensity(model.grid, f)


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
