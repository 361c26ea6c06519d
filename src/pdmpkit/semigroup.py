"""Density evolution for the induced semigroup.

The free (pre-jump) semigroup is applied exactly in one semi-Lagrangian
step: trace each cell center backward along the flow, interpolate, and
weight by the volume cocycle and the survival factor; for a step length h
that is one sparse matrix, and so are the boundary traces.  The evolution
splits each step into the free step, the jump gain and boundary injection.
Per step length it stacks the free step T, the outgoing trace S before
and after it, and the row of the mass that leaves the grid into one
operator, so a step makes one sparse product.  The resolvent solves the
perturbation theorem's chain equation (I - K) p = (f, 0) by GMRES.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import GridDensity, PdmpModel, _csr_rows, orbit_hazard

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

_GMRES_RESTART = 50  # Krylov basis size kept between GMRES restarts


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
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return GridDensity(model.grid, np.maximum(_free_step(model, dt)[0] @ f.values, 0.0))


def _trace_matrix(model: PdmpModel, sign: float) -> sparse.csr_matrix:
    """The boundary trace of f·J as one sparse matrix: 0.5 (3 P_{h/2} - P_{3h/2})
    along the flow (sign -1: back from the outgoing boundary; +1: forward)."""
    boundary = model.gamma_plus if sign < 0 else model.gamma_minus
    z, mode = boundary.points, boundary.mode
    h = model.trace_step_plus if sign < 0 else model.trace_step_minus
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
    np.add.at(vals, model.entry_cells, influx * model.entry_scale)


def evolve(model: PdmpModel, f0: GridDensity, t: float, dt: float) -> GridDensity:
    """Solve the forward (Fokker-Planck) problem by operator splitting:
    free transport, then the jump gain, then injection of the boundary
    influx over the first cell of each entry characteristic.  The gain
    redistributes the step's exact jumped mass, and the boundary flux is a
    trapezoid of the outgoing trace before and after transport, so mass is
    conserved to second order in dt on conservative models.  The linear
    parts of a step are assembled once per step length, as one stacked
    operator [T; ½h S; ½h S T; w(1 - q) - Tᵀw] with S the outgoing trace and
    w the cell weights: a step is one sparse product, which gives the moved
    density, the trapezoid's two ends and the mass that left.  T has no
    negative entry and the density stays nonnegative, so T f needs no clamp
    and the trace after transport is (S T) f."""
    if not (0 < dt <= t < np.inf):
        raise ValueError(f"need 0 < dt <= t < inf, got dt={dt}, t={t}")
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
    trace = _trace_matrix(model, -1.0)
    m, n = trace.shape
    cell_w = model.grid.weights
    ops = {}
    for h in set(steps):
        T, q = _free_step(model, h)
        # per unit density in each cell, the mass that neither stays on the grid nor jumps
        exit_row = sparse.csr_matrix(cell_w * (1.0 - q) - T.T @ cell_w)
        A = sparse.vstack([T, (0.5 * h) * trace, (0.5 * h) * (trace @ T), exit_row], format="csr")
        A.eliminate_zeros()
        ops[h] = A, q
    wplus = model.gamma_plus.weights
    f = f0.values
    for h in steps:
        A, q = ops[h]
        y = A @ f
        vals, exited = y[:n], y[-1]
        traces = np.maximum(y[n:-1], 0.0)
        flux = traces[:m] + traces[m:]
        u = f * q
        # the traces give the flux's shape on the outgoing boundary; its
        # total is pinned to the step's exact mass budget so that nothing
        # is created or destroyed by the extrapolation error
        shape_mass = flux @ wplus
        if exited <= 0.0:
            flux[:] = 0.0
        elif shape_mass > 0.0:
            flux *= exited / shape_mass
        vals += model.jump.p0(u, flux)
        inject(model, vals, model.jump.p_partial(u, flux))
        f = np.maximum(vals, 0.0, out=vals)
    return GridDensity(model.grid, f)


@dataclass
class ResolventResult:
    density: GridDensity
    terms: int         # applications of K
    converged: bool
    tail_mass: float   # L1 mass of the final residual pair (f, 0) - (I - K) p


def resolvent_G(
    model: PdmpModel,
    f: GridDensity,
    lam: float,
    tol: float = 1e-10,
    max_terms: int = 500,
) -> ResolventResult:
    """Resolvent of the full generator by the perturbation theorem: R(lam) f =
    R0 sum_n K^n (f, 0) = R0 p with (I - K) p = (f, 0), p by GMRES in at most
    max_terms iterations (one application of K each).  Converged means the
    residual pair's mass is at most tol x mass(f)."""
    if not 0 < lam < np.inf:
        raise ValueError(f"the resolvent needs a positive, finite discount, got {lam}")
    # imported here: evolve needs no solver, and chain imports this module
    from scipy.sparse.linalg import LinearOperator, gmres

    from .chain import ChainOperator

    K = ChainOperator(model, lam)
    b = np.concatenate([f.values, np.zeros(model.gamma_minus.n_cells)])
    goal = tol * f.total_mass
    # |r|_L1 <= |weights|_2 |r|_2, so this 2-norm target bounds the residual's mass by goal
    p, _ = gmres(LinearOperator(K.shape, lambda x: x - K @ x, dtype=float), b, rtol=0.0,
                 atol=goal / np.linalg.norm(K.weights), restart=min(_GMRES_RESTART, max_terms),
                 maxiter=max(max_terms // _GMRES_RESTART, 1))
    tail = K.mass(np.abs(b - p + K @ p))
    density = GridDensity(model.grid, np.maximum(K.r0(p)[0], 0.0))  # clip the solve's roundoff
    return ResolventResult(density, K.applications, tail <= goal, tail)
