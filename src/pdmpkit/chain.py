"""Embedded jump chain: discounted pre-jump resolvent R0, the density-level
chain operator K, its invariant densities, and the lift/projection between
jump-chain and continuous-time invariant densities.

R0 applied to a pair (interior density f, inflow-boundary density f_b) at
discount lam gives, at a point x,

    int_0^{t-(x)} e^{-lam t - H(t)} f(phi_{-t} x) J_{-t}(x) dt
        + e^{-lam t- - H(t-)} f_b(phi_{-t-} x) J_{-t-}(x)   [if t-(x) < inf]

with H the hazard integral along the backward orbit.  The same formula at a
point of the outgoing boundary gives the trace of R0 there.  Everything is
assembled once per (model, discount) into sparse matrices: the model
enumerates the cells its backward orbit crosses, each crossing is integrated
by Gauss quadrature on sub-intervals short enough that the discount factor
varies slowly, and the boundary hit contributes a point factor spread over
the model's inflow interpolation stencil.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import (
    EXPONENT_CUTOFF,
    ConvergenceError,
    DensityPair,
    DivergentIntegralError,
    GridDensity,
    NoInvariantDensityError,
    PdmpModel,
    gauss3,
    orbit_hazard,
)

__all__ = [
    "apply_R0",
    "apply_K",
    "invariant_of_K",
    "InvariantResult",
    "lift_invariant",
    "project_invariant",
    "k_stochasticity_defect",
]

_MAX_EXP_STEP = 0.25    # max exponent variation per quadrature sub-interval

_CACHE_PER_MODEL = 8     # discounts whose R0 matrices are kept, least recently used out

_CACHE: "weakref.WeakKeyDictionary[PdmpModel, OrderedDict]" = weakref.WeakKeyDictionary()


def _row(model: PdmpModel, coords: np.ndarray, mode: int, lam: float):
    """Quadrature entries of one R0 row: (cells, weights, b_idx, b_weights)."""
    orb = model.backward_orbit(coords, mode, lam)
    if orb.end == "divergent":
        raise DivergentIntegralError(
            f"backward line integral diverges at {coords} (mode {mode}, discount {lam})"
        )

    def hazard(ts):  # along the backward orbit from coords
        X = np.broadcast_to(coords, (ts.size, coords.size))
        return orbit_hazard(model, model.flow.phi(-ts, X, mode), mode, ts)

    t_faces = np.asarray(orb.t_faces, dtype=float)
    exp_faces = lam * t_faces + hazard(t_faces)
    cells = np.asarray(orb.cells)
    t0, t1 = t_faces[:-1], t_faces[1:]
    keep = (cells >= 0) & (t1 > t0) & (exp_faces[:-1] < EXPONENT_CUTOFF)
    out_cells = cells[keep]
    out_w = np.zeros(0)
    if out_cells.size:
        de = np.maximum(exp_faces[1:][keep] - exp_faces[:-1][keep], 0.0)
        n_sub = np.minimum(np.ceil(de / _MAX_EXP_STEP).astype(np.int64) + 1, 2000)

        def integrand(ts):
            X = np.broadcast_to(coords, (ts.size, coords.size))
            jb = np.asarray(model.flow.jac(-ts, X, mode), dtype=float)
            return np.exp(-(lam * ts + hazard(ts))) * jb

        out_w = gauss3(t0[keep], t1[keep], n_sub, integrand)
    b_idx = np.zeros(0, dtype=np.int64)
    b_w = np.zeros(0)
    if orb.end == "boundary" and orb.b_idx.size:
        eb = exp_faces[-1]
        if eb < EXPONENT_CUTOFF:
            tb = t_faces[-1]
            jb = float(model.flow.jac(-tb, coords[None, :], mode)[0])
            b_idx = np.asarray(orb.b_idx, dtype=np.int64)
            b_w = math.exp(-eb) * jb * np.asarray(orb.b_w, dtype=float)
    return out_cells, out_w, b_idx, b_w


def _csr(rows, n_cols: int):
    """CSR matrix whose row r holds the (column indices, values) pair rows[r]."""
    indptr = np.cumsum([0] + [idx.size for idx, _ in rows])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [idx for idx, _ in rows])
    data = np.concatenate([np.zeros(0)] + [w for _, w in rows])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), n_cols))


def _matrices(model: PdmpModel, lam: float):
    """Sparse R0 matrices for (model, lam): interior->interior,
    boundary->interior, interior->outflow trace, boundary->outflow trace."""
    per_model = _CACHE.setdefault(model, OrderedDict())
    key = float(lam)
    if key in per_model:
        per_model.move_to_end(key)
        return per_model[key]
    if model.backward_orbit is None:
        raise DivergentIntegralError(f"model {model.name!r} supplies no backward orbits")

    def build(points_by_mode):
        rows = [_row(model, np.asarray(coords, dtype=float), mode, lam)
                for mode, pts in points_by_mode for coords in pts]
        return (_csr([r[:2] for r in rows], model.grid.n_cells),
                _csr([r[2:] for r in rows], model.gamma_minus.n_cells))

    m_int, b_int = build((b.mode, b.centers) for b in model.grid.blocks)
    m_out, b_out = build([(model.gamma_plus.mode, model.gamma_plus.points)])
    per_model[key] = (m_int, b_int, m_out, b_out)
    if len(per_model) > _CACHE_PER_MODEL:
        per_model.popitem(last=False)
    return per_model[key]


def apply_R0(model: PdmpModel, pair: DensityPair, lam: float = 0.0):
    """Discounted backward line integral of a density pair.

    Returns (interior: GridDensity with the R0 values on the interior grid,
    outflux: values of the R0 trace on the outgoing-boundary cells).
    """
    if lam < 0:
        raise ValueError("discount must be nonnegative")
    m_int, b_int, m_out, b_out = _matrices(model, lam)
    f = pair.interior.values
    fb = pair.boundary
    interior = m_int @ f + (b_int @ fb if fb.size else 0.0)
    outflux = m_out @ f + (b_out @ fb if fb.size else 0.0)
    if m_out.shape[0] == 0:
        outflux = np.zeros(0)
    return GridDensity(model.grid, np.asarray(interior)), np.asarray(outflux)


def apply_K(model: PdmpModel, pair: DensityPair, lam: float = 0.0) -> DensityPair:
    """One step of the (discounted) embedded jump chain on densities."""
    r_int, r_out = apply_R0(model, pair, lam)
    return model.post_jump(model.rate_values() * r_int.values, r_out)


@dataclass
class InvariantResult:
    pair: DensityPair
    iterations: int
    increment: float   # final L1 Cauchy increment between normalized sweeps
    mass_ratio: float  # |K pair| / |pair| at the fixed point (1 when stochastic)
    residual: float    # L1 distance between normalize(K pair) and pair


def invariant_of_K(
    model: PdmpModel,
    init: DensityPair | None = None,
    tol: float = 1e-10,
    max_iters: int = 500,
    damping: float = 0.5,
) -> InvariantResult:
    """Invariant density pair of the jump chain by normalized power iteration.

    The iteration averages each sweep with the previous iterate (fixed
    points are unchanged) — some chains alternate strictly between interior
    and boundary post-jump states, and the plain iteration would cycle on
    them forever.  Convergence is declared on the L1 Cauchy increment of the
    normalized iterates; the one-step residual of the returned pair is
    reported alongside.  If the chain is strictly substochastic and the
    iterates lose all mass, no invariant density exists and an error is
    raised.
    """
    if init is None:
        init = DensityPair(GridDensity.uniform(model.grid), np.zeros(model.gamma_minus.n_cells))
    norm = init.norm(model)
    if norm <= 0:
        raise ValueError("initial pair must have positive mass")
    pair = init.scaled(1.0 / norm)
    increment = math.inf
    for it in range(1, max_iters + 1):
        swept = apply_K(model, pair, 0.0)
        mass = swept.norm(model)
        if mass < 1e-8:
            raise NoInvariantDensityError(
                f"jump-chain iterates of {model.name!r} lost their mass "
                f"(|K pair| = {mass:.3e}); the chain has no invariant density"
            )
        mixed = DensityPair(
            GridDensity(
                model.grid,
                damping * swept.interior.values + (1.0 - damping) * pair.interior.values,
            ),
            damping * swept.boundary + (1.0 - damping) * pair.boundary,
        )
        mixed = mixed.scaled(1.0 / mixed.norm(model))
        increment = mixed.l1(pair, model)
        pair = mixed
        if increment < tol:
            final = apply_K(model, pair, 0.0)
            mass = final.norm(model)
            residual = final.scaled(1.0 / mass).l1(pair, model)
            return InvariantResult(pair, it, increment, mass, residual)
    raise ConvergenceError(
        f"jump-chain power iteration on {model.name!r} did not converge "
        f"within {max_iters} sweeps (increment {increment:.3e})"
    )


def lift_invariant(model: PdmpModel, pair: DensityPair):
    """Continuous-time invariant density from a chain-invariant pair.

    Returns (f_star: normalized GridDensity, c: the mass of the unnormalized
    lift, which must be finite for the lift to exist).
    """
    r_int, _ = apply_R0(model, pair, 0.0)
    c = r_int.total_mass
    if not np.isfinite(c) or c <= 0:
        raise DivergentIntegralError(
            f"lifted density of {model.name!r} has mass {c}; not normalizable"
        )
    return GridDensity(model.grid, r_int.values / c), c


def project_invariant(model: PdmpModel, f_star: GridDensity) -> DensityPair:
    """Chain-invariant pair induced by a continuous-time invariant density:
    feed the jump intensity (rate mass plus outflow trace) of f_star through
    the jump law and renormalize by the total jump activity."""
    from .semigroup import trace_plus  # deferred: semigroup imports this module

    h_int = model.rate_values() * f_star.values
    h_plus = trace_plus(model, f_star)
    c_star = float(h_int @ model.grid.weights)
    if h_plus.size:
        c_star += float(h_plus @ model.gamma_plus.weights)
    if not (c_star > 0 and np.isfinite(c_star)):
        raise ValueError(
            f"no jump activity under the given density on {model.name!r} (c* = {c_star})"
        )
    return model.post_jump(h_int, h_plus).scaled(1.0 / c_star)


def k_stochasticity_defect(model: PdmpModel, pair: DensityPair) -> float:
    """Mass lost by one chain step from a normalized pair: 0 for a
    stochastic chain, 1 when there is no jump mechanism at all."""
    norm = pair.norm(model)
    if norm <= 0:
        raise ValueError("pair must have positive mass")
    out = apply_K(model, pair.scaled(1.0 / norm), 0.0)
    return float(min(max(1.0 - out.norm(model), 0.0), 1.0))
