"""Embedded jump chain: discounted pre-jump resolvent R0, the density-level
chain operator K, its invariant densities, and the lift/projection between
jump-chain and continuous-time invariant densities.

R0 applied to a pair (interior density f, inflow-boundary density f_b) at
discount lam gives, at a point x,

    int_0^{t-(x)} e^{-lam t - H(t)} f(phi_{-t} x) J_{-t}(x) dt
        + e^{-lam t- - H(t-)} f_b(phi_{-t-} x) J_{-t-}(x)   [if t-(x) < inf]

with H the hazard integral along the backward orbit.  The same formula at a
point of the outgoing boundary gives the trace of R0 there.  Everything is
assembled once per (model, discount) into sparse matrices, a batch of rows at
a time: the model's face-time hook ``backward_orbit`` gives the times at which
each backward orbit crosses the grid faces, each segment between crossings is
integrated by Gauss quadrature on sub-intervals short enough that the
discount factor varies slowly, and the boundary hit contributes a point
factor spread over the inflow boundary's axis stencil.
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
    ContinuousAxis,
    ConvergenceError,
    DensityPair,
    DivergentIntegralError,
    GridDensity,
    ModelError,
    NoInvariantDensityError,
    PdmpModel,
    _csr_rows,
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

_BATCH_NODES = 1 << 17   # quadrature nodes per batch of rows, at two sub-intervals per segment

_FACE_TOL = 1e-9         # a face time must put the orbit on its face to this many cell widths

_CACHE_PER_MODEL = 8     # discounts whose R0 matrices are kept, least recently used out

_CACHE: "weakref.WeakKeyDictionary[PdmpModel, OrderedDict]" = weakref.WeakKeyDictionary()


def _face_times(model: PdmpModel, X: np.ndarray, mode: int, axis: int, a: np.ndarray,
                width: float) -> np.ndarray:
    """The model's backward times from the rows of X to coordinate ``axis`` = a,
    checked to put the orbit on that face."""
    t = np.asarray(model.backward_orbit(X, mode, axis, a), dtype=float)
    hit = (t > 0) & np.isfinite(t)
    miss = np.max(np.abs(model.flow.phi(-t[hit], X[hit], mode)[:, axis] - a[hit]), initial=0.0)
    if miss > _FACE_TOL * width:
        raise ModelError(f"backward_orbit of {model.name!r} (mode {mode}, axis {axis}) gives "
                         f"face times whose orbits miss their face by up to {miss:.3e}")
    return t


def _cutoff_time(model: PdmpModel, X: np.ndarray, mode: int, lam: float) -> np.ndarray:
    """For orbits that never leave the grid: a backward time at which
    lam*t + hazard has reached EXPONENT_CUTOFF, at most twice the first one
    (doubling from 2^-20 at most 90 times)."""
    t = np.full(X.shape[0], 2.0 ** -20)
    for _ in range(90):
        short = lam * t + orbit_hazard(model, model.flow.phi(-t, X, mode), mode, t) < EXPONENT_CUTOFF
        if not short.any():
            return t
        t[short] *= 2.0
    raise DivergentIntegralError(
        f"backward line integral of {model.name!r} diverges in mode {mode} at discount {lam}: "
        "the orbit never leaves the grid and its discount exponent stays bounded"
    )


def _segments(model: PdmpModel, mode: int, X: np.ndarray, end: np.ndarray, spans, lam: float):
    """Interior R0 entries of the rows X, whose orbits stop at the times end:
    (entries per row, cells, weights), each row's entries in orbit order.

    ``spans`` holds, per continuous axis, the first interior face each orbit
    crosses and how many it crosses."""
    n = X.shape[0]
    rows, times = [np.arange(n), np.arange(n)], [np.zeros(n), end]
    for k, ax, first, count in spans:
        r = np.repeat(np.arange(n), count)
        j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(r.size)
        t = _face_times(model, X[r], mode, k, ax.faces[j], ax.dx)
        inside = (t > 0) & (t < end[r])
        rows.append(r[inside])
        times.append(t[inside])
    rows, times = np.concatenate(rows), np.concatenate(times)
    order = np.lexsort((times, rows))
    rows, times = rows[order], times[order]
    exponent = lam * times + orbit_hazard(model, model.flow.phi(-times, X[rows], mode), mode, times)
    seg = np.flatnonzero(rows[1:] == rows[:-1])
    r, t0, t1 = rows[seg], times[seg], times[seg + 1]
    cells = model.grid.locate(model.flow.phi(-0.5 * (t0 + t1), X[r], mode), mode)
    keep = (cells >= 0) & (t1 > t0) & (exponent[seg] < EXPONENT_CUTOFF)
    r, t0, t1, seg = r[keep], t0[keep], t1[keep], seg[keep]
    de = np.maximum(exponent[seg + 1] - exponent[seg], 0.0)
    n_sub = np.minimum(np.ceil(de / _MAX_EXP_STEP).astype(np.int64) + 1, 2000)

    def integrand(ts, s):
        Xs = X[r[s]]
        jb = np.asarray(model.flow.jac(-ts, Xs, mode), dtype=float)
        hazard = orbit_hazard(model, model.flow.phi(-ts, Xs, mode), mode, ts)
        return np.exp(-(lam * ts + hazard)) * jb

    return np.bincount(r, minlength=n), cells[keep], gauss3(t0, t1, n_sub, integrand)


def _rows(model: PdmpModel, mode: int, X: np.ndarray, lam: float):
    """R0 rows at the points X of one mode: (interior CSR, inflow-boundary CSR).

    Each backward orbit stops at the first of: the inflow boundary, an outer
    face of the grid (a tie with the boundary counts as boundary), and the
    discount cutoff.  Its segments between face crossings are integrated by
    Gauss quadrature, a batch of rows at a time."""
    n = X.shape[0]
    axes = [(k, ax) for k, ax in enumerate(model.grid.block(mode).axes)
            if isinstance(ax, ContinuousAxis)]
    hit = np.asarray(model.flow.hit_minus(X, mode), dtype=float)
    end = hit.copy()
    for k, ax in axes:
        t = _face_times(model, np.vstack([X, X]), mode, k, np.repeat([ax.lo, ax.hi], n), ax.dx)
        end = np.minimum(end, np.where(t > 0, t, np.inf).reshape(2, n).min(axis=0))
    endless = np.isinf(end)
    if endless.any():
        end[endless] = _cutoff_time(model, X[endless], mode, lam)
    if lam > 0:
        end = np.minimum(end, EXPONENT_CUTOFF / lam)
    Z = model.flow.phi(-end, X, mode)

    # the interior faces crossed on each axis lie between the start and end coordinates
    spans, crossings = [], np.zeros(n, dtype=np.int64)
    for k, ax in axes:
        lo, hi = np.minimum(X[:, k], Z[:, k]), np.maximum(X[:, k], Z[:, k])
        first = np.maximum(np.searchsorted(ax.faces, lo, side="right"), 1)
        count = np.maximum(np.minimum(np.searchsorted(ax.faces, hi, side="left"), ax.n) - first, 0)
        spans.append((k, ax, first, count))
        crossings += count
    batch = np.cumsum(6 * (crossings + 1)) // _BATCH_NODES
    parts = [
        _segments(model, mode, X[b], end[b], [(k, ax, f[b], c[b]) for k, ax, f, c in spans], lam)
        for b in np.split(np.arange(n), np.flatnonzero(np.diff(batch)) + 1)
    ]
    counts, cells, weights = (np.concatenate([p[i] for p in parts]) for i in range(3))
    m_int = sparse.csr_matrix((weights, cells, np.concatenate(([0], np.cumsum(counts)))),
                              shape=(n, model.grid.n_cells))

    # orbits that end on the inflow boundary pick up its density there
    eb = lam * end + orbit_hazard(model, Z, mode, end)
    wall = (hit <= end) & (eb < EXPONENT_CUTOFF)
    if not wall.any():
        return m_int, sparse.csr_matrix((n, model.gamma_minus.n_cells))
    if model.gamma_minus.axis is None:
        raise ModelError(f"model {model.name!r} declares no axis for its inflow boundary")
    idx, w = model.gamma_minus.stencil(Z)
    weight = np.where(wall, np.exp(-eb) * np.asarray(model.flow.jac(-end, X, mode), dtype=float), 0.0)
    m_wall = _csr_rows(idx, weight[:, None] * w, model.gamma_minus.n_cells)
    m_wall.eliminate_zeros()
    return m_int, m_wall


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
    interior = [_rows(model, b.mode, b.centers, lam) for b in model.grid.blocks]
    m_int = sparse.vstack([m for m, _ in interior], format="csr")
    b_int = sparse.vstack([m for _, m in interior], format="csr")
    m_out, b_out = _rows(model, model.gamma_plus.mode, model.gamma_plus.points, lam)
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
