"""Embedded jump chain: discounted pre-jump resolvent R0, the density-level
chain operator K, its invariant densities, and the lift/projection between
jump-chain and continuous-time invariant densities.

R0 applied to a pair (interior density f, inflow-boundary density f_b) at
discount lam gives, at a point x,

    int_0^{t-(x)} e^{-lam t - H(t)} f(phi_{-t} x) J_{-t}(x) dt
        + e^{-lam t- - H(t-)} f_b(phi_{-t-} x) J_{-t-}(x)   [if t-(x) < inf]

with H the hazard integral along the backward orbit.  The same formula at a
point of the outgoing boundary gives the trace of R0 there.  ``_rows`` builds
rows a batch at a time: the model's face-time hook ``backward_orbit`` gives
the times at which each backward orbit crosses the grid faces, each segment
between crossings is integrated by Gauss quadrature on sub-intervals short
enough that the discount factor varies slowly, the boundary hit contributes
a point factor spread over the inflow boundary's axis stencil, and an orbit
is cut where its discount exponent reaches EXPONENT_CUTOFF.

A block with a continuous axis of more than one cell is swept face to face
along its continuous axis with the fewest cells (the one axis of m1-m3, the
slab and cell-cycle phase I; the clock axis y of phase II), as in the upwind
sweep of discrete-ordinates transport codes: the exponent is additive along
an orbit and J a cocycle, so the row at x is its own row up to the first face
z its orbit crosses plus e^{-lam t - H(t)} J_{-t}(x) times R0 at z.  The face
points are the cells of a grid block of their own: the block with its swept
axis replaced by a discrete axis of that axis's interior faces.  R0 at z is
picked up at that block's interpolation corners, multilinearly along the
other continuous axes (exact on discrete ones), the short-characteristics
method of radiative transfer (Kunasz & Auer, JQSRT 39, 1988).  Rows stop at their
first face and one sparse LU solve over the face points carries them on, so
a row holds the cells between two faces, not its whole orbit.  The cutoff
then only ends orbits that reach no face (static orbits); a drifting orbit
keeps its tail.  One-axis blocks pick up a single face point and match whole
rows to roundoff.  Phase II interpolates along x, so it differs from
whole rows by the interpolation error, and by O(1) in the 1-4 cells per
y-row next to its corner characteristic, where whole rows jump between
picking up the inflow boundary and leaving through x = 0.

R0 is stored once per (model, discount) as one sparse matrix over the
stacked columns (interior cells | inflow-boundary cells | face points) and
one LU.  ``rows`` holds R0 at the cell centers and outgoing-boundary points,
``face_rows`` at the face points over the pair columns, and W the face
points' pickups of one another, so that for a stacked pair x

    R0 x = rows @ (x, (I - W)^{-1} face_rows @ x).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .core import (
    EXPONENT_CUTOFF,
    ContinuousAxis,
    ConvergenceError,
    DensityPair,
    DiscreteAxis,
    DivergentIntegralError,
    GridDensity,
    ModeBlock,
    ModelError,
    NoInvariantDensityError,
    PdmpModel,
    _face_times,
    gauss3,
    hazard_crossing,
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

_ARPACK_K, _ARPACK_NCV = 2, 20  # eigenvalues sought (+1 and -1 for a period-two chain), basis size

_CACHE_PER_MODEL = 8     # discounts whose R0 matrices are kept, least recently used out

_CACHE: "weakref.WeakKeyDictionary[PdmpModel, OrderedDict]" = weakref.WeakKeyDictionary()


def _segments(model: PdmpModel, mode: int, X: np.ndarray, end: np.ndarray, spans, lam: float):
    """Interior R0 entries of the rows X, whose orbits stop at the times end:
    (entries per row, cells, weights), each row's entries in orbit order.

    ``spans`` holds, per continuous axis, the first interior face each orbit
    crosses and how many it crosses."""
    n = X.shape[0]
    rows, times = [np.arange(n), np.arange(n)], [np.zeros(n), end]
    for k, first, count in spans:
        r = np.repeat(np.arange(n), count)
        j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(r.size)
        t = _face_times(model, X[r], mode, k, j)
        inside = t < end[r]
        rows.append(r[inside])
        times.append(t[inside])
    rows, times = np.concatenate(rows), np.concatenate(times)
    order = np.lexsort((times, rows))
    rows, times = rows[order], times[order]
    exponent = lam * times + orbit_hazard(model, model.flow.phi(-times, X[rows], mode), mode, times)
    seg = np.flatnonzero(rows[1:] == rows[:-1])
    r, t0, t1 = rows[seg], times[seg], times[seg + 1]
    cells = model.grid.locate(model.flow.phi(-0.5 * (t0 + t1), X[r], mode), mode)
    keep = (cells >= 0) & (t1 > t0)
    r, t0, t1, seg = r[keep], t0[keep], t1[keep], seg[keep]
    de = np.maximum(exponent[seg + 1] - exponent[seg], 0.0)
    n_sub = np.minimum(np.ceil(de / _MAX_EXP_STEP).astype(np.int64) + 1, 2000)

    def integrand(ts, s):
        Xs = X[r[s]]
        jb = np.asarray(model.flow.jac(-ts, Xs, mode), dtype=float)
        hazard = orbit_hazard(model, model.flow.phi(-ts, Xs, mode), mode, ts)
        return np.exp(-(lam * ts + hazard)) * jb

    return np.bincount(r, minlength=n), cells[keep], gauss3(t0, t1, n_sub, integrand)


def _rows(model: PdmpModel, mode: int, X: np.ndarray, lam: float, sweep=None):
    """R0 rows at the points X of one mode, one CSR over the stacked columns
    (interior cells | inflow-boundary cells | face points).

    Each backward orbit stops at the first of: the inflow boundary, an outer
    face of the grid (a tie with the boundary counts as boundary), and the
    point where its discount exponent lam t + H(t) reaches the cutoff; one
    ``hazard_crossing`` call decides this for all rows.  Its segments between
    face crossings are integrated by Gauss quadrature, a batch of rows at a
    time.  With ``sweep = (k, on_faces, offset, n_faces)`` the rows have n_faces
    face columns, and an orbit also stops at the nearer of its two faces on
    axis k (unless k is None).  If that face is an interior one, the row picks
    up e^{-lam t - H(t)} J_{-t} at the corners of ``on_faces`` (the block whose
    axis k holds the interior faces as discrete values) where the orbit meets
    it, from column ``offset`` on.  Without a sweep the rows are whole."""
    n, n_cells = X.shape[0], model.grid.n_cells
    swept, on_faces, offset, n_faces = sweep or (None, None, 0, 0)
    hit = np.asarray(model.flow.hit_minus(X, mode), dtype=float)
    end = hit
    block = model.grid.block(mode)
    axes = [(k, ax) for k, ax in enumerate(block.axes) if isinstance(ax, ContinuousAxis)]
    for k, ax in axes:
        j = np.repeat([0, ax.n], n)  # the outer faces; on the swept axis the two around X
        if k == swept:
            j = np.clip(np.concatenate([np.searchsorted(ax.faces, X[:, k], "left") - 1,
                                        np.searchsorted(ax.faces, X[:, k], "right")]), 0, ax.n)
        t = _face_times(model, np.vstack([X, X]), mode, k, j).reshape(2, n)
        near = np.argmin(t, axis=0)
        tau, j = t[near, np.arange(n)], j.reshape(2, n)[near, np.arange(n)]
        end = np.minimum(end, tau)
        if k == swept:  # nan where the nearer face is an outer one
            tau_face = np.where((j > 0) & (j < ax.n), tau, np.nan)
    # cut where the discount exponent reaches the cutoff; inf when it stays below it forever
    end = hazard_crossing(model, X, mode, EXPONENT_CUTOFF, lam, horizon=end, backward=True)
    if np.isinf(end).any():
        raise DivergentIntegralError(f"backward line integral of {model.name!r} diverges in "
                                     f"mode {mode} at discount {lam}: an orbit never leaves "
                                     "the grid and its discount exponent stays bounded")
    Z = model.flow.phi(-end, X, mode)

    # the interior faces crossed on each axis lie between the start and end coordinates
    spans, crossings = [], np.zeros(n, dtype=np.int64)
    for k, ax in axes:
        lo, hi = np.minimum(X[:, k], Z[:, k]), np.maximum(X[:, k], Z[:, k])
        first = np.maximum(np.searchsorted(ax.faces, lo, side="right"), 1)
        count = np.maximum(np.minimum(np.searchsorted(ax.faces, hi, side="left"), ax.n) - first, 0)
        spans.append((k, first, count))
        crossings += count
    batch = np.cumsum(6 * (crossings + 1)) // _BATCH_NODES
    counts, cells, weights = map(np.concatenate, zip(*(
        _segments(model, mode, X[b], end[b], [(k, f[b], c[b]) for k, f, c in spans], lam)
        for b in np.split(np.arange(n), np.flatnonzero(np.diff(batch)) + 1))))

    # orbits that end on the inflow boundary pick up its density there, orbits
    # stopped by an interior face of the swept axis R0 at the face points
    wall = hit <= end
    factor = np.exp(-(lam * end + orbit_hazard(model, Z, mode, end))) \
        * np.asarray(model.flow.jac(-end, X, mode), dtype=float)
    stencil = np.zeros((n, 1), np.int64), np.zeros((n, 1))
    if wall.any():
        if model.gamma_minus.axis is None:
            raise ModelError(f"model {model.name!r} declares no axis for its inflow boundary")
        stencil = model.gamma_minus.stencil(Z)
    corners = [(wall, model.gamma_minus.n_cells, *stencil)]
    if swept is not None:
        idx, w = on_faces.corners(Z)
        corners.append((~wall & (end == tau_face), n_faces, idx + offset, w))
    # one CSR: each row's interior entries, then its nonzero pickups, column block by block
    starts = np.cumsum([n_cells] + [width for _, width, _, _ in corners])
    v = np.hstack([np.where(taken, factor, 0.0)[:, None] * w for taken, _, _, w in corners])
    cols = np.hstack([idx + start for (_, _, idx, _), start in zip(corners, starts)])
    r, j = np.nonzero(v)
    picks = np.bincount(r, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts + picks)))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int64)
    at = np.arange(cells.size) + np.repeat(np.cumsum(picks) - picks, counts)
    data[at], indices[at] = weights, cells
    at = np.arange(r.size) + np.cumsum(counts)[r]
    data[at], indices[at] = v[r, j], cols[r, j]
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(n, n_cells + model.gamma_minus.n_cells + n_faces))


def _matrices(model: PdmpModel, lam: float):
    """R0 factors for (model, lam), none holding a reference to the model:
    (rows, face rows, LU of I - W).  ``rows`` holds R0 at the cell centers,
    then at the outgoing-boundary points, over the stacked columns of _rows;
    the face rows hold R0 at the face points over the pair columns, and W is
    their face columns.  A swept block's face points are the cells of its face block."""
    per_model = _CACHE.setdefault(model, OrderedDict())
    key = float(lam)
    if key in per_model:
        per_model.move_to_end(key)
        return per_model[key]
    if model.backward_orbit is None:
        raise DivergentIntegralError(f"model {model.name!r} supplies no backward orbits")
    sweeps, n_faces = {}, 0  # mode -> (swept axis or None, its face points' block, offset)
    for b in model.grid.blocks:
        sizes = {k: a.n for k, a in enumerate(b.axes) if isinstance(a, ContinuousAxis) and a.n > 1}
        k = min(sizes, key=sizes.get, default=None)  # the fewest faces to sweep across
        on_faces = None if k is None else ModeBlock(b.mode, [  # axis k on its interior faces
            DiscreteAxis(a.faces[1:-1], np.ones(a.n - 1)) if j == k else a
            for j, a in enumerate(b.axes)])
        sweeps[b.mode] = (k, on_faces, n_faces)
        n_faces += 0 if k is None else on_faces.n_cells
    sweeps = {mode: (*s, n_faces) for mode, s in sweeps.items()}
    n_pair = model.grid.n_cells + model.gamma_minus.n_cells
    face_rows = sparse.vstack([*(_rows(model, mode, s[1].centers, lam, s)
                                 for mode, s in sweeps.items() if s[0] is not None),
                               sparse.csr_matrix((0, n_pair + n_faces))], format="csr")
    # face points are numbered along each sweep, where I - W is block triangular: no fill
    lu = splu(sparse.identity(n_faces, format="csc") - face_rows[:, n_pair:].tocsc(),
              permc_spec="NATURAL")
    face_rows = face_rows[:, :n_pair]
    points = [*((b.mode, b.centers) for b in model.grid.blocks),
              (model.gamma_plus.mode, model.gamma_plus.points)]
    rows = sparse.vstack([_rows(model, mode, X, lam, sweeps[mode]) for mode, X in points],
                         format="csr")
    per_model[key] = (rows, face_rows, lu)
    if len(per_model) > _CACHE_PER_MODEL:
        per_model.popitem(last=False)
    return per_model[key]


class ChainOperator(LinearOperator):
    """K_lam (jump law, rate, R0) on stacked (interior, inflow-boundary) vectors of
    either sign, as Krylov solvers need and GridDensity forbids; ``mass`` weighs
    them, ``applications`` counts the applications of K."""

    def __init__(self, model: PdmpModel, lam: float):
        if lam < 0:
            raise ValueError("discount must be nonnegative")
        self.model, self.factors, self.theta = model, _matrices(model, lam), model.rate_values()
        self.weights = np.concatenate([model.grid.weights, model.gamma_minus.weights])
        self.applications = 0
        super().__init__(float, (self.weights.size,) * 2)

    def mass(self, x: np.ndarray) -> float:
        """Weighted sum of a stacked vector: its mass, its L1 norm when x >= 0."""
        # einsum, not @: a BLAS dot wakes NumPy's thread pool, which then competes with ARPACK's
        return float(np.einsum("i,i", x, self.weights))

    def r0(self, x: np.ndarray):
        """R0 of a stacked vector: (interior values, outgoing-boundary trace)."""
        rows, face_rows, lu = self.factors
        # R0 at the face points, swept along each orbit, then at the cells and outgoing points
        y = rows @ np.concatenate([x, lu.solve(face_rows @ x)])
        return y[:self.model.grid.n_cells], y[self.model.grid.n_cells:]

    def _matvec(self, x):
        self.applications += 1
        r_int, r_out = self.r0(np.ravel(x))
        h, jump = self.theta * r_int, self.model.jump
        return np.concatenate([jump.p0(h, r_out), jump.p_partial(h, r_out)])


def _pair(model: PdmpModel, x: np.ndarray) -> DensityPair:
    return DensityPair(GridDensity(model.grid, x[:model.grid.n_cells]), x[model.grid.n_cells:])


def apply_R0(model: PdmpModel, pair: DensityPair, lam: float = 0.0):
    """Discounted backward line integral of a density pair.

    Returns (interior: GridDensity with the R0 values on the interior grid,
    outflux: values of the R0 trace on the outgoing-boundary cells).
    """
    x = np.concatenate([pair.interior.values, pair.boundary])
    r_int, r_out = ChainOperator(model, lam).r0(x)
    return GridDensity(model.grid, r_int), r_out


def apply_K(model: PdmpModel, pair: DensityPair, lam: float = 0.0) -> DensityPair:
    """One step of the (discounted) embedded jump chain on densities."""
    x = np.concatenate([pair.interior.values, pair.boundary])
    return _pair(model, ChainOperator(model, lam) @ x)


@dataclass
class InvariantResult:
    pair: DensityPair
    iterations: int    # applications of K
    increment: float   # L1 distance between K pair and pair
    mass_ratio: float  # |K pair| / |pair| at the fixed point (1 when stochastic)
    residual: float    # L1 distance between normalize(K pair) and pair


def invariant_of_K(
    model: PdmpModel,
    init: DensityPair | None = None,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> InvariantResult:
    """Invariant density pair of the jump chain: the eigenvector of K at 1.

    The first application of K to ``init`` raises NoInvariantDensityError
    when it loses the mass, and returns ``init`` if its one-step residual is
    below tol.  Otherwise ARPACK (``eigs`` from ``init``, relative accuracy
    tol; below four unknowns, too few for ARPACK, a dense eigensolve of K)
    gives the eigenvector of the largest real positive eigenvalue (-1 is on
    the unit circle too when the chain alternates between interior and
    boundary states), turned to positive mass, cleared of roundoff negatives
    and normalized.  ARPACK's restarts are capped at about max_iters
    applications of K (at least one restart: about 2 ncv applications).
    """
    if init is None:
        init = DensityPair(GridDensity.uniform(model.grid), np.zeros(model.gamma_minus.n_cells))
    if init.norm(model) <= 0:
        raise ValueError("initial pair must have positive mass")
    op = ChainOperator(model, 0.0)
    x = np.concatenate([init.interior.values, init.boundary]) / init.norm(model)
    kx = op @ x
    mass = op.mass(kx)
    if mass < 1e-8:
        raise NoInvariantDensityError(f"jump-chain iterates of {model.name!r} lost their mass (|K "
                                      f"pair| = {mass:.3e}); the chain has no invariant density")
    if op.mass(np.abs(kx / mass - x)) >= tol:
        n = op.shape[0]
        if n < _ARPACK_K + 2:  # too few unknowns for ARPACK: all eigenpairs of the dense K
            vals, vecs = np.linalg.eig(op @ np.eye(n))
        else:
            ncv = min(_ARPACK_NCV, n)
            try:
                vals, vecs = eigs(op, _ARPACK_K, ncv=ncv, v0=x, tol=tol,
                                  maxiter=max((max_iters - ncv) // (ncv - _ARPACK_K), 1))
            except ArpackNoConvergence:
                raise ConvergenceError(f"ARPACK found no invariant pair of {model.name!r} within "
                                       f"about {max_iters} applications of K") from None
        real = np.where((np.abs(vals.imag) <= tol * np.abs(vals)) & (vals.real > 0), vals.real, 0)
        if not real.any():
            raise ConvergenceError(f"K of {model.name!r} has no real positive eigenvalue in {vals}")
        x = vecs[:, np.argmax(real)].real
        x = np.maximum(x * np.sign(op.mass(x)), 0.0)
        x /= op.mass(x)
        kx = op @ x
        mass = op.mass(kx)
    return InvariantResult(_pair(model, x), op.applications, op.mass(np.abs(kx - x)), mass,
                           op.mass(np.abs(kx / mass - x)))


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
    c_star = float(h_int @ model.grid.weights) + float(h_plus @ model.gamma_plus.weights)
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
