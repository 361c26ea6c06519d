"""State space, grids, flow maps and the model contract.

A model bundles the deterministic flow (with its volume cocycle), the
boundary atlases carrying the inflow/outflow measures, a jump rate and a
jump law split into an interior part and a boundary part.  Everything in
this module is immutable after construction and safe to share between
workers; all operations are pure functions of (model, inputs).

Conventions used throughout:

* points of one mode are passed around as ``(n, dim)`` float arrays, and a
  subset of their rows is gathered with ``X.take(idx, axis=0)`` for integer
  indices and ``X.compress(mask, axis=0)`` for a boolean mask, not with
  ``X[idx]`` or ``X[mask]``: on such narrow arrays numpy's fancy indexing
  costs several times as much (numpy 2.4 on a 2-vCPU x86-64 host: 2.5 ms against
  0.37 ms to take 180 k rows of two columns, 5.1 ms against 0.71 ms to
  compress 330 k), and the R0 builder gathers every orbit's points so;
* densities are piecewise constant on the interior grid, one value per
  cell, measured against the cell weights (the reference measure);
* boundary densities are one value per boundary cell, measured against
  the boundary weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "PdmpError",
    "ModelError",
    "DivergentIntegralError",
    "ConvergenceError",
    "NoInvariantDensityError",
    "StatePoint",
    "ContinuousAxis",
    "DiscreteAxis",
    "ModeBlock",
    "InteriorGrid",
    "BoundaryGrid",
    "GridDensity",
    "DensityPair",
    "FlowMap",
    "JumpLaw",
    "PdmpModel",
    "EXPONENT_CUTOFF",
    "advance",
    "cocycle",
    "hitting_time",
    "hazard_integral",
    "orbit_hazard",
    "hazard_crossing",
    "gauss3",
]

# discount exponent beyond which backward line integrals are truncated
# (relative truncation error about e^-45, far below every tolerance here)
EXPONENT_CUTOFF = 45.0

_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)

# 4-point Gauss-Lobatto rule and its 7-point Kronrod extension on [-1, 1]
# (Gander & Gautschi, BIT 2000); the nodes include both ends
_LK_NODES = np.array([-1.0, -math.sqrt(2 / 3), -1 / math.sqrt(5), 0.0,
                      1 / math.sqrt(5), math.sqrt(2 / 3), 1.0])
_LK_WEIGHTS = np.array([77.0, 432.0, 625.0, 672.0, 625.0, 432.0, 77.0]) / 1470.0
_LK_ERROR = _LK_WEIGHTS - np.array([1.0, 0.0, 5.0, 0.0, 5.0, 0.0, 1.0]) / 6.0
_HAZARD_RTOL, _HAZARD_ATOL = 1e-10, 1e-12
_HAZARD_INTERVALS = 200  # per row, before ConvergenceError
_FACE_TOL = 1e-9  # cell widths: how far a face time's orbit may miss its face, or a face its ramp


class PdmpError(Exception):
    """Base class for errors raised by this package."""


class ModelError(PdmpError):
    """A model characteristic violated its contract (e.g. a jump sampler
    produced a point outside the state space)."""


class DivergentIntegralError(PdmpError):
    """A backward line integral genuinely diverges (infinite backward
    lifetime with vanishing discount)."""


class ConvergenceError(PdmpError):
    """An iteration failed to converge within its budget."""


class NoInvariantDensityError(PdmpError):
    """The jump-chain operator is strictly substochastic: its iterates lose
    all mass and no invariant density exists."""


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class StatePoint:
    """A point of the hybrid state space: coordinates plus a mode index."""

    coords: np.ndarray
    mode: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coords", np.atleast_1d(np.asarray(self.coords, dtype=float)))

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __repr__(self):  # keep short for error messages
        return f"StatePoint({np.array2string(self.coords, precision=6)}, mode={self.mode})"


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class ContinuousAxis:
    """A uniformly spaced axis of cell faces."""

    faces: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=float))
        if self.faces.ndim != 1 or self.faces.size < 2:
            raise ValueError("faces must be a 1-d array with at least two entries")
        # cells are located and weighed by dx alone: the faces must be a uniform, finite ramp
        dx = self.dx
        if not (np.isfinite(self.faces).all() and 0 < dx
                and np.all(np.abs(np.diff(self.faces) - dx) <= _FACE_TOL * dx)):
            raise ValueError(f"faces must be finite, increasing and equally spaced: {self.faces}")

    @property
    def n(self) -> int:
        return self.faces.size - 1

    @property
    def dx(self) -> float:
        return float(self.faces[1] - self.faces[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.faces[:-1] + self.faces[1:])

    @property
    def lo(self) -> float:
        return float(self.faces[0])

    @property
    def hi(self) -> float:
        return float(self.faces[-1])

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "ContinuousAxis":
        return cls(np.linspace(lo, hi, n + 1))


@dataclass(frozen=True)
class DiscreteAxis:
    """An axis of isolated coordinate values with point weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.values.shape != self.weights.shape:
            raise ValueError("values and weights must have equal shape")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("discrete axis weights must be finite and positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("discrete axis values must be finite")
        order = np.argsort(self.values, kind="stable")  # for nearest: sorted midpoints, roundoff
        v = self.values[order]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(v), initial=0.0)))
        if np.any(np.diff(v) <= tol):  # nearest could never tell such values apart
            raise ValueError(f"discrete axis values must be distinct beyond {tol:.1e}")
        object.__setattr__(self, "_search", (order, 0.5 * (v[1:] + v[:-1]), tol))

    @property
    def n(self) -> int:
        return self.values.size

    def nearest(self, x: np.ndarray):
        """Index of the value nearest to each x, and whether x is that value to roundoff:
        a search among the midpoints of the sorted values, O(n log m) time and O(n) memory."""
        order, mid, tol = self._search
        j = order[np.searchsorted(mid, x)]
        return j, np.abs(x - self.values[j]) <= tol


Axis = ContinuousAxis | DiscreteAxis


class ModeBlock:
    """Tensor-product cells of one mode of the interior grid."""

    def __init__(self, mode: int, axes: Sequence[Axis]):
        self.mode = int(mode)
        self.axes = tuple(axes)
        self.dim = len(self.axes)
        self.shape = tuple(ax.n for ax in self.axes)
        self.n_cells = int(np.prod(self.shape))
        mesh = np.meshgrid(
            *[ax.centers if isinstance(ax, ContinuousAxis) else ax.values for ax in self.axes],
            indexing="ij",
        )
        self.centers = np.stack([m.ravel() for m in mesh], axis=-1)
        wparts = [
            np.full(ax.n, ax.dx) if isinstance(ax, ContinuousAxis) else ax.weights
            for ax in self.axes
        ]
        wmesh = np.meshgrid(*wparts, indexing="ij")
        w = np.ones(self.shape)
        for wm in wmesh:
            w = w * wm
        self.weights = w.ravel()

    # -- lookup -------------------------------------------------------------

    def locate(self, X: np.ndarray) -> np.ndarray:
        """Flat cell index of each point, -1 for points outside the block."""
        X = np.atleast_2d(X)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        ok = np.ones(X.shape[0], dtype=bool)
        for k, ax in enumerate(self.axes):
            x = X[:, k]
            if isinstance(ax, ContinuousAxis):
                j = np.clip(np.floor((x - ax.lo) / ax.dx).astype(np.int64), 0, ax.n - 1)
                inside = (x >= ax.lo) & (x <= ax.hi)
            else:
                j, inside = ax.nearest(x)
            ok &= inside
            idx = idx * ax.n + j
        idx[~ok] = -1
        return idx

    def corners(self, X: np.ndarray):
        """Cell indices and weights of each point's interpolation corners, two (n, k) arrays."""
        X = np.atleast_2d(X)
        npts = X.shape[0]
        # a continuous axis doubles the corners, a discrete axis keeps them
        idx = np.zeros((npts, 1), dtype=np.int64)
        w = np.ones((npts, 1))
        valid = np.ones(npts, dtype=bool)
        for k, ax in enumerate(self.axes):
            x = X[:, k]
            if isinstance(ax, ContinuousAxis):
                n = ax.n
                u = (x - 0.5 * (ax.faces[0] + ax.faces[1])) / ax.dx
                base = np.floor(u)
                frac = u - base
                # within 16 ulps (of the axis's ends) of a cell center is on it: one corner
                tol = 16 * np.finfo(float).eps * (abs(ax.faces[0]) + abs(ax.faces[-1])) / ax.dx
                on = np.abs(frac - 0.5) >= 0.5 - tol
                frac[on] = np.rint(frac[on])
                # ghost zeros one cell beyond each edge
                valid &= (u >= -1.0) & (u <= n)
                pair = base.astype(np.int64)[:, None] + np.array([0, 1])
                pair_w = np.stack([1.0 - frac, frac], axis=1)
                pair_w[(pair < 0) | (pair >= n)] = 0.0
                pair = np.minimum(np.maximum(pair, 0), n - 1)
                idx = (idx[:, :, None] * n + pair[:, None, :]).reshape(npts, 2 * idx.shape[1])
                w = (w[:, :, None] * pair_w[:, None, :]).reshape(npts, 2 * w.shape[1])
            else:
                j, on_value = ax.nearest(x)
                valid &= on_value
                idx = idx * ax.n + j[:, None]
        w[~valid] = 0.0
        return idx, w


def _csr_rows(idx: np.ndarray, w: np.ndarray, n_cols: int) -> sparse.csr_matrix:
    """The CSR matrix whose row i holds the weights w[i] at the columns idx[i]."""
    from scipy import sparse  # here, so that the Monte Carlo route loads no scipy

    n, k = w.shape
    return sparse.csr_matrix((w.ravel(), idx.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n_cols))


class InteriorGrid:
    """Concatenated mode blocks with a flat cell numbering."""

    def __init__(self, blocks: Sequence[ModeBlock]):
        self.blocks = tuple(blocks)
        self.offsets = {}
        off = 0
        parts_w = []
        for b in self.blocks:
            if b.mode < 0:
                raise ModelError(f"mode {b.mode} is negative; modes are numbered from 0")
            self.offsets[b.mode] = off
            off += b.n_cells
            parts_w.append(b.weights)
        self.n_cells = off
        self.weights = np.concatenate(parts_w) if parts_w else np.zeros(0)

    def block(self, mode: int) -> ModeBlock:
        for b in self.blocks:
            if b.mode == mode:
                return b
        raise ModelError(f"mode {mode} is not declared by the model")

    def block_slice(self, mode: int) -> slice:
        b = self.block(mode)
        o = self.offsets[mode]
        return slice(o, o + b.n_cells)

    def locate(self, X: np.ndarray, mode: int) -> np.ndarray:
        b = self.block(mode)
        loc = b.locate(X)
        out = np.where(loc >= 0, loc + self.offsets[mode], -1)
        return out

    def interpolate(self, values: np.ndarray, X: np.ndarray, mode: int) -> np.ndarray:
        """The cell values interpolated at the points X of ``mode``: multilinear along
        continuous axes, exact on discrete ones; zero beyond a ghost half-cell or off a
        discrete value."""
        b = self.block(mode)
        return _csr_rows(*b.corners(X), b.n_cells) @ values[self.block_slice(mode)]


@dataclass(frozen=True)
class BoundaryGrid:
    """Finite cell list for one boundary component (all cells share a mode).

    ``axis = (column, Axis)``, when given, says that the cells are the cells
    of that axis along that state column: a boundary point z lies in the
    cells ``ModeBlock(mode, [Axis]).corners(z[:, [column]])``.  Backward line
    integrals that end on the incoming boundary need it.
    """

    mode: int
    points: np.ndarray   # (n, dim) representative boundary points
    weights: np.ndarray  # (n,) boundary measure weights
    axis: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("boundary points and weights disagree in length")
        if np.any(~np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("boundary weights must be finite and nonnegative")
        if self.axis is not None:
            idx, w = self.stencil(self.points)
            own = np.where(idx == np.arange(self.n_cells)[:, None], w, 0.0).sum(axis=1)
            if not (np.allclose(own, 1.0, rtol=0, atol=1e-9)
                    and np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-9)):
                raise ModelError("the boundary axis does not reproduce the boundary points")

    def stencil(self, Z: np.ndarray):
        """Boundary cells and weights of the points Z, two (n, k) arrays."""
        column, ax = self.axis
        return ModeBlock(self.mode, [ax]).corners(Z[:, [column]])

    @property
    def n_cells(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def empty(cls, dim: int = 1, mode: int = 0) -> "BoundaryGrid":
        return cls(mode=mode, points=np.zeros((0, dim)), weights=np.zeros(0))


# ---------------------------------------------------------------------------
# densities


class GridDensity:
    """A nonnegative piecewise-constant function on the interior grid."""

    def __init__(self, grid: InteriorGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise ValueError(f"expected {grid.n_cells} cell values, got {values.shape}")
        if np.any(~np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < -1e-12 * max(1.0, float(np.max(np.abs(values), initial=0.0)))):
            raise ValueError("density values must be nonnegative")
        self.grid = grid
        self.values = np.maximum(values, 0.0)

    @property
    def total_mass(self) -> float:
        return float(self.values @ self.grid.weights)

    def normalized(self) -> "GridDensity":
        m = self.total_mass
        if m <= 0:
            raise ValueError("cannot normalize a zero density")
        return GridDensity(self.grid, self.values / m)

    @classmethod
    def uniform(cls, grid: InteriorGrid) -> "GridDensity":
        return cls(grid, np.ones(grid.n_cells)).normalized()


@dataclass(frozen=True)
class DensityPair:
    """An interior density together with a boundary-influx density."""

    interior: GridDensity
    boundary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "boundary", np.atleast_1d(np.asarray(self.boundary, dtype=float)))
        if not np.all(np.isfinite(self.boundary)):
            raise ValueError("boundary density values must be finite")
        if np.any(self.boundary < -1e-12):
            raise ValueError("boundary density must be nonnegative")
        object.__setattr__(self, "boundary", np.maximum(self.boundary, 0.0))

    def norm(self, model: "PdmpModel") -> float:
        return self.interior.total_mass + float(self.boundary @ model.gamma_minus.weights)

    def scaled(self, c: float) -> "DensityPair":
        return DensityPair(GridDensity(self.interior.grid, self.interior.values * c), self.boundary * c)

    def l1(self, other: "DensityPair", model: "PdmpModel") -> float:
        """L1 distance to another pair, interior plus inflow boundary."""
        d = l1_distance(self.interior, other.interior)
        return d + float(np.abs(self.boundary - other.boundary) @ model.gamma_minus.weights)


def l1_distance(f: GridDensity, g: GridDensity) -> float:
    return float(np.abs(f.values - g.values) @ f.grid.weights)


# ---------------------------------------------------------------------------
# flow and jumps


@dataclass(frozen=True)
class FlowMap:
    """The deterministic flow with its cocycle and boundary hitting times.

    The model contract, which every callable of a model relies on: ``X`` is
    an ``(n, dim)`` float ndarray of points of one mode, which the callable
    must not modify, and it returns one value per row.  ``phi(t, X, mode) ->
    (n, dim)`` and ``jac(t, X, mode) -> (n,)`` take ``t``, signed times, as
    a float or an ``(n,)`` array; ``hit_plus(X, mode)``/``hit_minus(X, mode)``
    give the forward/backward time to the outgoing/incoming boundary (``inf``
    when that boundary is never hit, 0 on the respective boundary).
    """

    phi: Callable[[np.ndarray | float, np.ndarray, int], np.ndarray]
    jac: Callable[[np.ndarray | float, np.ndarray, int], np.ndarray]
    hit_plus: Callable[[np.ndarray, int], np.ndarray]
    hit_minus: Callable[[np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class JumpLaw:
    """The jump distribution, both as a sampler and as density operators.

    ``p0``/``p_partial`` act on a pair (interior density, outflow-boundary
    density), given as 1-d float arrays ``h_int`` (one value per interior
    cell) and ``h_plus`` (one per outgoing-boundary cell), and return the
    interior / inflow-boundary part of the post-jump density.  Both are
    linear and positivity preserving; for a conservative kernel they jointly
    preserve mass.  :meth:`PdmpModel.post_jump` applies the pair.

    ``sample(X, mode, rng) -> (X', modes')`` draws one post-jump state for
    each row of the pre-jump points ``X`` (as in :class:`FlowMap`; all rows
    in ``mode``; a row on the outgoing boundary takes a boundary jump):
    ``X'`` is ``(n, dim)`` and ``modes'`` an ``(n,)`` integer array.  A
    sampler that takes no jump from some row raises :class:`ModelError`.
    """

    sample: Callable[[np.ndarray, int, np.random.Generator], tuple]
    p0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p_partial: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class PdmpModel:
    """Immutable bundle of the characteristics of one PDMP plus its grids.

    ``eq=False`` keeps identity hashing so models can key caches of
    precomputed quadrature matrices.

    Its per-point callables follow the contract of :class:`FlowMap`, and the
    ``t``, ``xi`` and ``a`` of ``cumulative_hazard``, ``inverse_hazard`` and
    ``backward_orbit`` are always ``(n,)`` float arrays.  The Monte Carlo
    engine needs every mode to share one dimension.

    Construction derives the boundary geometry from the grid and the flow:
    ``entry_cells`` (the cell of each Gamma- point, where its influx enters),
    ``entry_scale`` (w-/w[entry_cells], from Gamma- influx to entry-cell density),
    ``trace_step_plus``/``trace_step_minus`` (twice the time between each
    Gamma+/Gamma- point and the center of its cell) and ``min_crossing_time``
    (the shortest backward face-to-face time through a cell, by
    ``backward_orbit``; inf without it).  A boundary point off the grid, a
    trace step that is not positive and finite, or a face time whose orbit
    misses its face raises :class:`ModelError`.
    """

    name: str
    flow: FlowMap
    grid: InteriorGrid
    gamma_minus: BoundaryGrid
    gamma_plus: BoundaryGrid
    rate: Callable[[np.ndarray, int], np.ndarray]
    jump: JumpLaw
    # optional closed-form cumulative hazard along the forward orbit:
    # (X, mode, t) -> (n,) integral of the rate along [0, t[i]].  Without it
    # :func:`orbit_hazard` integrates the rate numerically.
    cumulative_hazard: Optional[Callable[[np.ndarray, int, np.ndarray | float], np.ndarray]] = None
    # optional closed-form inverse of the cumulative hazard:
    # (X, mode, xi) -> (n,) smallest t with hazard(t) = xi, inf when the
    # hazard never gets there (may exceed hit_plus).  Without it the
    # simulator finds each holding time by root finding.
    inverse_hazard: Optional[Callable[[np.ndarray, int, np.ndarray], np.ndarray]] = None
    # face-time hook for backward line integrals: (X, mode, axis, a) -> (n,)
    # backward time at which coordinate ``axis`` of the orbit from X[i]
    # equals a[i]; a value <= 0, NaN or inf when it never does.  Each
    # continuous coordinate must be monotone along orbits, so each face is
    # crossed at most once.
    backward_orbit: Optional[Callable[[np.ndarray, int, int, np.ndarray], np.ndarray]] = None
    # (X, mode) -> (n,) bool: which rows lie in the state space
    in_state_space: Callable[[np.ndarray, int], np.ndarray] = (
        lambda X, m: np.ones(np.shape(X)[0], dtype=bool)
    )
    params: dict = field(default_factory=dict)
    entry_cells: np.ndarray = field(init=False)
    entry_scale: np.ndarray = field(init=False)
    trace_step_plus: np.ndarray = field(init=False)
    trace_step_minus: np.ndarray = field(init=False)
    min_crossing_time: float = field(init=False)

    def __post_init__(self):
        for side, boundary, hit in (("plus", self.gamma_plus, self.flow.hit_plus),
                                    ("minus", self.gamma_minus, self.flow.hit_minus)):
            cells = self.grid.locate(boundary.points, boundary.mode)
            if np.any(cells < 0):
                raise ModelError(f"a gamma_{side} point of model {self.name!r} lies off the grid")
            b = self.grid.block(boundary.mode)
            centers = b.centers[cells - self.grid.offsets[boundary.mode]]
            step = 2.0 * np.asarray(hit(centers, boundary.mode), dtype=float)
            if not np.all((step > 0) & np.isfinite(step)):
                raise ModelError(f"gamma_{side} trace steps of {self.name!r} must be positive and finite")
            object.__setattr__(self, f"trace_step_{side}", step)
        object.__setattr__(self, "entry_cells", cells)  # the loop ends on gamma_minus
        object.__setattr__(self, "entry_scale", self.gamma_minus.weights / self.grid.weights[cells])
        crossing = [math.inf]
        for b in self.grid.blocks if self.backward_orbit is not None else ():
            for k, ax in enumerate(b.axes):
                if isinstance(ax, ContinuousAxis):  # from each face of each cell back to the other
                    j = np.unravel_index(np.arange(b.n_cells), b.shape)[k]
                    X = np.vstack([b.centers, b.centers])
                    X[:, k] = ax.faces[np.r_[j + 1, j]]
                    crossing.append(_face_times(self, X, b.mode, k, np.r_[j, j + 1]).min())
        object.__setattr__(self, "min_crossing_time", float(min(crossing)))

    def rate_values(self) -> np.ndarray:
        """Jump rate evaluated at every interior cell center."""
        out = np.zeros(self.grid.n_cells)
        for b in self.grid.blocks:
            out[self.grid.block_slice(b.mode)] = self.rate(b.centers, b.mode)
        return out

    def post_jump(self, h_int: np.ndarray, h_plus: np.ndarray) -> DensityPair:
        """The jump law applied to a jump intensity: interior rate-jump
        intensity ``h_int`` (per cell) and outflux ``h_plus`` (per outgoing
        boundary cell) give the post-jump interior density and the influx
        density on the incoming boundary."""
        return DensityPair(
            GridDensity(self.grid, self.jump.p0(h_int, h_plus)), self.jump.p_partial(h_int, h_plus)
        )


# ---------------------------------------------------------------------------
# core operations


def _check_point(model: PdmpModel, x: StatePoint) -> None:
    try:
        b = model.grid.block(x.mode)
    except ModelError:
        raise ModelError(f"mode {x.mode} not declared by model {model.name!r}")
    if x.dim != b.dim:
        raise ModelError(
            f"point has dimension {x.dim}, mode {x.mode} of {model.name!r} expects {b.dim}"
        )


def _flow_step(model: PdmpModel, X: np.ndarray, mode: int, t, th) -> np.ndarray:
    """phi_t of the rows of X, all in ``mode``, for signed times t (a float or one
    per row) with |t| <= th, the time to the boundary that t heads for.  A row that
    stops short of that boundary and leaves the chart raises :class:`ModelError`."""
    Y = model.flow.phi(t, X, mode)
    inside = (np.abs(t) >= th) | model.in_state_space(Y, mode)
    if not np.all(inside):
        i = np.argmin(inside)
        raise ModelError(f"flow of {model.name!r} left the chart from {StatePoint(X[i], mode)} "
                         f"within t={np.broadcast_to(t, inside.shape)[i]}")
    return Y


def advance(model: PdmpModel, x: StatePoint, t: float):
    """Flow the point for a signed time: the one-row flow step of the
    Monte Carlo engine.

    Returns ``phi_t(x)`` when the whole segment stays in the interior, a
    ``(StatePoint, hit_sign)`` tuple clamped at the boundary when ``|t|``
    reaches the hitting time.  Raises :class:`ModelError` when the flow
    leaves the model's chart without crossing a declared boundary.
    """
    if not np.isfinite(t):
        raise ValueError("advance requires a finite time")
    _check_point(model, x)
    if t == 0.0:
        return StatePoint(x.coords.copy(), x.mode)
    X = x.coords[None, :]
    th = float((model.flow.hit_plus if t > 0 else model.flow.hit_minus)(X, x.mode)[0])
    y = StatePoint(_flow_step(model, X, x.mode, math.copysign(min(abs(t), th), t), th)[0], x.mode)
    return (y, "plus" if t > 0 else "minus") if abs(t) >= th else y


def cocycle(model: PdmpModel, x: StatePoint, t: float) -> float:
    """The volume cocycle J_t(x) of the flow."""
    _check_point(model, x)
    return float(model.flow.jac(float(t), x.coords[None, :], x.mode)[0])


def hitting_time(model: PdmpModel, x: StatePoint, sign: str) -> float:
    """Forward time to the outgoing boundary or backward time to the
    incoming boundary; ``inf`` when that boundary is never hit."""
    _check_point(model, x)
    X = x.coords[None, :]
    if sign == "forward":
        return float(model.flow.hit_plus(X, x.mode)[0])
    if sign == "backward":
        return float(model.flow.hit_minus(X, x.mode)[0])
    raise ValueError("sign must be 'forward' or 'backward'")


def orbit_hazard(model: PdmpModel, X: np.ndarray, mode: int, t) -> np.ndarray:
    """Integral of the jump rate along the forward orbit from each row of X
    over [0, t], with ``t`` a finite scalar or one finite time per row.

    Uses the model's closed-form ``cumulative_hazard`` when it has one, else
    one adaptive Lobatto-Kronrod rule over all rows at once: each row starts
    from [0, t] cut at 1, 2, 4, ..., and each pass evaluates every new
    interval with one ``phi`` and one ``rate`` call.  A row is done once its
    summed |K7 - G4| estimates are at most max(1e-12, 1e-10 |H|); until then
    the intervals whose estimate exceeds the row's budget per interval are
    halved.  A rate that is not finite on the orbit, or a row that needs more
    than 200 intervals (so at most 200 passes), raises
    :class:`ConvergenceError`.  For the hazard
    along a backward orbit from x over [0, t], pass the start points
    ``phi(-t, x)``.
    """
    n = X.shape[0]
    ts = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    if model.cumulative_hazard is not None:
        return np.asarray(model.cumulative_hazard(X, mode, ts), dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("orbit_hazard requires finite times")
    # start intervals [0, 1], [1, 2], [2, 4], ..., ending at t
    count = 1 + np.ceil(np.log2(np.maximum(ts, 1.0))).astype(np.int64)
    row = np.repeat(np.arange(n), count)
    k = np.arange(row.size) - (np.cumsum(count) - count)[row]
    a, b = np.where(k > 0, 2.0 ** (k - 1), 0.0), np.minimum(2.0**k, ts[row])

    def rule(row, a, b):
        half = 0.5 * (b - a)
        S = (a + half)[:, None] + half[:, None] * _LK_NODES
        S[:, 0], S[:, -1] = a, b  # the ends exactly: no node lies past t
        Y = model.flow.phi(S.ravel(), X.take(np.repeat(row, 7), axis=0), mode)
        f = np.asarray(model.rate(Y, mode), dtype=float).reshape(-1, 7)
        if not np.isfinite(f).all():
            raise ConvergenceError(f"the rate of {model.name!r} is not finite along an orbit "
                                   f"in mode {mode}; its hazard has no value")
        return half * (f @ _LK_WEIGHTS), np.abs(half * (f @ _LK_ERROR))

    val, err = rule(row, a, b)
    while True:
        H = np.bincount(row, val, n)
        budget = np.maximum(_HAZARD_ATOL, _HAZARD_RTOL * np.abs(H))
        unmet = np.bincount(row, err, n) > budget
        if not unmet.any():
            return H
        count = np.bincount(row, minlength=n)
        if count[unmet].max() >= _HAZARD_INTERVALS:
            raise ConvergenceError(f"hazard quadrature of {model.name!r} did not converge in "
                                   f"mode {mode}; supply cumulative_hazard for this model")
        # halve the intervals of unmet rows whose estimate exceeds the row's budget per interval
        split = err > np.where(unmet, budget / count, np.inf)[row]
        keep, r, lo, hi = ~split, row[split], a[split], b[split]
        mid, m = 0.5 * (lo + hi), row.size - r.size
        row, a, b = (np.concatenate(p) for p in ((row[keep], r, r), (a[keep], lo, mid),
                                                 (b[keep], mid, hi)))
        v, e = rule(row[m:], a[m:], b[m:])
        val, err = np.concatenate((val[keep], v)), np.concatenate((err[keep], e))


def _face_times(model: PdmpModel, X: np.ndarray, mode: int, axis: int, j: np.ndarray) -> np.ndarray:
    """Backward time from each row of X to face j of axis ``axis``, by the model's
    ``backward_orbit``; inf where the orbit never gets there.  A time whose orbit
    misses its face by more than _FACE_TOL cell widths raises :class:`ModelError`."""
    ax = model.grid.block(mode).axes[axis]
    a = ax.faces[j]
    t = np.asarray(model.backward_orbit(X, mode, axis, a), dtype=float)
    hit = (t > 0) & np.isfinite(t)
    miss = np.max(np.abs(model.flow.phi(-t.compress(hit), X.compress(hit, axis=0), mode)[:, axis]
                         - a.compress(hit)), initial=0.0)
    if miss > _FACE_TOL * ax.dx:
        raise ModelError(f"backward_orbit of {model.name!r} (mode {mode}, axis {axis}) gives "
                         f"face times whose orbits miss their face by up to {miss:.3e}")
    return np.where(hit, t, math.inf)


def hazard_integral(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Integral of the jump rate along the forward orbit over [0, t]."""
    _check_point(model, x)
    if t < 0:
        raise ValueError("hazard_integral requires t >= 0")
    return float(orbit_hazard(model, x.coords[None, :], x.mode, float(t))[0])


def hazard_crossing(model: PdmpModel, X: np.ndarray, mode: int, level, lam: float = 0.0,
                    horizon=math.inf, backward: bool = False) -> np.ndarray:
    """Smallest t > 0 with lam*t + H(t) = level for each row of X, H the
    :func:`orbit_hazard` along the forward (or ``backward``) orbit from that
    row; ``level`` and ``horizon`` are scalars or one value per row.

    Gives the horizon where lam*t + H(t) <= level there, and inf where the
    level is never reached: t doubles from 1 up to the horizon, and a row
    gives up after 200 doublings or once a doubling past 2^20 gains under
    1e-12.  Illinois steps (regula falsi, halving the value at a stale end)
    then narrow each bracket to 1e-10 in time, one orbit_hazard call a step.
    """
    n = X.shape[0]
    level, horizon = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (level, horizon))

    def excess(rows, t):
        Xr = X.take(rows, axis=0)
        return lam * t - level[rows] + orbit_hazard(
            model, model.flow.phi(-t, Xr, mode) if backward else Xr, mode, t)

    T = np.column_stack([np.zeros(n), np.minimum(1.0, horizon)])  # bracket ends
    G = np.column_stack([-level, np.zeros(n)])  # excess there: G[:, 0] < 0 <= G[:, 1]
    rows, out = np.arange(n), np.full(n, math.inf)
    for _ in range(200):
        G[rows, 1] = g = excess(rows, T[rows, 1])
        edge = T[rows, 1] >= horizon[rows]
        out[rows[edge & (g <= 0)]] = horizon[rows[edge & (g <= 0)]]
        out[rows[np.isnan(g)]] = np.nan
        short = (g < 0) & ~edge & ((T[rows, 1] <= 2.0**20) | (g - G[rows, 0] >= 1e-12))
        if not short.any():
            break
        rows = rows[short]
        G[rows, 0], T[rows] = g[short], np.minimum(T[rows, 1:] * [1.0, 2.0], horizon[rows, None])
    rows, side = np.flatnonzero((G[:, 1] >= 0) & np.isinf(out)), np.full(n, -1)
    for _ in range(100):
        (a, b), (ga, gb) = T[rows].T, G[rows].T
        w, tol = b - a, 1e-10 + 4.0 * np.finfo(float).eps * b
        c = a + w * np.where(np.isfinite(gb), ga / (ga - gb), 0.5)
        done = (w <= tol) | (gb == 0)
        out[rows[done]] = c[done]
        rows, c = rows[~done], np.clip(c, a + 0.5 * tol, b - 0.5 * tol)[~done]
        if not rows.size:
            return out
        g = excess(rows, c)
        k = np.where(g < 0, 0, 1)  # the end that c replaces
        again = side[rows] == k
        G[rows[again], 1 - k[again]] *= 0.5  # Illinois: halve the excess at a stale end
        T[rows, k], G[rows, k], side[rows] = c, g, k
    raise ConvergenceError(f"hazard crossing of {model.name!r} did not converge in mode {mode}")


def gauss3(a: np.ndarray, b: np.ndarray, n_sub: np.ndarray, f) -> np.ndarray:
    """Composite 3-point Gauss-Legendre integrals of f over the intervals
    [a_i, b_i], each cut into n_sub_i equal sub-intervals.

    ``f(t, seg)`` takes the flat array of all nodes and each node's interval
    index, and returns one value per node; the result holds one integral per
    interval.  Exact for quintics.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n_sub = np.asarray(n_sub, dtype=np.int64)
    seg = np.repeat(np.arange(n_sub.size), n_sub)
    k = np.arange(seg.size) - (np.cumsum(n_sub) - n_sub).take(seg)
    width = (b - a).take(seg) / n_sub.take(seg)
    mid = a.take(seg) + k * width + 0.5 * width
    half = 0.5 * width
    nodes = np.empty((seg.size, 3))  # a node per column: a broadcast over 3 columns is slower
    for q, node in enumerate(_GL3_NODES):
        np.add(mid, half * node, out=nodes[:, q])
    vals = np.asarray(f(nodes.ravel(), np.repeat(seg, 3)), dtype=float)
    return np.bincount(seg, weights=half * (vals.reshape(-1, 3) @ _GL3_WEIGHTS),
                       minlength=n_sub.size)
