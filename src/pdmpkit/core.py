"""State space, grids, flow maps and the model contract.

A model bundles the deterministic flow (with its volume cocycle), the
boundary atlases carrying the inflow/outflow measures, a jump rate and a
jump law split into an interior part and a boundary part.  Everything in
this module is immutable after construction and safe to share between
workers; all operations are pure functions of (model, inputs).

Conventions used throughout:

* points of one mode are passed around as ``(n, dim)`` float arrays;
* densities are piecewise constant on the interior grid, one value per
  cell, measured against the cell weights (the reference measure);
* boundary densities are one value per boundary cell, measured against
  the boundary weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, optimize, sparse

__all__ = [
    "PdmpError",
    "ModelError",
    "DivergentIntegralError",
    "ConvergenceError",
    "NoInvariantDensityError",
    "StatePoint",
    "OUT_OF_DOMAIN",
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
    "gauss3",
]

# discount exponent beyond which backward line integrals are truncated
# (relative truncation error about e^-45, far below every tolerance here)
EXPONENT_CUTOFF = 45.0

_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)


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


class _OutOfDomain:
    """Sentinel returned by :func:`advance` when the flow leaves the chart."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OUT_OF_DOMAIN"


OUT_OF_DOMAIN = _OutOfDomain()


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
        if np.any(self.weights <= 0):
            raise ValueError("discrete axis weights must be positive")

    @property
    def n(self) -> int:
        return self.values.size


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
                j = np.floor((x - ax.lo) / ax.dx).astype(np.int64)
                inside = (x >= ax.lo) & (x <= ax.hi)
                j = np.clip(j, 0, ax.n - 1)
                ok &= inside
            else:
                d = np.abs(x[:, None] - ax.values[None, :])
                j = np.argmin(d, axis=1)
                tol = 1e-9 * max(1.0, float(np.max(np.abs(ax.values))))
                ok &= d[np.arange(x.size), j] <= tol
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
                # ghost zeros one cell beyond each edge
                valid &= (u >= -1.0) & (u <= n)
                pair = base.astype(np.int64)[:, None] + np.array([0, 1])
                pair_w = np.stack([1.0 - frac, frac], axis=1)
                pair_w[(pair < 0) | (pair >= n)] = 0.0
                pair = np.minimum(np.maximum(pair, 0), n - 1)
                idx = (idx[:, :, None] * n + pair[:, None, :]).reshape(npts, 2 * idx.shape[1])
                w = (w[:, :, None] * pair_w[:, None, :]).reshape(npts, 2 * w.shape[1])
            else:
                d = np.abs(x[:, None] - ax.values[None, :])
                j = np.argmin(d, axis=1)
                tol = 1e-9 * max(1.0, float(np.max(np.abs(ax.values))))
                valid &= d[np.arange(npts), j] <= tol
                idx = idx * ax.n + j[:, None]
        w[~valid] = 0.0
        return idx, w

    def interpolation_matrix(self, X: np.ndarray) -> sparse.csr_matrix:
        """Sparse interpolation rows at the points X: multilinear along continuous axes,
        exact on discrete ones; zero beyond a ghost half-cell or off a discrete value."""
        return _csr_rows(*self.corners(X), self.n_cells)

    def interpolate(self, values: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The values interpolated at the points X."""
        return self.interpolation_matrix(X) @ values


def _csr_rows(idx: np.ndarray, w: np.ndarray, n_cols: int) -> sparse.csr_matrix:
    """The CSR matrix whose row i holds the weights w[i] at the columns idx[i]."""
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
        b = self.block(mode)
        return b.interpolate(values[self.block_slice(mode)], X)

    def centers(self, mode: int) -> np.ndarray:
        return self.block(mode).centers


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

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def empty(cls, dim: int = 1, mode: int = 0) -> "BoundaryGrid":
        return cls(mode=mode, points=np.zeros((0, dim)), weights=np.zeros(0))


# ---------------------------------------------------------------------------
# densities


_MASS_TOL = 1e-12


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
    def zero(cls, grid: InteriorGrid) -> "GridDensity":
        return cls(grid, np.zeros(grid.n_cells))

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
        if self.boundary.size:
            d += float(np.abs(self.boundary - other.boundary) @ model.gamma_minus.weights)
        return d


def l1_distance(f: GridDensity, g: GridDensity) -> float:
    return float(np.abs(f.values - g.values) @ f.grid.weights)


# ---------------------------------------------------------------------------
# flow and jumps


@dataclass(frozen=True)
class FlowMap:
    """The deterministic flow with its cocycle and boundary hitting times.

    All callables take the points of one mode as an ``(n, dim)`` array ``X``
    and return one value per row: ``phi(t, X, mode) -> (n, dim)``,
    ``jac(t, X, mode) -> (n,)`` with ``t`` a scalar or ``(n,)`` array of
    signed times, and ``hit_plus(X, mode)``/``hit_minus(X, mode) -> (n,)``,
    the forward/backward time to the outgoing/incoming boundary (``inf``
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
    density) and return the interior / inflow-boundary part of the post-jump
    density.  Both are linear and positivity preserving; for a conservative
    kernel they jointly preserve mass.  :meth:`PdmpModel.post_jump` applies
    the pair.

    ``sample(X, mode, rng) -> (X', modes')`` draws one post-jump state for
    each row of the ``(n, dim)`` pre-jump array ``X`` (all rows in ``mode``;
    a row on the outgoing boundary takes a boundary jump): ``X'`` is
    ``(n, dim)`` and ``modes'`` an ``(n,)`` integer array.  A sampler that
    takes no jump from some row raises :class:`ModelError`.
    """

    sample: Callable[[np.ndarray, int, np.random.Generator], tuple]
    p0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p_partial: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class PdmpModel:
    """Immutable bundle of the characteristics of one PDMP plus its grids.

    ``eq=False`` keeps identity hashing so models can key caches of
    precomputed quadrature matrices.

    The per-point callables follow the array contract of :class:`FlowMap`:
    ``rate(X, mode)``, ``inverse_hazard(X, mode, xi)`` (``xi`` an ``(n,)``
    array) and ``in_state_space(X, mode)`` each return one value per row of
    ``X``.  The Monte Carlo engine needs every mode to share one dimension.
    """

    name: str
    flow: FlowMap
    grid: InteriorGrid
    gamma_minus: BoundaryGrid
    gamma_plus: BoundaryGrid
    rate: Callable[[np.ndarray, int], np.ndarray]
    jump: JumpLaw
    # optional closed-form cumulative hazard along the forward orbit:
    # (X, mode, t) -> integral of the rate along [0, t]; vectorized like phi.
    # Without it :func:`orbit_hazard` integrates the rate numerically.
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
    # first interior cell along the entry characteristic of each Gamma- cell
    entry_cells: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    # time step used for one-sided trace extrapolation, per boundary cell
    trace_step_plus: np.ndarray | float = 0.0
    trace_step_minus: np.ndarray | float = 0.0
    min_crossing_time: float = math.inf
    params: dict = field(default_factory=dict)

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


def advance(model: PdmpModel, x: StatePoint, t: float):
    """Flow the point for a signed time.

    Returns ``phi_t(x)`` when the whole segment stays in the interior, a
    ``(StatePoint, hit_sign)`` tuple clamped at the boundary when ``|t|``
    reaches the hitting time, or :data:`OUT_OF_DOMAIN` when the flow leaves
    the model's chart without crossing a declared boundary.
    """
    if not np.isfinite(t):
        raise ValueError("advance requires a finite time")
    _check_point(model, x)
    X = x.coords[None, :]
    if t == 0.0:
        return StatePoint(x.coords.copy(), x.mode)
    if t > 0:
        th = float(model.flow.hit_plus(X, x.mode)[0])
        if t >= th:
            z = model.flow.phi(th, X, x.mode)[0]
            return StatePoint(z, x.mode), "plus"
    else:
        th = float(model.flow.hit_minus(X, x.mode)[0])
        if -t >= th:
            z = model.flow.phi(-th, X, x.mode)[0]
            return StatePoint(z, x.mode), "minus"
    P = model.flow.phi(float(t), X, x.mode)
    if not model.in_state_space(P, x.mode)[0]:
        return OUT_OF_DOMAIN
    return StatePoint(P[0], x.mode)


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
    over [0, t], with ``t`` a scalar or one time per row.

    Uses the model's closed-form ``cumulative_hazard`` when it has one, else
    adaptive quadrature row by row (raising :class:`ConvergenceError` when
    that fails).  For the hazard along a backward orbit from x over [0, t],
    pass the start points ``phi(-t, x)``.
    """
    if model.cumulative_hazard is not None:
        return np.asarray(model.cumulative_hazard(X, mode, t), dtype=float)
    ts = np.broadcast_to(np.asarray(t, dtype=float), (X.shape[0],))
    out = np.empty(X.shape[0])
    for i, (x, ti) in enumerate(zip(X, ts)):
        x = x[None, :]
        rate_on_orbit = lambda s: float(model.rate(model.flow.phi(float(s), x, mode), mode)[0])
        val, err = integrate.quad(rate_on_orbit, 0.0, ti, epsrel=1e-8, limit=200)
        if err > 1e-6 * max(1.0, abs(val)):
            raise ConvergenceError(
                "hazard quadrature did not converge; supply cumulative_hazard for this model"
            )
        out[i] = val
    return out


def hazard_integral(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Integral of the jump rate along the forward orbit over [0, t]."""
    _check_point(model, x)
    if t < 0:
        raise ValueError("hazard_integral requires t >= 0")
    return float(orbit_hazard(model, x.coords[None, :], x.mode, float(t)).ravel()[0])


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
    k = np.arange(seg.size) - (np.cumsum(n_sub) - n_sub)[seg]
    width = (b - a)[seg] / n_sub[seg]
    mid = a[seg] + k * width + 0.5 * width
    half = 0.5 * width
    nodes = (mid[:, None] + half[:, None] * _GL3_NODES).ravel()
    vals = np.asarray(f(nodes, np.repeat(seg, 3)), dtype=float)
    return np.bincount(seg, weights=half * (vals.reshape(-1, 3) @ _GL3_WEIGHTS),
                       minlength=n_sub.size)


def invert_hazard(model: PdmpModel, x: StatePoint, xi: float, t_hi: float) -> float:
    """Smallest s in (0, t_hi] with cumulative hazard equal to xi.

    The caller guarantees the hazard at ``t_hi`` is >= xi.  Time tolerance
    1e-10.
    """
    f = lambda s: hazard_integral(model, x, s) - xi
    return float(optimize.brentq(f, 0.0, t_hi, xtol=1e-10))
