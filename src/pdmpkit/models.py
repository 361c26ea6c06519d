"""Built-in models.

Five instances exercise the whole kit:

* ``m1`` — unit drift on (0,1), absorbing top boundary with uniform restart;
* ``m2`` — free unit drift on the line, no boundaries, no jumps;
* ``m3`` — no motion, constant jump rate q, uniform redistribution on (0,1);
* cell cycle — two-phase size-structured growth/division model on a hybrid
  state space (phase I: size grows, random entry into phase II; phase II:
  fixed duration, then division into two halves);
* kinetic slab — free streaming on (0, L) with a finite velocity set,
  reflecting/diffusing walls and an optional collision kernel.

The cell-cycle section also carries the scalar division-cycle operator P1
acting on newborn-size densities, its invariant density, and the lift of
that density to a stationary density of the full flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BoundaryGrid,
    ContinuousAxis,
    ConvergenceError,
    DiscreteAxis,
    FlowMap,
    GridDensity,
    InteriorGrid,
    JumpLaw,
    ModeBlock,
    ModelError,
    PdmpModel,
)

__all__ = [
    "build_drift_redistribute",
    "CellCycleParams",
    "build_cell_cycle",
    "p1_apply",
    "p1_invariant",
    "cell_cycle_lift",
    "KineticSlabParams",
    "build_kinetic_slab",
]

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)

_P1_TOL, _P1_MAX_ITERS = 1e-12, 5000  # division-cycle power iteration: L1 increment, sweeps
_PHASE1_BLOCK = 8  # sizes per vectorized pass of the lift's mean_phase1


# ---------------------------------------------------------------------------
# M1 / M2 / M3: one-dimensional drift-and-redistribute family


def build_drift_redistribute(
    variant: str = "m1",
    n_cells: int = 200,
    q: float = 1.0,
    span: tuple = (0.0, 5.0),
) -> PdmpModel:
    """One-dimensional reference models.

    variant "m1": unit drift on (0,1); the flow is forced to jump at x=1 and
    restarts uniformly on (0,1); no interior jump rate.
    variant "m2": unit drift on the whole line (gridded window ``span``),
    no boundaries, no jumps.
    variant "m3": static flow on (0,1) with constant rate ``q`` and uniform
    redistribution — a pure jump process.
    """
    if variant not in ("m1", "m2", "m3"):
        raise ModelError(f"unknown variant {variant!r}")

    if variant == "m2":
        lo, hi = float(span[0]), float(span[1])
    else:
        lo, hi = 0.0, 1.0
    axis = ContinuousAxis.uniform(lo, hi, n_cells)
    grid = InteriorGrid([ModeBlock(0, [axis])])
    drifting = variant in ("m1", "m2")

    def phi(t, X, mode):
        out = X.copy()
        if drifting:
            out[:, 0] = X[:, 0] + t
        return out

    def jac(t, X, mode):
        return np.ones(X.shape[0])

    if variant == "m1":
        hit_plus = lambda X, mode: 1.0 - X[:, 0]
        hit_minus = lambda X, mode: X[:, 0].copy()
        gamma_minus = BoundaryGrid(0, np.array([[0.0]]), np.array([1.0]),
                                   axis=(0, DiscreteAxis([0.0], [1.0])))
        gamma_plus = BoundaryGrid(0, np.array([[1.0]]), np.array([1.0]))
    else:
        inf_times = lambda X, mode: np.full(X.shape[0], np.inf)
        hit_plus = hit_minus = inf_times
        gamma_minus = BoundaryGrid.empty(1, 0)
        gamma_plus = BoundaryGrid.empty(1, 0)

    def in_space(X, mode):
        x = X[:, 0]
        if variant == "m2":
            return np.ones(x.shape, dtype=bool)
        return (0.0 <= x) & (x <= 1.0)

    qv = float(q) if variant == "m3" else 0.0

    def rate(X, mode):
        return np.full(X.shape[0], qv)

    def cumulative_hazard(X, mode, t):
        return qv * t

    def inverse_hazard(X, mode, xi):
        return xi / qv if qv > 0 else np.full(xi.shape, np.inf)

    # jump law: uniform restart on (0,1); only m1 (from the boundary) and m3
    # (from the interior) ever jump.  The restart density is the jumped mass
    # over the domain's measure, so the weights are divided by it once here.
    domain_measure = grid.weights.sum()
    w_int, w_plus = grid.weights / domain_measure, gamma_plus.weights / domain_measure
    n_minus = gamma_minus.n_cells

    def sample(X, mode, rng):
        if variant == "m2":
            raise ModelError("m2 has no jump mechanism")
        n = X.shape[0]
        return rng.random((n, 1)), np.zeros(n, dtype=np.int64)

    def p0(h_int, h_plus):
        if variant == "m2":
            return np.zeros(grid.n_cells)
        return np.full(grid.n_cells, h_int @ w_int + h_plus @ w_plus)

    def p_partial(h_int, h_plus):
        return np.zeros(n_minus)

    jump = JumpLaw(sample=sample, p0=p0, p_partial=p_partial)

    def backward_orbit(X, mode, axis, a):  # a static orbit reaches no other face
        return X[:, 0] - a if drifting else np.full(X.shape[0], np.inf)

    return PdmpModel(
        name=variant,
        flow=FlowMap(phi=phi, jac=jac, hit_plus=hit_plus, hit_minus=hit_minus),
        grid=grid,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        rate=rate,
        jump=jump,
        cumulative_hazard=cumulative_hazard,
        inverse_hazard=inverse_hazard,
        backward_orbit=backward_orbit,
        in_state_space=in_space,
        params={"variant": variant, "n_cells": n_cells, "q": qv, "span": (lo, hi)},
    )


# ---------------------------------------------------------------------------
# cell cycle


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _ident(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class CellCycleParams:
    """Parameters of the two-phase cell cycle model.

    ``growth`` is the size growth rate g(x) > 0, ``entry_rate`` the
    size-dependent rate of entering phase II.  ``growth_time`` is an
    antiderivative of 1/g (so the size flow is
    growth_time_inv(growth_time(x) + t)), and ``hazard_anti`` an
    antiderivative Q of entry_rate/g; closed forms are required so no
    singular quadrature is ever attempted.  Defaults are the analytically
    tractable toy instance g = 1, entry_rate = 1, t_phase2 = 1.
    """

    growth: Callable = _one
    entry_rate: Callable = _one
    t_phase2: float = 1.0
    x_max: float = 20.0
    n_x: int = 400
    n_y: int = 20
    growth_time: Callable = _ident
    growth_time_inv: Callable = _ident
    hazard_anti: Callable = _ident       # Q
    hazard_anti_inv: Optional[Callable] = _ident

    def size_axis(self) -> ContinuousAxis:
        return ContinuousAxis.uniform(0.0, self.x_max, self.n_x)

    def newborn_size(self, x):
        """Size at phase-II entry that divides into newborns of size x."""
        x = np.asarray(x, dtype=float)
        return self.growth_time_inv(self.growth_time(2.0 * x) - self.t_phase2)


def build_cell_cycle(p: CellCycleParams = CellCycleParams()) -> PdmpModel:
    """Hybrid model: mode 0 = phase I (size x, clock frozen at 0), mode 1 =
    phase II (size keeps growing, clock y runs to t_phase2, then the cell
    divides into two cells of half size back in phase I)."""
    xaxis = p.size_axis()
    yaxis = ContinuousAxis.uniform(0.0, p.t_phase2, p.n_y)
    dx = xaxis.dx
    block0 = ModeBlock(0, [xaxis, DiscreteAxis([0.0], [1.0])])
    block1 = ModeBlock(1, [xaxis, yaxis])
    grid = InteriorGrid([block0, block1])
    n_x = p.n_x

    xc = xaxis.centers
    bpts_minus = np.column_stack([xc, np.zeros(n_x)])
    bpts_plus = np.column_stack([xc, np.full(n_x, p.t_phase2)])
    gamma_minus = BoundaryGrid(1, bpts_minus, np.full(n_x, dx), axis=(0, xaxis))
    gamma_plus = BoundaryGrid(1, bpts_plus, np.full(n_x, dx))

    G, Gi, Q = p.growth_time, p.growth_time_inv, p.hazard_anti

    def phi(t, X, mode):
        out = np.empty_like(X)
        out[:, 0] = Gi(G(X[:, 0]) + t)
        out[:, 1] = X[:, 1] + t if mode == 1 else X[:, 1]
        return out

    def jac(t, X, mode):
        x1 = Gi(G(X[:, 0]) + t)
        return np.asarray(p.growth(x1) / p.growth(X[:, 0]), dtype=float)

    def hit_plus(X, mode):
        if mode == 0:
            return np.full(X.shape[0], np.inf)
        return p.t_phase2 - X[:, 1]

    def hit_minus(X, mode):
        if mode == 0:
            return np.full(X.shape[0], np.inf)
        return X[:, 1].copy()

    def rate(X, mode):
        if mode == 0:
            return np.asarray(p.entry_rate(X[:, 0]), dtype=float)
        return np.zeros(X.shape[0])

    def cumulative_hazard(X, mode, t):
        if mode != 0:
            return np.zeros(X.shape[0])
        return np.asarray(Q(Gi(G(X[:, 0]) + t)) - Q(X[:, 0]), dtype=float)

    inverse_hazard = None
    if p.hazard_anti_inv is not None:
        Qi = p.hazard_anti_inv

        def inverse_hazard(X, mode, xi):
            if mode != 0:
                return np.full(xi.shape, np.inf)
            x = X[:, 0]
            return np.asarray(G(Qi(Q(x) + xi)) - G(x), dtype=float)

    def sample(X, mode, rng):
        # phase I -> phase II keeps the size; division halves it
        out = np.zeros_like(X)
        out[:, 0] = X[:, 0] if mode == 0 else X[:, 0] / 2.0
        return out, np.full(X.shape[0], 1 - mode, dtype=np.int64)

    s0 = grid.block_slice(0)
    faces = xaxis.faces

    def p0(h_int, h_plus):
        # division: boundary outflux at size u becomes newborns of size u/2
        # with density factor 2; assembled through cumulative masses so the
        # overlap with newborn cells is mass-exact.
        cmass = _prefix(xaxis, h_plus * dx, lambda k, u: h_plus[k] * (u - faces[k]))
        newborn_mass = cmass(2.0 * faces[1:]) - cmass(2.0 * faces[:-1])
        out = np.zeros(grid.n_cells)
        out[s0] = newborn_mass / dx
        return out

    def p_partial(h_int, h_plus):
        # phase-I -> phase-II entry lands on the inflow boundary at y=0;
        # interior mode-0 density (per dx) maps cellwise to the boundary
        # density (per m^- = dx)
        return h_int[s0].copy()

    jump = JumpLaw(sample=sample, p0=p0, p_partial=p_partial)

    def backward_orbit(X, mode, axis, a):
        # axis 1 is continuous in phase II only, where the clock runs at unit speed
        if axis == 0:
            return G(X[:, 0]) - G(a)
        return X[:, 1] - a

    def in_space(X, mode):
        x, y = X[:, 0], X[:, 1]
        if mode == 0:
            return (x > 0) & (np.abs(y) < 1e-12)
        return (x > 0) & (-1e-12 <= y) & (y <= p.t_phase2 + 1e-12)

    return PdmpModel(
        name="cell_cycle",
        flow=FlowMap(phi=phi, jac=jac, hit_plus=hit_plus, hit_minus=hit_minus),
        grid=grid,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        rate=rate,
        jump=jump,
        cumulative_hazard=cumulative_hazard,
        inverse_hazard=inverse_hazard,
        backward_orbit=backward_orbit,
        in_state_space=in_space,
        params={"cc": p},
    )


# -- scalar division-cycle operator -----------------------------------------


def _gauss_partial(fn, a, b):
    """Vectorized Gauss(8) of fn over the intervals [a_i, b_i] (float arrays)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[..., None] + half[..., None] * _GL8_NODES
    return half * (fn(t) @ _GL8_WEIGHTS)


def _prefix(axis: ContinuousAxis, cells: np.ndarray, partial: Callable) -> Callable:
    """u -> the integral over [lo, u], u clipped to the axis: the whole-cell
    integrals ``cells`` below u's cell k, summed, plus ``partial(k, u)`` over
    [faces[k], u]."""
    at_faces = np.concatenate(([0.0], np.cumsum(cells)))

    def integral(u):
        u = np.clip(u, axis.lo, axis.hi)
        k = np.clip(((u - axis.lo) / axis.dx).astype(np.int64), 0, axis.n - 1)
        return at_faces[k] + partial(k, u)

    return integral


def _cycle_prefixes(ax: ContinuousAxis, Q: Callable, f1: np.ndarray):
    """(E, C) on the size axis with E(u) = int_0^u e^Q f1 and C(u) =
    int_0^u f1, both exact for the piecewise-constant f1."""
    faces, f1 = ax.faces, np.asarray(f1, dtype=float)
    expq = lambda t: np.exp(np.asarray(Q(t), dtype=float))
    E = _prefix(ax, f1 * _gauss_partial(expq, faces[:-1], faces[1:]),
                lambda k, u: f1[k] * _gauss_partial(expq, faces[k], u))
    C = _prefix(ax, f1 * ax.dx, lambda k, u: f1[k] * (u - faces[k]))
    return E, C


def p1_apply(p: CellCycleParams, f1: np.ndarray) -> np.ndarray:
    """One generation of the division cycle acting on a newborn-size density.

    Cell values are computed from exact cell masses (integration by parts
    turns the pointwise formula into a telescoping difference), so the total
    mass of a compactly supported input is preserved to roundoff.
    """
    ax = p.size_axis()
    E, C = _cycle_prefixes(ax, p.hazard_anti, f1)
    lam_f = p.newborn_size(ax.faces)
    pos = lam_f > 0
    T1 = np.zeros(lam_f.size)
    T1[pos] = np.exp(-np.asarray(p.hazard_anti(lam_f[pos]), dtype=float)) * E(lam_f[pos])
    T2 = np.where(pos, C(lam_f), 0.0)
    mass = (T1[:-1] - T1[1:]) + (T2[1:] - T2[:-1])
    return np.maximum(mass / ax.dx, 0.0)


def p1_invariant(p: CellCycleParams):
    """Invariant newborn-size density of the division cycle by power iteration
    from the uniform density, until an L1 increment below 1e-12 (at most 5000
    sweeps, else :class:`ConvergenceError`).

    Returns (f1, uniqueness_value): the fixed density on the size grid and
    the minimum of Q(newborn_size(x)) - Q(x) over the upper half of the grid
    — the model has a unique invariant density when this exceeds 1.
    """
    ax = p.size_axis()
    dx = ax.dx
    f = np.full(ax.n, 1.0 / p.x_max)
    f = f / (f.sum() * dx)
    increment = math.inf
    for _ in range(_P1_MAX_ITERS):
        nxt = p1_apply(p, f)
        m = nxt.sum() * dx
        if m <= 1e-12:
            raise ModelError("division operator lost all mass; grid too small?")
        nxt = nxt / m
        increment = float(np.abs(nxt - f).sum() * dx)
        f = nxt
        if increment < _P1_TOL:
            break
    else:
        raise ConvergenceError(f"division-cycle iteration stuck at increment {increment:.3e}")
    xc = ax.centers
    lam_c = p.newborn_size(xc)
    ok = lam_c > 0
    Q = p.hazard_anti
    gap = np.asarray(Q(lam_c[ok]), dtype=float) - np.asarray(Q(xc[ok]), dtype=float)
    tail = gap[gap.size // 2 :]
    unique_value = float(tail.min()) if tail.size else -math.inf
    return f, unique_value


def cell_cycle_lift(p: CellCycleParams, f1: np.ndarray, model: Optional[PdmpModel] = None):
    """Stationary density of the full flow induced by an invariant newborn
    density, evaluated cell-exactly on the hybrid grid.

    Returns (f_bar: GridDensity (unnormalized), integrable: bool,
    mean_phase1: callable z -> expected phase-I duration started at size z).
    For the toy parameters the total mass is 2 x the mass of f1.
    """
    if model is None:
        model = build_cell_cycle(p)
    ax, Q = p.size_axis(), p.hazard_anti
    E, C = _cycle_prefixes(ax, Q, f1)
    faces, dx = ax.faces, ax.dx
    g = lambda t: np.asarray(p.growth(t), dtype=float)
    values = np.zeros(model.grid.n_cells)

    # phase I: cell mass = int (1/g) e^{-Q} E  per cell, Gauss(8) with the
    # prefix E (smooth inside each cell)
    def phase1_integrand(t):
        return np.exp(-np.asarray(Q(t), dtype=float)) * E(t) / g(t)

    mass0 = _gauss_partial(phase1_integrand, faces[:-1], faces[1:])
    values[model.grid.block_slice(0)] = np.maximum(mass0 / dx, 0.0)

    # phase II: masses via the cumulative H(u) = int_0^u F/g evaluated at
    # the backward images of the cell corners, where F(u) = C(u) -
    # e^{-Q(u)} E(u) is the cumulative mass of the phase-II entry-age density
    def fg(t):
        F = C(t) - np.exp(-np.asarray(Q(t), dtype=float)) * E(t)
        return np.where(t <= 0, 0.0, F) / g(t)

    H = _prefix(ax, _gauss_partial(fg, faces[:-1], faces[1:]),
                lambda k, u: _gauss_partial(fg, faces[k], u))

    G, Gi = p.growth_time, p.growth_time_inv
    yfaces = ContinuousAxis.uniform(0.0, p.t_phase2, p.n_y).faces
    arg = np.asarray(G(faces), dtype=float)[:, None] - yfaces[None, :]
    glo = float(np.asarray(G(0.0)))
    W = np.where(arg > glo, np.asarray(Gi(np.maximum(arg, glo)), dtype=float), 0.0)
    HW = H(W.ravel()).reshape(W.shape)
    cell_mass = HW[1:, :-1] - HW[1:, 1:] - HW[:-1, :-1] + HW[:-1, 1:]
    dy = p.t_phase2 / p.n_y
    values[model.grid.block_slice(1)] = np.maximum(cell_mass.ravel() / (dx * dy), 0.0)

    # expected phase-I duration, for the integrability report
    def mean_phase1(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        hi = 2.0 * p.x_max
        out = np.zeros(z.size)
        seg = np.linspace(0.0, 1.0, 201)
        for s in range(0, z.size, _PHASE1_BLOCK):  # Gauss(8) on 200 pieces of [z, hi] per size
            zb = z[s : s + _PHASE1_BLOCK, None]
            pts = zb + (hi - zb) * seg
            qz = np.asarray(Q(zb), dtype=float)[..., None]

            def integrand(t):
                return np.exp(qz - np.asarray(Q(t), dtype=float)) / g(t)

            out[s : s + _PHASE1_BLOCK] = np.sum(
                _gauss_partial(integrand, pts[:, :-1], pts[:, 1:]), axis=1)
        return out

    contrib = (mean_phase1(ax.centers) + p.t_phase2) * f1 * dx
    total = float(contrib.sum())
    mid = max(contrib.size // 2, 1)
    integrable = bool(np.isfinite(total)) and (
        contrib[-1] <= max(float(contrib[:mid].max()), 1e-300)
    )
    return GridDensity(model.grid, values), integrable, mean_phase1


# ---------------------------------------------------------------------------
# kinetic slab


@dataclass(frozen=True)
class KineticSlabParams:
    """Free streaming on (0, L) with finitely many velocities.

    ``boundary`` selects the wall operator: "specular" (velocity flip, needs
    a sign-symmetric velocity list), "diffuse" (wall-wise re-emission
    proportional to the inflow measure), or an explicit matrix mapping
    outflow-boundary densities to inflow-boundary densities.  ``kernel``
    (optional) is a matrix k[v_out, v_in]; the collision rate is
    theta(v_in) = sum_out k[v_out, v_in] nu[v_out].
    """

    length: float = 1.0
    velocities: Sequence[float] = (-1.0, 1.0)
    nu_weights: Sequence[float] = (1.0, 1.0)
    n_x: int = 200
    boundary: object = "specular"
    kernel: Optional[np.ndarray] = None


def build_kinetic_slab(p: KineticSlabParams = KineticSlabParams()) -> PdmpModel:
    L = float(p.length)
    vels = np.asarray(p.velocities, dtype=float)
    nu = np.asarray(p.nu_weights, dtype=float)
    n_v = vels.size
    if np.any(vels == 0):
        raise ModelError("zero velocities have no boundary cells; not supported")
    xaxis, vaxis = ContinuousAxis.uniform(0.0, L, p.n_x), DiscreteAxis(vels, nu)
    block = ModeBlock(0, [xaxis, vaxis])
    grid = InteriorGrid([block])
    n_x = p.n_x

    # boundary cells: outgoing at the wall each velocity runs into, incoming
    # at the opposite wall; weight |v . n| nu(v)
    wall_out = np.where(vels > 0, L, 0.0)
    wall_in = L - wall_out
    bw = np.abs(vels) * nu
    gamma_plus = BoundaryGrid(0, np.column_stack([wall_out, vels]), bw.copy())
    gamma_minus = BoundaryGrid(0, np.column_stack([wall_in, vels]), bw.copy(),
                               axis=(1, vaxis))
    # gamma cell index == velocity index, by construction above

    def phi(t, X, mode):
        out = X.copy()
        out[:, 0] = X[:, 0] + t * X[:, 1]
        return out

    def jac(t, X, mode):
        return np.ones(X.shape[0])

    def hit_plus(X, mode):
        return np.where(X[:, 1] > 0, (L - X[:, 0]) / X[:, 1], X[:, 0] / -X[:, 1])

    def hit_minus(X, mode):
        return np.where(X[:, 1] > 0, X[:, 0] / X[:, 1], (X[:, 0] - L) / X[:, 1])

    def matrix(name, M):  # a law on the velocity axis: finite, nonnegative, (n_v, n_v)
        try:
            M = np.asarray(M, dtype=float)
        except ValueError:  # ragged rows
            M = np.zeros(0)
        if M.shape != (n_v, n_v) or not np.all(np.isfinite(M) & (M >= 0)):
            raise ModelError(f"{name} must be a finite, nonnegative ({n_v}, {n_v}) matrix")
        return M

    if p.kernel is not None:
        K = matrix("kernel", p.kernel)
        theta_v = K.T @ nu  # theta[v_in] = sum_out k[out, in] nu[out]
        # the collision law on the velocity axis: C[v_in, v_out] = nu[v_in]
        # k[v_out, v_in] / theta[v_in], a zero row where theta[v_in] = 0
        inv_theta = np.divide(1.0, theta_v, out=np.zeros(n_v), where=theta_v > 0)
        collide = inv_theta[:, None] * (K * nu[None, :]).T
    else:
        K = None
        theta_v = np.zeros(n_v)

    def rate(X, mode):
        return theta_v[vaxis.nearest(X[:, 1])[0]]

    def cumulative_hazard(X, mode, t):
        return rate(X, mode) * t

    def inverse_hazard(X, mode, xi):
        th = rate(X, mode)
        with np.errstate(divide="ignore"):
            return np.where(th > 0, xi / th, np.inf)

    # wall operator as a density-level matrix Hm: (gamma-) <- (gamma+)
    if isinstance(p.boundary, str) and p.boundary == "specular":
        j = vaxis.nearest(-vels)[0]  # Gamma+ cell i reflects into the velocity -v_i
        if np.any(np.abs(vels[j] + vels) > 1e-12):
            raise ModelError("specular walls need a sign-symmetric velocity list")
        Hm = np.zeros((n_v, n_v))
        Hm[j, np.arange(n_v)] = bw / bw[j]
    elif isinstance(p.boundary, str) and p.boundary == "diffuse":
        # Gamma+ cell i re-emits into each Gamma- cell j on its wall, by the inflow measure there
        wtot = np.array([bw[wall_in == w].sum() for w in wall_in])
        Hm = np.where(wall_in[:, None] == wall_out[None, :], bw[None, :] / wtot[:, None], 0.0)
    else:
        Hm = matrix("boundary", p.boundary)  # gamma+ cells to gamma- cells
    col_mass = (Hm * bw[:, None]).sum(axis=0) / bw
    if np.any(col_mass > 1.0 + 1e-9):
        raise ModelError("wall operator has norm > 1")

    # post-jump velocity laws, one CDF row per pre-jump velocity: through
    # the wall the jump starts on, and by collision
    def cdf_rows(probs):
        with np.errstate(invalid="ignore", divide="ignore"):
            return (np.cumsum(probs, axis=0) / probs.sum(axis=0)).T

    wall_cdf = cdf_rows(Hm * bw[:, None] / bw[None, :])
    coll_cdf = wall_cdf if K is None else cdf_rows(K * nu[:, None])

    def sample(X, mode, rng):
        x = X[:, 0]
        i = vaxis.nearest(X[:, 1])[0]
        at_wall = np.abs(x - wall_out[i]) < 1e-9
        if np.any(col_mass[i[at_wall]] < 1.0 - 1e-9):
            raise ModelError("sampling through a mass-losing wall is not supported")
        stuck = np.flatnonzero(~at_wall & (theta_v[i] <= 0))
        if stuck.size:
            r = stuck[0]
            raise ModelError(f"no jump mechanism at ({x[r]}, {X[r, 1]})")
        cdf = np.where(at_wall[:, None], wall_cdf[i], coll_cdf[i])
        j = np.minimum((cdf <= rng.random(x.size)[:, None]).sum(axis=1), n_v - 1)
        out = np.column_stack([np.where(at_wall, gamma_minus.points[j, 0], x), vels[j]])
        return out, np.zeros(x.size, dtype=np.int64)

    def p0(h_int, h_plus):
        if K is None:
            return np.zeros(grid.n_cells)
        return (h_int.reshape(n_x, n_v) @ collide).ravel()

    def p_partial(h_int, h_plus):
        return Hm @ h_plus

    jump = JumpLaw(sample=sample, p0=p0, p_partial=p_partial)

    return PdmpModel(
        name="kinetic_slab",
        flow=FlowMap(phi=phi, jac=jac, hit_plus=hit_plus, hit_minus=hit_minus),
        grid=grid,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        rate=rate,
        jump=jump,
        cumulative_hazard=cumulative_hazard,
        inverse_hazard=inverse_hazard,
        backward_orbit=lambda X, mode, axis, a: (X[:, 0] - a) / X[:, 1],
        in_state_space=lambda X, m: (0.0 <= X[:, 0]) & (X[:, 0] <= L),
        params={"slab": p},
    )
