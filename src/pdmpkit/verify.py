"""Independent oracles and identity checks tying the simulator, the density
evolution and the embedded chain together.  The Monte Carlo sides run on the
batched engine of :mod:`pdmpkit.simulate`.  The checks import
:mod:`pdmpkit.semigroup` where they use it, so the Monte Carlo ones load no
scipy."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    GridDensity,
    InteriorGrid,
    PdmpError,
    PdmpModel,
    gauss3,
    l1_distance,
)
from .simulate import _run_chunks, estimate_density, simulate_ensemble

__all__ = [
    "green_residual",
    "change_of_variables_gap",
    "duhamel_oracle",
    "restrict_density",
    "mc_vs_pde",
    "resolvent_duality",
]

_MAX_TAIL = 0.02  # the largest more-than-n_max-jump probability duhamel_oracle accepts


def green_residual(model: PdmpModel, f: GridDensity, tmax_values: np.ndarray) -> float:
    """Defect of the boundary-flux identity: the integral of the transport
    image of f must equal inflow-trace mass minus outflow-trace mass.
    ``tmax_values`` is the analytic transport image of f at the cell centers
    (supplied by the caller; e.g. -(b f)' for a 1-d drift b)."""
    from .semigroup import trace_minus, trace_plus

    interior = float(np.asarray(tmax_values) @ model.grid.weights)
    tm = trace_minus(model, f)
    tp = trace_plus(model, f)
    lhs = interior
    rhs = float(tm @ model.gamma_minus.weights) - float(tp @ model.gamma_plus.weights)
    return abs(lhs - rhs)


def change_of_variables_gap(
    model: PdmpModel, f: Callable[[np.ndarray, int], np.ndarray], n_s: int = 1000
):
    """Interior vs. boundary evaluation of the integral of f over the states
    that reach the outgoing boundary: the interior grid sum against the
    backward line integrals from each outgoing-boundary cell.

    Returns (interior_value, boundary_value).
    """
    lhs = 0.0
    for block in model.grid.blocks:
        lhs += float(np.asarray(f(block.centers, block.mode)) @ block.weights)
    plus = model.gamma_plus
    if plus.n_cells == 0:
        raise PdmpError("model has no outgoing boundary")
    mode = plus.mode
    tm = np.asarray(model.flow.hit_minus(plus.points, mode), dtype=float)
    if not np.all(np.isfinite(tm)):
        raise PdmpError("backward lifetime is infinite; identity needs finite t-")
    # n_s midpoint nodes on each backward orbit, one row of nodes per Gamma+ point
    s = ((np.arange(n_s) + 0.5) * (tm[:, None] / n_s)).ravel()
    Z = np.repeat(plus.points, n_s, axis=0)
    X = model.flow.phi(-s, Z, mode)
    vals = np.asarray(f(X, mode)) * np.asarray(model.flow.jac(-s, Z, mode))
    rhs = float(plus.weights * vals.reshape(plus.n_cells, n_s).mean(axis=1) @ tm)
    return lhs, rhs


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights over n (even) unit intervals."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def duhamel_oracle(
    model: PdmpModel,
    f0: GridDensity,
    t: float,
    n_max: int = 2,
    n_s: int = 48,
    seed: int = 0,
    tail_paths: int = 25_000,
):
    """Brute-force jump-count expansion of the evolved density.

    Sums the 0-, 1- and (for n_max=2) 2-jump contributions by nested
    quadrature of single-shot free-transport steps (over whole numbers of
    the n_s intervals; n_s must be a positive even integer).  Refuses when
    the simulated probability of more than n_max jumps before t reaches
    0.02 (the returned tail estimate bounds the truncated mass).
    Returns (density, tail_probability).
    """
    from .semigroup import _free_step, _trace_matrix, inject

    if n_max not in (0, 1, 2):
        raise ValueError("n_max must be 0, 1, or 2")
    if not (isinstance(n_s, (int, np.integer)) and n_s > 0 and n_s % 2 == 0):
        raise ValueError(f"n_s must be a positive even integer, got {n_s!r}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    # estimated mass of the neglected terms: paths with more than n_max
    # jumps before t
    tail = simulate_ensemble(model, f0.normalized(), t, tail_paths, seed,
                             max_jumps=n_max + 1).censored / tail_paths
    if tail >= _MAX_TAIL:
        raise PdmpError(
            f"more-than-{n_max}-jump probability about {tail:.2e} at t={t}; "
            "the truncated expansion is not a valid oracle here"
        )
    # every free step spans a whole number m of the ds intervals: one
    # transport matrix per m, applied as often as needed.  The last node is t
    # itself, so the 0-jump term is the lag-n_s push of f0.
    s_nodes = np.linspace(0.0, t, n_s + 1)
    steps = {m: _free_step(model, s_nodes[m])[0] for m in range(1 if n_max else n_s, n_s + 1)}
    push = lambda g, m: g if m == 0 else np.maximum(steps[m] @ g, 0.0)
    total = push(f0.values, n_s)
    if n_max >= 1:
        sw = _simpson_weights(n_s)
        ds = t / n_s
        trace = _trace_matrix(model, -1.0)
        rate = model.rate_values()

        def jump_density(g):
            """Post-jump density of the jump intensity of g, influx folded onto the entry cells."""
            jumped = model.post_jump(rate * g, np.maximum(trace @ g, 0.0))
            vals = jumped.interior.values.copy()
            inject(model, vals, jumped.boundary)
            return vals

        # column j: the density just after a jump at s_j
        J = np.column_stack([jump_density(push(f0.values, j)) for j in range(n_s + 1)])
        # column k: the inner trapezoid over the first jump time j <= k of the
        # two-jump term; lags run down so that each column sums j = 0..k upward
        acc = np.zeros_like(J)
        for m in range(n_s, -1, -1):
            width = n_s + 1 - m  # the columns j that lag m carries to k = j + m <= n_s
            # one jump: column j = n_s - m is carried to t; two jumps: all of them
            pushed = push(J[:, :width] if n_max == 2 else J[:, width - 1:width], m)
            total += ds * sw[width - 1] * pushed[:, -1]
            if n_max == 2:
                wj = np.full(width, ds if m else 0.5 * ds)  # trapezoid ends: j = 0 and j = k
                wj[0] = 0.5 * ds
                acc[:, m:] += pushed * wj
        if n_max == 2:
            for k in range(1, n_s + 1):
                total += ds * sw[k] * push(jump_density(acc[:, k]), n_s - k)
    return GridDensity(model.grid, np.maximum(total, 0.0)), tail


def restrict_density(f: GridDensity, coarse: InteriorGrid) -> GridDensity:
    """Mass-conservative restriction onto a coarser grid covering the same
    region: each fine cell's mass is assigned to the coarse cell containing
    its center (mass falling outside the coarse grid is dropped)."""
    out = np.zeros(coarse.n_cells)
    for block in f.grid.blocks:
        sl = f.grid.block_slice(block.mode)
        mass = f.values[sl] * block.weights
        idx = coarse.locate(block.centers, block.mode)
        ok = idx >= 0
        np.add.at(out, idx[ok], mass[ok])
    return GridDensity(coarse, out / coarse.weights)


def mc_vs_pde(
    model: PdmpModel,
    init: GridDensity,
    t: float,
    n_paths: int,
    seed: int,
    dt: float,
) -> dict:
    """Monte Carlo histogram vs. the splitting solver from the same initial
    density.  Returns the L1 distance on the model grid and the gap between
    the two mass defects."""
    from .semigroup import evolve

    mc, censored = estimate_density(model, init, t, n_paths, seed)
    pde = evolve(model, init, t, dt)
    init_mass = init.total_mass
    defect_pde = 1.0 - pde.total_mass / init_mass
    l1 = l1_distance(mc, pde)
    return {
        "l1": l1,
        "censored_mass": censored,
        "pde_defect": defect_pde,
        "defect_gap": abs(censored - defect_pde),
    }


def resolvent_duality(
    model: PdmpModel,
    f: GridDensity,
    psi: Callable[[np.ndarray, int], np.ndarray],
    lam: float,
    n_paths: int,
    seed: int,
):
    """Two routes to the resolvent pairing <R f, psi>.

    Left: the resolvent_G solve paired on the grid.  Right:
    Monte Carlo average over X(0) ~ f of the discounted time integral of
    psi along paths of the batched engine (so, as there, every mode must
    have the same dimension), stopped where a path leaves the gridded
    window, as the grid resolvent loses that mass; each round's flow
    segments are integrated together by composite Gauss(3), up to the
    horizon 10 / lam (truncation bias e^-10, far below the Monte Carlo
    noise).  Returns (lhs, mc_mean, mc_stderr).
    """
    from .semigroup import resolvent_G

    f = f.normalized()
    res = resolvent_G(model, f, lam)
    on_grid = np.concatenate([psi(b.centers, b.mode) for b in model.grid.blocks])
    lhs = float((res.density.values * on_grid) @ model.grid.weights)
    samples = np.zeros(n_paths)
    # the grid resolvent loses the mass that leaves the gridded window, so paths stop
    # counting there; they are still simulated, which keeps the draw order
    alive = np.ones(n_paths, dtype=bool)

    def discounted(rows, X, mode, t0, t1):
        length = t1 - t0
        n_sub = np.clip((lam * length / 0.5).astype(np.int64) + 1, 1, 200)

        def integrand(s, seg):
            at = model.flow.phi(s, X.take(seg, axis=0), mode)
            inside = model.grid.locate(at, mode) >= 0
            return np.exp(-lam * (t0[seg] + s)) * np.asarray(psi(at, mode)) * inside

        np.add.at(samples, rows, gauss3(np.zeros(rows.size), length, n_sub, integrand) * alive[rows])
        # just before the end: an end on the outgoing boundary may round out of the window
        ends = model.flow.phi(length * (1 - 1e-9), X, mode)
        alive[rows[model.grid.locate(ends, mode) < 0]] = False

    # at most 10^6 jumps per path: the censoring proxy for a possible explosion
    for _ in _run_chunks(model, f, 10.0 / lam, n_paths, seed, 1_000_000, discounted):
        pass
    return lhs, float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_paths))
