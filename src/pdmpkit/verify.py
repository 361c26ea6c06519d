"""Independent oracles and identity checks tying the simulator, the density
evolution and the embedded chain together."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import (
    GridDensity,
    InteriorGrid,
    PdmpError,
    PdmpModel,
    StatePoint,
    gauss3,
)
from .semigroup import evolve, inject, jump_terms, trace_minus, trace_plus, transport_step
from .simulate import estimate_density, sample_from_density, simulate_ensemble, simulate_path

__all__ = [
    "green_residual",
    "change_of_variables_gap",
    "duhamel_oracle",
    "restrict_density",
    "mc_vs_pde",
    "resolvent_duality",
]


def green_residual(model: PdmpModel, f: GridDensity, tmax_values: np.ndarray) -> float:
    """Defect of the boundary-flux identity: the integral of the transport
    image of f must equal inflow-trace mass minus outflow-trace mass.
    ``tmax_values`` is the analytic transport image of f at the cell centers
    (supplied by the caller; e.g. -(b f)' for a 1-d drift b)."""
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
    if model.gamma_plus.n_cells == 0:
        raise PdmpError("model has no outgoing boundary")
    rhs = 0.0
    mode = model.gamma_plus.mode
    for z, w in zip(model.gamma_plus.points, model.gamma_plus.weights):
        tm = float(model.flow.hit_minus(z[None, :], mode)[0])
        if not np.isfinite(tm):
            raise PdmpError("backward lifetime is infinite; identity needs finite t-")
        s = (np.arange(n_s) + 0.5) * (tm / n_s)
        X = model.flow.phi(-s, np.broadcast_to(z, (n_s, z.size)), mode)
        vals = np.asarray(f(X, mode)) * np.asarray(model.flow.jac(-s, X * 0 + z, mode))
        rhs += w * float(vals.mean()) * tm
    return lhs, rhs


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2:
        raise ValueError("need an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _jump_density(model: PdmpModel, g: GridDensity) -> GridDensity:
    """Post-jump density of the instantaneous jump intensity of g, with the
    boundary influx folded onto the first cells of the entry characteristics."""
    gain, influx = jump_terms(model, g)
    vals = gain.values.copy()
    inject(model, vals, influx)
    return GridDensity(model.grid, vals)


def duhamel_oracle(
    model: PdmpModel,
    f0: GridDensity,
    t: float,
    n_max: int = 2,
    n_s: int = 48,
    seed: int = 0,
    tail_paths: int = 4000,
    max_tail: float = 0.02,
):
    """Brute-force jump-count expansion of the evolved density.

    Sums the 0-, 1- and (for n_max=2) 2-jump contributions by nested
    quadrature of single-shot free-transport steps.  Refuses when the
    simulated probability of more than n_max jumps before t exceeds
    ``max_tail`` (the returned tail estimate bounds the truncated mass).
    Returns (density, tail_probability).
    """
    if n_max not in (0, 1, 2):
        raise ValueError("n_max must be 0, 1, or 2")
    # estimated mass of the neglected terms: paths with more than n_max
    # jumps before t
    tail = simulate_ensemble(model, f0.normalized(), t, tail_paths, seed,
                             max_jumps=n_max + 1).censored / tail_paths
    if tail >= max_tail:
        raise PdmpError(
            f"more-than-{n_max}-jump probability about {tail:.2e} at t={t}; "
            "the truncated expansion is not a valid oracle here"
        )
    total = transport_step(model, f0, t).values.copy()
    if n_max >= 1:
        sw = _simpson_weights(n_s)
        ds = t / n_s
        s_nodes = np.linspace(0.0, t, n_s + 1)
        free = [f0 if s == 0 else transport_step(model, f0, s) for s in s_nodes]
        jumped = [_jump_density(model, g) for g in free]
        for k, s in enumerate(s_nodes):
            pushed = jumped[k] if s == t else transport_step(model, jumped[k], t - s)
            total += ds * sw[k] * pushed.values
        if n_max == 2:
            for k, s2 in enumerate(s_nodes):
                if k == 0:
                    continue
                # inner integral over the first jump time (trapezoid)
                acc = np.zeros(model.grid.n_cells)
                for j in range(k + 1):
                    g = jumped[j] if j == k else transport_step(model, jumped[j], s2 - s_nodes[j])
                    wj = 0.5 if j in (0, k) else 1.0
                    acc += ds * wj * g.values
                v = _jump_density(model, GridDensity(model.grid, acc))
                pushed = v if s2 == t else transport_step(model, v, t - s2)
                total += ds * sw[k] * pushed.values
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
    compare: Optional[InteriorGrid] = None,
) -> dict:
    """Monte Carlo histogram vs. the splitting solver from the same initial
    density.  Returns the L1 distance (on ``compare`` if given, else on the
    model grid) and the gap between the two mass defects."""
    mc, censored = estimate_density(model, init, t, n_paths, seed)
    pde = evolve(model, init, t, dt)
    init_mass = init.total_mass
    defect_pde = 1.0 - pde.total_mass / init_mass
    if compare is not None:
        mc_c, pde_c = restrict_density(mc, compare), restrict_density(pde, compare)
        l1 = float(np.abs(mc_c.values - pde_c.values) @ compare.weights)
    else:
        l1 = float(np.abs(mc.values - pde.values) @ model.grid.weights)
    return {
        "l1": l1,
        "censored_mass": censored,
        "pde_defect": defect_pde,
        "defect_gap": abs(censored - defect_pde),
    }


def _discounted_integral(model, x: StatePoint, t0: float, t1: float, lam, psi) -> float:
    """int_{t0}^{t1} e^{-lam t} psi(X(t)) dt along a flow segment started at
    x at time t0, by composite Gauss(3)."""
    length = t1 - t0
    if length <= 0:
        return 0.0
    n = max(1, min(int(lam * length / 0.5) + 1, 200))

    def integrand(s):
        X = model.flow.phi(s, np.broadcast_to(x.coords, (s.size, x.dim)), x.mode)
        return np.exp(-lam * (t0 + s)) * np.asarray(psi(X, x.mode))

    return float(gauss3([0.0], [length], [n], integrand)[0])


def resolvent_duality(
    model: PdmpModel,
    f: GridDensity,
    psi: Callable[[np.ndarray, int], np.ndarray],
    lam: float,
    n_paths: int,
    seed: int,
    horizon: Optional[float] = None,
):
    """Two routes to the resolvent pairing <R f, psi>.

    Left: the truncated perturbation series paired on the grid.  Right:
    Monte Carlo average over X(0) ~ f of the discounted time integral of
    psi along simulated paths.  Returns (lhs, mc_mean, mc_stderr).
    """
    from .semigroup import resolvent_G

    res = resolvent_G(model, f.normalized(), lam)
    lhs = 0.0
    for block in model.grid.blocks:
        sl = model.grid.block_slice(block.mode)
        lhs += float(
            (res.density.values[sl] * np.asarray(psi(block.centers, block.mode))) @ block.weights
        )
    if horizon is None:
        horizon = 10.0 / lam  # truncation bias e^-10, far below the MC noise
    fnorm = f.normalized()
    samples = np.empty(n_paths)
    for i in range(n_paths):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(i,)))
        x0 = sample_from_density(model, fnorm, rng)
        path = simulate_path(model, x0, horizon, rng)
        knots = path.states_at_times()
        acc = 0.0
        for k, (tk, xk) in enumerate(knots):
            t_next = knots[k + 1][0] if k + 1 < len(knots) else horizon
            acc += _discounted_integral(model, xk, tk, min(t_next, horizon), lam, psi)
        samples[i] = acc
    return lhs, float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_paths))
