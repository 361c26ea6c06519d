"""Event-driven simulation of the minimal process.

Holding times are sampled exactly from the survival function: the time the
cumulative hazard along the flow takes to reach a unit exponential, cut off
at the outgoing boundary, from the model's ``inverse_hazard`` or else from
``core.hazard_crossing``.  One batched event loop draws them, flows each
path to its next event and jumps it.  Density estimates are histograms of
its final states.  Paths come in chunks of ``_CHUNK``, each with one
generator derived from (seed, chunk index), so results depend only on
(seed, n_paths, grid) and the inputs.  The loop advances up to ``_GROUP``
chunks together: each chunk draws in the order it would alone, while every
model call serves all chunks.  It reports flow segments to path functionals
(``verify.resolvent_duality``) and jumps to ``simulate_path`` and ``step``:
a single path is a one-row run with the caller's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    ContinuousAxis,
    GridDensity,
    ModelError,
    PdmpModel,
    StatePoint,
    _check_point,
    hazard_crossing,
)

__all__ = [
    "PathEvent",
    "Path",
    "sample_holding",
    "step",
    "simulate_path",
    "sample_from_density",
    "Ensemble",
    "simulate_ensemble",
    "estimate_density",
]


@dataclass(frozen=True)
class PathEvent:
    """One jump (or terminal marker) of a trajectory."""

    time: float
    cause: str  # "rate-jump" | "boundary-jump" | "censored" | "never"
    pre_state: Optional[StatePoint]
    post_state: Optional[StatePoint]


@dataclass(frozen=True)
class Path:
    """A realized trajectory; between events the state follows the flow."""

    initial: StatePoint
    events: tuple
    final_state: Optional[StatePoint]  # None when censored
    censored: bool = False

    @property
    def jump_count(self) -> int:
        return sum(1 for e in self.events if e.cause in ("rate-jump", "boundary-jump"))


def _holding(model: PdmpModel, X: np.ndarray, mode: int, xi: np.ndarray):
    """(sigma, tp) for the rows of X, all in ``mode``, and unit exponentials
    xi: tp the time to Gamma+, sigma = min(hazard crossing of xi, tp).  sigma
    == tp is a boundary hit, ties included; sigma = tp = inf is no event."""
    tp = np.asarray(model.flow.hit_plus(X, mode), dtype=float)
    if model.inverse_hazard is not None:
        s = np.asarray(model.inverse_hazard(X, mode, xi), dtype=float)
    else:  # >= tp: the boundary first
        s = hazard_crossing(model, X, mode, xi, horizon=tp)
    if np.isnan(s).any():
        raise ModelError(f"holding time of {model.name!r} is NaN in mode {mode}")
    return np.minimum(s, tp), tp


def _check_start(model: PdmpModel, init) -> None:
    """Refuse modes of unequal dimension, which the engine's one state array
    cannot hold, and a StatePoint ``init`` that fits no declared mode."""
    if len({b.dim for b in model.grid.blocks}) != 1:
        raise ModelError(f"model {model.name!r}: the Monte Carlo engine needs one dimension "
                         "for all modes")
    if isinstance(init, StatePoint):
        _check_point(model, init)


def _check_run(model: PdmpModel, init, t: float, max_jumps: int) -> None:
    """Refuse a horizon not positive and finite, max_jumps < 1, and what
    :func:`_check_start` refuses."""
    if not 0 < t < math.inf:
        raise ValueError("horizon must be positive and finite")
    if max_jumps < 1:
        raise ValueError("max_jumps must be at least 1")
    _check_start(model, init)


def sample_holding(model: PdmpModel, x: StatePoint, rng: np.random.Generator):
    """Holding time in the current flow segment.

    Returns (sigma, cause) with cause "rate-jump", "boundary-hit", or
    "never" (infinite lifetime with finite total hazard).  A tie between the
    hazard crossing and the boundary hit is classified as a boundary hit,
    since survival drops to zero exactly at the hitting time.
    """
    _check_point(model, x)
    sigma, tp = _holding(model, x.coords[None, :], x.mode, rng.exponential(size=1))
    if sigma[0] < tp[0]:
        return float(sigma[0]), "rate-jump"
    return (float(tp[0]), "boundary-hit") if tp[0] < math.inf else (math.inf, "never")


def _one_path(model: PdmpModel, x: StatePoint, t: float, rng: np.random.Generator,
              max_jumps: int) -> Path:
    """The path from x to time t as the one row of :func:`_run_paths`, drawing
    from rng.  With t = inf a path without a next event stays where it is."""
    events = []

    def record(rows, times, boundary, mode, pre, post, post_modes):
        events.append(PathEvent(float(times[0]), "boundary-jump" if boundary[0] else "rate-jump",
                                StatePoint(pre[0], mode), StatePoint(post[0], int(post_modes[0]))))

    X, modes = x.coords[None, :].copy(), np.array([x.mode], dtype=np.int64)
    if _run_paths(model, X, modes, t, [rng], max_jumps, event=record)[0]:
        last = events[-1]
        events.append(PathEvent(last.time, "censored", last.post_state, last.post_state))
        return Path(x, tuple(events), None, censored=True)
    return Path(x, tuple(events), StatePoint(X[0], int(modes[0])))


def step(model: PdmpModel, x: StatePoint, rng: np.random.Generator, t0: float = 0.0) -> PathEvent:
    """Advance one jump from x (at absolute time t0): the first jump of a
    one-row engine run.  Refuses, with ModelError, a model whose modes differ
    in dimension."""
    _check_start(model, x)
    events = _one_path(model, x, math.inf, rng, 1).events
    if not events:
        return PathEvent(math.inf, "never", None, None)
    return replace(events[0], time=t0 + events[0].time)


def simulate_path(model: PdmpModel, x0: StatePoint, horizon: float, rng: np.random.Generator,
                  max_jumps: int = 1_000_000) -> Path:
    """Simulate until the horizon or until max_jumps (censoring proxy for a
    possible explosion): one row of the batched engine, drawing from rng.
    Refuses, with ModelError, a model whose modes differ in dimension."""
    _check_run(model, x0, horizon, max_jumps)
    return _one_path(model, x0, horizon, rng, max_jumps)


def _sample_states(density: GridDensity, n: int, rng: np.random.Generator):
    """n states drawn from a piecewise-constant density: cells by mass
    (searchsorted on the cell CDF), then uniform offsets within each cell's
    continuous extent.  Returns (X, modes); X has as many columns as the
    widest mode."""
    grid = density.grid
    cdf = np.cumsum(density.values * grid.weights)
    if cdf.size == 0 or cdf[-1] <= 0:
        raise ValueError("cannot sample from a zero density")
    cdf /= cdf[-1]
    cells = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), cdf.size - 1)
    offsets = rng.random((n, max(b.dim for b in grid.blocks)))
    X = np.zeros(offsets.shape)
    modes = np.empty(n, dtype=np.int64)
    for block in grid.blocks:
        off = grid.offsets[block.mode]
        rows = np.flatnonzero((cells >= off) & (cells < off + block.n_cells))
        modes[rows] = block.mode
        local = np.unravel_index(cells[rows] - off, block.shape)
        for k, ax in enumerate(block.axes):
            if isinstance(ax, ContinuousAxis):
                X[rows, k] = ax.faces[local[k]] + ax.dx * offsets[rows, k]
            else:
                X[rows, k] = ax.values[local[k]]
    return X, modes


def sample_from_density(model: PdmpModel, density: GridDensity, rng: np.random.Generator) -> StatePoint:
    """Draw a state from a piecewise-constant density: pick a cell by mass,
    then uniformly within its continuous extent."""
    X, modes = _sample_states(density, 1, rng)
    mode = int(modes[0])
    return StatePoint(X[0, : density.grid.block(mode).dim], mode)


def _sample_jumps(model: PdmpModel, X: np.ndarray, mode: int, parts):
    """Post-jump states (X', modes') of the rows of X, all in ``mode``: for
    each (rng, lo, hi) of ``parts``, one sampler call draws those of X[lo:hi]
    from rng.  Refuses post-jump states outside the state space."""
    out = []
    for rng, lo, hi in parts:
        Xn, modes = model.jump.sample(X[lo:hi], mode, rng)
        out.append((np.asarray(Xn, dtype=float), np.asarray(modes, dtype=np.int64)))
        Xn, modes = out[-1]
        if (Xn.ndim != 2 or Xn.shape[0] != hi - lo or Xn.shape[1:] != out[0][0].shape[1:]
                or modes.shape != (hi - lo,)):
            raise ModelError(
                f"jump sampler of {model.name!r} returned shapes {Xn.shape} and {modes.shape} "
                f"for {hi - lo} pre-jump states"
            )
    Xn, modes = out[0] if len(out) == 1 else map(np.concatenate, zip(*out))
    for m in (modes.min(), modes.max()):  # ModelError below or above every declared mode
        model.grid.block(int(m))
    post_modes = np.flatnonzero(np.bincount(modes)).tolist()
    for m in post_modes:
        if model.grid.block(m).dim != Xn.shape[1]:
            raise ModelError(
                f"jump sampler of {model.name!r} returned {Xn.shape[1]}-d states in mode {m}"
            )
        ok = np.asarray(model.in_state_space(Xn if len(post_modes) == 1 else Xn[modes == m], m))
        if not ok.all():
            bad = np.flatnonzero(modes == m)[np.argmin(ok)]
            raise ModelError(
                f"jump sampler of {model.name!r} left the state space: "
                f"{StatePoint(X[bad], mode)} -> {StatePoint(Xn[bad], m)}"
            )
    return Xn, modes


_CHUNK = 1000  # paths per generator; fixes the draw order for a given seed
_GROUP = 64  # chunks that advance together at most; bounds the engine's memory


class Ensemble(NamedTuple):
    """Where a batch of simulated paths ended."""

    counts: np.ndarray  # paths ending in each interior cell
    censored: int  # paths stopped at max_jumps before the horizon
    left_grid: int  # paths ending outside the gridded window


def _chunk_parts(rows: np.ndarray, rngs):
    """(rngs[c], lo, hi) for each chunk c whose rows are rows[lo:hi]; ``rows``
    is ascending and chunk c holds rows c * _CHUNK up to (c + 1) * _CHUNK."""
    cut = np.searchsorted(rows, np.arange(len(rngs) + 1) * _CHUNK).tolist()
    return [(rng, lo, hi) for rng, lo, hi in zip(rngs, cut, cut[1:]) if hi > lo]


def _run_paths(model: PdmpModel, X: np.ndarray, modes: np.ndarray, t: float,
               rngs, max_jumps: int, segment=None, event=None) -> np.ndarray:
    """Advance paths started at (X, modes) to time t, in place, one event
    round at a time: every live path draws its next holding time, paths
    whose next event falls past t flow to t and retire, the others flow to
    the jump point and jump.  Rows come in chunks of ``_CHUNK``, chunk c
    drawing from rngs[c]: in each round it draws the holding times of its
    live paths, then, mode by ascending mode, the post-jump states of its
    paths that jumped, in row order, as it would if it ran alone.  Every
    model call runs once per mode per round over all chunks, and so does
    ``segment(rows, Xm, mode, t0, t1)``, if given: it receives the flow
    segment of each live path in that mode, which starts at Xm at time t0
    and ends at t1 = min(next event, t); so does ``event(rows, times,
    boundary, mode, pre, post, post_modes)`` with the jumps: their times,
    whether each hit Gamma+, the pre- and the post-jump states.  A path with
    no next event (sigma = inf) never jumps; with t = inf, which
    :func:`step` uses to reach a first jump however late, it stays put
    rather than flow for an infinite time.  Returns the censored mask."""
    n = X.shape[0]
    clock = np.zeros(n)
    jumps = np.zeros(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    live = np.arange(n)
    while live.size:
        xi = np.empty(live.size)
        for rng, lo, hi in _chunk_parts(live, rngs):
            xi[lo:hi] = rng.exponential(size=hi - lo)
        live_modes = modes[live]
        jumped = []
        for m in np.flatnonzero(np.bincount(live_modes)).tolist():
            k = np.flatnonzero(live_modes == m)
            rows = live[k]
            Xm = X[rows]
            sigma, tp = _holding(model, Xm, m, xi[k])
            t0 = clock[rows]
            end = t0 + sigma
            if segment is not None:
                segment(rows, Xm, m, t0, np.minimum(end, t))
            go = (end <= t) & (sigma < math.inf)
            # one flow step per path, to its jump or to t; rows clamped at Gamma+ are not checked
            dt = np.where(go, sigma, np.minimum(t - t0, tp))
            dt[dt == math.inf] = 0.0  # no event and t = inf: nowhere to flow to
            Y = model.flow.phi(dt, Xm, m)
            inside = (dt >= tp) | model.in_state_space(Y, m)
            if not np.all(inside):
                raise ModelError(f"flow of {model.name!r} left the chart in mode {m} before "
                                 f"t={(t0 + dt)[np.argmin(inside)]}")
            X[rows] = Y
            if go.any():
                r, pre = rows[go], Y[go]
                X[r], modes[r] = _sample_jumps(model, pre, m, _chunk_parts(r, rngs))
                if event is not None:
                    event(r, end[go], (sigma == tp)[go], m, pre, X[r], modes[r])
                clock[r] = end[go]
                jumps[r] += 1
                jumped.append(r)
        if not jumped:
            break
        live = np.sort(np.concatenate(jumped))
        cut = (jumps[live] >= max_jumps) & (clock[live] < t)
        censored[live[cut]] = True
        live = live[~cut]
    return censored


def _run_chunks(model: PdmpModel, init, t: float, n_paths: int, seed: int,
                max_jumps: int, segment=None):
    """Run n_paths paths from ``init`` to time t in chunks of ``_CHUNK``,
    each chunk with one generator derived from (seed, chunk index) and a
    fixed draw order.  Up to ``_GROUP`` chunks at a time run through one
    :func:`_run_paths` loop, so memory stays bounded however many paths
    there are; the grouping does not change the output.  Yields (X, modes,
    censored) per group once its paths have run; ``segment`` is passed to
    :func:`_run_paths` with path indices counted over all chunks."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if model.grid.n_cells == 0:
        raise ValueError("model has an empty interior grid")
    _check_run(model, init, t, max_jumps)
    for i0 in range(0, n_paths, _GROUP * _CHUNK):
        n = min(_GROUP * _CHUNK, n_paths - i0)
        starts = range(0, n, _CHUNK)
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                             spawn_key=((i0 + j) // _CHUNK,)))
                for j in starts]
        if isinstance(init, StatePoint):
            X = np.tile(init.coords, (n, 1))
            modes = np.full(n, init.mode, dtype=np.int64)
        else:
            X, modes = map(np.concatenate, zip(*(_sample_states(init, min(_CHUNK, n - j), rng)
                                                 for j, rng in zip(starts, rngs))))
        report = None if segment is None else (lambda rows, *flow: segment(i0 + rows, *flow))
        yield X, modes, _run_paths(model, X, modes, t, rngs, max_jumps, report)


def simulate_ensemble(
    model: PdmpModel,
    init,
    t: float,
    n_paths: int,
    seed: int,
    max_jumps: int = 100_000,
) -> Ensemble:
    """Simulate n_paths paths to time t and count where they end.

    ``init`` is a GridDensity or a StatePoint.  Paths come in chunks of
    ``_CHUNK``, each chunk with one generator derived from (seed, chunk
    index) and a fixed draw order, and advance together, up to ``_GROUP``
    chunks at a time, so the result depends only on (seed, n_paths, grid)
    and the inputs.  A path is censored when its max_jumps-th jump falls
    before t, the rule of :func:`simulate_path`.
    """
    counts = np.zeros(model.grid.n_cells, dtype=np.int64)
    censored = left = 0
    for X, modes, cut in _run_chunks(model, init, t, n_paths, seed, max_jumps):
        censored += int(cut.sum())
        for m in np.flatnonzero(np.bincount(modes[~cut])).tolist():
            idx = model.grid.locate(X[~cut & (modes == m)], m)
            left += int((idx < 0).sum())
            counts += np.bincount(idx[idx >= 0], minlength=counts.size)
    return Ensemble(counts, censored, left)


def estimate_density(
    model: PdmpModel,
    init,
    t: float,
    n_paths: int,
    seed: int,
    max_jumps: int = 100_000,
):
    """Monte Carlo density of X(t): (GridDensity, censored_mass).

    ``init`` is a GridDensity or a StatePoint.  censored_mass counts paths
    censored at max_jumps plus paths whose final state falls outside the
    gridded window — the lost mass of the substochastic evolution;
    :func:`simulate_ensemble` reports the two apart.  Results depend only
    on (seed, n_paths, grid) and the inputs.
    """
    ens = simulate_ensemble(model, init, t, n_paths, seed, max_jumps)
    values = (ens.counts / n_paths) / model.grid.weights
    return GridDensity(model.grid, values), (ens.censored + ens.left_grid) / n_paths
