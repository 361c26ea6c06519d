"""Batch front end: load a model and task from a JSON config, run one
pipeline, write ``density.csv`` and ``summary.json``.

Usage::

    pdmpkit CONFIG SUBCOMMAND [--key value ...]

with SUBCOMMAND one of simulate, evolve, invariant, embedded, resolvent,
verify.  Overrides use dotted config paths (``--task.t 2``); a few common
shorthands (``--t``, ``--dt``, ``--paths``, ``--seed``, ``--model``) are
accepted.  Exit status: 0 on success, 2 when a verify tolerance fails,
1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from .core import DensityPair, GridDensity, PdmpError, StatePoint
from .models import (
    CellCycleParams,
    KineticSlabParams,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
)
from .simulate import estimate_density

_ALIASES = {
    "t": "task.t",
    "dt": "task.dt",
    "paths": "task.n_paths",
    "lam": "task.lam",
    "seed": "seed",
    "model": "model.name",
}


class ConfigError(PdmpError):
    pass


def _field(node: dict, key: str, default, kind=float, low=0):
    """The entry under ``key`` (or ``default``) as ``kind``, above ``low`` if set,
    and below inf unless ``low`` is -inf: a time, a step, a discount or a chain
    tolerance must be finite, while a verify tolerance of inf means no bound."""
    value = node.get(key, default)
    try:
        out = kind(value)
        # int() reads true as 1 and cuts 2.5 to 2: an int entry must be an integer
        if kind is int and (isinstance(value, bool) or (isinstance(value, float) and out != value)):
            raise ValueError
        if low is None or (out > low and (low == -np.inf or out < np.inf)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"bad config entry {key!r}: {value!r}")


def _times(task: dict, t: float, dt: float):
    t, dt = _field(task, "t", t), _field(task, "dt", dt)
    if dt > t:
        raise ConfigError(f"task.dt ({dt}) exceeds task.t ({t})")
    return t, dt


def _set_dotted(cfg: dict, key: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} crosses a non-mapping config entry")
    node[parts[-1]] = value


def _apply_overrides(cfg: dict, extras: list) -> None:
    if len(extras) % 2:
        raise ConfigError(f"dangling override {extras[-1]!r}: expected --key value pairs")
    for flag, raw in zip(extras[::2], extras[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an option, got {flag!r}")
        key = flag[2:]
        _set_dotted(cfg, _ALIASES.get(key, key), raw)


def build_model(cfg: dict):
    mcfg = _field(cfg, "model", {}, dict, None)
    name = mcfg.get("name")
    params = _field(mcfg, "params", {}, dict, None)
    params.update(_field(cfg, "grid", {}, dict, None))
    try:
        if name in ("m1", "m2", "m3"):
            if "span" in params:
                params["span"] = tuple(params["span"])
            return build_drift_redistribute(variant=name, **params)
        if name == "cell_cycle":
            return build_cell_cycle(CellCycleParams(**params))
        if name == "kinetic_slab":
            if "velocities" in params:
                params["velocities"] = tuple(params["velocities"])
            if "nu_weights" in params:
                params["nu_weights"] = tuple(params["nu_weights"])
            return build_kinetic_slab(KineticSlabParams(**params))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


def _initial_density(model, task: dict) -> GridDensity:
    spec = _field(task, "init", {}, dict, None)
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return GridDensity.uniform(model.grid)
    if kind == "point":
        coords = _field(spec, "coords", (), lambda c: np.asarray(c, dtype=float), None)
        x = StatePoint(coords, _field(spec, "mode", 0, int, -1))
        if x.coords.ndim != 1 or x.dim != model.grid.block(x.mode).dim:
            raise ConfigError(f"initial point {spec} does not match mode {x.mode}")
        idx = model.grid.locate(x.coords[None, :], x.mode)[0]
        if idx < 0:
            raise ConfigError(f"initial point {spec} is outside the gridded region")
        vals = np.zeros(model.grid.n_cells)
        vals[idx] = 1.0 / model.grid.weights[idx]
        return GridDensity(model.grid, vals)
    raise ConfigError(f"unknown init kind {kind!r}")


def _write_density(path: FsPath, model, density: GridDensity) -> None:
    dim = model.grid.blocks[0].dim
    lines = [",".join([f"x{k}" for k in range(dim)] + ["mode", "value"])]
    for block in model.grid.blocks:
        vals = density.values[model.grid.block_slice(block.mode)]
        for row, v in zip(block.centers, vals):
            cols = [f"{c:.17g}" for c in row] + [str(block.mode), f"{v:.17g}"]
            lines.append(",".join(cols))
    path.write_text("\n".join(lines) + "\n")


def _simulate(model, cfg, task, seed, subcommand):
    init = _initial_density(model, task)
    density, censored = estimate_density(
        model, init, _field(task, "t", 1.0), _field(task, "n_paths", 10000, int), seed
    )
    return density, {"input": init.total_mass, "output": density.total_mass, "censored": censored}, {}


def _evolve(model, cfg, task, seed, subcommand):
    from . import semigroup

    init = _initial_density(model, task)
    density = semigroup.evolve(model, init, *_times(task, 1.0, 1e-3))
    masses = {
        "input": init.total_mass,
        "output": density.total_mass,
        "defect": 1.0 - density.total_mass / init.total_mass,
    }
    return density, masses, {}


def _invariant(model, cfg, task, seed, subcommand):
    """The chain's invariant pair (``embedded``) or its lift (``invariant``)."""
    from . import chain

    result = chain.invariant_of_K(model, tol=_field(task, "tol", 1e-10),
                                  max_iters=_field(task, "max_iters", 500, int))
    residuals = {"chain_increment": result.increment, "iterations": result.iterations}
    if subcommand == "embedded":
        masses = {"input": 1.0, "output": result.pair.norm(model),
                  "boundary": float(result.pair.boundary @ model.gamma_minus.weights)}
        return result.pair.interior, masses, residuals
    density, c = chain.lift_invariant(model, result.pair)
    residuals["lift_mass"] = c
    back = chain.project_invariant(model, density)
    residuals["round_trip_l1"] = back.l1(result.pair, model)
    return density, {"input": 1.0, "output": density.total_mass}, residuals


def _resolvent(model, cfg, task, seed, subcommand):
    from . import semigroup

    init = _initial_density(model, task)
    lam = _field(task, "lam", 1.0)
    res = semigroup.resolvent_G(model, init, lam, tol=_field(task, "tol", 1e-10),
                                max_terms=_field(task, "max_terms", 500, int))
    masses = {
        "input": init.total_mass,
        "output": lam * res.density.total_mass,
        "defect": 1.0 - lam * res.density.total_mass / init.total_mass,
    }
    residuals = {"terms": res.terms, "converged": res.converged, "tail_mass": res.tail_mass}
    return res.density, masses, residuals


def _verify(model, cfg, task, seed, subcommand):
    """Cross-checks; a residual above its tolerance gets an ``<key>_exceeds`` entry."""
    from . import chain, verify

    init = _initial_density(model, task)
    pair = DensityPair(init, np.zeros(model.gamma_minus.n_cells))
    residuals = {}
    try:
        residuals["k_defect"] = chain.k_stochasticity_defect(model, pair)
    except PdmpError as exc:
        residuals["k_defect"] = f"error: {exc}"
    t, dt = _times(task, 0.5, model.min_crossing_time / 4
                   if np.isfinite(model.min_crossing_time) else 1e-2)
    report = verify.mc_vs_pde(model, init, t, _field(task, "n_paths", 20000, int), seed, dt)
    residuals.update({f"mc_vs_pde_{k}": v for k, v in report.items()})
    masses = {"input": init.total_mass, "censored": report["censored_mass"]}
    tolerances = {"mc_vs_pde_l1": 0.1, "mc_vs_pde_defect_gap": 0.05}
    extra = _field(cfg, "tolerances", {}, dict, None)
    tolerances.update({key: _field(extra, key, None, float, -np.inf) for key in extra})
    for key, bound in tolerances.items():
        val = residuals.get(key)
        if isinstance(val, (int, float)) and val > bound:
            residuals[f"{key}_exceeds"] = bound
    return None, masses, residuals


# each handler returns (density or None, masses, residuals); each imports the operator
# modules it uses, so that simulate loads no scipy
_HANDLERS = {
    "simulate": _simulate,
    "evolve": _evolve,
    "invariant": _invariant,
    "embedded": _invariant,
    "resolvent": _resolvent,
    "verify": _verify,
}

SUBCOMMANDS = tuple(_HANDLERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmpkit", description="PDMP simulation and density-evolution runner"
    )
    parser.add_argument("config", help="path to a JSON configuration")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--out", default=None, help="output directory (default: config's out_dir or .)")
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit:
        return 1
    started = time.perf_counter()
    try:
        cfg = json.loads(FsPath(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        _apply_overrides(cfg, extras)
        out_dir = FsPath(args.out or cfg.get("out_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        model = build_model(cfg)
        task, seed = _field(cfg, "task", {}, dict, None), _field(cfg, "seed", 0, int, -1)
        handler = _HANDLERS[args.subcommand]
        density, masses, residuals = handler(model, cfg, task, seed, args.subcommand)
    except (PdmpError, OSError, json.JSONDecodeError) as exc:
        print(f"pdmpkit: {exc}", file=sys.stderr)
        return 1
    if density is not None:
        _write_density(out_dir / "density.csv", model, density)
    summary = {
        "subcommand": args.subcommand,
        "model": model.name,
        "parameters": {**cfg.get("model", {}).get("params", {}), **cfg.get("grid", {})},
        "masses": masses,
        "residuals": residuals,
        "wall_time_seconds": time.perf_counter() - started,
        "seed": seed,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return 2 if any(key.endswith("_exceeds") for key in residuals) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
