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

from . import chain, semigroup, verify
from .core import DensityPair, GridDensity, PdmpError, StatePoint
from .models import (
    CellCycleParams,
    KineticSlabParams,
    build_cell_cycle,
    build_drift_redistribute,
    build_kinetic_slab,
)
from .simulate import estimate_density

SUBCOMMANDS = ("simulate", "evolve", "invariant", "embedded", "resolvent", "verify")

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
    mcfg = cfg.get("model", {})
    name = mcfg.get("name")
    params = dict(mcfg.get("params", {}))
    params.update(cfg.get("grid", {}))
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
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


def _initial_density(model, task: dict) -> GridDensity:
    spec = task.get("init", {"kind": "uniform"})
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return GridDensity.uniform(model.grid)
    if kind == "point":
        x = StatePoint(np.asarray(spec["coords"], dtype=float), int(spec.get("mode", 0)))
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


def _run(cfg: dict, subcommand: str):
    model = build_model(cfg)
    task = cfg.get("task", {})
    seed = int(cfg.get("seed", 0))
    masses: dict = {}
    residuals: dict = {}
    density = None
    failed = False

    if subcommand == "simulate":
        init = _initial_density(model, task)
        density, censored = estimate_density(
            model, init, float(task.get("t", 1.0)), int(task.get("n_paths", 10000)), seed
        )
        masses = {"input": init.total_mass, "output": density.total_mass, "censored": censored}
    elif subcommand == "evolve":
        init = _initial_density(model, task)
        density = semigroup.evolve(
            model, init, float(task.get("t", 1.0)), float(task.get("dt", 1e-3))
        )
        masses = {
            "input": init.total_mass,
            "output": density.total_mass,
            "defect": 1.0 - density.total_mass / init.total_mass,
        }
    elif subcommand in ("embedded", "invariant"):
        result = chain.invariant_of_K(
            model,
            tol=float(task.get("tol", 1e-10)),
            max_iters=int(task.get("max_iters", 500)),
        )
        residuals["chain_increment"] = result.increment
        residuals["iterations"] = result.iterations
        if subcommand == "embedded":
            density = result.pair.interior
            masses = {
                "input": 1.0,
                "output": result.pair.norm(model),
                "boundary": float(result.pair.boundary @ model.gamma_minus.weights)
                if result.pair.boundary.size
                else 0.0,
            }
        else:
            density, c = chain.lift_invariant(model, result.pair)
            residuals["lift_mass"] = c
            back = chain.project_invariant(model, density)
            residuals["round_trip_l1"] = back.l1(result.pair, model)
            masses = {"input": 1.0, "output": density.total_mass}
    elif subcommand == "resolvent":
        init = _initial_density(model, task)
        lam = float(task.get("lam", 1.0))
        res = semigroup.resolvent_G(
            model,
            init,
            lam,
            tol=float(task.get("tol", 1e-10)),
            max_terms=int(task.get("max_terms", 500)),
        )
        density = res.density
        masses = {
            "input": init.total_mass,
            "output": lam * res.density.total_mass,
            "defect": 1.0 - lam * res.density.total_mass / init.total_mass,
        }
        residuals = {"terms": res.terms, "converged": res.converged, "tail_mass": res.tail_mass}
    elif subcommand == "verify":
        init = _initial_density(model, task)
        pair = DensityPair(init, np.zeros(model.gamma_minus.n_cells))
        try:
            residuals["k_defect"] = chain.k_stochasticity_defect(model, pair)
        except PdmpError as exc:
            residuals["k_defect"] = f"error: {exc}"
        report = verify.mc_vs_pde(
            model,
            init,
            float(task.get("t", 0.5)),
            int(task.get("n_paths", 20000)),
            seed,
            float(task.get("dt", model.min_crossing_time / 4 if np.isfinite(model.min_crossing_time) else 1e-2)),
        )
        residuals.update({f"mc_vs_pde_{k}": v for k, v in report.items()})
        density, censored = None, report["censored_mass"]
        masses = {"input": init.total_mass, "censored": censored}
        tolerances = {"mc_vs_pde_l1": 0.1, "mc_vs_pde_defect_gap": 0.05}
        tolerances.update(cfg.get("tolerances", {}))
        for key, bound in tolerances.items():
            val = residuals.get(key)
            if isinstance(val, (int, float)) and val > bound:
                residuals[f"{key}_exceeds"] = bound
                failed = True
    else:  # pragma: no cover - guarded by the parser
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return model, density, masses, residuals, failed


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
        model, density, masses, residuals, failed = _run(cfg, args.subcommand)
    except (ConfigError, PdmpError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
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
        "seed": int(cfg.get("seed", 0)),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return 2 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
