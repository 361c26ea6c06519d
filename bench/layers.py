"""Per-layer metrics of the traced run, derived from its spans.

Counts and times are per traced round: a round runs every case of the
workload once on freshly built models.  A metric whose work does not occur
on the workload reads 0 (e.g. ``chain.m1.r0_rows_per_s`` on mc_density).
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import LAYERS, SpanTable

MODELS = ("m1", "cell_cycle", "kinetic_slab")

CALLS = (
    ("cli", "build_model"),
    ("core", "advance"), ("core", "hitting_time"), ("core", "hazard_integral"),
    ("core", "interpolate"), ("core", "locate"), ("core", "GridDensity"),
    ("models", "phi"), ("models", "jac"), ("models", "hit_plus"), ("models", "hit_minus"),
    ("models", "rate"), ("models", "cumulative_hazard"), ("models", "inverse_hazard"),
    ("models", "sample"), ("models", "p0"), ("models", "p_partial"),
    ("models", "backward_orbit"), ("models", "in_state_space"),
    ("simulate", "estimate_density"), ("simulate", "simulate_path"), ("simulate", "step"),
    ("simulate", "sample_holding"), ("simulate", "sample_from_density"),
    ("semigroup", "evolve"), ("semigroup", "transport_step"), ("semigroup", "trace_plus"),
    ("semigroup", "jump_terms"), ("semigroup", "resolvent_G"),
    ("chain", "apply_R0"), ("chain", "apply_K"), ("chain", "invariant_of_K"),
    ("chain", "lift_invariant"), ("chain", "project_invariant"),
    ("verify", "duhamel_oracle"), ("verify", "resolvent_duality"),
    ("verify", "restrict_density"),
)

PER_MODEL = (
    ("simulate", "paths_per_s", "1/s", "higher"),
    ("simulate", "jumps_per_path", "count", "lower"),
    ("simulate", "paths_per_s_1thread", "1/s", "higher"),
    ("models", "sample_us", "us", "lower"),
    ("models", "phi_pts_per_s", "1/s", "higher"),
    ("models", "jump_op_us", "us", "lower"),
    ("models", "backward_orbit_us", "us", "lower"),
    ("semigroup", "step_us", "us", "lower"),
    ("semigroup", "transport_step_us", "us", "lower"),
    ("semigroup", "trace_plus_us", "us", "lower"),
    ("chain", "r0_rows_per_s", "1/s", "higher"),
    ("chain", "apply_K_us", "us", "lower"),
    ("chain", "power_iterations", "count", "lower"),
    ("cli", "build_model_s", "s", "lower"),
)

SINGLE = (
    ("simulate.m1.trajectory_us", "us", "lower"),
    ("core.interpolate_pts_per_s", "1/s", "higher"),
    ("verify.m1.duhamel_s", "s", "lower"),
    ("verify.m1.duality_path_us", "us", "lower"),
    ("chain.r0_assemblies", "count", "lower"),
    ("semigroup.kinetic_slab.resolvent_terms", "count", "lower"),
    ("semigroup.kinetic_slab.resolvent_term_us", "us", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans_per_round", "count", "lower"),
)


def spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"{layer}.{fn}.calls", "count", "lower") for layer, fn in CALLS]
    out += [(f"{layer}.{m}.{what}", unit, better)
            for layer, what, unit, better in PER_MODEL for m in MODELS]
    out += list(SINGLE)
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


class _Spans:
    """Span masks and sums over one run's SpanTable."""

    def __init__(self, table: SpanTable):
        self.t = table
        self.dur = table.duration / 1e9
        self._named = {}

    def named(self, name: str) -> np.ndarray:
        if name not in self._named:
            self._named[name] = self.t.is_named(name)
        return self._named[name]

    def within(self, prefix: str) -> np.ndarray:
        mask = np.zeros(self.t.name.size, dtype=bool)
        for root, _ in self.t.roots(prefix):
            mask |= self.t.inside(root)
        return mask

    def children(self, name: str, parents: np.ndarray) -> np.ndarray:
        """Spans called ``name`` whose parent is one of the masked spans."""
        return self.named(name) & np.isin(self.t.parent, np.nonzero(parents)[0])

    def assembling_r0(self, scope: np.ndarray) -> np.ndarray:
        """apply_R0 calls that built their matrices (they enumerate orbits)."""
        r0 = self.named("chain.apply_R0") & scope
        rows = self.children("models.backward_orbit", r0)
        mask = np.zeros_like(r0)
        mask[np.unique(self.t.parent[rows])] = True
        return mask & r0

    def mean_us(self, name: str, scope: np.ndarray) -> float:
        m = self.named(name) & scope
        return _ratio(self.dur[m].sum() * 1e6, m.sum())


def derive(table: SpanTable, rounds: list, plain_solve: float, traced_solve: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``rounds`` holds, per traced round, the ``stats`` each case returned.
    """
    s = _Spans(table)
    n_rounds = len(rounds)
    scope = s.within("case.") | s.within("build.")
    self_s = table.self_time() / 1e9
    layer = table.layer_of()
    out = {}
    for i, name in enumerate(LAYERS):
        out[f"{name}.self_s"] = float(self_s[(layer == i) & scope].sum()) / n_rounds
    for name, fn in CALLS:
        out[f"{name}.{fn}.calls"] = int((s.named(f"{name}.{fn}") & scope).sum()) / n_rounds

    def stat(model, key):
        return sum(r.get(model, {}).get(key, 0) for r in rounds) / n_rounds

    for m in MODELS:
        case = s.within(f"case.{m}")
        pool = s.within(f"threads_default.{m}")
        for tag, where in (("paths_per_s", pool), ("paths_per_s_1thread", case)):
            ed = s.named("simulate.estimate_density") & where
            paths = s.children("simulate.simulate_path", ed)
            out[f"simulate.{m}.{tag}"] = _ratio(paths.sum(), s.dur[ed].sum())
        ed = s.named("simulate.estimate_density") & case
        paths = s.children("simulate.simulate_path", ed)
        steps = s.children("simulate.step", paths)
        out[f"simulate.{m}.jumps_per_path"] = _ratio(steps.sum() - paths.sum(), paths.sum())

        out[f"models.{m}.sample_us"] = s.mean_us("models.sample", case)
        phi = s.named("models.phi") & case
        out[f"models.{m}.phi_pts_per_s"] = _ratio(table.work[phi].sum(), s.dur[phi].sum())
        p0 = s.named("models.p0") & case
        pp = s.named("models.p_partial") & case
        out[f"models.{m}.jump_op_us"] = _ratio((s.dur[p0].sum() + s.dur[pp].sum()) * 1e6, p0.sum())
        out[f"models.{m}.backward_orbit_us"] = s.mean_us("models.backward_orbit", case)

        ev = s.named("semigroup.evolve") & case
        out[f"semigroup.{m}.step_us"] = _ratio(
            s.dur[ev].sum() * 1e6, s.children("semigroup.transport_step", ev).sum())
        out[f"semigroup.{m}.transport_step_us"] = s.mean_us("semigroup.transport_step", case)
        out[f"semigroup.{m}.trace_plus_us"] = s.mean_us("semigroup.trace_plus", case)

        assembling = s.assembling_r0(case)
        rows = s.children("models.backward_orbit", assembling)
        out[f"chain.{m}.r0_rows_per_s"] = _ratio(rows.sum(), s.dur[assembling].sum())
        apply_k = s.dur[s.named("chain.apply_K") & case]
        out[f"chain.{m}.apply_K_us"] = statistics.median(apply_k) * 1e6 if apply_k.size else 0.0
        out[f"chain.{m}.power_iterations"] = stat(m, "iterations")

        builds = s.dur[s.named("cli.build_model") & s.within(f"build.{m}")]
        out[f"cli.{m}.build_model_s"] = statistics.median(builds) if builds.size else 0.0

    m1 = s.within("case.m1")
    out["simulate.m1.trajectory_us"] = s.mean_us("simulate.simulate_path", m1)
    interp = s.named("core.interpolate") & scope
    out["core.interpolate_pts_per_s"] = _ratio(table.work[interp].sum(), s.dur[interp].sum())
    out["verify.m1.duhamel_s"] = float(s.dur[s.named("verify.duhamel_oracle") & m1].sum()) / n_rounds
    rd = s.named("verify.resolvent_duality") & m1
    out["verify.m1.duality_path_us"] = _ratio(
        (s.dur[rd].sum() - s.dur[s.children("semigroup.resolvent_G", rd)].sum()) * 1e6,
        s.children("simulate.simulate_path", rd).sum())
    out["chain.r0_assemblies"] = int(s.assembling_r0(scope).sum()) / n_rounds

    slab = s.within("case.kinetic_slab")
    rg = s.named("semigroup.resolvent_G") & slab
    terms = stat("kinetic_slab", "terms")
    out["semigroup.kinetic_slab.resolvent_terms"] = terms
    assembly_in_rg = s.assembling_r0(slab) & np.isin(table.parent, np.nonzero(rg)[0])
    out["semigroup.kinetic_slab.resolvent_term_us"] = _ratio(
        (s.dur[rg].sum() - s.dur[assembly_in_rg].sum()) * 1e6, terms * n_rounds)

    out["trace.solve_s"] = traced_solve
    out["trace.overhead_s"] = traced_solve - plain_solve
    out["trace.spans_per_round"] = int(scope.sum()) / n_rounds
    return out
