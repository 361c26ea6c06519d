"""Each route imports only what it uses: the Monte Carlo route and the
``simulate`` subcommand load no scipy, ``evolve`` loads ``scipy.sparse`` but no
solver, and the lazily resolved names of ``pdmpkit`` are the submodules' own."""

import os
import subprocess
import sys

import pytest

import pdmpkit

LAZY = {
    "chain": ("apply_K", "apply_R0", "invariant_of_K", "k_stochasticity_defect",
              "lift_invariant", "project_invariant"),
    "semigroup": ("evolve", "jump_terms", "resolvent_G", "trace_minus", "trace_plus",
                  "transport_step"),
}

# every public name of pdmpkit, as the package bound it eagerly before its operator
# routes became lazy
EXPORTED = sorted("""
    BoundaryGrid CellCycleParams ContinuousAxis ConvergenceError DensityPair DiscreteAxis
    DivergentIntegralError FlowMap GridDensity InteriorGrid JumpLaw KineticSlabParams
    ModeBlock ModelError NoInvariantDensityError Path PathEvent PdmpError PdmpModel
    StatePoint advance build_cell_cycle build_drift_redistribute build_kinetic_slab
    cell_cycle_lift chain cocycle core estimate_density hazard_integral hitting_time models
    p1_apply p1_invariant sample_holding semigroup simulate simulate_path step
    """.split() + [name for names in LAZY.values() for name in names])


def _scipy_modules(code: str) -> list:
    """The scipy modules loaded after running code in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(pdmpkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code += "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_monte_carlo_route_and_simulate_subcommand_load_no_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"name": "m1", "params": {"n_cells": 40}}, "seed": 3}')
    code = f"""
import sys
import pdmpkit, pdmpkit.cli, pdmpkit.verify
from pdmpkit import GridDensity, InteriorGrid, ModeBlock, ContinuousAxis
model = pdmpkit.build_drift_redistribute("m1", n_cells=40)
hist, _ = pdmpkit.estimate_density(model, GridDensity.uniform(model.grid), 0.5, 200, 1)
coarse = InteriorGrid([ModeBlock(0, [ContinuousAxis.uniform(0.0, 1.0, 10)])])
pdmpkit.verify.restrict_density(hist, coarse)
assert pdmpkit.cli.main([{str(cfg)!r}, "simulate", "--paths", "200",
                         "--out", {str(tmp_path / "out")!r}]) == 0
"""
    assert _scipy_modules(code) == []


def test_evolve_loads_sparse_but_no_solver():
    code = """
import sys
import pdmpkit
model = pdmpkit.build_drift_redistribute("m1", n_cells=40)
pdmpkit.evolve(model, pdmpkit.GridDensity.uniform(model.grid), 0.1, 0.01)
"""
    loaded = _scipy_modules(code)
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.sparse.linalg", "scipy.linalg"))]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in LAZY.items() for n in names])
def test_lazy_name_is_the_submodules_own(module, name):
    assert getattr(pdmpkit, name) is getattr(getattr(pdmpkit, module), name)


def test_every_exported_name_is_listed_and_star_imported():
    assert sorted(pdmpkit.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(pdmpkit))
    namespace = {}
    exec("from pdmpkit import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(pdmpkit, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pdmpkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from pdmpkit import no_such_name", {})
