import csv
import json

import numpy as np
import pytest

from pdmpkit import semigroup
from pdmpkit.cli import main


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {"model": {"name": "m1", "params": {"n_cells": 50}}, "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestSimulate:
    def test_writes_outputs_and_accounts_mass(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        rc = main([str(cfg_path), "simulate", "--out", str(out),
                   "--t", "0.5", "--paths", "500"])
        assert rc == 0
        summary = read_summary(out)
        assert summary["subcommand"] == "simulate"
        assert summary["model"] == "m1"
        assert summary["seed"] == 3
        m = summary["masses"]
        assert m["output"] + m["censored"] == pytest.approx(m["input"], abs=1e-12)
        assert summary["wall_time_seconds"] > 0

    def test_density_csv_format(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main([str(cfg_path), "simulate", "--out", str(out),
                     "--t", "0.5", "--paths", "200"]) == 0
        with open(out / "density.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "mode", "value"]
        assert len(rows) == 51
        vals = np.array([float(r[2]) for r in rows[1:]])
        assert np.all(vals >= 0)
        assert {r[1] for r in rows[1:]} == {"0"}

    def test_integral_float_entries_are_read_as_integers(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main([str(cfg_path), "simulate", "--out", str(out),
                     "--t", "0.5", "--paths", "2e2", "--seed", "4.0"]) == 0
        assert read_summary(out)["seed"] == 4

    def test_seed_override_changes_histogram(self, cfg_path, tmp_path):
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main([str(cfg_path), "simulate", "--out", str(out),
                         "--t", "0.5", "--paths", "200", "--seed", seed]) == 0
            outs.append((out / "density.csv").read_text())
        assert outs[0] != outs[1]


class TestOtherSubcommands:
    def test_evolve(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        rc = main([str(cfg_path), "evolve", "--out", str(out),
                   "--t", "0.5", "--dt", "0.02"])
        assert rc == 0
        masses = read_summary(out)["masses"]
        assert masses["defect"] == pytest.approx(0.0, abs=1e-9)

    def test_invariant_round_trip_reported(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main([str(cfg_path), "invariant", "--out", str(out)]) == 0
        res = read_summary(out)["residuals"]
        assert res["lift_mass"] == pytest.approx(0.5, abs=1e-9)
        assert res["round_trip_l1"] < 1e-6

    def test_embedded_chain(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main([str(cfg_path), "embedded", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["masses"]["output"] == pytest.approx(1.0, abs=1e-9)
        assert summary["residuals"]["iterations"] == 1

    def test_resolvent(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main([str(cfg_path), "resolvent", "--out", str(out), "--lam", "2.0"]) == 0
        summary = read_summary(out)
        assert summary["masses"]["output"] == pytest.approx(1.0, abs=1e-3)
        assert summary["residuals"]["converged"]

    def test_verify_pass_and_fail_exit_codes(self, cfg_path, tmp_path):
        out = tmp_path / "ok"
        assert main([str(cfg_path), "verify", "--out", str(out),
                     "--task.n_paths", "10000"]) == 0
        out2 = tmp_path / "fail"
        rc = main([str(cfg_path), "verify", "--out", str(out2),
                   "--task.n_paths", "2000", "--tolerances.mc_vs_pde_l1", "1e-9"])
        assert rc == 2
        res = read_summary(out2)["residuals"]
        assert res["mc_vs_pde_l1_exceeds"] == 1e-9

    def test_verify_tolerance_may_be_infinite(self, cfg_path, tmp_path):
        # an infinite tolerance is no bound: it passes, where inf as a time fails
        rc = main([str(cfg_path), "verify", "--out", str(tmp_path), "--task.n_paths", "2000",
                   "--tolerances.mc_vs_pde_l1", "inf", "--tolerances.mc_vs_pde_defect_gap",
                   "Infinity"])
        assert rc == 0
        assert not any(k.endswith("_exceeds") for k in read_summary(tmp_path)["residuals"])


class TestErrorHandling:
    def test_missing_config(self, tmp_path):
        assert main([str(tmp_path / "nope.json"), "simulate"]) == 1

    def test_unknown_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"name": "banana"}}))
        assert main([str(path), "simulate"]) == 1

    def test_unknown_subcommand(self, cfg_path):
        assert main([str(cfg_path), "extrapolate"]) == 1

    def test_dangling_override(self, cfg_path, tmp_path):
        assert main([str(cfg_path), "simulate", "--out", str(tmp_path), "--t"]) == 1

    def test_bad_model_parameters(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"name": "m1", "params": {"n_cellz": 10}}}))
        assert main([str(path), "simulate"]) == 1

    def test_missing_model_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"params": {"n_cells": 10}}}))
        assert main([str(path), "simulate", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("override", [
        ["--t", "soon"],
        ["--t", "1", "--dt", "2"],
        ["--paths", "0"],
        ["--seed", "-1"],
        ["--task", "[1, 2]"],
        ["--task.init", '{"kind": "point"}'],
        ["--task.init", '{"kind": "point", "coords": [0.5, 1.0]}'],
        ["--model.params.n_cells", "0"],
        ["--paths", "2.5"],
        ["--paths", "true"],
        ["--paths", "1e400"],
        ["--seed", "1.5"],
        ["--seed", "false"],
        ["--task.init", '{"kind": "point", "coords": [0.5], "mode": 0.5}'],
        ["--task.max_iters", "2.5"],
        ["--task.max_terms", "true"],
        ["--t", "inf"],
        ["--t", "Infinity", "--dt", "Infinity"],
        ["--lam", "inf"],
        ["--task.tol", "inf"],
        ["--lam", "nan"],
    ])
    def test_unreadable_config_values(self, cfg_path, tmp_path, override):
        readers = {"--dt": "evolve", "--task.max_iters": "invariant",
                   "--task.max_terms": "resolvent", "--lam": "resolvent",
                   "--task.tol": "invariant"}
        subcommand = next((readers[flag] for flag in override if flag in readers), "simulate")
        assert main([str(cfg_path), subcommand, "--out", str(tmp_path), *override]) == 1

    def test_internal_errors_propagate(self, cfg_path, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal failure")

        monkeypatch.setattr(semigroup, "evolve", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main([str(cfg_path), "evolve", "--out", str(tmp_path)])

    def test_point_init_outside_grid(self, cfg_path, tmp_path):
        rc = main([str(cfg_path), "simulate", "--out", str(tmp_path),
                   "--task.init", '{"kind": "point", "coords": [7.0]}'])
        assert rc == 1
