"""The batched hazard quadrature of ``orbit_hazard`` (models without a
closed-form ``cumulative_hazard``): accuracy against exact hazards, loud
failure where the hazard has no value, one rate call per pass, and the
scipy modules that importing the package leaves unloaded."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pdmpkit
from pdmpkit import build_drift_redistribute
from pdmpkit.core import ConvergenceError, orbit_hazard

from test_core import exponential_growth_model


def drift_with_rate(rate):
    """m2 (orbits x + t on the whole line) with the given rate and no closed forms."""
    m2 = build_drift_redistribute("m2", n_cells=10)
    return dataclasses.replace(m2, rate=rate, cumulative_hazard=None, inverse_hazard=None)


class TestAccuracy:
    def test_exp_growth_rows(self):
        # rate x^2 along x e^t: H = x^2 (e^{2t} - 1) / 2
        x, t = np.linspace(0.5, 2.0, 1000), np.linspace(0.0, 1.0, 1000)
        got = orbit_hazard(exponential_growth_model(), x[:, None], 0, t)
        np.testing.assert_allclose(got, x**2 * np.expm1(2 * t) / 2, rtol=0, atol=1e-9)

    def test_rate_near_the_start_of_a_long_orbit(self):
        # rate e^{-x} from x = 1: H(t) = e^{-1} (1 - e^{-t}), all of it within t < 40
        model = drift_with_rate(lambda X, mode: np.exp(-X[:, 0]))
        got = orbit_hazard(model, np.array([[1.0]]), 0, 2.0**20)
        assert got[0] == pytest.approx(math.exp(-1.0), rel=0, abs=1e-9)

    def test_rate_that_jumps_along_the_orbit(self):
        # rate 1 below x = 1 and 3 above: H = 3t - 2 (time spent below 1)
        model = drift_with_rate(lambda X, mode: np.where(X[:, 0] < 1.0, 1.0, 3.0))
        x = np.linspace(0.0, 2.0, 1000)
        t = 2.0 - x
        below = np.clip(1.0 - x, 0.0, t)
        got = orbit_hazard(model, x[:, None], 0, t)
        np.testing.assert_allclose(got, 3 * t - 2 * below, rtol=0, atol=1e-9)


class TestFailure:
    @pytest.mark.parametrize("rate", [
        lambda X, mode: np.where(X[:, 0] < 1.0, 1.0, np.nan),  # NaN past x = 1
        lambda X, mode: 1.0 / (X[:, 0] - 1.1) ** 2,  # a pole that no node hits exactly
    ], ids=["nan", "pole"])
    def test_no_value_raises(self, rate):
        model = drift_with_rate(rate)
        with np.errstate(divide="ignore"), pytest.raises(ConvergenceError):
            orbit_hazard(model, np.array([[0.0], [0.5]]), 0, 2.0)

    def test_infinite_time_rejected(self):
        with pytest.raises(ValueError):
            orbit_hazard(exponential_growth_model(), np.array([[0.7]]), 0, math.inf)


def test_one_rate_call_per_pass_over_all_rows():
    model = exponential_growth_model()
    calls = []

    def rate(X, mode):
        calls.append(X.shape[0])
        return model.rate(X, mode)

    counted = dataclasses.replace(model, rate=rate)
    x, t = np.linspace(0.5, 2.0, 1000), np.linspace(0.0, 1.0, 1000)
    orbit_hazard(counted, x[:, None], 0, t)
    assert 1 <= len(calls) <= 20


def test_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter, so that no other test has loaded these modules yet
    src = os.path.dirname(os.path.dirname(pdmpkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    names = ("scipy.integrate", "scipy.optimize", "scipy.special")
    code = f"import sys, pdmpkit, pdmpkit.cli; print(*[m for m in {names!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
