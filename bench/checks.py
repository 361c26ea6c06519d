"""Output checks of the benchmark.

Each check returns None when the output passes and a one-line reason when it
does not.  References come from computations apart from the route being
timed (analytic densities, the closed-form cell-cycle lift, the scalar
division-cycle iteration, the Duhamel expansion) or from properties the
method must have (mass conservation, symmetry), never from stored output.
``selftest.py`` shows that each check rejects a deliberately wrong answer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special  # pdmpkit loads it already; scipy.stats would add to set-up

# false-alarm probability of the histogram test on correct output
HIST_ALPHA = 1e-6


def coarse_masses(values: np.ndarray, grid, factors) -> np.ndarray:
    """Cell masses of a density summed over blocks of fine cells.

    ``factors[b]`` gives, for mode block ``b``, how many fine cells along each
    axis make one coarse cell.  Coarse cells are numbered block by block in
    row-major order, as an ``InteriorGrid`` numbers them.
    """
    out = []
    for block, fac in zip(grid.blocks, factors):
        mass = (values[grid.block_slice(block.mode)] * block.weights).reshape(block.shape)
        split = []
        for n, f in zip(block.shape, fac):
            split += [n // f, f]
        out.append(mass.reshape(split).sum(axis=tuple(range(1, 2 * len(fac), 2))).ravel())
    return np.concatenate(out)


def histogram_matches(est: np.ndarray, ref: np.ndarray, n_paths: int):
    """Pearson chi-square test of a histogram of n_paths paths (bin masses
    ``est``) against the exact bin probabilities ``ref``.  Bins expecting
    fewer than 5 paths are pooled into one."""
    expected = n_paths * ref / ref.sum()
    counts = n_paths * np.asarray(est)
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if obs[-1] > 0 and exp[-1] == 0:
        return f"histogram: {obs[-1]:.0f} paths where the reference has no mass"
    keep = exp > 0
    stat = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
    dof = int(keep.sum()) - 1
    limit = float(special.chdtri(dof, HIST_ALPHA))  # chi-square upper quantile
    if not stat <= limit:
        return f"histogram chi-square {stat:.1f} > {limit:.1f} ({dof} dof)"
    return None


def same_values(a: np.ndarray, b: np.ndarray, tol: float, what: str):
    """Elementwise agreement of two arrays to an absolute tolerance."""
    gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
    if not gap <= tol:
        return f"{what}: max gap {gap:.3e} > {tol:.1e}"
    return None


def censored_is_zero(censored: float):
    if censored != 0.0:
        return f"censored mass {censored:.3e}, expected 0"
    return None


def mass_is(mass: float, expected: float, tol: float, what: str):
    if not abs(mass - expected) <= tol:
        return f"{what}: mass {mass:.12g}, expected {expected:.12g} within {tol:.1e}"
    return None


def l1_within(a: np.ndarray, b: np.ndarray, weights: np.ndarray, tol: float, what: str):
    """Weighted L1 distance of two cell-value arrays."""
    gap = float(np.abs(np.asarray(a) - np.asarray(b)) @ weights)
    if not gap <= tol:
        return f"{what}: L1 {gap:.3e} > {tol:.3e}"
    return None


def z_score_within(lhs: float, mc_mean: float, mc_stderr: float, zmax: float):
    z = abs(lhs - mc_mean) / mc_stderr if mc_stderr > 0 else math.inf
    if not z <= zmax:
        return f"duality z-score {z:.2f} > {zmax}"
    return None


def bytes_identical(a: np.ndarray, b: np.ndarray, what: str):
    if np.asarray(a).tobytes() != np.asarray(b).tobytes():
        return f"{what}: outputs differ"
    return None
