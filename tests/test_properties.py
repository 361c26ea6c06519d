"""Property tests: invariants of the density evolution and the jump chain on drawn models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdmpkit import (
    CellCycleParams,
    DensityPair,
    GridDensity,
    KineticSlabParams,
    apply_K,
    build_cell_cycle,
    build_kinetic_slab,
    evolve,
)

from test_chain import dense_r0


@st.composite
def symmetric_slabs(draw, collisions=True):
    """A small slab whose uniform density is invariant: a sign-symmetric
    velocity set with mirrored weights, a positive symmetric collision
    kernel (or none), and specular or diffuse walls."""
    # speeds on a 1/8 grid: distinct velocities stay far apart for the
    # discrete velocity axis
    speeds = np.array(sorted(draw(st.lists(st.integers(2, 16), min_size=1, max_size=3,
                                           unique=True)))) / 8.0
    nu = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=speeds.size,
                                max_size=speeds.size)))
    n_v = 2 * speeds.size
    kernel = np.zeros((n_v, n_v))
    kernel[np.triu_indices(n_v)] = draw(st.lists(st.floats(0.1, 2.0), min_size=n_v * (n_v + 1) // 2,
                                                 max_size=n_v * (n_v + 1) // 2))
    kernel = kernel + np.triu(kernel, 1).T
    return build_kinetic_slab(KineticSlabParams(
        n_x=draw(st.integers(4, 24)),
        velocities=tuple(np.concatenate([-speeds[::-1], speeds])),
        nu_weights=tuple(np.concatenate([nu[::-1], nu])),
        kernel=kernel if collisions else None,
        boundary=draw(st.sampled_from(["specular", "diffuse"])),
    ))


def _evolve_uniform(slab, steps, dt):
    """Mass error and L1 drift of the uniform density after steps * dt."""
    u = GridDensity.uniform(slab.grid)
    f = evolve(slab, u, steps * dt, dt)
    return abs(f.total_mass - 1.0), float(np.abs(f.values - u.values) @ slab.grid.weights)


@given(slab=symmetric_slabs(), steps=st.floats(1.0, 60.0))
def test_evolve_keeps_mass(slab, steps):
    # the benchmark's step: one whole cell for the fastest velocity
    mass_error, _ = _evolve_uniform(slab, steps, slab.min_crossing_time)
    assert mass_error <= 1e-9


@given(slab=symmetric_slabs(), steps=st.floats(1.0, 200.0))
def test_evolve_keeps_the_uniform_density(slab, steps):
    """With steps that resolve the transport (at most half a cell) and the
    collisions (the jump step's error is first order in rate x dt), the
    uniform density stays put to the benchmark's slab tolerance."""
    dt = min(0.5 * slab.min_crossing_time, 1e-3 / slab.rate_values().max())
    mass_error, drift = _evolve_uniform(slab, steps, dt)
    assert mass_error <= 1e-9
    assert drift <= 1e-3


@given(slab=symmetric_slabs(collisions=False), fraction=st.floats(0.05, 1.0),
       steps=st.integers(1, 60))
def test_free_streaming_keeps_the_uniform_density(slab, fraction, steps):
    """Without collisions the uniform density is exact at any step up to one
    cell crossing of the fastest speed: interpolation with ghost zeros keeps
    the surviving part of each inflow cell, and the influx refills the rest."""
    _, drift = _evolve_uniform(slab, steps, fraction * slab.min_crossing_time)
    assert drift <= 1e-9


@given(c=st.floats(0.25, 2.0), r=st.floats(0.25, 4.0), n_y=st.integers(2, 6))
def test_swept_cell_cycle_chain_keeps_the_whole_row_mass(c, r, n_y):
    """Phase II is swept across its clock axis and picks up face values by linear
    interpolation in x, whose weights sum to one: with constant growth c and
    entry rate r, K moves a pair's mass exactly as whole rows do.  The pair's
    phase II is empty, as in every output of K, and its inflow density keeps
    clear of x = 0 and x = x_max, where the two lose different amounts off
    the grid."""
    model = build_cell_cycle(CellCycleParams(
        growth=lambda x: np.full(np.shape(x), c), entry_rate=lambda x: np.full(np.shape(x), r),
        x_max=20.0, n_x=80, n_y=n_y, growth_time=lambda x: x / c, growth_time_inv=lambda s: c * s,
        hazard_anti=lambda x: r * x / c, hazard_anti_inv=lambda q: c * q / r))
    rng = np.random.default_rng(5)
    f = np.zeros(model.grid.n_cells)
    f[model.grid.block_slice(0)] = rng.random(model.grid.block(0).n_cells)
    x_b = model.gamma_minus.points[:, 0]
    fb = np.where((x_b > 5.0) & (x_b < 10.0), rng.random(x_b.size), 0.0)
    pair = DensityPair(GridDensity(model.grid, f), fb)
    pair = pair.scaled(1.0 / pair.norm(model))

    (m_int, b_int), (m_out, b_out) = dense_r0(model, 0.0)
    h = model.rate_values() * (m_int @ pair.interior.values + b_int @ pair.boundary)
    whole = model.post_jump(h, m_out @ pair.interior.values + b_out @ pair.boundary)
    assert apply_K(model, pair, 0.0).norm(model) == pytest.approx(whole.norm(model), abs=1e-10)


@given(n_x=st.integers(1, 400), x_max=st.floats(1.0, 40.0), n_y=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_cell_division_keeps_the_outflux_mass(n_x, x_max, n_y, seed):
    """Division sends the outflux of parent cells 2k and 2k + 1 to newborn
    cell k at half the size and twice the density, so every newborn cell gets
    exactly the outflux mass over its doubled span and the total is the
    outflux's mass."""
    model = build_cell_cycle(CellCycleParams(n_x=n_x, x_max=x_max, n_y=n_y))
    h_plus = np.random.default_rng(seed).exponential(size=n_x)
    newborn = model.jump.p0(np.zeros(model.grid.n_cells), h_plus)
    assert newborn @ model.grid.weights == pytest.approx(h_plus @ model.gamma_plus.weights,
                                                          rel=1e-14)
