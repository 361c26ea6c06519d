"""Property tests: invariants of the density evolution on drawn models."""

import numpy as np
from hypothesis import given, strategies as st

from pdmpkit import GridDensity, KineticSlabParams, build_kinetic_slab, evolve


@st.composite
def symmetric_slabs(draw):
    """A small slab whose uniform density is invariant: a sign-symmetric
    velocity set with mirrored weights, a positive symmetric collision
    kernel, and specular or diffuse walls."""
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
        kernel=kernel,
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
    """With steps that resolve the transport (at most half a cell, so no
    cell center is cut off from the inflow wall; see
    test_semigroup.py::TestTransport for longer steps) and the collisions
    (the jump step's error is first order in rate x dt), the uniform density
    stays put to the benchmark's slab tolerance."""
    dt = min(0.5 * slab.min_crossing_time, 1e-3 / slab.rate_values().max())
    mass_error, drift = _evolve_uniform(slab, steps, dt)
    assert mass_error <= 1e-9
    assert drift <= 1e-3
