"""Shared fixtures: the expensive solves are session-scoped and reused.

The B = 1e4 spectrum backs the doublet-table, WKB, summit and slanted
tests; the raw (unextrapolated) 2001-point basis feeds the propagator
comparison, where both integrators must step the identical discrete
operator.
"""
import numpy as np
import pytest

from quantum_rod import dynamics
from quantum_rod.spectrum import solve_spectrum
from quantum_rod.units import RodParams, derive_scales

B_TABLE = 1.0e4


@pytest.fixture(scope="session")
def spectrum_b1e4():
    """Refined spectrum, deep enough for the 60th doublet.

    Its chain stops at 2001 points (1001 < min_grid_n(130)), so it is
    Romberg-extrapolated from 8001, 4001 and 2001 points.
    """
    return solve_spectrum(B_TABLE, 130, grid_n=4001)


@pytest.fixture(scope="session")
def basis_b1e4_raw():
    """Raw base-grid eigenbasis for propagator cross-checks."""
    return solve_spectrum(B_TABLE, 140, grid_n=2001, refine=False)


@pytest.fixture(scope="session")
def scales_ref():
    """The 1 g, 10 cm reference rod."""
    return derive_scales(RodParams(mass=1e-3, length=0.1, gravity=9.81))


@pytest.fixture(scope="session")
def evolution_pair(basis_b1e4_raw):
    """Eigen-expansion and Crank-Nicolson runs of the same initial state.

    B = 1e4, sigma = 0.05, t in [0, 5]/omega_c, snapshots at every
    output time; dt = 5e-4 keeps the step error well under the 1e-4
    L2 budget.
    """
    times = np.linspace(0.0, 5.0, 26)
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    res_eigen = dynamics.evolve_eigen(coeffs, basis_b1e4_raw, times,
                                      snapshot_times=times)
    res_direct = dynamics.evolve_direct(state, B_TABLE, 5e-4, times,
                                        snapshot_times=times)
    return times, grid, res_eigen, res_direct
