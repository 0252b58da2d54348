"""Wavepacket preparation, propagation (two independent routes), fall times."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from quantum_rod import _scipy_ext, dynamics
from quantum_rod.errors import (
    DomainError,
    InsufficientBasisError,
    InvalidParameterError,
    StepSizeError,
)
from quantum_rod.spectrum import grid_hamiltonian, make_grid, potential, solve_spectrum
from quantum_rod.summit import FIT_GAMMA, summit_scale
from quantum_rod.units import RodParams, derive_scales
from reference_routes import closed_form_energy, uncertainty_product

LN2 = math.log(2.0)


def _l2(grid, a, b):
    return math.sqrt(simpson(np.abs(a - b) ** 2, x=grid))


# ---------------------------------------------------------------------------
# State preparation


def test_prepare_gaussian_basics():
    grid = make_grid(2001)
    state = dynamics.prepare_gaussian(0.05, grid)
    assert simpson(state.values**2, x=grid) == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(state.values - state.values[::-1])) < 5e-14
    assert not state.renormalized


def test_prepare_gaussian_guards():
    grid = make_grid(2001)
    with pytest.raises(InvalidParameterError):
        dynamics.prepare_gaussian(0.0, grid)
    with pytest.raises(InvalidParameterError):
        dynamics.prepare_gaussian(-0.1, grid)
    with pytest.warns(UserWarning, match="quarter circle"):
        wide = dynamics.prepare_gaussian(0.35, grid)
    assert wide.renormalized   # visible truncation at the walls
    with pytest.warns(UserWarning):
        dynamics.prepare_gaussian(0.31, grid)   # anything over 0.3 warns
    # Every sample underflows: 2 sigma^2 is 0 at 1e-300, and at 1e-18 even
    # the samples nearest theta = 0 on 400 points (h/2 = 3.9e-3 away) are 0.
    for sigma, points in ((1e-300, 2001), (1e-18, 400)):
        with pytest.raises(InvalidParameterError, match="no representable state"):
            dynamics.prepare_gaussian(sigma, make_grid(points))


def test_uncertainty_product_is_minimal():
    grid = make_grid(4001)
    for sigma in (0.01, 0.03, 0.1):
        d_theta, d_l, product = uncertainty_product(
            dynamics.prepare_gaussian(sigma, grid))
        assert d_theta == pytest.approx(sigma / math.sqrt(2.0), rel=1e-6)
        assert d_l == pytest.approx(1.0 / (sigma * math.sqrt(2.0)), rel=1e-6)
        assert product == pytest.approx(0.5, rel=1e-6)


def test_energy_against_closed_form():
    grid = make_grid(2001)
    state = dynamics.prepare_gaussian(0.05, grid)
    grid_energy = dynamics.energy_expectation(state, 1e4)
    assert grid_energy == pytest.approx(
        closed_form_energy(0.05, 1e4), rel=1e-4)


def test_summit_width_packet_sits_at_barrier_top():
    # A Gaussian of width s has energy B + 1/16 + O(1/B): the kinetic
    # cost of the confinement exactly pays for the potential drop.
    b = 1e8
    assert closed_form_energy(summit_scale(b), b) == pytest.approx(
        b, rel=1e-6)


# ---------------------------------------------------------------------------
# Eigenbasis expansion


def test_expand_parseval(basis_b1e4_raw):
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    assert abs(1.0 - float(np.sum(coeffs**2))) < 1e-9
    # Symmetric state: odd levels carry nothing.
    odd = [c for lv, c in zip(basis_b1e4_raw.levels, coeffs)
           if lv.parity == "odd"]
    assert np.max(np.abs(odd)) < 1e-10


def test_expand_recovers_eigenstate(basis_b1e4_raw):
    wf = basis_b1e4_raw.wavefunctions[0]
    state = dynamics.InitialState(sigma=0.05, grid=wf.grid, values=wf.values,
                                  renormalized=False)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(coeffs[1:])) < 1e-8


def test_expand_energy_concentration(basis_b1e4_raw):
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    weights = coeffs**2
    energies = basis_b1e4_raw.energies
    hbar_omega = math.sqrt(2.0 * 1e4)
    mean = float(np.sum(weights * energies))
    assert abs(mean - 1e4) < 2.0 * hbar_omega
    near = weights[np.abs(energies - mean) < 10.0 * hbar_omega]
    assert float(np.sum(near)) > 0.98


def test_expand_guards(basis_b1e4_raw):
    small = solve_spectrum(1e4, 20, grid_n=2001, refine=False)
    grid = small.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    with pytest.raises(InsufficientBasisError):
        dynamics.expand(state, small)
    other = dynamics.prepare_gaussian(0.05, make_grid(1001))
    with pytest.raises(InvalidParameterError):
        dynamics.expand(other, basis_b1e4_raw)
    # A NaN capture must fail the deficit check, not slip through it.
    nan_state = dynamics.InitialState(sigma=0.05, grid=grid,
                                      values=np.full(len(grid), np.nan),
                                      renormalized=False)
    with pytest.raises(InsufficientBasisError):
        dynamics.expand(nan_state, small)


def test_expand_matches_per_mode_quadrature(basis_b1e4_raw):
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    loop = np.array([float(simpson(wf.values * state.values, x=grid))
                     for wf in basis_b1e4_raw.wavefunctions])
    assert np.array_equal(coeffs, loop)


def test_expand_holds_no_second_mode_matrix():
    # The products with the state are formed a block of rows at a time, so
    # the traced peak is a small fraction of the 280 x 2801 mode matrix.
    basis = solve_spectrum(1e3, 280, grid_n=2801, refine=False)
    state = dynamics.prepare_gaussian(0.04, basis.grid)
    tracemalloc.start()
    try:
        dynamics.expand(state, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * basis.modes.nbytes


# ---------------------------------------------------------------------------
# Propagation


def test_evolve_eigen_reproduces_initial_state(basis_b1e4_raw):
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    times = np.array([0.0])
    res = dynamics.evolve_eigen(coeffs, basis_b1e4_raw, times,
                                snapshot_times=times)
    assert _l2(grid, res.snapshots[0], state.values.astype(complex)) < 1e-5
    assert res.norm[0] == pytest.approx(1.0, abs=1e-9)


def test_evolve_eigen_stationary_state(basis_b1e4_raw):
    coeffs = np.zeros(len(basis_b1e4_raw.levels))
    coeffs[4] = 1.0
    times = np.linspace(0.0, 3.0, 7)
    res = dynamics.evolve_eigen(coeffs, basis_b1e4_raw, times)
    assert np.ptp(res.energy) < 1e-9 * np.abs(res.energy).max()
    assert np.ptp(res.mean_abs_theta) < 1e-10
    assert np.max(np.abs(res.norm - 1.0)) < 1e-10


def test_evolve_eigen_matches_complex_mode_sum(basis_b1e4_raw):
    # The state at each time against the plain complex sum
    # (c * exp(-i E tau)) @ modes.  Each dot product over the L levels is
    # within L eps sum_k |c_k| |psi_k| of the exact sum, so the two routes
    # differ by at most twice that, in the real and in the imaginary part.
    grid = basis_b1e4_raw.wavefunctions[0].grid
    coeffs = dynamics.expand(dynamics.prepare_gaussian(0.05, grid), basis_b1e4_raw)
    modes = basis_b1e4_raw.modes
    energies = basis_b1e4_raw.energies
    times = np.linspace(0.0, 2.0, 9)
    res = dynamics.evolve_eigen(coeffs, basis_b1e4_raw, times, snapshot_times=times)
    factor = 1.0 / math.sqrt(2.0 * basis_b1e4_raw.B)
    bound = 2.0 * len(coeffs) * np.finfo(float).eps * (np.abs(coeffs) @ np.abs(modes))
    for t, snap in zip(times, res.snapshots):
        expected = (coeffs * np.exp(-1j * energies * (t * factor))) @ modes
        assert np.all(np.abs(snap.real - expected.real) <= bound)
        assert np.all(np.abs(snap.imag - expected.imag) <= bound)


def _p_left(grid, snap):
    mid = len(grid) // 2
    return float(simpson(np.abs(snap[: mid + 1]) ** 2, x=grid[: mid + 1]))


def test_free_two_mode_beat_matches_analytic():
    # Exactly solvable check of both propagators: an equal mix of the
    # two lowest free modes oscillates between the half-boxes with
    # P_left(t) = 1/2 + (4/3pi) cos(3 t).
    grid = make_grid(801)
    u1 = math.sqrt(2.0 / math.pi) * np.sin(1.0 * (grid + 0.5 * math.pi))
    u2 = math.sqrt(2.0 / math.pi) * np.sin(2.0 * (grid + 0.5 * math.pi))
    mid = len(grid) // 2
    overlap = simpson((u1 * u2)[: mid + 1], x=grid[: mid + 1])
    assert overlap == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-9)

    state = dynamics.InitialState(sigma=0.1, grid=grid,
                                  values=(u1 + u2) / math.sqrt(2.0),
                                  renormalized=False)
    basis = solve_spectrum(0.0, 2, grid_n=801)
    coeffs = dynamics.expand(state, basis)
    assert np.allclose(coeffs, math.sqrt(0.5), atol=1e-9)

    times = np.array([0.0, 0.3, 0.7, math.pi / 3.0, 1.5, 2.0])
    analytic = 0.5 + (4.0 / (3.0 * math.pi)) * np.cos(3.0 * times)
    res_e = dynamics.evolve_eigen(coeffs, basis, times, times_unit="natural",
                                  snapshot_times=times)
    res_d = dynamics.evolve_direct(state, 0.0, 1e-3, times,
                                   times_unit="natural", snapshot_times=times)
    p_e = np.array([_p_left(grid, s) for s in res_e.snapshots])
    p_d = np.array([_p_left(grid, s) for s in res_d.snapshots])
    assert np.max(np.abs(p_e - analytic)) < 1e-8
    assert np.max(np.abs(p_d - analytic)) < 1e-4


def test_tunneling_beat():
    # Deep doublet at B = 60: a one-sided packet swings to the other
    # well and back with period 2*pi/splitting.
    basis = solve_spectrum(60.0, 2, grid_n=801)
    split = basis.energies[1] - basis.energies[0]
    assert split == pytest.approx(0.005266753636661, rel=1e-6)
    grid = basis.wavefunctions[0].grid
    # Both members are positive in the left well under the sign
    # convention, so the sum starts left-localized.
    coeffs = np.array([math.sqrt(0.5), math.sqrt(0.5)])
    period = 2.0 * math.pi / split
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * period
    res = dynamics.evolve_eigen(coeffs, basis, times, times_unit="natural",
                                snapshot_times=times)
    p = np.array([_p_left(grid, s) for s in res.snapshots])
    assert p[0] > 0.99
    assert p[2] < 0.01
    assert abs(p[4] - p[0]) < 1e-6
    assert p[1] == pytest.approx(0.5, abs=1e-3)
    assert p[3] == pytest.approx(0.5, abs=1e-3)


def test_propagator_routes_agree(evolution_pair):
    times, grid, res_eigen, res_direct = evolution_pair
    worst = max(_l2(grid, a, b)
                for a, b in zip(res_eigen.snapshots, res_direct.snapshots))
    assert worst < 1e-4


def test_propagation_conserves_norm_and_energy(evolution_pair):
    _, _, res_eigen, res_direct = evolution_pair
    for res in (res_eigen, res_direct):
        assert np.max(np.abs(res.norm - 1.0)) < 1e-8
        assert np.ptp(res.energy) < 1e-6 * np.abs(res.energy).max()


def test_propagation_preserves_symmetry(evolution_pair):
    _, _, res_eigen, res_direct = evolution_pair
    for res in (res_eigen, res_direct):
        for snap in res.snapshots:
            dens = np.abs(snap) ** 2
            assert np.max(np.abs(dens - dens[::-1])) < 1e-8


def test_snapshot_subset():
    basis = solve_spectrum(100.0, 30, grid_n=401, refine=False)
    g = basis.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.1, g)
    coeffs = dynamics.expand(state, basis)
    ts = np.linspace(0.0, 2.0, 21)
    wanted = np.array([ts[5], ts[15]])
    res = dynamics.evolve_eigen(coeffs, basis, ts, snapshot_times=wanted)
    assert res.snapshots.shape[0] == 2
    assert np.allclose(res.snapshot_times, wanted)
    none = dynamics.evolve_eigen(coeffs, basis, ts)
    assert none.snapshots is None and none.snapshot_times is None


def test_direct_step_error_scales_quadratically(basis_b1e4_raw):
    grid = basis_b1e4_raw.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.05, grid)
    coeffs = dynamics.expand(state, basis_b1e4_raw)
    times = np.array([0.0, 1.0])
    ref = dynamics.evolve_eigen(coeffs, basis_b1e4_raw, times,
                                snapshot_times=times)
    errs = []
    for dt in (4e-3, 2e-3):
        run = dynamics.evolve_direct(state, 1e4, dt, times,
                                     snapshot_times=times)
        errs.append(_l2(grid, run.snapshots[-1], ref.snapshots[-1]))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_barrier_bounce():
    # At B = 400 a narrow packet released on the summit slides down,
    # reflects off the walls, and partially reassembles.
    basis = solve_spectrum(400.0, 60, grid_n=1001, refine=False)
    grid = basis.wavefunctions[0].grid
    state = dynamics.prepare_gaussian(0.1, grid)
    coeffs = dynamics.expand(state, basis)
    times = np.linspace(0.0, 8.0, 33)
    res = dynamics.evolve_eigen(coeffs, basis, times)
    m = res.mean_abs_theta
    peak = int(np.argmax(m))
    assert m[0] < 0.1
    assert m[peak] > 0.7
    trough = peak + int(np.argmin(m[peak:]))
    assert m[trough] < 0.6 * m[peak]
    assert m[-1] > m[trough] + 0.15
    assert np.max(res.fall_prob) < 0.2


def test_evolve_validation():
    grid = make_grid(401)
    state = dynamics.prepare_gaussian(0.1, grid)
    times = np.array([0.0, 1.0])
    basis = solve_spectrum(100.0, 30, grid_n=401, refine=False)
    coeffs = dynamics.expand(state, basis)
    for bad_times in ([0.0, math.nan, 0.3], [0.0, math.inf], [-math.inf, 1.0],
                      [-1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.5]):
        with pytest.raises(InvalidParameterError):
            dynamics.evolve_eigen(coeffs, basis, np.array(bad_times))
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(state, 100.0, 1e-3, times, times_unit="lab")
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(state, 0.0, 1e-3, times)   # omega_c needs B > 0
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(state, 100.0, 0.0, times)
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(state, 100.0, 1e-3, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(state, 100.0, 1e-3, np.array([-1.0, 1.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError):
            dynamics.evolve_direct(state, 100.0, bad, times)
        with pytest.raises(InvalidParameterError):
            dynamics.evolve_direct(state, bad, 1e-3, times, times_unit="natural")
        with pytest.raises(InvalidParameterError):
            dynamics.evolve_direct(state, 100.0, 1e-3, np.array([0.0, bad]))
        with pytest.raises(InvalidParameterError):
            dynamics.evolve_direct(state, 100.0, 1e-3, np.array([bad, 1.0]))
        with pytest.raises(InvalidParameterError):
            dynamics.prepare_gaussian(bad, grid)
    nan_state = dynamics.InitialState(sigma=0.1, grid=grid,
                                      values=np.full(len(grid), np.nan),
                                      renormalized=False)
    with pytest.raises(InvalidParameterError):
        dynamics.evolve_direct(nan_state, 100.0, 1e-3, times)
    # Crank-Nicolson steps parity blocks: the grid must mirror exactly.
    lopsided = grid.copy()
    lopsided[1] += 1e-9
    for bad_grid in (lopsided, make_grid(400), make_grid(7)):
        with pytest.raises(InvalidParameterError, match="mirror-symmetric"):
            dynamics.evolve_direct(dynamics.prepare_gaussian(0.1, bad_grid), 100.0, 1e-3, times)
    # The step count is bounded before any step is taken, over all intervals
    # together: the last case takes 1e6 steps in each of ten.
    for dt, bad_times in ((1e-3, [0.0, 1e300]), (1e-300, [0.0, 1.0]),
                          (1e-300, [0.0, 1e300]), (1e-7, np.linspace(0.0, 1.0, 11))):
        with pytest.raises(InvalidParameterError, match="steps"):
            dynamics.evolve_direct(state, 100.0, dt, np.array(bad_times))


def test_hamiltonian_apply_matches_grid_hamiltonian():
    # The stencil behind the observables and the energy shift is the
    # tridiagonal operator that the eigensolver and Crank-Nicolson use.
    B = 300.0
    grid = make_grid(101)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    psi[0] = psi[-1] = 0.0
    diag, off = grid_hamiltonian(grid, B)
    expected = diag * psi[1:-1]
    expected[1:] += off * psi[1:-2]
    expected[:-1] += off * psi[2:-1]
    got = dynamics._hamiltonian_apply(psi, grid, B)
    assert got[0] == got[-1] == 0.0
    assert np.max(np.abs(got[1:-1] - expected)) < 1e-12 * np.max(np.abs(expected))


def _dense_crank_nicolson(state, B, dt, times):
    """Interior states at times[1:] from dense (1 + zH) psi' = (1 - zH) psi.

    z = i dtau/2 and H is shifted by the initial energy, whose global phase
    is restored, as `evolve_direct` does.
    """
    grid = state.grid
    h = grid[1] - grid[0]
    e_ref = dynamics.energy_expectation(state, B)
    n = len(grid) - 2
    ham = (np.diag(2.0 / h**2 + potential(grid[1:-1], B) - e_ref)
           - np.diag(np.full(n - 1, 1.0 / h**2), 1)
           - np.diag(np.full(n - 1, 1.0 / h**2), -1))
    eye = np.eye(n)
    psi = state.values[1:-1].astype(complex)
    t_now = 0.0
    expected = []
    for t in times[1:]:
        steps = math.ceil((t - t_now) / dt - 1e-12)
        z = 0.5j * (t - t_now) / steps
        for _ in range(steps):
            psi = np.linalg.solve(eye + z * ham, (eye - z * ham) @ psi)
        t_now = t
        expected.append(psi * np.exp(-1j * e_ref * t))
    return expected


def test_evolve_direct_matches_dense_crank_nicolson():
    # Iterate CN with dense linear algebra on a small grid and compare
    # with the banded stepper.
    B = 20.0
    state = dynamics.prepare_gaussian(0.3, make_grid(41))
    times = np.array([0.0, 0.035, 0.05])   # 6 steps, then 3 of another size
    dt = 0.006
    res = dynamics.evolve_direct(state, B, dt, times, times_unit="natural",
                                 snapshot_times=times)
    for snap, expected in zip(res.snapshots[1:], _dense_crank_nicolson(state, B, dt, times)):
        assert np.max(np.abs(snap[1:-1] - expected)) < 1e-13
        assert snap[0] == snap[-1] == 0.0


@pytest.mark.parametrize("shape, blocks, mirror", [
    ("even", 1, 1.0), ("odd", 1, -1.0), ("off-centre", 2, None)])
def test_evolve_direct_steps_occupied_parity_blocks(monkeypatch, shape, blocks, mirror):
    # Only the parity blocks the state occupies are factored and stepped;
    # any mix of the two still follows the full-grid CN map, and an exactly
    # even or odd state keeps its exact symmetry.
    B = 20.0
    grid = make_grid(41)
    if shape == "even":
        state = dynamics.prepare_gaussian(0.3, grid)
    else:
        values = grid * np.exp(-grid**2 / 0.18) if shape == "odd" \
            else np.exp(-(grid - 0.3) ** 2 / 0.18)
        values[[0, -1]] = 0.0
        values /= math.sqrt(simpson(values**2, x=grid))
        state = dynamics.InitialState(sigma=0.3, grid=grid, values=values,
                                      renormalized=False)
    calls = []
    real_zgttrf = _scipy_ext.zgttrf

    def counting(*args):
        calls.append(len(args[1]))
        return real_zgttrf(*args)

    monkeypatch.setattr(_scipy_ext, "zgttrf", counting)
    times = np.array([0.0, 0.035, 0.05])
    dt = 0.006
    res = dynamics.evolve_direct(state, B, dt, times, times_unit="natural",
                                 snapshot_times=times)
    assert len(calls) == blocks * (len(times) - 1)
    assert max(calls) <= 20   # half-size blocks of the 39 interior points
    for snap, expected in zip(res.snapshots[1:], _dense_crank_nicolson(state, B, dt, times)):
        assert np.max(np.abs(snap[1:-1] - expected)) < 1e-13
    if mirror is not None:
        for snap in res.snapshots:
            assert np.array_equal(snap, mirror * snap[::-1])


def test_evolve_direct_typed_failures(monkeypatch):
    grid = make_grid(41)
    state = dynamics.prepare_gaussian(0.3, grid)
    times = np.array([0.0, 0.05])
    real_zgttrf = _scipy_ext.zgttrf

    def singular(*args):
        return (*real_zgttrf(*args)[:5], 3)

    monkeypatch.setattr(_scipy_ext, "zgttrf", singular)
    with pytest.raises(StepSizeError, match="singular"):
        dynamics.evolve_direct(state, 20.0, 0.005, times, times_unit="natural")
    monkeypatch.undo()

    def nan_solve(*args, **kwargs):
        return np.full_like(args[5], np.nan), 0

    monkeypatch.setattr(_scipy_ext, "zgttrs", nan_solve)
    with pytest.raises(StepSizeError, match="norm drifted"):
        dynamics.evolve_direct(state, 20.0, 0.005, times, times_unit="natural")
    monkeypatch.undo()

    real_zgttrs = _scipy_ext.zgttrs

    def lossy_solve(*args, **kwargs):  # a step that is no longer unitary
        x, info = real_zgttrs(*args, **kwargs)
        return x * (1.0 + 1e-6), info

    monkeypatch.setattr(_scipy_ext, "zgttrs", lossy_solve)
    with pytest.raises(StepSizeError, match=r"norm drifted by \d\.\d\de-0[45]"):
        dynamics.evolve_direct(state, 20.0, 0.005, times, times_unit="natural")


def test_evolve_direct_guards_the_norm_it_conserves():
    # Crank-Nicolson conserves the plain sum h * sum |psi|^2.  On 9 points
    # Simpson's norm of this state drifts by 2.4e-5 in ten steps, beyond
    # the guard's 1e-6, so guarding it would reject every dt.
    state = dynamics.prepare_gaussian(0.3, make_grid(9))
    times = np.array([0.0, 0.01])
    res = dynamics.evolve_direct(state, 100.0, 1e-3, times, snapshot_times=times)
    assert abs(res.norm[-1] - 1.0) > 1e-5
    plain = [float(np.sum(np.abs(s) ** 2)) for s in res.snapshots]
    assert plain[1] == pytest.approx(plain[0], rel=1e-12)
    # nothing to guard in an all-zero state
    zero = dataclasses.replace(state, values=np.zeros_like(state.values))
    with pytest.raises(InvalidParameterError, match="not all zero"):
        dynamics.evolve_direct(zero, 100.0, 1e-3, times)


# ---------------------------------------------------------------------------
# Surrogate fall experiment: a barrier low enough to simulate directly


@pytest.fixture(scope="module")
def surrogate_fall():
    b = 1.0e6
    grid = make_grid(20001)
    state = dynamics.prepare_gaussian(summit_scale(b), grid)
    times = np.linspace(0.0, 9.0, 91)
    res = dynamics.evolve_direct(state, b, 0.01, times, theta_fall=0.8)
    return b, times, res


def test_surrogate_fall_crosses_half(surrogate_fall, scales_ref):
    b, times, res = surrogate_fall
    f = res.fall_prob
    assert f[0] < 1e-6
    assert f.max() > 0.55
    i = int(np.argmax(f >= 0.5))
    t50 = times[i - 1] + (0.5 - f[i - 1]) * (times[i] - times[i - 1]) / (f[i] - f[i - 1])
    assert 4.1 < t50 < 4.25

    predicted = dynamics.fall_time_assembly(dataclasses.replace(scales_ref, B=b), 1e-4)
    # Stationary-phase prediction for the full quarter turn: the
    # measured half-crossing at theta = 0.8 sits within 30%.
    assert abs(t50 / predicted - 1.0) < 0.3
    # Discounting the ballistic tail from 0.8 to the wall tightens it.
    adjusted = predicted - dynamics.summit_transit_time(0.8)
    assert abs(t50 / adjusted - 1.0) < 0.25


# ---------------------------------------------------------------------------
# Fall times


def test_classical_fall_time_reference():
    ct = dynamics.classical_fall_time(0.1)
    assert ct.exact == pytest.approx(3.5017476149850437, rel=1e-12)
    assert ct.asymptotic == pytest.approx(
        math.log(8.0 * (math.sqrt(2.0) - 1.0)) - math.log(0.1), rel=1e-14)


def test_classical_fall_time_against_mpmath():
    # K(m) - F(phi_e|m), m = cos^2(delta/2), m sin^2(phi_e) = 1/2, in mpmath's
    # Legendre integrals, with enough digits that m does not round to 1 at
    # the domain floor (1 - m = sin^2(delta/2) ~ 6e-309 there).
    mp = pytest.importorskip("mpmath")
    deltas = [1.5e-154, 3e-154, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 1.3, 1.5,
              1.57, 1.570796, 0.5 * math.pi - 1e-9]
    with mp.workdps(330):
        for d in deltas:
            m = mp.cos(mp.mpf(d) / 2) ** 2
            ref = mp.ellipk(m) - mp.ellipf(mp.asin(1 / mp.sqrt(2 * m)), m)
            t = dynamics.classical_fall_time(d).exact
            assert t == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_classical_fall_time_small_angle_limit():
    for d in (1e-6, 1e-9, 1e-12):
        ct = dynamics.classical_fall_time(d)
        assert abs(ct.exact - ct.asymptotic) < 1e-12 * ct.exact
    # The exact time exceeds the small-angle form while the angle is
    # small, and release closer to the wall always falls faster.
    seq = [dynamics.classical_fall_time(d) for d in (0.05, 0.1, 0.2)]
    assert all(c.exact > c.asymptotic for c in seq)
    far = [dynamics.classical_fall_time(d) for d in (0.05, 0.2, 0.8, 1.2)]
    assert all(b.exact < a.exact for a, b in zip(far, far[1:]))


def test_classical_fall_time_guards():
    for bad in (0.0, -0.1, 1.6):
        with pytest.raises(DomainError):
            dynamics.classical_fall_time(bad)
    with pytest.raises(DomainError):
        dynamics.summit_transit_time(0.0)


def test_transit_time_lags_rest_release_by_ln2():
    # At the summit energy the rod passes delta_theta with speed, so the
    # logarithmic constant is smaller by exactly ln 2.
    d = 1e-8
    ct = dynamics.classical_fall_time(d)
    assert ct.asymptotic - dynamics.summit_transit_time(d) == pytest.approx(
        LN2, abs=1e-9)


def test_fall_time_assembly_is_angle_independent(scales_ref):
    vals = [dynamics.fall_time_assembly(scales_ref, d)
            for d in (1e-5, 1e-4, 1e-3)]
    assert max(vals) - min(vals) < 1e-6
    wkb = dynamics.quantum_fall_time_wkb(scales_ref)
    assert vals[1] == pytest.approx(wkb.omega_c_units, abs=1e-9)


def test_quantum_fall_times_reference(scales_ref):
    est = dynamics.quantum_fall_time_estimate(scales_ref)
    wkb = dynamics.quantum_fall_time_wkb(scales_ref)
    assert est.omega_c_units == pytest.approx(35.25754136516302, rel=1e-12)
    assert est.seconds == pytest.approx(2.906510464333628, rel=1e-12)
    assert wkb.omega_c_units == pytest.approx(36.67812027248898, rel=1e-12)
    assert wkb.seconds == pytest.approx(3.0236181042791124, rel=1e-12)
    assert 2.5 < est.seconds < 3.5
    assert 2.5 < wkb.seconds < 3.5
    assert abs(wkb.seconds - est.seconds) / wkb.seconds < 0.15


def test_quantum_fall_time_terms(scales_ref):
    wkb = dynamics.quantum_fall_time_wkb(scales_ref)
    assert wkb.terms is not None
    assert sum(wkb.terms.values()) == pytest.approx(wkb.omega_c_units, abs=1e-12)
    assert wkb.terms["geometry"] == pytest.approx(
        math.log(4.0 * (2.0 - math.sqrt(2.0))), abs=1e-15)
    assert wkb.terms["phase_slope_arctan"] == pytest.approx(0.25 * math.pi)
    # The two estimates differ by a scale-free constant.
    est = dynamics.quantum_fall_time_estimate(scales_ref)
    expected = -0.5 * LN2 + 0.5 * math.log(4.0 * FIT_GAMMA) + 0.25 * math.pi
    assert wkb.omega_c_units - est.omega_c_units == pytest.approx(
        expected, abs=1e-12)


def test_fall_time_needs_barrier():
    flat = derive_scales(RodParams(mass=1e-3, length=0.1, gravity=0.0))
    with pytest.raises(InvalidParameterError):
        dynamics.quantum_fall_time_estimate(flat)


def test_spreading_time(scales_ref):
    sp = dynamics.spreading_time(10.0, scales_ref)
    assert sp.omega_c_units == pytest.approx(200.0, rel=1e-14)
    assert sp.seconds == pytest.approx(200.0 / scales_ref.omega_c, rel=1e-12)
    # Spreading is slow against falling for packets much wider than s.
    wkb = dynamics.quantum_fall_time_wkb(scales_ref)
    assert sp.seconds > 5.0 * wkb.seconds
    with pytest.raises(InvalidParameterError):
        dynamics.spreading_time(0.0, scales_ref)
