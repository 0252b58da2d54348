"""End-to-end checks of the package's headline quantitative claims.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
claim.  Every expected number is frozen; the tolerances are the
contract, not a suggestion.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from quantum_rod import dynamics
from quantum_rod.airy import airy_zero, wkb_lambda
from quantum_rod.slanted import tilt_sweep
from quantum_rod.spectrum import make_grid, pairing_table, solve_spectrum
from quantum_rod.summit import half_arg_gamma_exact, half_arg_gamma_fit, phase_delta
from quantum_rod.wkb import doublet_prediction
from reference_routes import summit_phase_difference, uncertainty_product

# Doublet table at B = 1e4 through the pairing crossover:
# n -> (E_even, E_odd, splitting, gap, pairing ratio).
CROSSOVER_TABLE = {
    22: (9420.43, 9420.43, 0.00, 187.59, 0.0000),
    23: (9608.02, 9608.03, 0.01, 170.31, 0.0001),
    24: (9778.33, 9778.70, 0.37, 143.94, 0.0026),
    25: (9922.26, 9930.30, 8.04, 102.02, 0.0788),
    26: (10024.28, 10071.29, 47.01, 122.49, 0.3838),
    27: (10146.77, 10223.21, 76.45, 159.71, 0.4786),
    28: (10306.48, 10394.20, 87.72, 179.67, 0.4882),
    29: (10486.15, 10581.94, 95.79, 195.17, 0.4908),
    30: (10681.32, 10784.10, 102.78, 208.79, 0.4923),
    31: (10890.11, 10999.23, 109.12, 221.23, 0.4932),
    32: (11111.34, 11226.37, 115.02, 232.87, 0.4939),
    33: (11344.21, 11464.82, 120.61, 243.92, 0.4945),
}

LINEAR_WELL_EXACT = [2.338, 4.088, 5.521, 6.787, 7.944, 9.023]
LINEAR_WELL_WKB = [2.320, 4.082, 5.517, 6.784, 7.942, 9.021]


def test_criterion_01_doublet_table_through_crossover():
    start = time.perf_counter()
    result = solve_spectrum(1.0e4, 72, grid_n=4001)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    table = pairing_table(result)
    for n, (e_plus, e_minus, split, gap, ratio) in CROSSOVER_TABLE.items():
        d = table[n]
        assert d.e_plus == pytest.approx(e_plus, abs=0.05)
        assert d.e_minus == pytest.approx(e_minus, abs=0.05)
        assert d.splitting == pytest.approx(split, abs=0.05)
        assert d.gap == pytest.approx(gap, abs=0.05)
        assert d.pairing_ratio == pytest.approx(ratio, abs=0.002)


def test_criterion_02_linear_well_tables():
    start = time.perf_counter()
    exact = [airy_zero(n) for n in range(6)]
    semi = [wkb_lambda(n) for n in range(6)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert exact == pytest.approx(LINEAR_WELL_EXACT, abs=5e-3)
    assert semi == pytest.approx(LINEAR_WELL_WKB, abs=5e-3)


def test_criterion_03_reference_rod_falls_in_seconds(scales_ref):
    estimate = dynamics.quantum_fall_time_estimate(scales_ref)
    semiclassical = dynamics.quantum_fall_time_wkb(scales_ref)
    for t in (estimate, semiclassical):
        assert 2.5 < t.seconds < 3.5
    assert abs(semiclassical.seconds - estimate.seconds) \
        < 0.15 * semiclassical.seconds


def test_criterion_04_pairing_ratio_saturates_at_half(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    assert 0.49 < table[39].pairing_ratio < 0.5
    ratios = [d.pairing_ratio for d in table[28:60]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_criterion_05_propagators_agree_and_conserve(evolution_pair):
    _, grid, res_eigen, res_direct = evolution_pair
    worst = max(math.sqrt(simpson(np.abs(a - b) ** 2, x=grid))
                for a, b in zip(res_eigen.snapshots, res_direct.snapshots))
    assert worst < 1e-4
    for res in (res_eigen, res_direct):
        assert np.max(np.abs(res.norm - 1.0)) < 1e-8
        assert np.ptp(res.energy) < 1e-6 * np.abs(res.energy).max()


def test_criterion_06_density_stays_symmetric(evolution_pair):
    _, _, res_eigen, res_direct = evolution_pair
    for res in (res_eigen, res_direct):
        for snap in res.snapshots:
            dens = np.abs(snap) ** 2
            assert np.max(np.abs(dens - dens[::-1])) < 1e-8


def test_criterion_07_tilt_response_matches_full_solve(spectrum_b1e4):
    n, delta = 18, 1e-3
    table = pairing_table(spectrum_b1e4)
    doublet = table[n]
    gap = table[n + 1].center - doublet.center
    response = tilt_sweep(spectrum_b1e4, n, np.array([delta]))[0]
    assert response.regime == {"upper": True, "lower": True}
    assert response.p_left_lower > 0.99
    full = solve_spectrum(1.0e4, 2 * n + 2, grid_n=4001, tilt=delta)
    ref = full.energies[2 * n: 2 * n + 2]
    assert abs(doublet.center - 0.5 * response.effective_splitting - ref[0]) < 0.01 * gap
    assert abs(doublet.center + 0.5 * response.effective_splitting - ref[1]) < 0.01 * gap


def test_criterion_08_semiclassical_doublets_near_crossover(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    for n in (22, 23, 24):
        pred = doublet_prediction(n, 1.0e4)
        assert 3.0 < pred.action < 15.0
        assert 0.5 < pred.splitting / table[n].splitting < 2.0
        spacing = table[n + 1].center - table[n].center
        assert abs(pred.center - table[n].center) < 0.01 * spacing


def test_criterion_09_barrier_top_phase_model():
    band = max(abs(half_arg_gamma_fit(e) - half_arg_gamma_exact(e))
               for e in np.linspace(-5.0, 5.0, 201))
    assert band < 0.05
    ref_plus, ref_minus = phase_delta(0.0)
    for h in (1e-12, -1e-12):
        near_plus, near_minus = phase_delta(h)
        assert abs(near_plus - ref_plus) < 1e-9
        assert abs(near_minus - ref_minus) < 1e-9
    assert ref_plus - ref_minus == pytest.approx(
        math.pi / 4.0, abs=1e-12)
    assert summit_phase_difference() == pytest.approx(math.pi / 4.0, abs=1e-3)


def test_criterion_10_minimum_uncertainty_packets():
    grid = make_grid(4001)
    for sigma in (0.01, 0.05, 0.1):
        _, _, product = uncertainty_product(
            dynamics.prepare_gaussian(sigma, grid))
        assert product == pytest.approx(0.5, rel=1e-6)
