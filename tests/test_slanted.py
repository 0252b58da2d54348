"""Tilt response of tunneling doublets via the projected 2x2 problem."""
import math
import warnings

import numpy as np
import pytest

from quantum_rod.errors import InvalidParameterError, RegimeError
from quantum_rod.slanted import (
    TwoLevelProblem,
    coupling_element,
    localization_measure,
    regime_check,
    sin_matrix_element,
    solve_two_level,
    tilt_sweep,
)
from quantum_rod.spectrum import pairing_table, solve_spectrum

B = 1.0e4
N_DEEP = 18


def test_sin_matrix_element_value(spectrum_b1e4):
    elem = sin_matrix_element(spectrum_b1e4.wavefunction("odd", N_DEEP),
                              spectrum_b1e4.wavefunction("even", N_DEEP))
    # Deep doublets overlap like well-localized packets near |theta|
    # where sin is order one; the sign follows the sign convention.
    assert elem == pytest.approx(-0.7267, abs=0.002)
    assert 0.5 < abs(elem) < 1.0


def test_sin_matrix_element_grid_guard(spectrum_b1e4, basis_b1e4_raw):
    with pytest.raises(InvalidParameterError):
        sin_matrix_element(spectrum_b1e4.wavefunctions[0],
                           basis_b1e4_raw.wavefunctions[0])


def test_coupling_element_linearity(spectrum_b1e4):
    v1 = coupling_element(spectrum_b1e4, N_DEEP, 1e-3)
    v2 = coupling_element(spectrum_b1e4, N_DEEP, 2e-3)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    assert coupling_element(spectrum_b1e4, N_DEEP, 0.0) == 0.0


def _generic_problem(**overrides):
    kw = dict(n=0, delta_theta=1e-3, e_plus=1.0, e_minus=1.3, coupling=-0.4)
    kw.update(overrides)
    return TwoLevelProblem(**kw)


def test_solve_two_level_algebra():
    problem = _generic_problem()
    sol = solve_two_level(problem)
    h = np.array([[problem.e_plus, problem.coupling],
                  [problem.coupling, problem.e_minus]])
    for energy, vec in zip(sol.energies, sol.amplitudes):
        res = h @ np.array(vec) - energy * np.array(vec)
        assert np.max(np.abs(res)) < 1e-12
        assert np.hypot(*vec) == pytest.approx(1.0, rel=1e-14)
    lo, hi = (np.array(v) for v in sol.amplitudes)
    assert abs(lo @ hi) < 1e-14
    assert sol.effective_splitting == pytest.approx(
        math.hypot(problem.splitting, 2.0 * problem.coupling), rel=1e-14)


def test_solve_two_level_limits():
    # Pure doublet: no mixing at all.
    pure = solve_two_level(_generic_problem(coupling=0.0))
    assert pure.energies == pytest.approx((1.0, 1.3), rel=1e-14)
    assert pure.amplitudes == ((1.0, 0.0), (0.0, 1.0))
    # Degenerate pair: coupling of either sign mixes half and half.
    for v in (0.25, -0.25):
        sol = solve_two_level(_generic_problem(e_minus=1.0, coupling=v))
        assert sol.energies[0] == pytest.approx(0.75, rel=1e-14)
        assert sol.energies[1] == pytest.approx(1.25, rel=1e-14)
        flat = [abs(x) for pair in sol.amplitudes for x in pair]
        assert np.allclose(flat, math.sqrt(0.5), atol=1e-14)
    with pytest.warns(UserWarning, match="arbitrary"):
        degenerate = solve_two_level(
            _generic_problem(e_minus=1.0, coupling=0.0))
    assert degenerate.amplitudes == ((1.0, 0.0), (0.0, 1.0))


def test_localization_measure_identities(spectrum_b1e4):
    psi_plus = spectrum_b1e4.wavefunction("even", N_DEEP)
    psi_minus = spectrum_b1e4.wavefunction("odd", N_DEEP)
    # A parity eigenstate is split evenly.
    assert localization_measure((1.0, 0.0), psi_plus, psi_minus) == (
        pytest.approx(0.5, abs=1e-9))
    # Flipping the odd amplitude mirrors the state.
    p = localization_measure((0.6, 0.8), psi_plus, psi_minus)
    q = localization_measure((0.6, -0.8), psi_plus, psi_minus)
    assert p + q == pytest.approx(1.0, abs=1e-9)
    # The two orthogonal mixtures fill the left side between them.
    sol = solve_two_level(_generic_problem())
    total = sum(localization_measure(a, psi_plus, psi_minus)
                for a in sol.amplitudes)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_regime_check_flags():
    # The window is reported by the flags alone, never by a warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ok = regime_check(_generic_problem(e_minus=1.0 + 1e-3, coupling=1.0),
                          gap_to_next=1e4)
        crowded = regime_check(_generic_problem(coupling=50.0), gap_to_next=100.0)
        weak = regime_check(_generic_problem(e_minus=1.0 + 1e-3, coupling=1e-6),
                            gap_to_next=1e4)
    assert ok == {"upper": True, "lower": True}
    assert crowded == {"upper": False, "lower": True}
    assert weak == {"upper": True, "lower": False}
    assert not caught


def test_two_level_matches_full_tilted_solve(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    doublet = table[N_DEEP]
    gap = table[N_DEEP + 1].center - doublet.center
    for delta in (5e-4, 1e-3, 2e-3):
        problem = TwoLevelProblem(
            n=N_DEEP, delta_theta=delta,
            e_plus=doublet.e_plus, e_minus=doublet.e_minus,
            coupling=coupling_element(spectrum_b1e4, N_DEEP, delta))
        sol = solve_two_level(problem)
        full = solve_spectrum(B, 2 * N_DEEP + 2, grid_n=4001, tilt=delta)
        ref = full.energies[2 * N_DEEP: 2 * N_DEEP + 2]
        assert abs(sol.energies[0] - ref[0]) < 0.01 * gap
        assert abs(sol.energies[1] - ref[1]) < 0.01 * gap


def test_deep_doublet_localizes(spectrum_b1e4):
    responses = tilt_sweep(spectrum_b1e4, N_DEEP, np.array([1e-3]))
    r = responses[0]
    assert r.regime == {"upper": True, "lower": True}
    assert r.p_left_lower > 0.99


def test_tilt_sweep_monotone(spectrum_b1e4):
    deltas = np.logspace(-9.0, -6.0, 20)
    responses = tilt_sweep(spectrum_b1e4, 22, deltas)
    assert len(responses) == 20
    splits = [r.effective_splitting for r in responses]
    probs = [r.p_left_lower for r in responses]
    assert all(b > a for a, b in zip(splits, splits[1:]))
    assert all(b > a for a, b in zip(probs, probs[1:]))
    # Tunneling-dominated at one end, tilt-dominated at the other.
    bare = pairing_table(spectrum_b1e4)[22].splitting
    assert probs[0] < 0.55
    assert not responses[0].regime["lower"]
    assert splits[0] == pytest.approx(bare, rel=0.01)
    assert probs[-1] > 0.99
    assert responses[-1].regime == {"upper": True, "lower": True}
    assert splits[-1] == pytest.approx(2.0 * abs(responses[-1].coupling),
                                       rel=0.01)


def test_tilt_sweep_guards(spectrum_b1e4):
    with pytest.raises(RegimeError):
        tilt_sweep(spectrum_b1e4, 500, np.array([1e-3]))
    # A negative index would wrap around to the top doublet.
    with pytest.raises(InvalidParameterError, match="n must be >= 0"):
        tilt_sweep(spectrum_b1e4, -1, np.array([1e-3]))
    tilted = solve_spectrum(100.0, 4, grid_n=401, tilt=0.01)
    with pytest.raises(InvalidParameterError):
        tilt_sweep(tilted, 0, np.array([1e-3]))
