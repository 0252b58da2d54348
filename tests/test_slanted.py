"""Tilt response of tunneling doublets via the projected 2x2 problem."""
import math
import warnings

import numpy as np
import pytest

from quantum_rod.errors import InvalidParameterError, RegimeError
from quantum_rod.slanted import tilt_sweep
from quantum_rod.spectrum import pairing_table, solve_spectrum

B = 1.0e4
N_DEEP = 18
N_CROSS = 22  # splitting 1.5e-4: the tilt and the tunneling compete


# effective_splitting is 2 hypot(splitting/2, V): one rounding of hypot,
# so it meets hypot(splitting, 2V) to a few ulps of the splitting itself.
ULPS = 4.0 * np.finfo(float).eps


def test_sin_matrix_element_value(spectrum_b1e4):
    # <odd|sin|even> is the coupling per unit B * delta.  Deep doublets
    # overlap like well-localized packets near |theta| where sin is order
    # one; the sign follows the sign convention.
    r = tilt_sweep(spectrum_b1e4, N_DEEP, np.array([1e-3]))[0]
    elem = r.coupling / (B * 1e-3)
    assert elem == pytest.approx(-0.7267, abs=0.002)
    assert 0.5 < abs(elem) < 1.0


def test_coupling_element_linearity(spectrum_b1e4):
    v1, v2 = (r.coupling for r in tilt_sweep(spectrum_b1e4, N_DEEP, np.array([1e-3, 2e-3])))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    assert tilt_sweep(spectrum_b1e4, N_CROSS, np.array([0.0]))[0].coupling == 0.0


def test_solve_two_level_algebra(spectrum_b1e4):
    # The eigenvalues of [[E+, V], [V, E-]] are split by hypot(E- - E+, 2V),
    # through the crossover and deep in the tilt-dominated regime.
    table = pairing_table(spectrum_b1e4)
    for n, deltas in ((N_CROSS, np.logspace(-9.0, -6.0, 7)),
                      (N_DEEP, np.array([1e-4, 1e-3, -2e-3]))):
        doublet = table[n]
        for r in tilt_sweep(spectrum_b1e4, n, deltas):
            assert r.effective_splitting == pytest.approx(
                math.hypot(doublet.splitting, 2.0 * r.coupling), rel=ULPS, abs=0.0)


def test_solve_two_level_limits(spectrum_b1e4):
    # Pure doublet: no mixing, so the bare splitting and an even state.
    doublet = pairing_table(spectrum_b1e4)[N_CROSS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pure = tilt_sweep(spectrum_b1e4, N_CROSS, np.array([0.0]))[0]
    assert pure.effective_splitting == doublet.splitting
    assert pure.p_left_lower == pytest.approx(0.5, abs=1e-9)
    # A tied doublet at zero tilt has no preferred mixing: it warns and
    # keeps the even state.
    assert pairing_table(spectrum_b1e4)[2].splitting == 0.0
    with pytest.warns(UserWarning, match="arbitrary"):
        degenerate = tilt_sweep(spectrum_b1e4, 2, np.array([0.0]))[0]
    assert degenerate.effective_splitting == 0.0
    assert degenerate.p_left_lower == pytest.approx(0.5, abs=1e-9)


def test_localization_measure_identities(spectrum_b1e4):
    # Flipping the tilt mirrors the lower state, partly localized at the
    # crossover and fully localized deep below it.
    lower = []
    for n, delta in ((N_CROSS, 1e-8), (N_CROSS, 1e-7), (N_DEEP, 1e-3)):
        p, q = (r.p_left_lower for r in
                tilt_sweep(spectrum_b1e4, n, np.array([delta, -delta])))
        assert p + q == pytest.approx(1.0, abs=1e-9)
        lower.append(p)
    assert 0.6 < lower[0] < 0.9
    assert lower[-1] > 0.99


def test_regime_check_flags(spectrum_b1e4):
    # The window is reported by the flags alone, never by a warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weak, ok, crowded = (r.regime for r in
                             tilt_sweep(spectrum_b1e4, N_CROSS, np.array([1e-9, 1e-3, 0.09])))
    assert weak == {"upper": True, "lower": False}
    assert ok == {"upper": True, "lower": True}
    assert crowded == {"upper": False, "lower": True}
    assert not caught


def test_two_level_matches_full_tilted_solve(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    doublet = table[N_DEEP]
    gap = table[N_DEEP + 1].center - doublet.center
    deltas = (5e-4, 1e-3, 2e-3)
    for delta, r in zip(deltas, tilt_sweep(spectrum_b1e4, N_DEEP, np.array(deltas))):
        full = solve_spectrum(B, 2 * N_DEEP + 2, grid_n=4001, tilt=delta)
        ref = full.energies[2 * N_DEEP: 2 * N_DEEP + 2]
        assert abs(doublet.center - 0.5 * r.effective_splitting - ref[0]) < 0.01 * gap
        assert abs(doublet.center + 0.5 * r.effective_splitting - ref[1]) < 0.01 * gap


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
