"""Semiclassical actions, quantization conditions, and doublet predictions."""
import math

import pytest

from quantum_rod.airy import linear_well_energy
from quantum_rod.errors import DomainError, InvalidParameterError, RegimeError
from quantum_rod.spectrum import pairing_table
from quantum_rod import wkb
from quantum_rod.summit import summit_phase, summit_quantize
from quantum_rod.wkb import (
    barrier_action,
    doublet_prediction,
    full_action,
    high_energy_quantize,
    max_well_action,
    period_integral,
    phase_integral,
    regime_of,
    single_well_quantize,
    tunneling_splitting,
    turning_point,
    well_action,
)
from reference_routes import barrier_action_quad, classical_frequency

B = 1.0e4


def test_regime_classification():
    eps_unit = math.sqrt(2.0 * B)
    assert regime_of(B - 3.0 * eps_unit, B) == "deep-well"
    assert regime_of(B, B) == "near-summit"
    assert regime_of(B + 3.0 * eps_unit, B) == "above-barrier"


def test_turning_point():
    assert turning_point(0.5 * B, B) == pytest.approx(math.pi / 3.0, rel=1e-12)
    assert turning_point(B, B) == pytest.approx(0.0, abs=1e-7)
    assert turning_point(0.0, B) == pytest.approx(0.5 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        turning_point(1.1 * B, B)
    with pytest.raises(DomainError):
        turning_point(-1.0, B)


def test_barrier_action_zero_energy_closed_form():
    # At E = 0 the action is sqrt(B) * integral of sqrt(cos), which has
    # the closed form sqrt(pi*B) * Gamma(3/4) / Gamma(5/4).
    exact = math.sqrt(math.pi * B) * math.gamma(0.75) / math.gamma(1.25)
    assert barrier_action(0.0, B) == pytest.approx(exact, rel=1e-10)


def test_barrier_action_methods_agree():
    for energy in (0.0, 0.25 * B, 0.5 * B, 0.9 * B):
        a = barrier_action(energy, B)
        b = barrier_action_quad(energy, B)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_barrier_action_limits():
    assert barrier_action(B, B) == pytest.approx(0.0, abs=1e-9)
    actions = [barrier_action(f * B, B) for f in (0.0, 0.25, 0.5, 0.75, 0.99)]
    assert all(b < a for a, b in zip(actions, actions[1:]))
    with pytest.raises(DomainError):
        barrier_action(1.01 * B, B)
    with pytest.raises(DomainError):
        barrier_action(-1.0, B)
    with pytest.raises(DomainError):
        barrier_action(0.0, 0.0)


def _bounce_frequency_rk4(energy: float, b: float) -> float:
    """Classical well frequency from direct integration of the motion.

    In natural time the equation of motion is theta'' = 2*b*sin(theta).
    Starting from rest at the inner turning point, the particle falls
    toward the wall at pi/2, bounces elastically, and retraces its path,
    so the period is twice the fall time.  The wall crossing is located
    by linear interpolation of theta - pi/2.
    """
    theta0 = math.acos(energy / b)
    half_pi = 0.5 * math.pi

    def rhs(state):
        th, v = state
        return (v, 2.0 * b * math.sin(th))

    dt = 1e-5 / math.sqrt(b)
    th, v = theta0, 0.0
    t = 0.0
    for _ in range(10_000_000):
        k1 = rhs((th, v))
        k2 = rhs((th + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1]))
        k3 = rhs((th + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1]))
        k4 = rhs((th + dt * k3[0], v + dt * k3[1]))
        th_new = th + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        v_new = v + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        t += dt
        if th_new >= half_pi:
            frac = (half_pi - th) / (th_new - th)
            t_cross = t - dt + frac * dt
            # omega in omega_c units: period = 2 * t_cross, t_wc = t*sqrt(2b)
            return math.pi / (t_cross * math.sqrt(2.0 * b))
        th, v = th_new, v_new
    raise AssertionError("no wall crossing found")


def test_classical_frequency_against_integrated_motion():
    freq = classical_frequency(200.0, 400.0)
    oracle = _bounce_frequency_rk4(200.0, 400.0)
    assert freq == pytest.approx(oracle, rel=1e-8)


def test_classical_frequency_softens_toward_summit():
    freqs = [classical_frequency(f * B, B) for f in (0.1, 0.5, 0.9, 0.999)]
    assert all(b < a for a, b in zip(freqs, freqs[1:]))
    with pytest.raises(DomainError):
        classical_frequency(B, B)
    with pytest.raises(InvalidParameterError):
        classical_frequency(1.0, 0.0)


def test_period_integral_scaling():
    # E and B scale together as E/B is held fixed; the integral carries
    # the remaining 1/sqrt(B) dimension.
    for frac in (0.2, 0.5, 0.8):
        a = period_integral(frac * B, B)
        b = period_integral(2.0 * frac * B, 2.0 * B)
        assert b * math.sqrt(2.0) == pytest.approx(a, rel=1e-10)


def test_closed_form_edge_cases():
    # E = 0: the allowed region shrinks to the wall, so every action is 0.
    assert well_action(0.0, B) == 0.0
    assert period_integral(0.0, B) == 0.0
    assert phase_integral(0.0, B, 0.0, 0.5 * math.pi) == 0.0
    assert full_action(0.0, 0.0) == 0.0
    # E = B: the well action peaks, the barrier closes, and the traversal
    # integral diverges logarithmically.
    assert well_action(B, B) == max_well_action(B)
    assert barrier_action(B, B) == 0.0
    assert period_integral(B, B) == math.inf
    # B = 0: the free rotor, sqrt(E) across a domain of width pi.
    for energy in (1.0, 7.5, 1e6):
        assert full_action(energy, 0.0) == pytest.approx(math.pi * math.sqrt(energy), rel=1e-15)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            phase_integral(B, B, bad, 1.0)


def test_tunneling_splitting_computes_the_period_once(monkeypatch):
    calls = []
    real = wkb.period_integral
    monkeypatch.setattr(wkb, "period_integral", lambda *a: calls.append(a) or real(*a))
    tunneling_splitting(0.5 * B, B)
    assert len(calls) == 1
    for energy in (0.0, B):
        with pytest.raises(DomainError):
            tunneling_splitting(energy, B)


def test_single_well_quantization_condition():
    for n in (0, 5, 15, 22):
        e = single_well_quantize(n, B)
        assert well_action(e, B) == pytest.approx((n + 0.75) * math.pi, abs=1e-6)
    energies = [single_well_quantize(n, B) for n in range(26)]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_single_well_matches_reference_doublet(spectrum_b1e4):
    # Deepest near-degenerate doublet of the crossover table.
    center = pairing_table(spectrum_b1e4)[22].center
    assert single_well_quantize(22, B) == pytest.approx(center, rel=5e-3)


def test_single_well_regime_guard():
    assert max_well_action(B) == pytest.approx(
        math.sqrt(B) * (2.0 * math.sqrt(2.0) - 2.0), rel=1e-12)
    # (25 + 3/4)*pi < max action < (26 + 3/4)*pi at B = 1e4.
    single_well_quantize(25, B)
    with pytest.raises(RegimeError):
        single_well_quantize(26, B)
    with pytest.raises(RegimeError):
        single_well_quantize(0, 0.0)
    with pytest.raises(InvalidParameterError):
        single_well_quantize(-1, B)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("b", [1e2, 1e4, 1e6])
def test_quantized_levels_satisfy_their_conditions(b):
    # Each root finder's answer, fed back into its own condition, to 1e-9.
    n_top = int(max_well_action(b) / math.pi - 0.75)
    for n in (0, n_top // 2, n_top):
        e = single_well_quantize(n, b)
        assert well_action(e, b) == pytest.approx((n + 0.75) * math.pi, rel=1e-9)
    n_floor = int(full_action(b, b) / math.pi) + 1
    for n in (n_floor, 2 * n_floor):
        e = high_energy_quantize(n, b)
        assert full_action(e, b) == pytest.approx(n * math.pi, rel=1e-9)
    for parity in ("even", "odd"):
        target = (n_top + 0.75) * math.pi
        e = summit_quantize(n_top, b, parity)
        assert summit_phase(e, b, parity) == pytest.approx(target, rel=1e-9)


def test_doublet_prediction_reference_rod_deep_limit():
    # The 1 g, 10 cm rod: the centres sit on the deep-well limit, the
    # splitting exp(-W) underflows and the action carries W instead.
    b = 2.940325636472887e59
    for n in range(4):
        pred = doublet_prediction(n, b)
        assert pred.center == pytest.approx(linear_well_energy(n, b, exact=False), rel=1e-12)
        assert pred.splitting == 0.0
        assert math.isfinite(pred.action) and pred.action > 1e30


@pytest.mark.parametrize("b", [1e108, 1e150, 1e230])
def test_single_well_quantize_converges_up_to_1e230(b):
    # From B ~ 1e108 the root takes more than brentq's default 100 steps.
    for n in (0, 1, 10):
        assert single_well_quantize(n, b) == pytest.approx(
            linear_well_energy(n, b, exact=False), rel=2e-14)
    with pytest.raises(InvalidParameterError, match="1e230"):
        single_well_quantize(0, 1.01e230)


def test_low_energy_closed_form():
    # Bottom-of-well levels follow the linear-well (Airy-type) power law
    # E_n = B^(2/3) * (3*pi*(n + 3/4)/2)^(2/3).
    for n in range(4):
        expected = B ** (2.0 / 3.0) * (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)
        assert linear_well_energy(n, B, exact=False) == pytest.approx(expected, rel=1e-12)
    # The scaled form is independent of B.
    r1 = linear_well_energy(2, 1e4, exact=False) / 1e4 ** (2.0 / 3.0)
    r2 = linear_well_energy(2, 1e8, exact=False) / 1e8 ** (2.0 / 3.0)
    assert r1 == pytest.approx(r2, rel=1e-12)
    assert single_well_quantize(0, B) == pytest.approx(
        linear_well_energy(0, B, exact=False), rel=1e-2)


def test_tunneling_splitting_growth_and_small_action():
    splits = [tunneling_splitting(single_well_quantize(n, B), B).splitting
              for n in (20, 22, 24)]
    assert all(b > a for a, b in zip(splits, splits[1:]))
    # near the summit the formula is unreliable, which the action shows
    assert tunneling_splitting(0.997 * B, B).action < 1.0   # W ~ 0.67 there


def test_doublet_predictions_against_spectrum(spectrum_b1e4):
    # Barrier actions W(center) for n = 22, 23, 24 lie in [3, 15] where
    # the exponential is small but resolvable; predictions must land
    # within a factor of two on the splitting and within 1% of the
    # doublet spacing on the center.
    table = pairing_table(spectrum_b1e4)
    checked = 0
    for n in (22, 23, 24):
        pred = doublet_prediction(n, B)
        assert 3.0 < pred.action < 15.0
        ratio = pred.splitting / table[n].splitting
        assert 0.5 < ratio < 2.0
        spacing = table[n + 1].center - table[n].center
        assert abs(pred.center - table[n].center) < 0.01 * spacing
        checked += 1
    assert checked == 3


def test_high_energy_free_rotor_limit():
    for n in (1, 2, 5, 9):
        assert high_energy_quantize(n, 0.0) == pytest.approx(
            float(n * n), rel=1e-12)
    with pytest.raises(InvalidParameterError):
        high_energy_quantize(0, 0.0)


def test_high_energy_against_spectrum(spectrum_b1e4):
    # Combined level k maps to quantum number k + 1.
    energies = spectrum_b1e4.energies
    with pytest.warns(UserWarning, match="not far above"):
        for k in (110, 120, 129):
            pred = high_energy_quantize(k + 1, B)
            assert pred == pytest.approx(energies[k], rel=1e-4)
    with pytest.raises(RegimeError):
        high_energy_quantize(1, B)


def test_full_action_domain():
    assert full_action(B, B) > 0.0
    with pytest.raises(DomainError):
        full_action(0.5 * B, B)
    with pytest.raises(DomainError):
        full_action(1.0, -1.0)
