"""Semiclassical actions, quantization conditions, and doublet predictions."""
import math
import sys

import pytest

from quantum_rod._scipy_ext import RTOL, XTOL
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
    semiclassical_doublet,
    single_well_quantize,
    turning_point,
    well_action,
)
from reference_routes import (barrier_action_quad, classical_frequency, high_energy_quantize_full,
                              single_well_quantize_full)

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


def test_doublet_prediction_computes_the_period_and_action_once(monkeypatch):
    calls = []
    for name in ("period_integral", "barrier_action"):
        real = getattr(wkb, name)
        monkeypatch.setattr(wkb, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    doublet_prediction(10, B)
    assert sorted(calls) == ["barrier_action", "period_integral"]


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
    # Bisecting down from B once took more than brentq's default 100 steps
    # from B ~ 1e108 on; the linear-well bracket ends next to these roots.
    for n in (0, 1, 10):
        assert single_well_quantize(n, b) == pytest.approx(
            linear_well_energy(n, b, exact=False), rel=2e-14)
    with pytest.raises(InvalidParameterError, match="1e230"):
        single_well_quantize(0, 1.01e230)


LEVEL_BARRIERS = [10.0 ** k for k in range(2, 231, 12)]
HIGH_ENERGY_CASES = [(n, b) for b in (0.0, 1.0, 100.0, 237.137, 1e4, 1e6)
                     for n in (1, 2, 5, 11, 40, 200, 1000, 10**5)
                     if n * math.pi > full_action(b, b)]


def _single_well_levels(b):
    """n = 0, 1 and three levels up to 9/10 of the way to the summit, and
    the two highest up to B = 1e20; above it those converge onto B."""
    top = int(max_well_action(b) / math.pi - 0.75)
    near_top = {top - 1, top} if b <= 1e20 else set()
    return sorted({0, 1, top // 10, top // 2, 9 * top // 10} | near_top)


def _counted(monkeypatch, name):
    """Replace wkb's `name` by itself with a call counter; return the counter."""
    calls = []
    real = getattr(wkb, name)
    monkeypatch.setattr(wkb, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _within_two_tolerances(ours, ref):
    # Each brentq root lies within XTOL + RTOL |E| of the true one.
    return abs(ours - ref) <= 2.0 * (XTOL + RTOL * abs(ref))


def test_single_well_quantize_brackets_with_the_linear_well_root(monkeypatch):
    # The bracket [0, B] took 8-16 evaluations per level up to B ~ 1e62 and
    # then ever more for the deep ones, up to 373 at B = 1e230.  From
    # B ~ 1e210 brentq's interpolation products leave the float range
    # (|residual| * E > 1e308) and it bisects, as it did before.
    calls = _counted(monkeypatch, "well_action")
    for b in LEVEL_BARRIERS:
        counts = []
        for n in _single_well_levels(b):
            calls.clear()
            single_well_quantize(n, b)
            counts.append(len(calls))
        assert max(counts) <= (9 if b < 1e210 else 55), (b, counts)
        assert b < 1e14 or counts[0] <= 4, (b, counts)  # the deepest level, next to E_lin


@pytest.mark.parametrize("b", LEVEL_BARRIERS)
def test_single_well_quantize_is_the_full_bracket_root(b):
    for n in _single_well_levels(b):
        ours, ref = single_well_quantize(n, b), single_well_quantize_full(n, b)
        assert _within_two_tolerances(ours, ref), (n, ours, ref)


def test_single_well_quantize_admits_the_levels_up_to_the_summit():
    # The bracket once ended at B(1 - 1e-12), so the second-highest level
    # raised brentq's untyped ValueError for 39 of these 400 barriers, 13
    # of them up to B = 1e30.  Up to there it is now a level.  Above, the
    # level lies within brentq's tolerance of B, or its (n + 3/4) pi
    # rounds onto the summit's action, and it is refused with RegimeError.
    admitted = 0
    for i in range(400):
        b = 10.0 ** (20.0 + 210.0 * i / 399)
        n = int(max_well_action(b) / math.pi - 0.75) - 1
        try:
            assert 0.0 < doublet_prediction(n, b).center < b
            admitted += 1
        except RegimeError:
            assert b > 1e30, b
    assert admitted == 20


def test_single_well_quantize_refuses_a_root_on_the_summit():
    # At B = 1e30 the highest level converges onto E = B itself, where the
    # period diverges and log(2/I) would raise; below it a level is a level.
    b, n = 1e30, 263696543789524
    for route in (single_well_quantize, doublet_prediction):
        with pytest.raises(RegimeError, match="converges onto the summit"):
            route(n, b)
    assert semiclassical_doublet(n, b) is None
    assert doublet_prediction(n - 1, b).center < b


@pytest.mark.filterwarnings("ignore:E=.* is not far above the barrier")
def test_high_energy_quantize_brackets_between_its_bounds(monkeypatch):
    # The bracket [B, (n + 1)^2 + 2B] took 5-12 evaluations, 7.4 on average
    # over these cases, 5 or 6 at B = 0.
    calls = _counted(monkeypatch, "full_action")
    counts = {}
    for n, b in HIGH_ENERGY_CASES:
        calls.clear()
        high_energy_quantize(n, b)
        counts[n, b] = len(calls)
    assert max(counts.values()) <= 11, counts
    assert sum(counts.values()) <= 6.0 * len(counts), counts
    assert all(count == 4 for (n, b), count in counts.items() if b == 0.0), counts


@pytest.mark.filterwarnings("ignore:E=.* is not far above the barrier")
def test_high_energy_quantize_is_the_full_bracket_root():
    for n, b in HIGH_ENERGY_CASES:
        ours, ref = high_energy_quantize(n, b), high_energy_quantize_full(n, b)
        assert _within_two_tolerances(ours, ref), (n, b, ours, ref)


def test_high_energy_quantize_refuses_a_level_beyond_the_float_range():
    # (n + 1.0) ** 2 once raised an untyped OverflowError.
    for n in (2 * 10**154, 10**400):
        with pytest.raises(DomainError, match="beyond the float range"):
            high_energy_quantize(n, B)
    with pytest.raises(DomainError):
        semiclassical_doublet(10**200, B)


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
    splits = [doublet_prediction(n, B).splitting for n in (20, 22, 24)]
    assert all(b > a for a, b in zip(splits, splits[1:]))
    # near the summit the formula is unreliable, which the action shows
    assert barrier_action(0.997 * B, B) < 1.0   # W ~ 0.67 there


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


def test_doublet_splitting_at_the_accuracy_of_the_route(spectrum_b1e4):
    # ln(WKB/grid) is 0.0059, 0.0091 and 0.0172 at n = 22, 23 and 24 on
    # the default 4001-point grid (8001 points agree to 1e-4); criterion
    # 8 allows a factor of 2.
    table = pairing_table(spectrum_b1e4)
    for n in (22, 23, 24):
        pred = doublet_prediction(n, B)
        assert abs(pred.log_splitting - math.log(table[n].splitting)) < 0.03


@pytest.mark.parametrize("b", [1e2, 1e3, 1e4, 1e5])
def test_log_splitting_is_the_log_of_the_splitting(b):
    n_top = int(max_well_action(b) / math.pi - 0.75)
    checked = 0
    for n in range(n_top + 1):
        pred = doublet_prediction(n, b)
        if pred.splitting >= sys.float_info.min:  # a normal float
            assert pred.log_splitting == pytest.approx(math.log(pred.splitting),
                                                       rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 0


def test_log_splitting_where_the_splitting_underflows():
    # At B = 2e5 exp(-W) underflows even for the ground doublet; its log
    # does not.
    pred = doublet_prediction(0, 2e5)
    assert pred.splitting == 0.0
    assert math.isfinite(pred.log_splitting) and pred.log_splitting < -700.0
    assert pred.log_splitting == pytest.approx(-1017.62188, rel=1e-8)


@pytest.mark.filterwarnings("ignore:E=.* is not far above the barrier")
def test_semiclassical_doublet_takes_the_route_of_its_regime():
    # At B = 100 doublets 0 and 1 fit in one well, 2 sits in the summit
    # gap and 3 up are pairs of the above-barrier ladder.
    b = 100.0
    for n in (0, 1):
        assert semiclassical_doublet(n, b) == doublet_prediction(n, b)
    assert semiclassical_doublet(2, b) is None
    for n in (3, 5):
        lo, hi = high_energy_quantize(2 * n + 1, b), high_energy_quantize(2 * n + 2, b)
        pred = semiclassical_doublet(n, b)
        assert (pred.n, pred.center, pred.splitting, pred.action, pred.regime) == (
            n, 0.5 * (lo + hi), hi - lo, None, "above-barrier")
        assert pred.log_splitting == math.log(hi - lo)


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
