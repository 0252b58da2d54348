"""Near-summit phase corrections, quadratic actions, and quantization."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv, jvp

from quantum_rod.errors import DomainError, InvalidParameterError, RegimeError
from quantum_rod.summit import (
    FIT_GAMMA,
    half_arg_gamma_exact,
    half_arg_gamma_fit,
    phase_delta,
    quadratic_action,
    summit_phase,
    summit_quantize,
    summit_scale,
    wavepacket_phase_derivative,
)
from reference_routes import asymptotic_action, summit_phase_difference, wavepacket_phase

B = 1.0e4
QUARTER_PI = 0.25 * math.pi


def test_gamma_phase_at_zero_and_antisymmetry():
    assert half_arg_gamma_exact(0.0) == 0.0
    assert half_arg_gamma_fit(0.0) == 0.0
    for eps in (0.7, 2.3):
        assert half_arg_gamma_exact(eps) == pytest.approx(-half_arg_gamma_exact(-eps), rel=1e-12)
        assert half_arg_gamma_fit(eps) == pytest.approx(-half_arg_gamma_fit(-eps), rel=1e-12)


def fit_error(eps):
    return half_arg_gamma_fit(eps) - half_arg_gamma_exact(eps)


def test_gamma_phase_fit_quality():
    # The logarithmic fit misses by about 0.012 at worst on |eps| <= 5;
    # the band below pins both the quality and the honesty of the bound.
    errors = [abs(fit_error(e)) for e in np.linspace(-5.0, 5.0, 1001)]
    assert 0.010 < max(errors) < 0.013
    assert abs(fit_error(1.0)) == pytest.approx(
        0.011482013824962, abs=1e-9)


def test_phase_delta_at_zero():
    delta_plus, delta_minus = phase_delta(0.0)
    assert delta_plus == pytest.approx(math.pi / 8.0, abs=1e-15)
    assert delta_minus == pytest.approx(-math.pi / 8.0, abs=1e-15)
    assert delta_plus - delta_minus == pytest.approx(QUARTER_PI, abs=1e-15)


def test_phase_delta_continuity():
    ref_plus, ref_minus = phase_delta(0.0)
    for h in (1e-12, -1e-12):
        delta_plus, delta_minus = phase_delta(h)
        assert abs(delta_plus - ref_plus) < 1e-9
        assert abs(delta_minus - ref_minus) < 1e-9


def test_phase_delta_asymptotics():
    # Deep below: the even/odd difference is the tunneling exponential.
    low_plus, low_minus = phase_delta(-3.0)
    assert low_plus - low_minus == pytest.approx(
        math.exp(-3.0 * math.pi), rel=1e-3)
    # Far above: it saturates at pi/2 (a quarter wave per parity).
    high_plus, high_minus = phase_delta(3.0)
    assert high_plus - high_minus == pytest.approx(
        0.5 * math.pi - math.exp(-3.0 * math.pi), abs=1e-12)
    # Overflow guard for very large arguments.
    assert math.isfinite(phase_delta(500.0)[0])
    with pytest.raises(DomainError):
        phase_delta(math.inf)


def test_wavepacket_phase_slope():
    at_zero = wavepacket_phase_derivative(0.0)
    assert at_zero == pytest.approx(
        0.5 * math.log(4.0 * FIT_GAMMA) + QUARTER_PI, abs=1e-12)
    for eps in (0.0, 0.5, -1.2, 2.0):
        h = 1e-5
        fd = (wavepacket_phase(eps + h) - wavepacket_phase(eps - h)) / (2.0 * h)
        assert wavepacket_phase_derivative(eps) == pytest.approx(fd, rel=1e-8)


def test_quadratic_action_closed_form():
    assert quadratic_action(0.0, 3.0) == 4.5
    for eps, xi in ((1.5, 4.0), (-1.5, 4.0), (0.7, 2.5), (-0.7, 2.5)):
        m = 2.0 * abs(eps)
        if eps > 0.0:
            oracle, _ = quad(lambda t: math.sqrt(m + t * t), 0.0, xi, limit=200)
        else:
            oracle, _ = quad(lambda t: math.sqrt(max(t * t - m, 0.0)),
                             math.sqrt(m), xi, limit=200)
        assert quadratic_action(eps, xi) == pytest.approx(oracle, rel=1e-10)
    with pytest.raises(DomainError):
        quadratic_action(1.0, -0.5)
    with pytest.raises(DomainError):
        quadratic_action(-2.0, 1.0)   # inside the forbidden region


def test_summit_action_asymptotics():
    assert asymptotic_action(0.0, 7.0) == quadratic_action(0.0, 7.0)
    for eps in (-2.0, 2.0):
        assert abs(quadratic_action(eps, 10.0) - asymptotic_action(eps, 10.0)) < 0.02
        assert abs(quadratic_action(eps, 100.0) - asymptotic_action(eps, 100.0)) < 2e-4


def test_summit_scale():
    s = summit_scale(B)
    assert s**4 * B == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        summit_scale(0.0)


def test_summit_phase_parity_offset():
    # At E = B the even and odd phases differ by exactly arctan(1) = pi/4.
    diff = summit_phase(B, B, "even") - summit_phase(B, B, "odd")
    assert diff == pytest.approx(QUARTER_PI, abs=1e-12)


def test_summit_quantize_warns_on_wide_matching():
    # The root's own matching angle, once; the scan of the window is silent.
    with pytest.warns(UserWarning, match="matching angle 0.857 rad") as caught:
        summit_quantize(4, 300.0, "even")
    assert len(caught) == 1


def test_summit_quantize_against_spectrum(spectrum_b1e4):
    # The six levels closest to the barrier top at B = 1e4.
    for parity, n in (("odd", 24), ("even", 25), ("odd", 25),
                      ("even", 26), ("odd", 26), ("even", 27)):
        pred = summit_quantize(n, B, parity)
        ref = spectrum_b1e4.level(parity, n).energy
        assert pred == pytest.approx(ref, rel=1e-3)


def test_summit_quantize_rejects_deep_levels():
    with pytest.raises(RegimeError):
        summit_quantize(0, B, "even")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("b, walled, fine", [
    (1.0, [0, 1], []),           # s = 1.19: even xi = 3 lies past the wall
    (100.0, [0], [1, 2, 3]),     # n = 0 would need a matching angle of 2.102 rad
    (1e3, [], [5, 6, 7, 8, 9]),  # the summit command's rows at B = 1e3
])
def test_summit_quantize_stops_at_the_wall(b, walled, fine):
    # A root whose matching angle reaches pi/2 has no outer region left.
    for n in walled:
        for parity in ("even", "odd"):
            with pytest.raises(RegimeError, match=f"{parity} level n={n} .*wall"):
                summit_quantize(n, b, parity)
    for n in fine:
        for parity in ("even", "odd"):
            e = summit_quantize(n, b, parity)
            eps = (e - b) / math.sqrt(2.0 * b)
            xi = max(3.0, 1.3 * math.sqrt(max(-2.0 * eps, 0.0) + 1.0))
            assert 0.0 < e and xi * summit_scale(b) < 0.5 * math.pi


def _bessel_phase_difference():
    # psi'' + xi^2 psi = 0 is solved exactly by sqrt(xi) J_{-/+1/4}(xi^2/2),
    # the even and odd summit solutions.  Their instantaneous WKB phases are
    # read off the window and with the estimator of the ODE route.
    xi = np.linspace(42.0, 60.0, 201)
    z = 0.5 * xi**2

    def phase(nu):
        psi = np.sqrt(xi) * jv(nu, z)
        dpsi = jv(nu, z) / (2.0 * np.sqrt(xi)) + xi**1.5 * jvp(nu, z)
        return np.unwrap(np.arctan2(-dpsi / np.sqrt(xi), psi * np.sqrt(xi)))

    return float(np.median(np.mod(phase(-0.25) - phase(0.25), 2.0 * math.pi)))


def test_summit_phase_difference_ode():
    # Independent wave-equation route to the pi/4 parity offset; the
    # integration itself matches the exact solutions far below that bound.
    diff = summit_phase_difference()
    assert diff == pytest.approx(QUARTER_PI, abs=1e-3)
    assert diff == pytest.approx(_bessel_phase_difference(), abs=1e-9)


def test_summit_phase_difference_bessel():
    assert _bessel_phase_difference() == pytest.approx(QUARTER_PI, abs=1e-3)
