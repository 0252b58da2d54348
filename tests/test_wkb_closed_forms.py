"""The closed-form phase integrals of `wkb` against 40-digit mpmath quadrature.

The references integrate the defining integrands directly.  Near a
turning point theta0 they substitute theta = theta0 +/- u^2 and write
E - B cos theta as 2B sin((theta + theta0)/2) sin((theta - theta0)/2),
so the integrand neither cancels nor blows up at the ends.
"""
import math

import pytest

from quantum_rod.airy import linear_well_energy
from quantum_rod.summit import summit_scale
from quantum_rod.wkb import (
    barrier_action,
    full_action,
    period_integral,
    phase_integral,
    well_action,
)

mp = pytest.importorskip("mpmath")

REL = 1e-12
BARRIERS = (1e2, 1e4, 1e8, 1e12)
BELOW = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-4, 1.0 - 1e-8)
ABOVE = (1.0, 1.0 + 1e-8, 1.0 + 1e-4, 1.5, 10.0, 1e4)
REFERENCE_ROD_B = 2.940325636472887e59


def _well_refs(energy, b):
    """(well action, traversal integral) from theta0 to the wall."""
    with mp.workdps(40):
        e, b = mp.mpf(energy), mp.mpf(b)
        t0 = mp.acos(e / b)

        def gap(u):  # E - B cos(theta0 + u^2)
            return 2 * b * mp.sin(t0 + u * u / 2) * mp.sin(u * u / 2)

        def inverse(u):
            return 2 / mp.sqrt(b * mp.sin(t0)) if u == 0 else 2 * u / mp.sqrt(gap(u))

        span = [0, mp.sqrt(mp.pi / 2 - t0)]
        return (float(mp.quad(lambda u: 2 * u * mp.sqrt(gap(u)), span)),
                float(mp.quad(inverse, span)))


def _barrier_ref(energy, b):
    with mp.workdps(40):
        e, b = mp.mpf(energy), mp.mpf(b)
        t0 = mp.acos(e / b)

        def f(u):  # B cos(theta0 - u^2) - E, times the Jacobian
            return 2 * u * mp.sqrt(2 * b * mp.sin(t0 - u * u / 2) * mp.sin(u * u / 2))

        return float(2 * mp.quad(f, [0, mp.sqrt(t0)]))


def _phase_ref(energy, b, lower, upper):
    """Integral of sqrt(max(E - B cos theta, 0)), split at every kink."""
    with mp.workdps(40):
        e, b = mp.mpf(energy), mp.mpf(b)
        lo, hi = sorted((mp.mpf(lower), mp.mpf(upper)))
        t0 = mp.acos(e / b) if -b < e <= b else mp.mpf(0)
        cuts = [lo, hi]
        for k in range(int(mp.floor(lo / (2 * mp.pi))), int(mp.ceil(hi / (2 * mp.pi))) + 1):
            centre = 2 * k * mp.pi  # the integrand's minimum, or its forbidden band
            cuts += [t for t in (centre - t0, centre, centre + t0) if lo < t < hi]
        val = mp.quad(lambda t: mp.sqrt(max(e - b * mp.cos(t), 0)), sorted(cuts))
        return float(val if upper >= lower else -val)


@pytest.mark.parametrize("b", BARRIERS)
def test_well_period_and_barrier_against_mpmath(b):
    for frac in BELOW:
        energy = frac * b
        well, interval = _well_refs(energy, b)
        assert well_action(energy, b) == pytest.approx(well, rel=REL)
        assert period_integral(energy, b) == pytest.approx(interval, rel=REL)
        assert barrier_action(energy, b) == pytest.approx(_barrier_ref(energy, b), rel=REL)


def test_reference_rod_actions_against_mpmath():
    # B ~ 3e59 with E/B ~ 1e-19: the deep levels of the 1 g, 10 cm rod.
    b = REFERENCE_ROD_B
    for n in range(4):
        energy = linear_well_energy(n, b, exact=False)
        well, interval = _well_refs(energy, b)
        assert well_action(energy, b) == pytest.approx(well, rel=REL)
        assert well == pytest.approx((n + 0.75) * math.pi, rel=1e-12)
        assert period_integral(energy, b) == pytest.approx(interval, rel=REL)
        assert barrier_action(energy, b) == pytest.approx(_barrier_ref(energy, b), rel=REL)


@pytest.mark.parametrize("b", BARRIERS)
def test_full_action_against_mpmath(b):
    for frac in ABOVE:
        energy = frac * b
        ref = _phase_ref(energy, b, -0.5 * math.pi, 0.5 * math.pi)
        assert full_action(energy, b) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("b", BARRIERS)
def test_phase_integral_across_the_summit_window(b):
    # summit_phase's outer piece: from the matching angle to the wall, for
    # |epsilon| <= 10 on both sides of the barrier top.
    s = summit_scale(b)
    for eps in (-10.0, -3.0, -0.5, 0.0, 0.5, 3.0, 10.0):
        energy = b + eps * math.sqrt(2.0 * b)
        lower = max(3.0, 1.3 * math.sqrt(max(-2.0 * eps, 0.0) + 1.0)) * s
        ref = _phase_ref(energy, b, lower, 0.5 * math.pi)
        assert phase_integral(energy, b, lower, 0.5 * math.pi) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("b", BARRIERS)
def test_phase_integral_clamps_below_the_turning_point(b):
    # A lower limit inside the barrier counts only the allowed part, and
    # measured from theta0 nothing cancels as E/B -> 0.
    for frac in (1e-6, 1e-3, 0.5, 1.0 - 1e-6):
        energy = frac * b
        theta0 = math.acos(frac)
        for lower in (0.0, 0.5 * theta0):
            for upper in (1.0, 0.5 * math.pi):
                ref = _phase_ref(energy, b, lower, upper)
                assert phase_integral(energy, b, lower, upper) == pytest.approx(ref, rel=REL)
        assert phase_integral(energy, b, 0.0, 0.5 * theta0) == 0.0


@pytest.mark.parametrize("energy, b, lower, upper", [
    (50.0, 100.0, -0.5 * math.pi, 0.5 * math.pi),   # both wells
    (150.0, 100.0, -2.0, 7.0),                      # more than a full turn
    (-41.0, 100.0, 2.24, 0.5 * math.pi),            # E < 0, reversed limits
    (1.0, 1.0, 6.39, 0.5 * math.pi),                # summit matching at B = 1
    (0.3, 1.0, -7.0, -3.5),
])
def test_phase_integral_any_limits(energy, b, lower, upper):
    ref = _phase_ref(energy, b, lower, upper)
    assert phase_integral(energy, b, lower, upper) == pytest.approx(ref, rel=REL)
