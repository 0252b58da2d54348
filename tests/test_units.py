"""Unit system: derived scales, conversions, and degenerate limits."""
import math

import pytest
from scipy.constants import hbar

from quantum_rod.errors import InvalidParameterError
from quantum_rod.units import (
    HBAR_SI,
    RodParams,
    derive_scales,
    time_to_seconds,
)

# Frozen reference values for the 1 g, 10 cm rod under standard gravity.
REF_J = 3.333333333333334e-06
REF_V0 = 0.0004905
REF_OMEGA_C = 12.130539971493436
REF_B = 2.940325636472887e+59
REF_S = 1.6149483656147873e-15


def test_hbar_is_scipy_hbar():
    # The exact SI h / 2 pi, written out so that no start loads scipy.constants.
    assert HBAR_SI == hbar


def test_reference_rod_scales(scales_ref):
    assert scales_ref.J == pytest.approx(REF_J, rel=1e-12)
    assert scales_ref.V0 == pytest.approx(REF_V0, rel=1e-12)
    assert scales_ref.omega_c == pytest.approx(REF_OMEGA_C, rel=1e-12)
    assert scales_ref.B == pytest.approx(REF_B, rel=1e-12)
    assert scales_ref.s == pytest.approx(REF_S, rel=1e-12)


def test_scale_identities(scales_ref):
    # omega_c^2 = V0/J and the summit width obeys s^2 = hbar/(J omega_c).
    assert scales_ref.omega_c**2 * scales_ref.J == pytest.approx(
        scales_ref.V0, rel=1e-12)
    assert scales_ref.s**2 * scales_ref.J * scales_ref.omega_c == (
        pytest.approx(HBAR_SI, rel=1e-12))
    # B is the barrier height V0 measured in energy units.
    assert scales_ref.B * HBAR_SI**2 / (2.0 * scales_ref.J) == pytest.approx(
        scales_ref.V0, rel=1e-12)


def test_moment_and_barrier_formulas(scales_ref):
    assert scales_ref.J == pytest.approx(1e-3 * 0.1**2 / 3.0, rel=1e-14)
    assert scales_ref.V0 == pytest.approx(1e-3 * 9.81 * 0.1 / 2.0, rel=1e-14)
    assert scales_ref.omega_c == pytest.approx(
        math.sqrt(3.0 * 9.81 / (2.0 * 0.1)), rel=1e-14)


def test_zero_gravity_limit():
    scales = derive_scales(RodParams(mass=1e-3, length=0.1, gravity=0.0))
    assert scales.V0 == 0.0
    assert scales.B == 0.0
    assert scales.omega_c == 0.0
    assert math.isinf(scales.s)
    assert time_to_seconds(1.0, scales) == math.inf


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        RodParams(mass=0.0, length=0.1)
    with pytest.raises(InvalidParameterError):
        RodParams(mass=1e-3, length=-0.1)
    with pytest.raises(InvalidParameterError):
        RodParams(mass=1e-3, length=0.1, gravity=-9.81)
    for bad in (math.nan, math.inf):
        for field in ("mass", "length", "gravity"):
            with pytest.raises(InvalidParameterError):
                RodParams(**{"mass": 1e-3, "length": 0.1, field: bad})


def test_time_round_trip(scales_ref):
    t_wc = 36.678
    seconds = time_to_seconds(t_wc, scales_ref)
    assert seconds == pytest.approx(t_wc / scales_ref.omega_c, rel=1e-14)
    assert seconds * scales_ref.omega_c == pytest.approx(t_wc, rel=1e-12)


def test_custom_hbar():
    # hbar is HBAR_SI alone: a different hbar is the same problem at another
    # B, so B = V0 / (hbar^2 / 2J) is checked in SI units.
    params = RodParams(mass=1.5, length=2.0, gravity=1.0)
    scales = derive_scales(params)
    assert scales.B == pytest.approx(2.0 * scales.J * scales.V0 / HBAR_SI**2, rel=1e-14)
