"""Unit system: derived scales, conversions, and degenerate limits."""
import math

import pytest

from quantum_rod.errors import InvalidParameterError
from quantum_rod.units import (
    RodParams,
    derive_scales,
    energy_from_dimensionless,
    energy_to_dimensionless,
    time_from_seconds,
    time_to_seconds,
)

# Frozen reference values for the 1 g, 10 cm rod under standard gravity.
REF_J = 3.333333333333334e-06
REF_V0 = 0.0004905
REF_OMEGA_C = 12.130539971493436
REF_B = 2.940325636472887e+59
REF_S = 1.6149483656147873e-15


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
        pytest.approx(scales_ref.hbar, rel=1e-12))
    # B is the barrier height V0 measured in energy units.
    assert scales_ref.B * scales_ref.energy_unit == pytest.approx(
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
    with pytest.raises(InvalidParameterError):
        RodParams(mass=1e-3, length=0.1, hbar=0.0)
    for bad in (math.nan, math.inf):
        for field in ("mass", "length", "gravity"):
            with pytest.raises(InvalidParameterError):
                RodParams(**{"mass": 1e-3, "length": 0.1, field: bad})


def test_energy_round_trip(scales_ref):
    e_dimless = 9420.43
    e_si = energy_from_dimensionless(e_dimless, scales_ref)
    assert energy_to_dimensionless(e_si, scales_ref) == pytest.approx(
        e_dimless, rel=1e-12)
    # One energy unit is hbar^2 / 2J by construction.
    unit = scales_ref.hbar**2 / (2.0 * scales_ref.J)
    assert energy_to_dimensionless(unit, scales_ref) == pytest.approx(
        1.0, rel=1e-12)
    # The barrier top V0 maps to B in dimensionless form.
    assert energy_to_dimensionless(scales_ref.V0, scales_ref) == (
        pytest.approx(scales_ref.B, rel=1e-12))


def test_time_round_trip(scales_ref):
    t_wc = 36.678
    seconds = time_to_seconds(t_wc, scales_ref)
    assert seconds == pytest.approx(t_wc / scales_ref.omega_c, rel=1e-14)
    assert time_from_seconds(seconds, scales_ref) == pytest.approx(
        t_wc, rel=1e-12)


def test_custom_hbar():
    # hbar = 1 turns the converters into pure scale factors.
    params = RodParams(mass=1.5, length=2.0, gravity=1.0, hbar=1.0)
    scales = derive_scales(params)
    assert scales.hbar == 1.0
    assert scales.B == pytest.approx(2.0 * scales.J * scales.V0, rel=1e-14)
