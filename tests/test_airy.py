"""Airy zeros, their WKB stand-ins, and the linear-well level model."""
import numpy as np
import pytest
import scipy.special as sp
from scipy.special import _specfun

from quantum_rod import _scipy_ext
from quantum_rod.airy import MAX_N, airy_zero, linear_well_energy, wkb_lambda
from quantum_rod.errors import DomainError, InvalidParameterError
from quantum_rod.spectrum import solve_spectrum

# Reference comparison of exact Airy zeros against the semiclassical
# stand-in, rounded to the displayed precision.
LAMBDA_EXACT = [2.338, 4.088, 5.521, 6.787, 7.944, 9.023]
LAMBDA_WKB = [2.320, 4.082, 5.517, 6.784, 7.942, 9.021]


def test_airy_zeros_against_scipy():
    ref = sp.ai_zeros(6)[0]
    for n in range(6):
        lam = airy_zero(n)
        assert lam == pytest.approx(-ref[n], abs=1e-8)
        assert abs(sp.airy(-lam)[0]) < 1e-10


def test_loader_ai_zeros_is_scipys():
    # The loader's copy of scipy's one check in front of _specfun.airyzo:
    # the same zeros, and the same refusal of what is not a positive
    # integer scalar.
    ai_zeros = _scipy_ext.specfun_ai_zeros(_specfun)
    assert ai_zeros is not sp.ai_zeros
    for ours, ref in zip(ai_zeros(40), sp.ai_zeros(40)):
        assert np.array_equal(ours, ref)
    for nt in (0, -1, 2.5, np.array([3])):
        with pytest.raises(ValueError) as ref:
            sp.ai_zeros(nt)
        with pytest.raises(ValueError) as ours:
            ai_zeros(nt)
        assert str(ours.value) == str(ref.value)


def test_airy_zero_guards():
    # Index 12, once refused, is an ordinary zero; the bound only caps the
    # tables ai_zeros(n + 1) allocates.
    with pytest.raises(InvalidParameterError):
        airy_zero(-1)
    assert airy_zero(12) > airy_zero(11)
    with pytest.raises(DomainError, match=f"n < {MAX_N}"):
        airy_zero(MAX_N)
    assert airy_zero(MAX_N - 1) > airy_zero(12)
    with pytest.raises(InvalidParameterError):
        wkb_lambda(-1)
    with pytest.raises(InvalidParameterError):
        airy_zero(np.array([3, -1]))
    with pytest.raises(DomainError, match=f"got n={MAX_N}"):
        airy_zero(np.array([0, MAX_N]))


def test_airy_zero_array_is_bit_for_bit_the_scalar():
    # `airy --count` takes its exact columns from the array form.
    ns = np.array(list(range(60)) + [777, 4242, MAX_N - 1])
    lams = airy_zero(ns)
    energies = linear_well_energy(ns, 1e4)
    for k, n in enumerate(ns.tolist()):
        assert lams[k] == airy_zero(n)
        assert energies[k] == linear_well_energy(n, 1e4)


@pytest.mark.parametrize("n", [12, 50, 200])
def test_airy_zero_against_mpmath(n):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = -mp.airyaizero(n + 1)
        assert abs(airy_zero(n) - ref) / ref < 1e-14


def test_zero_tables():
    for n in range(6):
        assert airy_zero(n) == pytest.approx(LAMBDA_EXACT[n], abs=5e-3)
        assert wkb_lambda(n) == pytest.approx(LAMBDA_WKB[n], abs=5e-3)


def test_wkb_underestimates_and_converges():
    gaps = [airy_zero(n) - wkb_lambda(n) for n in range(8)]
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_linear_well_energy():
    assert linear_well_energy(0, 1e4) == pytest.approx(
        1e4 ** (2.0 / 3.0) * airy_zero(0), rel=1e-12)
    assert linear_well_energy(2, 1e4, exact=False) == pytest.approx(
        1e4 ** (2.0 / 3.0) * wkb_lambda(2), rel=1e-12)
    assert linear_well_energy(0, 0.0) == 0.0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            linear_well_energy(0, bad)


def test_linear_well_matches_deep_spectrum():
    # At B = 1e6 the lowest doublet is pinned against the wall where the
    # potential is linear to high accuracy.
    res = solve_spectrum(1e6, 4, grid_n=2001)
    center = 0.5 * (res.energies[0] + res.energies[1])
    assert center == pytest.approx(linear_well_energy(0, 1e6), rel=1e-3)
