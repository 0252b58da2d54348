"""Airy zeros, their WKB stand-ins, and the linear-well level model."""
import numpy as np
import pytest
import scipy.special as sp

from quantum_rod import _scipy_ext, airy
from quantum_rod.airy import MAX_N, MIN_TABLE, airy_zero, linear_well_energy, wkb_lambda
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
    # The loader's copy of scipy's one check in front of _specfun.airyzo,
    # built by its take on the imported package: the same zeros, and the
    # same refusal of what is not a positive integer scalar.
    ai_zeros = _scipy_ext.special_functions(sp)[-1]
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
    # table of zeros.
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


NOT_INTEGERS = [
    pytest.param(2.0, id="float"),
    pytest.param(np.float64(2.0), id="numpy float"),
    pytest.param(True, id="bool"),
    pytest.param(np.True_, id="numpy bool"),
    pytest.param(np.array([1.5]), id="float array"),
    pytest.param(np.array([True]), id="bool array"),
    pytest.param(np.array([], dtype=float), id="empty float array"),
]


@pytest.mark.parametrize("n", NOT_INTEGERS)
def test_airy_zero_refuses_what_is_not_an_integer(n):
    with pytest.raises(InvalidParameterError, match="integer"):
        airy_zero(n)


@pytest.mark.parametrize("n", NOT_INTEGERS)
def test_wkb_lambda_refuses_what_is_not_an_integer(n):
    # 2.5 and True once gave 6.167 and 4.082.
    with pytest.raises(InvalidParameterError, match="integer"):
        wkb_lambda(n)
    with pytest.raises(InvalidParameterError, match="integer"):
        linear_well_energy(n, 100.0, exact=False)


def test_airy_zero_of_an_empty_array_is_empty():
    lam = airy_zero(np.array([], dtype=int))
    assert lam.shape == (0,) and lam.dtype == np.float64


def test_airy_zero_array_is_bit_for_bit_the_scalar():
    # `airy --count` takes its exact columns from the array form.
    ns = np.array(list(range(60)) + [777, 4242, MAX_N - 1])
    lams = airy_zero(ns)
    energies = linear_well_energy(ns, 1e4)
    for k, n in enumerate(ns.tolist()):
        assert lams[k] == airy_zero(n)
        assert energies[k] == linear_well_energy(n, 1e4)


def _per_call(n):
    """lambda_n from one call of ai_zeros(n + 1) and one Newton step, as
    airy_zero computed it on every call before it kept a table."""
    zeros, _, _, slopes = sp.ai_zeros(n + 1)
    return float(-(zeros[n] - sp.airy(zeros[n])[0] / slopes[n]))


@pytest.fixture
def fresh_table(monkeypatch):
    """The ai_zeros sizes airy_zero asks for, from an empty table on."""
    calls = []
    real = airy.ai_zeros
    monkeypatch.setattr(airy, "ai_zeros", lambda nt: calls.append(nt) or real(nt))
    monkeypatch.setattr(airy, "_zeros", np.empty(0))
    return calls


def test_airy_zero_table_is_the_per_call_zero_to_the_bit(fresh_table):
    # The ai_zeros(N) tables share their prefixes bit for bit, so a zero
    # read from a table of any size is the one ai_zeros(n + 1) gives.
    for n in [0, 5, 11, 15, 16, 17, 31, 32, 100, 1000, 4095, 4096, MAX_N - 1]:
        assert airy_zero(n) == _per_call(n), n
    assert fresh_table == [16, 32, 64, 128, 1001, 4096, 8192, MAX_N]


def test_airy_zero_calls_ai_zeros_once_within_its_table(fresh_table):
    # Each call once computed ai_zeros(n + 1) anew.
    for _ in range(3):
        for n in range(12):
            airy_zero(n)
        airy_zero(np.arange(12))
        linear_well_energy(5, 1e4)
    assert fresh_table == [MIN_TABLE]
    lam = airy_zero(np.arange(3))
    lam[0] = 0.0  # a copy: the table itself is read-only
    assert airy_zero(0) == _per_call(0) and not airy._zeros.flags.writeable
    # Growing one n at a time doubles the table, up to MAX_N.
    for n in range(MAX_N):
        airy_zero(n)
    assert fresh_table == [MIN_TABLE * 2**k for k in range(10)] + [MAX_N]


@pytest.mark.parametrize("n", [*range(12), 12, 50, 200])
def test_airy_zero_against_mpmath(n):
    # The polished zeros are within 4.2e-16; `ai_zeros` alone is off by
    # 6.5e-15, 2.2e-14 and 1.0e-12 at n = 2, 3 and 4.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = -mp.airyaizero(n + 1)
        assert abs(airy_zero(n) - ref) / ref < 2e-15


def test_zero_tables():
    for n in range(6):
        assert airy_zero(n) == pytest.approx(LAMBDA_EXACT[n], abs=5e-3)
        assert wkb_lambda(n) == pytest.approx(LAMBDA_WKB[n], abs=5e-3)


def test_wkb_lambda_array_is_bit_for_bit_the_scalar():
    # An integer array once ended in numpy's "truth value is ambiguous".
    ns = np.array([[0, 1, 2], [777, 4242, MAX_N + 5]])
    lams = wkb_lambda(ns)
    energies = linear_well_energy(ns, 100.0, exact=False)
    assert lams.shape == energies.shape == ns.shape
    for k, n in np.ndenumerate(ns):
        assert lams[k] == wkb_lambda(int(n))
        assert energies[k] == linear_well_energy(int(n), 100.0, exact=False)
    assert wkb_lambda(np.int64(3)) == wkb_lambda(3)
    assert wkb_lambda(np.array([], dtype=int)).shape == (0,)
    with pytest.raises(InvalidParameterError, match=">= 0"):
        wkb_lambda(np.array([3, -1]))


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
