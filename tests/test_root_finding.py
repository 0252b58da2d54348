"""`_scipy_ext.brentq` against the public `scipy.optimize.brentq`.

The package finds its roots with scipy's `_brentq` C core behind its
own copy of scipy's checks.  Both must give the same roots, bit for bit,
on the package's own residuals, and the same errors.
"""
import math

import pytest
import scipy.optimize

from quantum_rod import _scipy_ext, summit, wkb
from quantum_rod.spectrum import EVEN, ODD

# Built through the loader's take on the imported package, so on the one
# _zeros core both share, whichever was imported first.
brentq, = _scipy_ext.zeros_brentq(scipy.optimize)


@pytest.fixture
def roots(monkeypatch):
    """Each (loader root, scipy root) pair of the quantizers' brentq calls."""
    pairs = []

    def both(f, a, b, **kwargs):
        pairs.append((brentq(f, a, b, **kwargs), scipy.optimize.brentq(f, a, b, **kwargs)))
        return pairs[-1][0]

    monkeypatch.setattr(wkb, "brentq", both)
    monkeypatch.setattr(summit, "brentq", both)
    return pairs


def _assert_bit_identical(pairs, count):
    assert len(pairs) == count
    assert [ours.hex() for ours, _ in pairs] == [ref.hex() for _, ref in pairs]


def test_loader_brentq_is_not_scipys_wrapper():
    # Otherwise the comparisons below would compare scipy with itself.
    assert brentq is not scipy.optimize.brentq
    assert brentq.__module__ == _scipy_ext.__name__


@pytest.mark.parametrize("b", [1e2, 1e4, 1e8, 1e59, 1e230])
def test_single_well_roots_match_scipy(roots, b):
    # At B = 1e230 the roots of the bracket [0, B] took more than brentq's
    # default 100 steps.  At B = 1e2 only n = 0 and 1 lie under the barrier.
    levels = [n for n in range(6) if (n + 0.75) * math.pi < wkb.max_well_action(b)]
    for n in levels:
        wkb.single_well_quantize(n, b)
    _assert_bit_identical(roots, len(levels))
    assert len(levels) == (2 if b == 1e2 else 6)


@pytest.mark.filterwarnings("ignore:E=")
def test_high_energy_roots_match_scipy(roots):
    cases = [(1, 0.0), (5, 0.0), (8, 100.0), (20, 100.0), (80, 1e4), (200, 1e4)]
    for n, b in cases:
        wkb.high_energy_quantize(n, b)
    _assert_bit_identical(roots, len(cases))


@pytest.mark.filterwarnings("ignore:matching angle")
@pytest.mark.parametrize("b, levels", [(1e4, range(24, 28)), (1e6, range(262, 266))])
def test_summit_roots_match_scipy(roots, b, levels):
    for n in levels:
        for parity in (EVEN, ODD):
            summit.summit_quantize(n, b, parity)
    _assert_bit_identical(roots, 2 * len(levels))


def _nan_at_one(x):
    return math.nan if x == 1.0 else x - 1.0


@pytest.mark.parametrize("args, kwargs, error", [
    pytest.param((_nan_at_one, 0.0, 2.0), {}, ValueError, id="NaN residual"),
    pytest.param((lambda x: x + 1.0, 0.0, 2.0), {}, ValueError, id="same-sign bracket"),
    pytest.param((lambda x: x ** 3 - 2.0, 0.0, 2.0), {"maxiter": 2}, RuntimeError,
                 id="maxiter exhausted"),
])
def test_errors_match_scipy(args, kwargs, error):
    with pytest.raises(error) as ref:
        scipy.optimize.brentq(*args, **kwargs)
    with pytest.raises(error) as ours:
        brentq(*args, **kwargs)
    assert type(ours.value) is type(ref.value) and str(ours.value) == str(ref.value)
