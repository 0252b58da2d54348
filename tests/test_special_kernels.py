"""`_scipy_ext`'s scalar special functions against scipy.special's ufuncs.

The four scalars are `scipy.special.cython_special`'s entry points, which
run the ufuncs' own kernels without NumPy's dispatch.  Each must give
the ufunc's result bit for bit (NaN counted equal to NaN) on the
arguments the semiclassical routes reach, across the float range and on
its edges, and hand back a Python float, which the phase integrals
return as they are.
"""
import math
import sys

import numpy as np
import pytest
import scipy.special

from quantum_rod import _scipy_ext, dynamics, summit, wkb

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308,
         sys.float_info.min, 1e-300, 1.0, 1e300, sys.float_info.max]
RNG = np.random.default_rng(20261022)
SCALARS = {name: getattr(_scipy_ext, name) for name in _scipy_ext.SCALARS}
# The loader's take on the imported package, which the module's own
# objects come from when scipy.special was not imported first
TAKEN = dict(zip(_scipy_ext.SPECIAL_FUNCTIONS, _scipy_ext.special_functions(scipy.special)))


def _key(x):
    """float.hex of a real or complex result, every NaN alike."""
    if isinstance(x, complex):
        return _key(x.real), _key(x.imag)
    return "nan" if math.isnan(x) else float(x).hex()


def _magnitudes(count):
    """Log-uniform positive floats over about +-300 decades."""
    return [float(x) for x in 10.0 ** RNG.uniform(-300.0, 300.0, count)]


def _samples(name):
    """Argument tuples for scalar `name`: random ones, then every edge combination."""
    if name == "ellipeinc":
        phi = RNG.uniform(-10.0, 10.0, 2000)
        m = RNG.uniform(-2.0, 1.5, 2000)
        return [*zip(phi.tolist(), m.tolist()),
                *((a, b) for a in EDGES for b in EDGES + [0.5, -1.0])]
    if name == "loggamma":
        parts = RNG.uniform(-50.0, 50.0, (2000, 2))
        return [*((complex(0.5, e),) for e in RNG.uniform(-1e3, 1e3, 500).tolist()),
                *((complex(a, b),) for a, b in parts.tolist()),
                *((x,) for x in [*_magnitudes(500), *RNG.uniform(-50.0, 50.0, 500).tolist()]),
                *((complex(a, b),) for a in EDGES for b in EDGES), *((x,) for x in EDGES)]
    signs = RNG.choice([1.0, 1.0, 1.0, -1.0], (1000, 3))
    randoms = (np.array([_magnitudes(1000) for _ in range(3)]).T * signs).tolist()
    unit = [(a, b, 1.0) for a, b in RNG.uniform(0.0, 4.0, (1000, 2)).tolist()]
    return [*map(tuple, randoms), *unit, *((a, b, c) for a in EDGES for b in EDGES
                                           for c in (0.0, 1.0, math.inf, math.nan))]


@pytest.mark.parametrize("name", _scipy_ext.SCALARS)
def test_scalars_are_not_the_ufuncs(name):
    # Otherwise the comparisons below would compare the ufunc with itself.
    assert not isinstance(SCALARS[name], np.ufunc)
    assert TAKEN[name] is SCALARS[name]
    assert isinstance(getattr(scipy.special, name), np.ufunc)


@pytest.mark.parametrize("name", _scipy_ext.SCALARS)
def test_scalars_match_the_ufuncs_bit_for_bit(name):
    ours, ufunc = SCALARS[name], getattr(scipy.special, name)
    samples = _samples(name)
    with np.errstate(all="ignore"):
        mismatched = [args for args in samples if _key(ours(*args)) != _key(ufunc(*args)[()])]
    assert mismatched == []
    assert len(samples) > 2000


@pytest.fixture
def reached(monkeypatch):
    """The argument tuples each scalar receives from the package, by name."""
    calls = {name: [] for name in _scipy_ext.SCALARS}

    def recording(name):
        def record(*args):
            calls[name].append(args)
            return SCALARS[name](*args)
        return record

    for module in (wkb, summit, _scipy_ext):
        for name in _scipy_ext.SCALARS:
            if name in vars(module):
                monkeypatch.setattr(module, name, recording(name))
    return calls


@pytest.mark.filterwarnings("ignore:E=")
def test_reached_arguments_match_the_ufuncs_bit_for_bit(reached):
    # The semiclassical routes at the barriers of the benchmark and the
    # CLI examples: doublets deep, near and above the summit, the ladder
    # above the barrier, summit quantization, the classical fall time and
    # the exact arg Gamma over the summit window.
    for B in (100.0, 1e4, 2e5, 1e8, 1e29, 3e59):
        for n in (0, 1, 5, 22):
            wkb.semiclassical_doublet(n, B)
        wkb.period_integral(0.5 * B, B)
    for n, B in ((3, 0.0), (20, 100.0), (200, 1e4)):
        wkb.high_energy_quantize(n, B)
    for B in (1e4, 1e6, 1e12):
        n = int(wkb.max_well_action(B) / math.pi - 0.75)
        for parity in ("even", "odd"):
            summit.summit_quantize(n, B, parity)
    for delta in (1e-150, 1e-6, 0.1, 1.5):
        dynamics.classical_fall_time(delta)
    for eps in np.linspace(-10.0, 10.0, 41).tolist():
        summit.half_arg_gamma_exact(eps)
    assert all(len(calls) >= 4 for calls in reached.values())
    for name, calls in reached.items():
        ours, ufunc = SCALARS[name], getattr(scipy.special, name)
        assert [_key(ours(*args)) for args in calls] == [_key(ufunc(*args)[()]) for args in calls]


@pytest.mark.parametrize("phase, args", [
    (wkb.well_action, (30.0, 100.0)),
    (wkb.period_integral, (30.0, 100.0)),
    (wkb.barrier_action, (30.0, 100.0)),
    (wkb.full_action, (300.0, 100.0)),
    (summit.summit_phase, (1e4 + 5.0, 1e4, "even")),
    (summit.half_arg_gamma_exact, (0.3,)),
])
def test_phase_integrals_return_python_floats(phase, args):
    assert type(phase(*args)) is float
