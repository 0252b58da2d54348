"""Property tests of the input contract: typed errors, never silent garbage.

The README promises that every input either gives a finite result or
raises one of the package's typed errors, and that the CLI exits 0, 2 or
3 with one message line and no traceback.  These tests feed finite,
non-finite and extreme values to the public library functions, to the
guarded routes of `reference_routes` that the tests check them against,
and to every subcommand.  Sizes are bounded so that no example builds a
large grid or takes many time steps.
"""
import contextlib
import dataclasses
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_rod import dynamics, errors, spectrum, summit, wkb
from quantum_rod.cli import main
from quantum_rod.units import RodParams, derive_scales
from reference_routes import asymptotic_action, classical_frequency, closed_form_energy

TYPED = (errors.InvalidParameterError, errors.DomainError, errors.ResolutionError,
         errors.RegimeError, errors.InsufficientBasisError, errors.StepSizeError)

EDGES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e-150, 1e-12,
         0.1, 1.0, 100.0, 1e4, 1e59, 1e108, 1e150, 1e230, 1e300, 1.7976931348623157e308]
reals = st.one_of(st.sampled_from(EDGES), st.floats())
indices = st.integers(min_value=-2, max_value=10**9)
parities = st.sampled_from(["even", "odd"])


def rod(B):
    """The 1 g, 10 cm rod's scales with the barrier B."""
    return dataclasses.replace(derive_scales(RodParams(mass=1e-3, length=0.1, gravity=9.81)), B=B)


LIBRARY = {
    "summit_scale": (summit.summit_scale, (reals,)),
    "max_well_action": (wkb.max_well_action, (reals,)),
    "turning_point": (wkb.turning_point, (reals, reals)),
    "period_integral": (wkb.period_integral, (reals, reals)),
    "classical_frequency": (classical_frequency, (reals, reals)),
    "well_action": (wkb.well_action, (reals, reals)),
    "barrier_action": (wkb.barrier_action, (reals, reals)),
    "tunneling_splitting": (wkb.tunneling_splitting, (reals, reals)),
    "full_action": (wkb.full_action, (reals, reals)),
    "phase_integral": (wkb.phase_integral, (reals, reals, reals, reals)),
    "quadratic_action": (summit.quadratic_action, (reals, reals)),
    "asymptotic_action": (asymptotic_action, (reals, reals)),
    "phase_delta": (summit.phase_delta, (reals,)),
    "summit_phase": (summit.summit_phase, (reals, reals, parities)),
    "summit_quantize": (summit.summit_quantize, (indices, reals, parities)),
    "closed_form_energy": (closed_form_energy, (reals, reals)),
    "fall_time_assembly": (dynamics.fall_time_assembly, (reals.map(rod), reals)),
    "potential": (spectrum.potential, (reals, reals)),
    "single_well_quantize": (wkb.single_well_quantize, (indices, reals)),
    "high_energy_quantize": (wkb.high_energy_quantize, (indices, reals)),
    "doublet_prediction": (wkb.doublet_prediction, (indices, reals)),
}


# Inputs that once returned NaN or inf, or raised an untyped exception.
REFUSED = [
    (summit.summit_scale, (math.nan,)), (summit.summit_scale, (math.inf,)),
    (wkb.max_well_action, (math.nan,)), (wkb.max_well_action, (-1.0,)),
    (wkb.barrier_action, (math.nan, 100.0)), (wkb.barrier_action, (50.0, math.nan)),
    (wkb.barrier_action, (50.0, math.inf)), (wkb.tunneling_splitting, (50.0, math.inf)),
    (wkb.full_action, (math.inf, 100.0)), (wkb.phase_integral, (math.nan, 100.0, 0.0, 1.0)),
    (summit.quadratic_action, (1.0, math.nan)), (closed_form_energy, (math.nan, 1.0)),
    (closed_form_energy, (0.0, 1.0)), (dynamics.fall_time_assembly, (rod(math.nan), 0.1)),
    (dynamics.fall_time_assembly, (rod(math.inf), 0.1)),
    (dynamics.fall_time_assembly, (rod(100.0), 1e-300)),
    (spectrum.potential, (math.nan, 100.0)), (spectrum.potential, (0.1, math.nan)),
    (summit.summit_quantize, (0, -1.0, "even")), (wkb.single_well_quantize, (0, math.inf)),
    (wkb.high_energy_quantize, (1, math.inf)), (summit.phase_delta, (1e300,)),
    (summit.summit_phase, (1e300, 100.0, "even")), (asymptotic_action, (1.0, 1e-300)),
    (wkb.single_well_quantize, (0, 1e231)), (classical_frequency, (0.5e308, 1e308)),
    (wkb.well_action, (5e-324, 1e-320)),
]


@pytest.mark.filterwarnings("ignore:matching angle")
@pytest.mark.parametrize("func, args", REFUSED)
def test_refused_input_raises_a_typed_error(func, args):
    with pytest.raises(TYPED):
        func(*args)


def _floats_of(result):
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [float(v) for v in result if isinstance(v, float)]
    return [float(result)]


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(case=st.sampled_from(sorted(LIBRARY)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*LIBRARY[name][1]))))
def test_library_result_is_finite_or_typed_error(case):
    name, args = case
    func = LIBRARY[name][0]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = func(*args)
    except TYPED:
        return
    if name == "period_integral" and args[0] == args[1]:
        assert result == math.inf  # the documented divergence at the summit
        return
    values = _floats_of(result)
    assert all(math.isfinite(v) for v in values), (name, args, result)


cli_reals = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e-12",
                                       "1e300", "1.7976931348623157e308"]),
                      st.floats().map(repr))


def _pick(*values):
    return st.sampled_from([None if v is None else str(v) for v in values])


# Each flag: (typical values, where None leaves the default; extreme or invalid
# ones).  Grids of at most 2001 points, bases of at most 200 levels and steps
# of at least 1e-3 over at most 0.5 keep every accepted run small.
CLI_FLAGS = {
    "B": (_pick(0, 30, 100, 1e4), cli_reals),
    "mass": (_pick(1e-3), cli_reals),
    "length": (_pick(0.1), cli_reals),
    "gravity": (_pick(None, 9.81, 0), cli_reals),
    "precision": (_pick(None, 3, 15), _pick(2, 16)),
    "format": (_pick(None, "json", "csv"), _pick("csv")),
    "n-levels": (_pick(None, 1, 2, 10, 40), _pick(-1, 0, 3, 200, 10**6)),
    "grid-n": (_pick(201, 401, 2001), _pick(-1, 0, 2, 9, 200, 10**9)),
    "tilt": (_pick(None, 0, 1e-3, 1e-12), cli_reals),
    "n-min": (_pick(None, 0, 5), _pick(-1, 20, 10**6)),
    "n-max": (_pick(None, 1, 5, 9), _pick(-1, 0, 20, 10**6)),
    "count": (_pick(None, 1, 6), _pick(-1, 0, 12, 10**9)),
    "delta-theta": (_pick(None, 0.1, 1.5), cli_reals),
    "alpha": (_pick(None, 1, 10), cli_reals),
    "sigma": (_pick(None, 0.05, 0.1, 0.3), cli_reals),
    "t-max": (_pick(0.01, 0.5), _pick("nan", "inf", "-1", "0", "1e-300", "1e300")),
    "n-times": (_pick(None, 2, 5), _pick(-1, 0, 1, 10**9)),
    "dt": (_pick(0.001, 0.01), _pick("nan", "inf", "-1", "0", "1e-300", "1e300")),
    "method": (_pick(None, "eigen", "direct", "both"), _pick("both")),
    "n": (_pick(0, 5, 18), _pick(-1, 10**6)),
    "tilts": (_pick(None, 1e-4, 1e-3), cli_reals),
}
COMMON = ["precision", "format"]
ROD = ["mass", "length", "gravity"]
SUBCOMMAND_FLAGS = {
    "spectrum": COMMON + ["n-levels", "grid-n", "tilt"],
    "wkb-compare": COMMON + ["n-min", "n-max", "grid-n"],
    "summit": COMMON + ["n-min", "n-max", "grid-n"],
    "airy": COMMON + ["count", "B"],
    "fall-time": COMMON + ROD + ["delta-theta", "alpha"],
    "evolve": COMMON + ["sigma", "t-max", "n-times", "dt", "method", "grid-n", "n-levels"],
    "slant": COMMON + ["n", "tilts", "grid-n"],
}


@st.composite
def cli_argv(draw):
    """A subcommand with typical flags, up to two of them extreme or invalid.

    The barrier comes from --B, the rod or both.  Every grid and every
    Crank-Nicolson step is drawn, since the defaults are larger than the
    bounds.
    """
    sub = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = SUBCOMMAND_FLAGS[sub]
    if sub not in ("airy", "fall-time"):
        flags = flags + draw(st.sampled_from([["B"], ["B"], ROD, ["B"] + ROD]))
    values = {flag: draw(CLI_FLAGS[flag][0]) for flag in flags}
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
        values[flag] = draw(CLI_FLAGS[flag][1])
    return [sub] + [f"--{flag}={value}" for flag, value in values.items() if value is not None]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=cli_argv())
def test_cli_exits_cleanly_on_any_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    if code:
        messages = [line for line in lines if line.startswith(("error:", "numerical failure:"))]
        assert len(messages) == 1 and lines[-1] == messages[0], (argv, lines)
        assert "Traceback" not in err.getvalue()
        return
    text = out.getvalue()
    if "--format=csv" in argv:
        cells = {cell for row in text.splitlines() for cell in row.split(",")}
        assert not cells & {"nan", "inf", "-inf"}, (argv, text)
    else:
        flat = json.dumps(json.loads(text))
        assert not any(f'"{v}"' in flat for v in ("nan", "inf", "-inf")), (argv, text)
