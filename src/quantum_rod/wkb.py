"""Semiclassical (WKB) machinery for the rod's double well in angle.

Working in units of hbar^2/2J, the local momentum is sqrt(E - B cos
theta) and every phase integral below is dimensionless.  In these units
hbar*omega equals sqrt(2B) times the frequency expressed in units of
omega_c, and the B = 0 limit of the full-domain quantization reproduces
the hard-wall ladder E_n = n^2 exactly, which fixes the normalization of
the integrals.

Quantization conditions handled here:

* single well, below the barrier: action from the turning point to the
  wall equal to (n + 3/4)*pi, the 3/4 coming from one soft turning
  point (pi/4) plus one hard wall (pi/2);
* far above the barrier: full-domain action equal to n*pi.

Levels near the summit need the parabolic-cylinder treatment in
`summit`, which degenerates to both conditions in the appropriate
limits.

A doublet is one `WkbDoublet`.  Below the barrier its splitting is
(2/I) exp(-W), with the log ln(2/I) - W, which stays finite where
exp(-W) underflows (from B ~ 2e5 at n = 0); above it, the difference of
two ladder levels; in the summit gap between, `semiclassical_doublet`
has none.

Every phase integral is an elliptic integral, evaluated in closed form
with Carlson's symmetric R_F and R_D (B. C. Carlson, Numer. Algorithms
10, 13 (1995); DLMF 19.2, 19.29), scipy's `elliprf` and `elliprd`.
Measured from a turning point, the substitution v = sqrt(E - B cos
theta), or w = sqrt(B cos theta - E) under the barrier, turns each
integral into one symmetric integral with positive arguments, so nothing
cancels as E/B -> 0:

    well_action     (2/3) E^(3/2) R_D(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2)
    period_integral 2 sqrt(E) R_F(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2)
    barrier_action  (4/3) (B - E) R_D(0, 2B/(B+E), 1) / sqrt(B + E)

Above the barrier theta = pi - 2 phi turns `phase_integral` and
`full_action` into Legendre's E(phi|m) with m = 2B/(E + B) <= 1,
scipy's `ellipeinc`.  No phase integral here is a quadrature.  The three
are the scalar kernels of scipy.special.cython_special, loaded by
`_scipy_ext`: the ufuncs' own code without NumPy's per-call dispatch,
and each returns a Python float, so every phase integral does.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from ._scipy_ext import brentq, ellipeinc, elliprd, elliprf
from .errors import DomainError, InvalidParameterError, RegimeError, require_integer
from .spectrum import HALF_PI, require_potential

DEEP_WELL = "deep-well"
NEAR_SUMMIT = "near-summit"
ABOVE_BARRIER = "above-barrier"
# Relative widening of the closed-form level bounds, far above their
# floating-point error, so that each still brackets its level
BRACKET_MARGIN = 1e-9


def regime_of(energy: float, B: float) -> str:
    """Coarse semiclassical regime label based on (E - B)/(hbar*omega_c)."""
    if B <= 0.0:
        return ABOVE_BARRIER
    eps = (energy - B) / math.sqrt(2.0 * B)
    if eps < -2.0:
        return DEEP_WELL
    if eps > 2.0:
        return ABOVE_BARRIER
    return NEAR_SUMMIT


def turning_point(energy: float, B: float) -> float:
    """Classical turning angle theta0 = arccos(E/B) for 0 <= E <= B."""
    if B <= 0.0 or not 0.0 <= energy <= B < math.inf:
        raise DomainError(f"turning point needs 0 <= E <= B < inf, got E={energy}, B={B}")
    return math.acos(energy / B)


def _turning_point_action(energy: float, B: float, cos_theta: float) -> float:
    """Integral of sqrt(E - B cos t) from theta0 out to theta, for -B < E < B.

    With v = sqrt(E - B cos t) it is (2/3) v^3 R_D(B(1 + cos theta)/(B + E),
    B(1 - cos theta)/(B - E), 1) / sqrt(B^2 - E^2), for theta0 <= theta
    <= pi; a theta inside the barrier gives v = 0 and so 0.
    """
    v2 = max(energy - B * cos_theta, 0.0)
    scale = v2 * math.sqrt(v2 / (B + energy) / (B - energy))
    return 2.0 / 3.0 * scale * elliprd(B * (1.0 + cos_theta) / (B + energy),
                                       B * (1.0 - cos_theta) / (B - energy), 1.0)


def phase_integral(energy: float, B: float, lower: float, upper: float) -> float:
    """Integral of sqrt(max(E - B cos theta, 0)) from lower to upper, B >= 0.

    On [0, pi] it is the difference of an antiderivative at the limits.
    Below the barrier that is `_turning_point_action`, measured from
    theta0, so a limit inside the barrier is clamped up to theta0 and
    nothing cancels as E/B -> 0.  Above it, theta = pi - 2 phi gives
    -2 sqrt(E + B) E((pi - theta)/2|m) with m = 2B/(E + B) <= 1.  The
    integrand is even and 2 pi-periodic, which places any other limit.
    Raises DomainError unless B >= 0, E + B < inf and the limits are
    finite, or when the integral leaves the float range.
    """
    if not (B >= 0.0 and energy + B < math.inf):  # NaN fails too
        raise DomainError(f"phase integral needs B >= 0 and finite E + B, got E={energy}, B={B}")
    if energy + B <= 0.0:
        return 0.0  # E <= -B: the integrand vanishes everywhere
    if energy < B:
        def primitive(theta: float) -> float:
            return _turning_point_action(energy, B, math.cos(theta))
    else:
        m = 2.0 * B / (energy + B)
        scale = -2.0 * math.sqrt(energy + B)

        def primitive(theta: float) -> float:
            return scale * ellipeinc(0.5 * (math.pi - theta), m)
    if 0.0 <= lower <= math.pi and 0.0 <= upper <= math.pi:
        total = primitive(upper) - primitive(lower)
    elif not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError(f"phase integral limits must be finite, got {lower}, {upper}")
    else:
        at_zero = primitive(0.0)
        total = 0.0
        for theta, sign in ((upper, 1.0), (lower, -1.0)):
            turns = round(theta / (2.0 * math.pi))
            rest = theta - 2.0 * math.pi * turns  # in [-pi, pi]
            if turns:
                total += sign * 2 * turns * (primitive(math.pi) - at_zero)
            total += sign * math.copysign(primitive(abs(rest)) - at_zero, rest)
    if not math.isfinite(total):
        raise DomainError(f"phase integral of E={energy}, B={B} from {lower} to {upper} "
                          "leaves the float range")
    return total


def well_action(energy: float, B: float) -> float:
    """Action from the turning point to the wall, 0 <= E <= B.

    Closed form (2/3) E^(3/2) R_D(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2):
    zero at E = 0, and `max_well_action` at E = B.  Raises DomainError
    when the action leaves the float range.
    """
    turning_point(energy, B)  # domain check
    if energy == B:
        return max_well_action(B)
    action = _turning_point_action(energy, B, 0.0)
    if not math.isfinite(action):
        raise DomainError(f"well action of E={energy}, B={B} leaves the float range")
    return action


def barrier_action(energy: float, B: float) -> float:
    """Barrier penetration integral W = int sqrt(B cos theta - E) dtheta.

    Taken across the classically forbidden region [-theta0, theta0], in
    the closed form (4/3) (B - E) R_D(0, 2B/(B+E), 1) / sqrt(B + E).
    Raises DomainError unless 0 < 2B < inf and 0 <= E <= B.
    """
    if not 0.0 < 2.0 * B < math.inf:  # so E + B cannot overflow either
        raise DomainError(f"barrier action needs 0 < 2B < inf, got B={B}")
    if energy > B:
        raise DomainError(f"no barrier above the summit: E={energy} > B={B}")
    if not energy >= 0.0:
        raise DomainError(f"energy must be >= 0 (the wells sit at E = 0), got {energy}")
    w = 4.0 / 3.0 * (B - energy) * elliprd(0.0, 2.0 * B / (B + energy), 1.0)
    return w / math.sqrt(B + energy)


def period_integral(energy: float, B: float) -> float:
    """Integral of dtheta / sqrt(E - B cos theta) over one well traversal.

    Closed form 2 sqrt(E) R_F(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2) for
    0 <= E <= B; it is zero at E = 0 and diverges logarithmically as E
    reaches the summit, where it returns inf.  Below the summit, a
    E/(B^2 - E^2) that under- or overflows raises DomainError.
    """
    turning_point(energy, B)  # domain check
    if energy == B:
        return math.inf
    scale = math.sqrt(energy / (B + energy) / (B - energy))
    if not (0.0 < scale < math.inf or energy == 0.0):  # so 2/interval cannot overflow
        raise DomainError(f"the period integral at E={energy}, B={B} leaves the float range")
    return 2.0 * scale * elliprf(B / (B + energy), B / (B - energy), 1.0)


def max_well_action(B: float) -> float:
    """Single-well action at the summit energy: sqrt(B)*(2*sqrt(2) - 2)."""
    require_potential(B)
    return math.sqrt(B) * (2.0 * math.sqrt(2.0) - 2.0)


def known_ends(f: Callable[[float], float], a: float, fa: float,
               b: float, fb: float) -> Callable[[float], float]:
    """f, answering with fa at a and fb at b instead of calling it there.

    brentq evaluates its bracket's two ends first; a quantizer that has
    evaluated them already hands them over through this.
    """
    return lambda x: fa if x == a else fb if x == b else f(x)


def single_well_quantize(n: int, B: float) -> float:
    """Below-barrier level: root of well_action(E) = (n + 3/4)*pi.

    The bracket runs from E = 0, where well_action is exactly 0, so it
    reaches the deepest level at any B (the 1 g rod's E_0 ~ 1e40 sits 20
    decades below B ~ 3e59), up to the linear-well root E_lin =
    (3/2 (n + 3/4) pi B)^(2/3), widened by BRACKET_MARGIN and capped at
    B.  E_lin bounds the level from above: cos t <= pi/2 - t on
    [0, pi/2], so well_action(E) >= (2/3) E^(3/2) / B; at B it is
    max_well_action(B), above every admitted level.

    Verified for B <= 1e230, where the roots lie within 2e-14 of the
    deep-well limit; beyond it well_action's E/B^2 underflows, and B is
    refused with InvalidParameterError, as is an n that is not an integer
    or is negative.  Raises RegimeError when level n does not fit under
    the barrier, in which case the summit or high-energy conditions apply
    instead, and when the root is B itself, the summit, where the period
    diverges.
    """
    require_integer("n", n, least=0)
    if not B <= 1e230:  # NaN fails too
        raise InvalidParameterError(f"single-well levels are verified for B <= 1e230, got {B}")
    if B <= 0.0:
        raise RegimeError("no well below the barrier for B = 0")
    target = (n + 0.75) * math.pi
    if target >= max_well_action(B):
        raise RegimeError(
            f"level n={n} lies at or above the summit for B={B}; "
            "use the summit or high-energy quantization"
        )

    def residual(energy: float) -> float:
        return well_action(energy, B) - target

    # each factor to the power apart: 1.5 * target * B overflows from B ~ 3e205 on
    hi = min((1.5 * target) ** (2.0 / 3.0) * B ** (2.0 / 3.0) * (1.0 + BRACKET_MARGIN), B)
    energy = brentq(known_ends(residual, 0.0, -target, hi, residual(hi)), 0.0, hi)
    if energy == B:
        raise RegimeError(
            f"level n={n} for B={B} converges onto the summit E = B, where the period "
            "diverges; use the summit quantization"
        )
    return energy


def full_action(energy: float, B: float) -> float:
    """Action across the whole domain for E >= B >= 0 (no turning points).

    With m = 2B/(E + B) <= 1 this is 4 sqrt(E + B) [E(m) - E(pi/4|m)],
    which is pi sqrt(E) at B = 0.
    """
    if not 0.0 <= B <= energy < math.inf:
        raise DomainError(f"full-domain action needs 0 <= B <= E < inf, got E={energy}, B={B}")
    return 2.0 * phase_integral(energy, B, 0.0, HALF_PI)


def high_energy_quantize(n: int, B: float) -> float:
    """Above-barrier level: root of full_action(E) = n*pi, n = 1, 2, ...

    Exact at B = 0 (E_n = n^2); for B > 0 a warning marks results that
    are not far above the barrier, where the summit treatment is better.
    The bracket is [max(B, n^2 + 2B/pi), n^2 + B], widened by
    BRACKET_MARGIN: pi sqrt(E - B) <= full_action(E) <= pi sqrt(E -
    2B/pi), the mean of cos over the domain being 2/pi and the upper
    bound Jensen's.  An n that is not an integer, or is below 1, is
    refused with InvalidParameterError, and one whose n^2 or bracket end
    overflows with DomainError.
    """
    require_integer("n", n, least=1)
    try:
        square = float(n) ** 2
    except OverflowError as exc:
        raise DomainError(f"level n={n} lies beyond the float range") from exc
    target = n * math.pi
    floor = full_action(B, B)
    if target <= floor:
        raise RegimeError(
            f"level n={n} sits below the barrier summit for B={B}; "
            "use the single-well quantization"
        )

    def residual(energy: float) -> float:
        return full_action(energy, B) - target

    lo = max(B, (square + 2.0 * B / math.pi) * (1.0 - BRACKET_MARGIN))
    hi = (square + B) * (1.0 + BRACKET_MARGIN)
    if hi == math.inf:
        raise DomainError(f"level n={n} lies beyond the float range")
    f_lo = floor - target if lo == B else residual(lo)
    energy = brentq(known_ends(residual, lo, f_lo, hi, residual(hi)), lo, hi)
    if B > 0.0 and energy < 5.0 * B:
        warnings.warn(
            f"E={energy:.4g} is not far above the barrier B={B:.4g}; "
            "the degeneracy-free ladder is only asymptotic here",
            stacklevel=2,
        )
    return energy


@dataclass(frozen=True)
class WkbDoublet:
    """Semiclassical doublet n: center, splitting, its log and barrier action W.

    `action` is None for a pair of the above-barrier ladder.
    """

    n: int
    center: float
    splitting: float
    log_splitting: float
    action: float | None
    regime: str


def doublet_prediction(n: int, B: float) -> WkbDoublet:
    """Center from the single-well condition, splitting from tunneling.

    The splitting is (hbar*omega/pi) exp(-W) at the center E.  In internal
    units hbar*omega = 2*pi / I, with I the `period_integral`, so it is
    (2/I) exp(-W), and its log ln(2/I) - W.  Valid for W somewhat above
    1: near the summit the exponent is small, which `action` < 1 shows.
    Works at any B up to `single_well_quantize`'s 1e230: for the 1 g,
    10 cm rod (B ~ 2.94e59) the centres sit on the deep-well limit
    B^(2/3) [3 pi/2 (n + 3/4)]^(2/3), the splitting exp(-W) underflows to
    0.0, and `action` carries W ~ 1.3e30 and `log_splitting` about -W.
    """
    center = single_well_quantize(n, B)
    w = barrier_action(center, B)
    prefactor = 2.0 / period_integral(center, B)
    return WkbDoublet(n=n, center=center, splitting=prefactor * math.exp(-w),
                      log_splitting=math.log(prefactor) - w, action=w,
                      regime=regime_of(center, B))


def semiclassical_doublet(n: int, B: float) -> WkbDoublet | None:
    """Doublet n by the route its regime takes, or None in the summit gap.

    Below the barrier it is `doublet_prediction`.  Above it the levels
    2n + 1 and 2n + 2 of `high_energy_quantize` give the center (their
    mean) and the splitting (their difference).  Where level n is too high
    for one well and too low for the full domain, only `summit` has a
    route.
    """
    try:
        return doublet_prediction(n, B)
    except RegimeError:
        pass
    try:
        lo = high_energy_quantize(2 * n + 1, B)
        hi = high_energy_quantize(2 * n + 2, B)
    except RegimeError:
        return None
    return WkbDoublet(n=n, center=0.5 * (lo + hi), splitting=hi - lo,
                      log_splitting=math.log(hi - lo), action=None, regime=ABOVE_BARRIER)
