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

Every phase integral is an elliptic integral, evaluated in closed form
with Carlson's symmetric R_F and R_D (B. C. Carlson, Numer. Algorithms
10, 13 (1995); DLMF 19.2, 19.29).  Measured from a turning point, the
substitution v = sqrt(E - B cos theta), or w = sqrt(B cos theta - E)
under the barrier, turns each integral into one symmetric integral with
positive arguments, so nothing cancels as E/B -> 0:

    well_action     (2/3) E^(3/2) R_D(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2)
    period_integral 2 sqrt(E) R_F(B/(B+E), B/(B-E), 1) / sqrt(B^2 - E^2)
    barrier_action  (4/3) (B - E) R_D(0, 2B/(B+E), 1) / sqrt(B + E)

Above the barrier theta = pi - 2 phi turns `phase_integral` and
`full_action` into Legendre's E(phi|m) with m = 2B/(E + B) <= 1.  No
phase integral here is a quadrature.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ._scipy_ext import brentq, ellipeinc, elliprd, elliprf
from .errors import DomainError, InvalidParameterError, RegimeError
from .spectrum import HALF_PI, PotentialSpec

DEEP_WELL = "deep-well"
NEAR_SUMMIT = "near-summit"
ABOVE_BARRIER = "above-barrier"


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


@dataclass(frozen=True)
class SplittingResult:
    """Tunneling splitting of a doublet, with its barrier action W."""

    splitting: float      # E_minus - E_plus, units hbar^2/2J
    action: float         # barrier action W
    regime: str


def tunneling_splitting(energy: float, B: float) -> SplittingResult:
    """Splitting (hbar*omega/pi) * exp(-W) of the doublet centered at E.

    In internal units hbar*omega = 2*pi / period_integral, so the
    splitting reduces to (2/I) exp(-W), with I the `period_integral`.
    Valid for W somewhat above 1: near the summit the exponent is small,
    which `action` < 1 shows.  Needs 0 < E < B, where I is positive and
    finite.
    """
    if not 0.0 < energy < B < math.inf:
        raise DomainError(f"tunneling needs 0 < E < B < inf, got E={energy}, B={B}")
    w = barrier_action(energy, B)
    regime = regime_of(energy, B)
    splitting = (2.0 / period_integral(energy, B)) * math.exp(-w)
    return SplittingResult(splitting=splitting, action=w, regime=regime)


def max_well_action(B: float) -> float:
    """Single-well action at the summit energy: sqrt(B)*(2*sqrt(2) - 2)."""
    PotentialSpec(B)  # validates B
    return math.sqrt(B) * (2.0 * math.sqrt(2.0) - 2.0)


def single_well_quantize(n: int, B: float) -> float:
    """Below-barrier level: root of well_action(E) = (n + 3/4)*pi.

    Verified for B <= 1e230, where the roots lie within 2e-14 of the
    deep-well limit; beyond it well_action's E/B^2 underflows, and B is
    refused with InvalidParameterError.  Raises RegimeError when level n
    does not fit under the barrier, in which case the summit or
    high-energy conditions apply instead.
    """
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
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
    # well_action(0) is exactly 0, so the bracket reaches the deepest level
    # at any B (the 1 g rod's E_0 ~ 1e40 sits 20 decades below B ~ 3e59);
    # bisecting down that far takes up to 372 steps at B = 1e230
    return brentq(lambda e: well_action(e, B) - target, 0.0, B * (1.0 - 1e-12), maxiter=500)


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
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    target = n * math.pi
    if target <= full_action(B, B):
        raise RegimeError(
            f"level n={n} sits below the barrier summit for B={B}; "
            "use the single-well quantization"
        )
    hi = (n + 1.0) ** 2 + 2.0 * B
    energy = brentq(lambda e: full_action(e, B) - target, B, hi)
    if B > 0.0 and energy < 5.0 * B:
        warnings.warn(
            f"E={energy:.4g} is not far above the barrier B={B:.4g}; "
            "the degeneracy-free ladder is only asymptotic here",
            stacklevel=2,
        )
    return energy


@dataclass(frozen=True)
class WkbDoublet:
    """Semiclassical prediction for doublet n: center and splitting."""

    n: int
    center: float
    splitting: float
    action: float
    regime: str


def doublet_prediction(n: int, B: float) -> WkbDoublet:
    """Center from the single-well condition, splitting from tunneling.

    Works at any B up to `single_well_quantize`'s 1e230: for the 1 g,
    10 cm rod (B ~ 2.94e59) the centres sit on the deep-well limit
    B^(2/3) [3 pi/2 (n + 3/4)]^(2/3), the splitting exp(-W) underflows to
    0.0, and `action` carries W ~ 1.3e30 instead.
    """
    center = single_well_quantize(n, B)
    sp = tunneling_splitting(center, B)
    return WkbDoublet(n=n, center=center, splitting=sp.splitting,
                      action=sp.action, regime=sp.regime)
