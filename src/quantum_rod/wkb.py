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
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError, InvalidParameterError, RegimeError

HALF_PI = 0.5 * math.pi

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
    if B <= 0.0 or not 0.0 <= energy <= B:
        raise DomainError(f"turning point needs 0 <= E <= B, got E={energy}, B={B}")
    return math.acos(energy / B)


def phase_integral(energy: float, B: float, lower: float, upper: float) -> float:
    """Plain quadrature of sqrt(E - B cos theta) over [lower, upper].

    The caller must keep the integrand non-negative on the interval.
    """
    val, _ = quad(lambda t: math.sqrt(max(energy - B * math.cos(t), 0.0)),
                  lower, upper, limit=200)
    return val


def well_action(energy: float, B: float) -> float:
    """Action from the turning point to the wall, singularity removed.

    Substituting theta = theta0 + u^2 turns the sqrt zero at the turning
    point into a smooth integrand.
    """
    theta0 = turning_point(energy, B)
    span = HALF_PI - theta0

    def f(u: float) -> float:
        return 2.0 * u * math.sqrt(max(energy - B * math.cos(theta0 + u * u), 0.0))

    val, _ = quad(f, 0.0, math.sqrt(span), limit=200)
    return val


def barrier_action(energy: float, B: float, method: str = "substitution") -> float:
    """Barrier penetration integral W = int sqrt(B cos theta - E) dtheta.

    Taken across the classically forbidden region [-theta0, theta0].
    `method` selects the regularized substitution (default) or raw
    adaptive quadrature; the two agree to ~1e-9 and the second exists as
    an internal cross-check.
    """
    if B <= 0.0:
        raise DomainError("barrier action needs B > 0")
    if energy > B:
        raise DomainError(f"no barrier above the summit: E={energy} > B={B}")
    if energy < 0.0:
        raise DomainError("energy must be >= 0 (the wells sit at E = 0)")
    if energy == B:
        return 0.0
    theta0 = turning_point(energy, B)
    if method == "adaptive":
        val, _ = quad(lambda t: math.sqrt(max(B * math.cos(t) - energy, 0.0)),
                      -theta0, theta0, limit=200)
        return val
    if method != "substitution":
        raise InvalidParameterError(f"unknown method {method!r}")

    def f(u: float) -> float:
        return 2.0 * u * math.sqrt(max(B * math.cos(theta0 - u * u) - energy, 0.0))

    val, _ = quad(f, 0.0, math.sqrt(theta0), limit=200)
    return 2.0 * val


def period_integral(energy: float, B: float) -> float:
    """Integral of dtheta / sqrt(E - B cos theta) over one well traversal.

    The same theta = theta0 + u^2 substitution as in `well_action`
    removes the inverse square-root singularity at the turning point:
    the transformed integrand tends to 2/sqrt(B sin theta0) at u = 0.
    """
    theta0 = turning_point(energy, B)
    span = HALF_PI - theta0

    def g(u: float) -> float:
        if u == 0.0:
            return 2.0 / math.sqrt(B * math.sin(theta0)) if theta0 > 0.0 else math.inf
        return 2.0 * u / math.sqrt(max(energy - B * math.cos(theta0 + u * u), 1e-300))

    val, _ = quad(g, 0.0, math.sqrt(span), limit=200)
    return val


def classical_frequency(energy: float, B: float) -> float:
    """Oscillation frequency in one well, in units of omega_c.

    The classical bounce runs from the turning point to the wall and
    back, so the period is twice the traversal time; it diverges
    logarithmically as E approaches the summit from below.
    """
    if B <= 0.0:
        raise InvalidParameterError("omega_c units need B > 0")
    if not 0.0 < energy < B:
        raise DomainError(f"well motion needs 0 < E < B, got E={energy}")
    period = math.sqrt(2.0 * B) * period_integral(energy, B)
    return 2.0 * math.pi / period


@dataclass(frozen=True)
class SplittingResult:
    """Tunneling splitting of a doublet, with its ingredients."""

    splitting: float      # E_minus - E_plus, units hbar^2/2J
    action: float         # barrier action W
    omega: float          # well frequency, units omega_c
    regime: str


def tunneling_splitting(energy: float, B: float) -> SplittingResult:
    """Splitting (hbar*omega/pi) * exp(-W) of the doublet centered at E.

    In internal units hbar*omega = 2*pi / period_integral, so the
    splitting reduces to (2/I) exp(-W).  Valid for W somewhat above 1;
    a warning is emitted near the summit where the exponent is small.
    """
    w = barrier_action(energy, B)
    regime = regime_of(energy, B)
    if w < 1.0:
        warnings.warn(
            f"barrier action W={w:.3f} < 1: splitting formula unreliable near the summit",
            stacklevel=2,
        )
    interval = period_integral(energy, B)
    splitting = (2.0 / interval) * math.exp(-w)
    return SplittingResult(splitting=splitting, action=w,
                           omega=classical_frequency(energy, B), regime=regime)


def max_well_action(B: float) -> float:
    """Single-well action at the summit energy: sqrt(B)*(2*sqrt(2) - 2)."""
    return math.sqrt(B) * (2.0 * math.sqrt(2.0) - 2.0)


def single_well_quantize(n: int, B: float) -> float:
    """Below-barrier level: root of well_action(E) = (n + 3/4)*pi.

    Raises RegimeError when level n does not fit under the barrier, in
    which case the summit or high-energy conditions apply instead.
    """
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if B <= 0.0:
        raise RegimeError("no well below the barrier for B = 0")
    target = (n + 0.75) * math.pi
    if target >= max_well_action(B):
        raise RegimeError(
            f"level n={n} lies at or above the summit for B={B}; "
            "use the summit or high-energy quantization"
        )
    lo, hi = 1e-12 * B, B * (1.0 - 1e-12)
    if well_action(lo, B) - target > 0.0:
        # brentq would raise a bare ValueError; keep the typed error
        raise InvalidParameterError(f"no sign change in [{lo}, {hi}]")
    return brentq(lambda e: well_action(e, B) - target, lo, hi)


def low_energy_levels(n: int, B: float) -> float:
    """Closed-form deep level B^(2/3) * [3*pi/2*(n + 3/4)]^(2/3).

    Linearizes the wall-side potential, valid while the classical
    amplitude stays small against the full quarter circle.
    """
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return B ** (2.0 / 3.0) * (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)


def full_action(energy: float, B: float) -> float:
    """Action across the whole domain for E >= B (no turning points)."""
    if energy < B:
        raise DomainError("full-domain action needs E >= B")
    val, _ = quad(lambda t: math.sqrt(max(energy - B * math.cos(t), 0.0)),
                  -HALF_PI, HALF_PI, points=[0.0], limit=200)
    return val


def high_energy_quantize(n: int, B: float) -> float:
    """Above-barrier level: root of full_action(E) = n*pi, n = 1, 2, ...

    Exact at B = 0 (E_n = n^2); for B > 0 a warning marks results that
    are not far above the barrier, where the summit treatment is better.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    target = n * math.pi
    floor_action = full_action(B, B) if B > 0.0 else 0.0
    if target <= floor_action:
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
    omega: float
    regime: str

    @property
    def e_plus(self) -> float:
        return self.center - 0.5 * self.splitting

    @property
    def e_minus(self) -> float:
        return self.center + 0.5 * self.splitting


def doublet_prediction(n: int, B: float) -> WkbDoublet:
    """Center from the single-well condition, splitting from tunneling."""
    center = single_well_quantize(n, B)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = tunneling_splitting(center, B)
    return WkbDoublet(n=n, center=center, splitting=sp.splitting,
                      action=sp.action, omega=sp.omega, regime=sp.regime)
