"""Barrier-summit quantization via parabolic-cylinder asymptotics.

Close to the summit the potential is an inverted parabola.  With the
angular scale s = sqrt(hbar/(J*omega_c)) (s^4 * B = 2 in internal
units), xi = theta/s, and epsilon = (E - V0)/(hbar*omega_c), the inner
equation is psi'' + (2*epsilon + xi^2) psi = 0.  Matching its exact
even/odd solutions to WKB waves on both sides replaces the familiar
turning-point pi/4 by an epsilon-dependent phase correction built from
arg Gamma(1/2 + i*epsilon).

The exact arg Gamma, `half_arg_gamma_exact`, comes from the scalar
`loggamma` of scipy.special.cython_special (loaded by `_scipy_ext`),
which returns a Python complex; the smooth fit `half_arg_gamma_fit`
used throughout the quantization is

    (1/2) arg Gamma(1/2 + i*eps) ~ (eps/2) * ln sqrt((eps/e)^2 + (1/4g)^2)

with 4g = 4 * 1.78107 (g is exp(Euler-Mascheroni) to the figures used
in the fit).  The fit has the exact slope at eps = 0 and stays within a
few hundredths of a radian out to |eps| ~ 5; its error is the
difference of the two functions.

Each formula is one function returning plain floats: `phase_delta`
gives the even/odd pair of phase corrections and `quadratic_action` the
exact inner action.  The tests check the parity offset pi/4 that these
build against the exact summit solutions, by ODE and by Bessel functions.

`summit_quantize` bisects the 81-point window |epsilon| <= EPS_WINDOW
for the cell that holds a level and hands brentq the residuals it has at
the cell's ends: 11 to 15 phase evaluations in all from B = 216 to 1e12,
12.4 on average.  Only where the window's ends do not bracket the level,
which happens once it reaches down to E <~ 0 (B <~ 215), does it scan
all 81.

The inner and outer regions are matched at xi = XI_MATCH, moved further
out when the parabolic turning point approaches it.  The matching point
is a numerical device, not a parameter of the rod, so it is a constant.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ._scipy_ext import brentq, loggamma
from .errors import DomainError, InvalidParameterError, RegimeError, require_integer
from .spectrum import EVEN, HALF_PI, ODD
from .wkb import known_ends, phase_integral

FIT_GAMMA = 1.78107          # exp(Euler-Mascheroni) as used in the phase fit
FIT_C = 1.0 / (4.0 * FIT_GAMMA)
EPS_WINDOW = 10.0  # summit_quantize searches |epsilon| <= EPS_WINDOW
XI_MATCH = 3.0     # matching point of the parabolic region, in xi


def half_arg_gamma_exact(epsilon: float) -> float:
    """(1/2) arg Gamma(1/2 + i*epsilon), continuous through epsilon = 0."""
    return 0.5 * loggamma(complex(0.5, epsilon)).imag


def half_arg_gamma_fit(epsilon: float) -> float:
    """Smooth logarithmic fit to half_arg_gamma_exact (see module docs)."""
    return 0.25 * epsilon * math.log((epsilon / math.e) ** 2 + FIT_C**2)


def _arctan_exp(x: float) -> float:
    """arctan(exp(x)) without overflow for large positive x."""
    if x > 30.0:
        return HALF_PI - math.exp(-x)
    return math.atan(math.exp(x))


def _eps_log(epsilon: float) -> float:
    """(eps/2) * ln(|eps|/e), with the eps -> 0 limit handled.

    |eps|/e is 0 for eps = 0 and for the least subnormal eps alone.
    """
    ratio = abs(epsilon) / math.e
    if ratio == 0.0:
        return 0.0
    return 0.5 * epsilon * math.log(ratio)


def phase_delta(epsilon: float) -> tuple[float, float]:
    """Summit phase corrections (delta_plus, delta_minus) at epsilon.

    The even/odd corrections that replace the usual turning-point pi/4 in
    the quantization condition and the outgoing-wave phase:

    delta = (eps/2) ln(|eps|/e) - (eps/2) ln sqrt((eps/e)^2 + (1/4g)^2)
            +/- (1/2) arctan(e^(pi*eps)).

    They are continuous through epsilon = 0 by construction: the
    regime-dependent pi/4 bookkeeping of the raw matching formulas
    cancels against the arctan term.  Deep below the summit the arctan
    term collapses to +/- e^(pi*eps)/2, half the tunneling exponential;
    far above it tends to +/- pi/4, recovering the degeneracy-free
    above-barrier phases.  Raises DomainError unless epsilon is finite
    and squares without overflow.
    """
    if not math.isfinite(epsilon):
        raise DomainError("epsilon must be finite")
    try:
        core = _eps_log(epsilon) - half_arg_gamma_fit(epsilon)
    except OverflowError as exc:  # (eps/e)^2, from |eps| ~ 3.6e154 on
        raise DomainError(f"epsilon={epsilon} is too large to square") from exc
    wave = 0.5 * _arctan_exp(math.pi * epsilon)
    return core + wave, core - wave


def wavepacket_phase_derivative(epsilon: float) -> float:
    """d/d(eps) of the even-wave phase that enters the stationary-phase fall time.

    That phase is delta_plus of `phase_delta` with its (eps/2) ln(|eps|/e)
    term absorbed into the action:
    -(eps/2) ln sqrt((eps/e)^2 + (1/4g)^2) + (1/2) arctan(e^(pi*eps)).
    The derivative equals ln sqrt(4g) + pi/4 at eps = 0.
    """
    c2 = FIT_C**2
    e2 = (epsilon / math.e) ** 2
    dlog = -0.25 * math.log(e2 + c2) - 0.5 * epsilon**2 / (math.e**2 * (e2 + c2))
    x = math.pi * epsilon
    if x > 30.0:
        datan = 0.5 * math.pi * math.exp(-x)
    else:
        ex = math.exp(x)
        datan = 0.5 * math.pi * ex / (1.0 + ex * ex)
    return dlog + datan


def quadratic_action(epsilon: float, xi: float) -> float:
    """Exact phase integral of sqrt(2*eps + xi'^2) from the inner edge to xi.

    The lower limit is the parabolic turning point sqrt(2|eps|) for
    eps < 0 and the summit xi' = 0 for eps >= 0.  Closed form; at
    eps = 0 it reduces to xi^2/2 exactly.  Raises DomainError unless
    xi >= 0 and xi^2 + 2|eps| is finite, or when the action overflows.
    """
    if not (xi >= 0.0 and xi * xi + 2.0 * abs(epsilon) < math.inf):  # NaN fails too
        raise DomainError(f"need xi >= 0 and finite xi^2 + 2|epsilon|, got epsilon={epsilon}, "
                          f"xi={xi}")
    if epsilon == 0.0:
        return 0.5 * xi * xi
    m = 2.0 * abs(epsilon)
    if epsilon < 0.0 and xi * xi < m:
        raise DomainError(f"xi={xi} inside the forbidden region (xi0={math.sqrt(m):.4g})")
    sign = math.copysign(1.0, epsilon)
    r = math.sqrt(xi * xi + sign * m)
    action = 0.5 * (xi * r + sign * m * math.log((xi + r) / math.sqrt(m)))
    if not math.isfinite(action):
        raise DomainError(f"quadratic action overflows at epsilon={epsilon}, xi={xi}")
    return action


def summit_scale(B: float) -> float:
    """Summit angular scale s = (2/B)^(1/4) in internal units."""
    if not (0.0 < B < math.inf and 2.0 / B < math.inf):  # NaN fails too
        raise InvalidParameterError(f"summit scale needs 0 < B < inf and finite 2/B, got {B}")
    return (2.0 / B) ** 0.25


def _matching_xi(epsilon: float) -> float:
    """Matching point in xi: XI_MATCH, or further out when the parabolic
    turning point sqrt(-2 eps) approaches it."""
    return max(XI_MATCH, 1.3 * math.sqrt(max(2.0 * -epsilon, 0.0) + 1.0))


def summit_phase(energy: float, B: float, parity: str) -> float:
    """Total accumulated phase at the wall for a near-summit energy.

    Assembled as quadratic_action out to the matching angle
    XI_MATCH * s, plus the exact-potential action from there to the
    wall, plus the phase correction for the requested parity.  The
    epsilon*ln(epsilon) bookkeeping cancels between the first and last
    pieces: quadratic_action's asymptote subtracts the same
    (eps/2)ln(|eps|/e) that the phase correction carries, so the total
    tends to xi^2/2 + eps*ln(xi*sqrt(2)) plus the parity offset, and a
    node at the wall lands exactly on the (n + 3/4)*pi ladder.  The
    matching angle grows automatically when the parabolic turning point
    approaches it; past about 0.6 rad the quadratic approximation of the
    potential is strained, which `summit_quantize` warns of for its root.
    """
    if parity not in (EVEN, ODD):
        raise InvalidParameterError(f"parity must be even or odd, got {parity!r}")
    s = summit_scale(B)
    eps = (energy - B) / math.sqrt(2.0 * B)
    xi_eff = _matching_xi(eps)
    delta_theta = xi_eff * s
    inner = quadratic_action(eps, xi_eff)
    outer = phase_integral(energy, B, delta_theta, HALF_PI)
    delta_plus, delta_minus = phase_delta(eps)
    return inner + outer + (delta_plus if parity == EVEN else delta_minus)


def summit_quantize(n: int, B: float, parity: str) -> float:
    """Level n of the given parity from the summit quantization.

    Solves summit_phase(E) = (n + 3/4)*pi for E inside the window
    |epsilon| <= EPS_WINDOW around the barrier top, sampled at 81 evenly
    spaced epsilon.  When the residual is negative at the low end and
    positive at the high end, bisecting the grid indices (at most 7
    evaluations) finds the cell where it changes sign, which brentq
    finishes from the residuals already known at its ends; a grid point
    where it is exactly 0 is the root.  Wherever the ends bracket, the
    phase rises through the whole window (checked from B ~ 215 to 1e12,
    both parities), so this is the cell, and the root, that a
    left-to-right scan finds.  Otherwise the window reaches down to
    E <~ 0 (B <~ 215), where the phase need not be monotone, and the
    first sign change of a scan of all 81 points is taken.

    Raises InvalidParameterError unless n is an integer >= 0 (bool
    refused).  Raises RegimeError when the requested level does not fall
    in the window, or when the matching angle of the root reaches the
    wall at pi/2, where the summit model has no outer region left (the
    window may cross the wall; only the root is held to it).  A root
    whose matching angle exceeds 0.6 rad is returned with a UserWarning
    that the quadratic summit region is left.
    """
    require_integer("n", n, least=0)
    s = summit_scale(B)  # validates B
    hw = math.sqrt(2.0 * B)
    target = (n + 0.75) * math.pi

    def residual(energy: float) -> float:
        return summit_phase(energy, B, parity) - target

    eps_grid = np.linspace(-EPS_WINDOW, EPS_WINDOW, 81)
    energies = (B + eps_grid * hw).tolist()  # floats: numpy scalars slow the scan
    low, high = residual(energies[0]), residual(energies[-1])
    root = None
    if low < 0.0 < high:  # the phase rises through the window: bisect for the cell
        lo, hi = 0, len(energies) - 1
        while hi - lo > 1 and root is None:
            mid = (lo + hi) // 2
            value = residual(energies[mid])
            if value == 0.0:
                root = energies[mid]
            elif value < 0.0:
                lo, low = mid, value
            else:
                hi, high = mid, value
        if root is None:
            root = brentq(known_ends(residual, energies[lo], low, energies[hi], high),
                          energies[lo], energies[hi])
    else:  # below E ~ 0 the phase need not be monotone: take the first sign change
        values = [low] + [residual(e) for e in energies[1:-1]] + [high]
        for k in range(len(values) - 1):
            if values[k] == 0.0:
                root = energies[k]
                break
            if values[k] * values[k + 1] < 0.0:
                root = brentq(known_ends(residual, energies[k], values[k],
                                         energies[k + 1], values[k + 1]),
                              energies[k], energies[k + 1])
                break
    if root is None:
        raise RegimeError(
            f"no {parity} level with n={n} within |epsilon| <= {EPS_WINDOW} of the summit"
        )
    delta_theta = _matching_xi((root - B) / hw) * s
    if not delta_theta < HALF_PI:
        raise RegimeError(
            f"{parity} level n={n} at B={B:g}: matching angle {delta_theta:.3f} rad "
            "reaches the wall at pi/2, so the summit model does not apply"
        )
    if delta_theta > 0.6:
        warnings.warn(
            f"matching angle {delta_theta:.3f} rad leaves the quadratic summit region",
            stacklevel=2,
        )
    return root

