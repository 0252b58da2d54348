"""Independent routes that the tests check the package against.

No program of the package calls these: each is a second way to a number
that `src/` computes otherwise, or a measure of a property that `src/`
relies on.  Those with input guards raise the package's typed errors,
which `test_properties` holds them to as it holds the library.
"""
import math
import sys
import warnings

import numpy as np
from scipy.integrate import quad, solve_ivp

from quantum_rod._scipy_ext import brentq
from quantum_rod.errors import DomainError, InvalidParameterError, RegimeError
from quantum_rod.spectrum import HALF_PI, potential, simpson
from quantum_rod.summit import (EPS_WINDOW, _arctan_exp, _eps_log, _matching_xi,
                                half_arg_gamma_fit, summit_phase, summit_scale)
from quantum_rod.wkb import full_action, max_well_action, period_integral, turning_point, well_action


def summit_phase_difference() -> float:
    """Even/odd asymptotic phase difference at the summit, by direct ODE.

    Integrates psi'' + xi^2 psi = 0 (epsilon = 0) with even and odd
    initial data out to xi = 60 and measures the difference of the
    instantaneous WKB phases over the last 30% of that range.  Exact
    value: pi/4.  Serves as an independent check on the matching
    formulas; the error falls like 1/xi^2.
    """
    xi_max = 60.0

    def rhs(xi, y):
        return [y[1], -(xi * xi) * y[0]]

    window = np.linspace(0.7 * xi_max, xi_max, 201)
    sols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (0.0, xi_max), y0, t_eval=window,
                        rtol=1e-10, atol=1e-13, method="DOP853")
        if not sol.success:
            raise RegimeError(f"summit ODE integration failed: {sol.message}")
        sols.append(sol)
    # At epsilon = 0 the local wavenumber is k = xi: writing
    # psi = (A/sqrt(k)) cos(Phi) gives Phi = atan2(-psi'/sqrt(k), psi*sqrt(k)).
    sqrt_k = np.sqrt(window)
    phases = [
        np.unwrap(np.arctan2(-sol.y[1] / sqrt_k, sol.y[0] * sqrt_k)) for sol in sols
    ]
    diff = np.mod(phases[0] - phases[1], 2.0 * math.pi)
    return float(np.median(diff))


def mathieu_residual(result, k: int) -> float:
    """Pointwise residual of level k of a `SpectrumResult` in the angular Mathieu form.

    With eta = theta/2 the stationary equation is the Mathieu equation
    with characteristic value a = 4E and parameter q = 2B; evaluated in
    theta this is psi'' + (E - B cos theta) psi = 0.  The second
    derivative is taken with a fourth-order stencil and the maximum
    interior residual is normalized by E * max|psi|.  The residual
    scales as O(h^2), so fine grids are needed to push it below 1e-4.
    Raises InvalidParameterError unless 0 <= k < len(result.levels).
    """
    if not 0 <= k < len(result.levels):
        raise InvalidParameterError(f"level k={k} not in 0..{len(result.levels) - 1}")
    lv, wf = result.levels[k], result.wavefunctions[k]
    h = wf.grid[1] - wf.grid[0]
    psi = wf.values
    d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1] - psi[4:]) / (
        12 * h**2
    )
    v = potential(wf.grid[2:-2], result.B, result.tilt)
    residual = d2 + (lv.energy - v) * psi[2:-2]
    return float(np.max(np.abs(residual)) / (max(abs(lv.energy), 1.0) * np.max(np.abs(psi))))


def asymptotic_action(epsilon: float, xi: float) -> float:
    """Large-xi form of `summit.quadratic_action`:

    xi^2/2 + (eps/2) ln(2 xi^2) - (eps/2) ln(|eps|/e),

    which differs from it by O(eps^2/xi^2).  Raises DomainError unless
    xi^2 > 0 and the result is finite (NaN in either argument fails).
    """
    if not xi * xi > 0.0:
        raise DomainError(f"asymptotic form needs xi^2 > 0, got xi={xi}")
    action = 0.5 * xi * xi + 0.5 * epsilon * math.log(2.0 * xi * xi) - _eps_log(epsilon)
    if not math.isfinite(action):
        raise DomainError(f"asymptotic action overflows at epsilon={epsilon}, xi={xi}")
    return action


def wavepacket_phase(epsilon: float) -> float:
    """The phase that `summit.wavepacket_phase_derivative` differentiates.

    This is delta_plus with the (eps/2) ln(|eps|/e) term absorbed into
    the action, i.e. -(eps/2) ln sqrt((eps/e)^2+(1/4g)^2) + arctan/2.
    """
    return -half_arg_gamma_fit(epsilon) + 0.5 * _arctan_exp(math.pi * epsilon)


def uncertainty_product(state) -> tuple[float, float, float]:
    """(delta_theta, delta_L, product) for a Gaussian `InitialState`, hbar = 1.

    delta_L uses the analytic derivative -theta/sigma^2 * psi, so both
    factors reduce to quadratures of explicit smooth functions; the
    product is hbar/2 up to truncation, which is negligible for
    sigma <= 0.1.
    """
    theta, psi = state.grid, state.values
    dens = psi**2
    mean = float(simpson(theta * dens, x=theta))
    var = float(simpson((theta - mean) ** 2 * dens, x=theta))
    dpsi = -(theta / state.sigma**2) * psi
    l2 = float(simpson(dpsi**2, x=theta))
    d_theta, d_l = math.sqrt(var), math.sqrt(l2)
    return d_theta, d_l, d_theta * d_l


def closed_form_energy(sigma: float, B: float) -> float:
    """Gaussian energy expectation 1/(2 sigma^2) + B exp(-sigma^2/4)."""
    if not math.sqrt(sys.float_info.min) < sigma < math.sqrt(sys.float_info.max):  # sigma^2 normal
        raise InvalidParameterError(f"need 1.5e-154 < sigma < 1.3e154, got {sigma}")
    energy = 1.0 / (2.0 * sigma**2) + B * math.exp(-(sigma**2) / 4.0)
    if not math.isfinite(energy):
        raise InvalidParameterError(f"the energy at sigma={sigma}, B={B} is not finite")
    return energy


def classical_frequency(energy: float, B: float) -> float:
    """Oscillation frequency in one well, in units of omega_c.

    The classical bounce runs from the turning point to the wall and
    back, so the period is twice the traversal time; it diverges
    logarithmically as E approaches the summit from below.  Raises
    DomainError when the period, sqrt(2B) times `wkb.period_integral`,
    leaves the float range.
    """
    if B <= 0.0:
        raise InvalidParameterError("omega_c units need B > 0")
    if not 0.0 < energy < B:
        raise DomainError(f"well motion needs 0 < E < B, got E={energy}")
    period = math.sqrt(2.0 * B) * period_integral(energy, B)
    if not period < math.inf:
        raise DomainError(f"the period at E={energy}, B={B} leaves the float range")
    return 2.0 * math.pi / period


def barrier_action_quad(energy: float, B: float) -> float:
    """`wkb.barrier_action` by adaptive quadrature across [-theta0, theta0]."""
    theta0 = turning_point(energy, B)
    val, _ = quad(lambda t: math.sqrt(max(B * math.cos(t) - energy, 0.0)),
                  -theta0, theta0, limit=200)
    return val


def summit_quantize_scan(n: int, B: float, parity: str) -> float:
    """`summit.summit_quantize` by a left-to-right scan of the whole window.

    Evaluates the residual at all 81 grid points of |epsilon| <=
    EPS_WINDOW and hands the first cell whose sign changes to brentq (a
    grid point where it is exactly 0 is the root), with the same wall
    guard and warning.  `summit_quantize` bisects for that cell wherever
    the two ends of the window bracket a root, and must agree with this
    to the bit.
    """
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    s = summit_scale(B)
    hw = math.sqrt(2.0 * B)
    target = (n + 0.75) * math.pi

    def residual(energy: float) -> float:
        return summit_phase(energy, B, parity) - target

    energies = (B + np.linspace(-EPS_WINDOW, EPS_WINDOW, 81) * hw).tolist()
    values = [residual(e) for e in energies]
    root = None
    for k in range(len(values) - 1):
        if values[k] == 0.0:
            root = energies[k]
            break
        if values[k] * values[k + 1] < 0.0:
            root = brentq(residual, energies[k], energies[k + 1])
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


def single_well_quantize_full(n: int, B: float) -> float:
    """`wkb.single_well_quantize` by brentq over the whole well [0, B].

    The full bracket that the linear-well bound narrows; from E = 0 it
    bisects down to the level, up to 372 steps at B = 1e230.  It ended at
    B(1 - 1e-12) before, below the highest levels of a barrier above
    B ~ 1e20.
    """
    target = (n + 0.75) * math.pi
    if target >= max_well_action(B):
        raise RegimeError(f"level n={n} lies at or above the summit for B={B}")
    return brentq(lambda e: well_action(e, B) - target, 0.0, B, maxiter=500)


def high_energy_quantize_full(n: int, B: float) -> float:
    """`wkb.high_energy_quantize` by brentq over [B, (n + 1)^2 + 2B].

    The bracket that the bounds pi sqrt(E - B) <= full_action(E) <=
    pi sqrt(E - 2B/pi) narrow.
    """
    target = n * math.pi
    if target <= full_action(B, B):
        raise RegimeError(f"level n={n} sits below the barrier summit for B={B}")
    return brentq(lambda e: full_action(e, B) - target, B, (n + 1.0) ** 2 + 2.0 * B)
