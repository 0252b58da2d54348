"""Wavepacket dynamics of the balanced rod and the fall-time estimates.

The initial state is the minimum-uncertainty Gaussian

    psi(theta, 0) = pi^(-1/4) sigma^(-1/2) exp(-theta^2 / 2 sigma^2),

truncated to the physical domain and renormalized.  Two propagators are
provided: an eigenbasis expansion (analytic in time, exactly norm and
energy conserving) and a Crank-Nicolson integrator on the same grid.
Crank-Nicolson is unitary for any step, so its norm and energy are
conserved to rounding; its phase error per mode scales as (E*dt)^3, so
the integrator internally shifts the Hamiltonian by the initial energy
expectation and restores the corresponding global phase afterwards,
which keeps the error controlled by the energy spread instead of the
absolute energy.  The tridiagonal Crank-Nicolson matrix is LU-factored
once per step size (LAPACK `gttrf`), and each step is then one `gttrs`
back-substitution with the stored factors.

Times are quoted in units of 1/omega_c by default ('omega_c'), which
requires B > 0; 'natural' selects the raw time unit 2J/hbar conjugate
to the internal energy unit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import (
    DomainError,
    InsufficientBasisError,
    InvalidParameterError,
    StepSizeError,
)
from .spectrum import HALF_PI, SpectrumResult, potential
from .summit import FIT_GAMMA, summit_scale, wavepacket_phase_derivative
from .units import DerivedScales, time_to_seconds

FALL_THRESHOLD = HALF_PI - 0.1  # |theta| beyond which the rod counts as fallen


@dataclass
class InitialState:
    """A normalized Gaussian wavepacket sampled on a grid."""

    sigma: float
    grid: np.ndarray
    values: np.ndarray
    renormalized: bool


def prepare_gaussian(sigma: float, grid: np.ndarray) -> InitialState:
    """Gaussian of angular width sigma, truncated to the grid domain.

    Warns for sigma > 0.3 rad where the domain truncation and the
    curvature of the potential start to matter.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")
    if sigma > 0.3:
        warnings.warn(f"sigma={sigma} is not small against the quarter circle",
                      stacklevel=2)
    values = math.pi ** (-0.25) * sigma ** (-0.5) * np.exp(-grid**2 / (2.0 * sigma**2))
    raw_norm = float(simpson(values**2, x=grid))
    values = values / math.sqrt(raw_norm)
    return InitialState(sigma=sigma, grid=grid, values=values,
                        renormalized=abs(raw_norm - 1.0) > 1e-12)


def uncertainty_product(state: InitialState) -> tuple[float, float, float]:
    """(delta_theta, delta_L, product) for a Gaussian state, hbar = 1.

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
    return 1.0 / (2.0 * sigma**2) + B * math.exp(-(sigma**2) / 4.0)


def _hamiltonian_apply(psi: np.ndarray, grid: np.ndarray, B: float) -> np.ndarray:
    h = grid[1] - grid[0]
    v = potential(grid, B)
    out = np.empty_like(psi)
    out[1:-1] = (-psi[:-2] + 2.0 * psi[1:-1] - psi[2:]) / h**2 + v[1:-1] * psi[1:-1]
    out[0] = out[-1] = 0.0
    return out


def energy_expectation(state: InitialState, B: float) -> float:
    """Grid energy <psi|H|psi> in units of hbar^2/2J."""
    psi = state.values
    hpsi = _hamiltonian_apply(psi, state.grid, B)
    num = float(simpson(psi * hpsi, x=state.grid))
    den = float(simpson(psi**2, x=state.grid))
    return num / den


def expand(state: InitialState, basis: SpectrumResult,
           deficit_tol: float = 1e-3) -> np.ndarray:
    """Overlap coefficients of the state with the eigenbasis.

    Raises InsufficientBasisError when the captured probability falls
    short of 1 by more than deficit_tol (the basis is too small for the
    state's energy content).
    """
    wfs = basis.wavefunctions
    if len(wfs[0].grid) != len(state.grid) or not np.allclose(
            wfs[0].grid[[0, -1]], state.grid[[0, -1]]):
        raise InvalidParameterError("state and basis live on different grids")
    modes = np.stack([wf.values for wf in wfs])
    coeffs = simpson(modes * state.values, x=state.grid, axis=1)
    captured = float(np.sum(coeffs**2))
    if not abs(1.0 - captured) <= deficit_tol:
        raise InsufficientBasisError(
            f"basis captures only {captured:.6f} of the state; add levels"
        )
    return coeffs


@dataclass
class EvolutionResult:
    """Time series of the standard observables, plus optional snapshots."""

    times: np.ndarray
    times_unit: str
    norm: np.ndarray
    energy: np.ndarray
    mean_abs_theta: np.ndarray
    fall_prob: np.ndarray
    snapshot_times: np.ndarray | None = None
    snapshots: np.ndarray | None = field(default=None, repr=False)


def _tau_factor(B: float, times_unit: str) -> float:
    """Conversion from the requested time unit to the natural unit 2J/hbar."""
    if times_unit == "natural":
        return 1.0
    if times_unit == "omega_c":
        if B <= 0.0:
            raise InvalidParameterError("omega_c time unit needs B > 0")
        return 1.0 / math.sqrt(2.0 * B)
    raise InvalidParameterError(f"unknown times_unit {times_unit!r}")


def _snapshot_wanted(t: float, snapshot_times: np.ndarray | None) -> bool:
    if snapshot_times is None or len(snapshot_times) == 0:
        return False
    return bool(np.min(np.abs(snapshot_times - t)) <= 1e-9 * max(1.0, abs(t)))


def _observables(psi: np.ndarray, grid: np.ndarray, B: float,
                 theta_fall: float) -> tuple[float, float, float, float]:
    dens = np.abs(psi) ** 2
    norm = float(simpson(dens, x=grid))
    hpsi = _hamiltonian_apply(psi.real, grid, B) + 1j * _hamiltonian_apply(psi.imag, grid, B)
    energy = float(simpson(np.real(np.conj(psi) * hpsi), x=grid)) / norm
    mean_abs = float(simpson(np.abs(grid) * dens, x=grid)) / norm
    fallen = float(simpson(dens * (np.abs(grid) > theta_fall), x=grid)) / norm
    return norm, energy, mean_abs, fallen


def evolve_eigen(
    coefficients: np.ndarray,
    basis: SpectrumResult,
    times: np.ndarray,
    times_unit: str = "omega_c",
    theta_fall: float = FALL_THRESHOLD,
    snapshot_times: np.ndarray | None = None,
) -> EvolutionResult:
    """Analytic propagation psi(t) = sum c_n exp(-i E_n tau) psi_n."""
    times = np.asarray(times, dtype=float)
    factor = _tau_factor(basis.B, times_unit)
    grid = basis.wavefunctions[0].grid
    modes = np.stack([wf.values for wf in basis.wavefunctions])
    energies = basis.energies
    snap_req = np.asarray(snapshot_times, dtype=float) if snapshot_times is not None else None

    norm = np.empty(len(times))
    energy = np.empty(len(times))
    mean_abs = np.empty(len(times))
    fall = np.empty(len(times))
    snaps, snap_ts = [], []
    for i, t in enumerate(times):
        phases = np.exp(-1j * energies * (t * factor))
        psi = (coefficients * phases) @ modes
        norm[i], energy[i], mean_abs[i], fall[i] = _observables(psi, grid, basis.B, theta_fall)
        if _snapshot_wanted(float(t), snap_req):
            snaps.append(psi)
            snap_ts.append(t)
    return EvolutionResult(
        times=times, times_unit=times_unit, norm=norm, energy=energy,
        mean_abs_theta=mean_abs, fall_prob=fall,
        snapshot_times=np.array(snap_ts) if snaps else None,
        snapshots=np.stack(snaps) if snaps else None,
    )


def evolve_direct(
    state: InitialState,
    B: float,
    dt: float,
    times: np.ndarray,
    times_unit: str = "omega_c",
    theta_fall: float = FALL_THRESHOLD,
    energy_shift: float | None = None,
    snapshot_times: np.ndarray | None = None,
) -> EvolutionResult:
    """Crank-Nicolson propagation of the state on its own grid.

    `dt` is an upper bound on the step in the same unit as `times`;
    each interval between requested times is covered by an integer
    number of equal steps, so every output time is hit exactly.
    `energy_shift` defaults to the initial energy expectation (see the
    module docstring); the corresponding global phase is restored in
    the returned snapshots.

    The matrix 1 + i dtau/2 H is LU-factored once per step size, i.e.
    once per output interval, and each step is one `gttrs`
    back-substitution on the explicit right-hand side.  Non-finite
    `B`, `dt`, `times`, state or energy shift raise InvalidParameterError;
    a norm drift beyond 1e-6 (or a NaN norm) raises StepSizeError.
    """
    times = np.asarray(times, dtype=float)
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0.0)
            and times[0] >= 0.0):
        raise InvalidParameterError(
            "times must be finite, strictly increasing and >= 0")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(B):
        raise InvalidParameterError(f"B must be finite, got {B}")
    factor = _tau_factor(B, times_unit)
    grid = state.grid
    h = grid[1] - grid[0]
    if not np.all(np.isfinite(state.values)):
        raise InvalidParameterError("initial state has non-finite values")
    e_ref = energy_expectation(state, B) if energy_shift is None else energy_shift
    if not math.isfinite(e_ref):
        raise InvalidParameterError(f"energy shift must be finite, got {e_ref}")

    diag = 2.0 / h**2 + potential(grid[1:-1], B) - e_ref
    off = -1.0 / h**2
    n = len(diag)

    psi = state.values.astype(complex)[1:-1]
    snap_req = np.asarray(snapshot_times, dtype=float) if snapshot_times is not None else None

    norm = np.empty(len(times))
    energy = np.empty(len(times))
    mean_abs = np.empty(len(times))
    fall = np.empty(len(times))
    snaps, snap_ts = [], []

    def record(i: int, t: float) -> None:
        full = np.zeros(len(grid), dtype=complex)
        full[1:-1] = psi * np.exp(-1j * e_ref * (t * factor))
        norm[i], energy[i], mean_abs[i], fall[i] = _observables(full, grid, B, theta_fall)
        if not abs(norm[i] - 1.0) <= 1e-6:
            raise StepSizeError(f"norm drifted to {norm[i]:.2e} at t={t}; reduce dt")
        if _snapshot_wanted(float(t), snap_req):
            snaps.append(full)
            snap_ts.append(t)

    t_now = 0.0
    i0 = 0
    if times[0] == 0.0:
        record(0, 0.0)
        i0 = 1
    for i in range(i0, len(times)):
        span = times[i] - t_now
        steps = max(1, math.ceil(span / dt - 1e-12))
        dtau = (span / steps) * factor
        z_plus = 0.5j * dtau
        off_plus = np.full(n - 1, z_plus * off)
        dl, d, du, du2, ipiv, info = zgttrf(off_plus, 1.0 + z_plus * diag, off_plus)
        if info != 0:
            raise StepSizeError(
                f"Crank-Nicolson matrix is singular (zgttrf info={info}) at dt={dt}")
        z = -0.5j * dtau
        diag_minus = 1.0 + z * diag
        off_minus = z * off
        for _ in range(steps):
            rhs = psi * diag_minus
            rhs[1:] += off_minus * psi[:-1]
            rhs[:-1] += off_minus * psi[1:]
            psi, _ = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
        t_now = times[i]
        record(i, t_now)

    return EvolutionResult(
        times=times, times_unit=times_unit, norm=norm, energy=energy,
        mean_abs_theta=mean_abs, fall_prob=fall,
        snapshot_times=np.array(snap_ts) if snaps else None,
        snapshots=np.stack(snaps) if snaps else None,
    )


# ---------------------------------------------------------------------------
# Fall times


@dataclass(frozen=True)
class ClassicalFallTime:
    """Classical fall time from rest at delta_theta, in units of 1/omega_c."""

    delta_theta: float
    exact: float
    asymptotic: float


def classical_fall_time(delta_theta: float, theta_end: float = HALF_PI) -> ClassicalFallTime:
    """Time for a classical rod released at rest at delta_theta to fall.

    exact: quadrature of dtheta / sqrt(2 (cos delta_theta - cos theta));
    asymptotic: ln[8(sqrt(2)-1)] - ln(delta_theta), the small-angle form.
    """
    if not 0.0 < delta_theta < theta_end <= HALF_PI:
        raise DomainError("need 0 < delta_theta < theta_end <= pi/2")

    # theta = delta_theta * cosh(v) flattens the rest-point singularity:
    # cos(dt) - cos(dt cosh v) ~ (dt sinh v)^2 / 2, so g(v) -> 1 at v = 0
    # and stays O(1) out to the wall even for delta_theta ~ 1e-12.  The
    # cosine difference is written as a product of sines to avoid the
    # cancellation of two values both close to 1.
    def g(v: float) -> float:
        if v == 0.0:
            return math.sqrt(delta_theta / math.sin(delta_theta))
        half_sum = 0.5 * delta_theta * (math.cosh(v) + 1.0)
        half_diff = delta_theta * math.sinh(0.5 * v) ** 2
        drop = 2.0 * math.sin(half_sum) * math.sin(half_diff)
        return delta_theta * math.sinh(v) / math.sqrt(2.0 * drop)

    from scipy.integrate import quad

    exact, _ = quad(g, 0.0, math.acosh(theta_end / delta_theta), limit=200)
    asym = math.log(8.0 * (math.sqrt(2.0) - 1.0)) - math.log(delta_theta)
    return ClassicalFallTime(delta_theta=delta_theta, exact=exact, asymptotic=asym)


def summit_transit_time(delta_theta: float, theta_end: float = HALF_PI) -> float:
    """Classical time from delta_theta to theta_end at exactly the summit energy.

    Closed form ln[tan(theta_end/4) / tan(delta_theta/4)]; for small
    delta_theta this is ln[4 tan(theta_end/4)] - ln(delta_theta),
    i.e. ln[4(sqrt 2 - 1)] - ln(delta_theta) for theta_end = pi/2.
    Differs from `classical_fall_time` (release from rest) by ln 2 in
    the constant term.
    """
    if not 0.0 < delta_theta < theta_end <= HALF_PI:
        raise DomainError("need 0 < delta_theta < theta_end <= pi/2")
    return math.log(math.tan(0.25 * theta_end) / math.tan(0.25 * delta_theta))


@dataclass(frozen=True)
class FallTime:
    """A fall-time estimate in both unit systems (seconds may be inf)."""

    omega_c_units: float
    seconds: float
    terms: dict[str, float] | None = None


def quantum_fall_time_estimate(scales: DerivedScales) -> FallTime:
    """Order-of-magnitude quantum fall time: classical formula with the
    initial offset replaced by the summit quantum scale s.

    t' = (1/omega_c) { ln[8(sqrt 2 - 1)] - ln s }.
    """
    s = _summit_scale_of(scales)
    value = math.log(8.0 * (math.sqrt(2.0) - 1.0)) - math.log(s)
    return FallTime(omega_c_units=value, seconds=time_to_seconds(value, scales))


def quantum_fall_time_wkb(scales: DerivedScales) -> FallTime:
    """Stationary-phase fall time of the summit-dominated wavepacket.

    t = (1/omega_c) { ln[4(2 - sqrt 2)] - ln s + ln sqrt(4g) + pi/4 },
    with g the fit constant of the summit phase.  The pieces are
    returned in `terms`; their delta_theta bookkeeping cancels exactly,
    which `fall_time_assembly` verifies numerically.
    """
    s = _summit_scale_of(scales)
    terms = {
        "geometry": math.log(4.0 * (2.0 - math.sqrt(2.0))),
        "log_scale": -math.log(s),
        "phase_slope_log": 0.5 * math.log(4.0 * FIT_GAMMA),
        "phase_slope_arctan": 0.25 * math.pi,
    }
    value = sum(terms.values())
    return FallTime(omega_c_units=value, seconds=time_to_seconds(value, scales), terms=terms)


def fall_time_assembly(scales_or_b, delta_theta: float) -> float:
    """The stationary-phase fall time assembled at a finite matching angle.

    t(delta_theta) = [summit transit from delta_theta to the wall]
                   + (1/2) ln(2 delta_theta^2 / s^2)
                   + d/d(eps) of the summit wavepacket phase at eps = 0,

    in units of 1/omega_c.  Mathematically independent of delta_theta;
    evaluating at two matching angles checks the cancellation.
    """
    s = _summit_scale_of(scales_or_b) if isinstance(scales_or_b, DerivedScales) \
        else summit_scale(float(scales_or_b))
    transit = summit_transit_time(delta_theta)
    spread = 0.5 * math.log(2.0 * delta_theta**2 / s**2)
    return transit + spread + wavepacket_phase_derivative(0.0)


def _summit_scale_of(scales: DerivedScales) -> float:
    if not (scales.B > 0.0):
        raise InvalidParameterError("fall times need a finite barrier (B > 0)")
    return summit_scale(scales.B)


@dataclass(frozen=True)
class SpreadingTime:
    """Wavepacket spreading time t0 = 2 J sigma^2 / hbar."""

    alpha: float
    omega_c_units: float
    seconds: float


def spreading_time(sigma_over_s: float, scales: DerivedScales) -> SpreadingTime:
    """Spreading time for a Gaussian of width alpha = sigma/s: 2 alpha^2 / omega_c."""
    if not (sigma_over_s > 0.0 and math.isfinite(sigma_over_s)):
        raise InvalidParameterError("sigma/s must be finite and positive")
    value = 2.0 * sigma_over_s**2
    return SpreadingTime(alpha=sigma_over_s, omega_c_units=value,
                         seconds=time_to_seconds(value, scales))
