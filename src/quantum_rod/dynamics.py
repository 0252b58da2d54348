"""Wavepacket dynamics of the balanced rod and the fall-time estimates.

The initial state is the minimum-uncertainty Gaussian

    psi(theta, 0) = pi^(-1/4) sigma^(-1/2) exp(-theta^2 / 2 sigma^2),

truncated to the physical domain and renormalized.  Two propagators are
provided: an eigenbasis expansion (analytic in time, exactly norm and
energy conserving) and a Crank-Nicolson integrator stepping the same
discrete operator, `spectrum.grid_hamiltonian`.
Crank-Nicolson is unitary for any step, so its norm and energy are
conserved to rounding; its phase error per mode scales as (E*dt)^3, so
the integrator internally shifts the Hamiltonian by the initial energy
expectation and restores the corresponding global phase afterwards,
which keeps the error controlled by the energy spread instead of the
absolute energy.

The untilted operator commutes with theta -> -theta, so Crank-Nicolson
steps the even and odd parts of the state on their own, on the two
half-size blocks of `spectrum.parity_blocks`; a part that is exactly
zero (the odd part of the even Gaussian) is never stepped.  With
A = i dtau/2 H, one step (1 + A)^-1 (1 - A) psi is written as
2 (1 + A)^-1 psi - psi: each block's (1 + A)/2 is LU-factored once per
step size (LAPACK `gttrf`, loaded by `_scipy_ext` with `gttrs`), and a
step is one `gttrs` back-substitution with the stored factors and one
subtraction, with no explicit right-hand side.

Both propagators only yield the state at each output time; one driver,
`_series`, checks the times and records observables and snapshots.

Times are quoted in units of 1/omega_c by default ('omega_c'), which
requires B > 0; 'natural' selects the raw time unit 2J/hbar conjugate
to the internal energy unit.

The fall-time functions import `summit` when first called (`_lazy`), and
`classical_fall_time` takes `_scipy_ext.elliprf`, which loads
scipy.special's extensions on its first use, so a propagation run loads
neither.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _scipy_ext
from ._scipy_ext import zgttrf, zgttrs
from .errors import (
    DomainError,
    InsufficientBasisError,
    InvalidParameterError,
    StepSizeError,
)
from .spectrum import (
    HALF_PI,
    SpectrumResult,
    fold_parity,
    grid_hamiltonian,
    parity_blocks,
    potential,
    row_simpson,
    simpson,
    unfold_parity,
)
from .units import DerivedScales, time_to_seconds

FALL_THRESHOLD = HALF_PI - 0.1  # |theta| beyond which the rod counts as fallen
MAX_CN_STEPS = 10**7  # most Crank-Nicolson steps one evolve_direct call may take
PHASE_TOL = 1e-8  # largest rounding error, in rad, of an eigenbasis phase E*tau
DEFICIT_TOL = 1e-3  # largest probability of the state an eigenbasis may miss


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
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # underflow: see raw_norm
            values = math.pi ** (-0.25) * sigma ** (-0.5) * np.exp(-grid**2 / (2.0 * sigma**2))
    except OverflowError as exc:
        raise InvalidParameterError(f"sigma={sigma} is too large to square") from exc
    if sigma > 0.3:
        warnings.warn(f"sigma={sigma} is not small against the quarter circle",
                      stacklevel=2)
    raw_norm = float(simpson(values**2, x=grid))
    if not (math.isfinite(raw_norm) and raw_norm > 0.0):
        raise InvalidParameterError(f"sigma={sigma} leaves no representable state on the grid")
    values = values / math.sqrt(raw_norm)
    return InitialState(sigma=sigma, grid=grid, values=values,
                        renormalized=abs(raw_norm - 1.0) > 1e-12)


def _hamiltonian_apply(psi: np.ndarray, grid: np.ndarray, B: float) -> np.ndarray:
    h = grid[1] - grid[0]
    v = potential(grid, B)
    # A complex psi as (real, imag) pairs: complex division rounds differently.
    x = psi.view(float).reshape(len(psi), -1)
    out = np.zeros_like(x)  # zero at the walls
    out[1:-1] = (-x[:-2] + 2.0 * x[1:-1] - x[2:]) / h**2 + v[1:-1, None] * x[1:-1]
    return out.view(psi.dtype).reshape(psi.shape)


def energy_expectation(state: InitialState, B: float) -> float:
    """Grid energy <psi|H|psi> in units of hbar^2/2J."""
    return _observables(state.values, state.grid, B, FALL_THRESHOLD)[1]


def expand(state: InitialState, basis: SpectrumResult) -> np.ndarray:
    """Overlap coefficients of the state with the eigenbasis.

    `spectrum.row_simpson` of the state times each row of `basis.modes`,
    so no second mode matrix is held.  Raises InsufficientBasisError when
    the captured probability falls short of 1 by more than DEFICIT_TOL
    (the basis is too small for the state's energy content).
    """
    if len(basis.grid) != len(state.grid) or not np.allclose(
            basis.grid[[0, -1]], state.grid[[0, -1]]):
        raise InvalidParameterError("state and basis live on different grids")
    coeffs = row_simpson(basis.modes, state.grid, state.values)
    captured = float(np.sum(coeffs**2))
    if not abs(1.0 - captured) <= DEFICIT_TOL:
        raise InsufficientBasisError(
            f"basis captures only {captured:.6f} of the state; add levels"
        )
    return coeffs


@dataclass
class EvolutionResult:
    """The standard observables at each requested time, plus optional snapshots."""

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


def _observables(psi: np.ndarray, grid: np.ndarray, B: float,
                 theta_fall: float) -> tuple[float, float, float, float]:
    dens = np.abs(psi) ** 2
    norm = float(simpson(dens, x=grid))
    hpsi = _hamiltonian_apply(psi, grid, B)
    energy = float(simpson(np.real(np.conj(psi) * hpsi), x=grid)) / norm
    mean_abs = float(simpson(np.abs(grid) * dens, x=grid)) / norm
    fallen = float(simpson(dens * (np.abs(grid) > theta_fall), x=grid)) / norm
    return norm, energy, mean_abs, fallen


def _series(states, times: np.ndarray, grid: np.ndarray, B: float,
            theta_fall: float, snapshot_times: np.ndarray | None) -> EvolutionResult:
    """Observables and snapshots of `states`, one full-grid state per time.

    `states` is advanced only after `times` passes the check here.  A state
    is kept as a snapshot when its time is within 1e-9 of a snapshot time.
    """
    if not (times.ndim == 1 and np.all(np.isfinite(times))
            and np.all(np.diff(times) > 0.0) and np.all(times >= 0.0)):
        raise InvalidParameterError(
            "times must be a 1-D array, finite, strictly increasing and >= 0")
    snap_req = np.asarray([] if snapshot_times is None else snapshot_times, dtype=float)
    observables = np.empty((4, len(times)))
    snaps, snap_ts = [], []
    for i, (t, psi) in enumerate(zip(times, states)):
        observables[:, i] = _observables(psi, grid, B, theta_fall)
        if len(snap_req) and np.min(np.abs(snap_req - t)) <= 1e-9 * max(1.0, abs(t)):
            snaps.append(psi)
            snap_ts.append(t)
    norm, energy, mean_abs, fall = observables
    return EvolutionResult(
        norm=norm, energy=energy, mean_abs_theta=mean_abs, fall_prob=fall,
        snapshot_times=np.array(snap_ts) if snaps else None,
        snapshots=np.stack(snaps) if snaps else None,
    )


def evolve_eigen(
    coefficients: np.ndarray,
    basis: SpectrumResult,
    times: np.ndarray,
    times_unit: str = "omega_c",
    theta_fall: float = FALL_THRESHOLD,
    snapshot_times: np.ndarray | None = None,
) -> EvolutionResult:
    """Analytic propagation psi(t) = sum c_n exp(-i E_n tau) psi_n.

    Times must be finite, strictly increasing and >= 0, and short enough
    that double precision holds every phase E_n tau to PHASE_TOL:
    eps * max|E_n| * tau <= PHASE_TOL, else InvalidParameterError.
    """
    times = np.asarray(times, dtype=float)
    factor = _tau_factor(basis.B, times_unit)
    energies = basis.energies
    def eigen_states():
        # Runs only once `_series` has checked the times, so times[-1] is
        # the largest.  Beyond the bound exp(-i E tau) is rounding noise.
        rounding = np.finfo(float).eps * np.max(np.abs(energies)) * (times[-1] * factor)
        if not rounding <= PHASE_TOL:
            raise InvalidParameterError(
                f"at t={times[-1]:g} the mode phases E*tau carry {rounding:.1e} rad of "
                f"rounding (more than {PHASE_TOL:g}); lower --t-max")
        for t in times:
            weights = coefficients * np.exp(-1j * energies * (t * factor))
            # Real weights times the real modes: a complex product would
            # copy the modes to complex at every time.
            real, imag = np.stack((weights.real, weights.imag)) @ basis.modes
            yield real + 1j * imag

    return _series(eigen_states(), times, basis.grid, basis.B, theta_fall, snapshot_times)


def evolve_direct(
    state: InitialState,
    B: float,
    dt: float,
    times: np.ndarray,
    times_unit: str = "omega_c",
    theta_fall: float = FALL_THRESHOLD,
    snapshot_times: np.ndarray | None = None,
) -> EvolutionResult:
    """Crank-Nicolson propagation of the state on its own grid.

    `dt` is an upper bound on the step in the same unit as `times`;
    each interval between requested times is covered by an integer
    number of equal steps, so every output time is hit exactly.  The
    Hamiltonian is shifted by the initial energy expectation (see the
    module docstring); the corresponding global phase is restored in
    the returned snapshots.

    The state's even and odd parts are stepped on their own parity
    blocks, and a part that is exactly zero is not stepped at all, so an
    even state costs one half-size solve per step.  Each block's
    (1 + i dtau/2 H)/2 is LU-factored once per step size, i.e. once per
    output interval, and each step is one `gttrs` back-substitution
    followed by one subtraction.  The grid must have an odd number of
    points, at least 9, and be exactly mirror-symmetric, as
    `spectrum.make_grid` makes it.  A grid that is not, a `B` that
    `require_potential` refuses (checked by `potential`), non-finite `dt`,
    `times`, state or initial energy, an all-zero state and times that
    could take more than MAX_CN_STEPS steps raise InvalidParameterError.
    Crank-Nicolson conserves sum |psi|^2; a relative drift of it beyond
    1e-6 (or a NaN) raises StepSizeError.
    """
    times = np.asarray(times, dtype=float)
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
    factor = _tau_factor(B, times_unit)
    grid = state.grid
    # scipy's gttrf takes no system of fewer than 3 rows, so each block needs 3.
    if not (len(grid) % 2 == 1 and len(grid) >= 9 and np.array_equal(grid, -grid[::-1])):
        raise InvalidParameterError("Crank-Nicolson needs an odd, mirror-symmetric grid of "
                                    f"at least 9 points; got {len(grid)} points")
    if not (np.all(np.isfinite(state.values)) and np.any(state.values)):
        raise InvalidParameterError("initial state must be finite and not all zero")
    e_ref = energy_expectation(state, B)
    if not math.isfinite(e_ref):
        raise InvalidParameterError(f"initial energy must be finite, got {e_ref}")

    diag, off = grid_hamiltonian(grid, B)
    blocks = parity_blocks(diag - e_ref, off)

    def cn_states():
        # Runs only once `_series` has checked the times.  An interval takes
        # at most one step more than span/dt, so the total is bounded before
        # ceil (which raises on inf) is reached; a nan sum fails the test too.
        spans = np.diff(times, prepend=0.0)
        ratios = [float(span) / dt for span in spans]
        if not sum(ratios) + len(ratios) <= MAX_CN_STEPS:
            raise InvalidParameterError(
                f"times up to {times[-1]} at dt={dt} could take more than {MAX_CN_STEPS} steps")
        # CN conserves the plain sum h * sum |psi|^2, not the Simpson norm,
        # which drifts on a coarse grid for any dt: guard the former.
        sum0 = float(np.sum(state.values**2))
        # The blocks do not couple, so a part that is zero stays zero.
        parts = {parity: psi for parity, psi
                 in fold_parity(state.values[1:-1].astype(complex)).items() if np.any(psi)}
        for t, span, ratio in zip(times, spans, ratios):
            if span > 0.0:
                steps = max(1, math.ceil(ratio - 1e-12))
                z = 0.25j * (span / steps) * factor  # (1 + i dtau/2 H)/2 = 1/2 + z H
                for parity, psi in parts.items():
                    d, e = blocks[parity]
                    dl, dd, du, du2, ipiv, info = zgttrf(z * e, 0.5 + z * d, z * e)
                    if info != 0:
                        raise StepSizeError(
                            f"Crank-Nicolson matrix is singular (zgttrf info={info}) at dt={dt}")
                    for _ in range(steps):
                        x, _ = zgttrs(dl, dd, du, du2, ipiv, psi)
                        x -= psi
                        psi = x
                    parts[parity] = psi
            full = np.zeros(len(grid), dtype=complex)
            for parity, psi in parts.items():
                unfold_parity(psi, parity, full[1:-1])
            full *= np.exp(-1j * e_ref * (t * factor))
            drift = abs(float(np.sum(np.abs(full) ** 2)) / sum0 - 1.0)
            if not drift <= 1e-6:
                raise StepSizeError(f"norm drifted by {drift:.2e} at t={t}; reduce dt")
            yield full

    return _series(cn_states(), times, grid, B, theta_fall, snapshot_times)


# ---------------------------------------------------------------------------
# Fall times


@dataclass(frozen=True)
class ClassicalFallTime:
    """Classical fall time from rest at delta_theta, in units of 1/omega_c."""

    delta_theta: float
    exact: float
    asymptotic: float


def classical_fall_time(delta_theta: float) -> ClassicalFallTime:
    """Time for a classical rod released at rest at delta_theta to fall.

    exact: the integral of dtheta / sqrt(2 (cos delta_theta - cos theta))
    from delta_theta to the table at pi/2, in closed form.  It is
    K(m) - F(phi_e|m) with m = cos^2(delta_theta/2) and m sin^2(phi_e) = 1/2,
    a difference that cancels as delta_theta -> pi/2.  Since
    F(phi|m) + F(psi|m) = K(m) when tan(phi) tan(psi) = 1/sqrt(1 - m), it is
    the single F(psi|m) = sin(psi) R_F(cos^2 psi, 1 - m sin^2 psi, 1) with
    sin^2(psi) = cos(delta_theta)/m.  With s = sin(delta_theta/2) and
    c = cos(delta_theta/2), and Carlson's R_F rescaled by its homogeneity
    so that s^2 never underflows,

        exact = sqrt(cos delta_theta / s) / c * R_F(s/c^2, 2 s, 1/s).

    asymptotic: ln[8(sqrt(2)-1)] - ln(delta_theta), the small-angle form.
    Needs 1.5e-154 < delta_theta < pi/2.
    """
    if not math.sqrt(sys.float_info.min) < delta_theta < HALF_PI:
        raise DomainError("need 1.5e-154 < delta_theta < pi/2")
    s, c = math.sin(0.5 * delta_theta), math.cos(0.5 * delta_theta)
    exact = (math.sqrt(math.cos(delta_theta) / s) / c
             * float(_scipy_ext.elliprf(s / c**2, 2.0 * s, 1.0 / s)))
    asym = math.log(8.0 * (math.sqrt(2.0) - 1.0)) - math.log(delta_theta)
    return ClassicalFallTime(delta_theta=delta_theta, exact=exact, asymptotic=asym)


def summit_transit_time(delta_theta: float) -> float:
    """Classical time from delta_theta to the table at exactly the summit energy.

    Closed form ln[tan(pi/8) / tan(delta_theta/4)]; for small delta_theta
    this is ln[4(sqrt 2 - 1)] - ln(delta_theta).
    Differs from `classical_fall_time` (release from rest) by ln 2 in
    the constant term.
    """
    if not 1e-323 < delta_theta < HALF_PI:  # below it delta_theta/4 rounds to 0
        raise DomainError("need 1e-323 < delta_theta < pi/2")
    return math.log(math.tan(0.25 * HALF_PI) / math.tan(0.25 * delta_theta))


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
        "phase_slope_log": 0.5 * math.log(4.0 * _lazy(".summit").FIT_GAMMA),
        "phase_slope_arctan": 0.25 * math.pi,
    }
    value = sum(terms.values())
    return FallTime(omega_c_units=value, seconds=time_to_seconds(value, scales), terms=terms)


def fall_time_assembly(scales: DerivedScales, delta_theta: float) -> float:
    """The stationary-phase fall time assembled at a finite matching angle.

    t(delta_theta) = [summit transit from delta_theta to the wall]
                   + (1/2) ln(2 delta_theta^2 / s^2)
                   + d/d(eps) of the summit wavepacket phase at eps = 0,

    in units of 1/omega_c.  Mathematically independent of delta_theta;
    evaluating at two matching angles checks the cancellation.
    """
    s = _summit_scale_of(scales)
    transit = summit_transit_time(delta_theta)
    ratio = 2.0 * delta_theta**2 / s**2
    if not ratio > 0.0:
        raise DomainError(f"2 delta_theta^2 / s^2 underflows at delta_theta={delta_theta}, s={s}")
    spread = 0.5 * math.log(ratio)
    return transit + spread + _lazy(".summit").wavepacket_phase_derivative(0.0)


def _summit_scale_of(scales: DerivedScales) -> float:
    if not (scales.B > 0.0):
        raise InvalidParameterError("fall times need a finite barrier (B > 0)")
    return _lazy(".summit").summit_scale(scales.B)


@functools.cache
def _lazy(name: str):
    """Module `name` (relative to this package), imported on first use.

    It serves `summit`, which only the fall-time functions need, so a
    propagation run never loads it.  An import statement in each call
    would add 0.4-1.7 us to functions that take 2-5 us.
    """
    return importlib.import_module(name, __package__)


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
    try:
        value = 2.0 * sigma_over_s**2
    except OverflowError as exc:
        raise InvalidParameterError(f"sigma/s={sigma_over_s} is too large to square") from exc
    return SpreadingTime(alpha=sigma_over_s, omega_c_units=value,
                         seconds=time_to_seconds(value, scales))
