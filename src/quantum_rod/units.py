"""Rod parameters and the dimensionless units used by every other module.

All internal computations use energies in units of hbar^2/2J (J is the
moment of inertia about the table edge), angles in radians and times in
units of 1/omega_c, where omega_c = sqrt(V0/J) is the classical rate of
exponential growth of a small deflection.  The dimensionless barrier
height B = V0 / (hbar^2/2J) is the single parameter of the internal
problem; the angular scale of the quantum regime at the potential summit
is s = sqrt(hbar/(J*omega_c)), which obeys s**4 * B = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)  # J*s: the exact SI Planck constant over 2 pi


@dataclass(frozen=True)
class RodParams:
    """A thin rigid rod of given mass and length standing on one end.

    hbar is always HBAR_SI: it reaches the physics only through B, so a
    different hbar is the same problem at a different B.
    """

    mass: float            # kg
    length: float          # m
    gravity: float = 9.81  # m/s^2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise InvalidParameterError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise InvalidParameterError(f"length must be positive and finite, got {self.length}")
        if not (math.isfinite(self.gravity) and self.gravity >= 0.0):
            raise InvalidParameterError(
                f"gravity must be non-negative and finite, got {self.gravity}")


@dataclass(frozen=True)
class DerivedScales:
    """Derived mechanical scales of a rod, with hbar = HBAR_SI.

    Attributes
    ----------
    J : moment of inertia about the pivoting edge, m*l^2/3 (kg m^2)
    V0 : barrier height m*g*l/2 (J); the potential is V0*cos(theta)
    omega_c : sqrt(V0/J) = sqrt(3g/2l) (1/s)
    B : V0 in units of hbar^2/2J (dimensionless)
    s : summit angular scale sqrt(hbar/(J*omega_c)) (rad); s**4*B = 2
    """

    J: float
    V0: float
    omega_c: float
    B: float
    s: float

    @property
    def energy_unit(self) -> float:
        """hbar^2/2J in joules."""
        return HBAR_SI**2 / (2.0 * self.J)


def derive_scales(params: RodParams) -> DerivedScales:
    """Compute the mechanical and dimensionless scales for a rod.

    For gravity = 0 the barrier vanishes (V0 = B = omega_c = 0) and the
    summit scale s is reported as infinity.  Scales that leave the float
    range (J; for gravity > 0 also omega_c, B, s) raise InvalidParameterError.
    """
    out_of_range = (f"mass={params.mass}, length={params.length} and gravity={params.gravity} "
                    "give rod scales outside the floating-point range")
    try:
        J = params.mass * params.length**2 / 3.0
        V0 = params.mass * params.gravity * params.length / 2.0
        omega_c = math.sqrt(V0 / J)
        B = V0 / (HBAR_SI**2 / (2.0 * J))
        s = math.sqrt(HBAR_SI / (J * omega_c)) if omega_c > 0.0 else math.inf
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidParameterError(out_of_range) from exc
    checked = (J, omega_c, B, s) if params.gravity > 0.0 else (J,)
    if not all(0.0 < v < math.inf for v in checked):
        raise InvalidParameterError(out_of_range)
    return DerivedScales(J=J, V0=V0, omega_c=omega_c, B=B, s=s)


def energy_to_dimensionless(energy_si: float, scales: DerivedScales) -> float:
    """Convert an energy in joules to units of hbar^2/2J."""
    return energy_si / scales.energy_unit


def energy_from_dimensionless(energy: float, scales: DerivedScales) -> float:
    """Convert an energy in units of hbar^2/2J back to joules."""
    return energy * scales.energy_unit


def time_to_seconds(time_omega_c: float, scales: DerivedScales) -> float:
    """Convert a time in units of 1/omega_c to seconds."""
    if scales.omega_c == 0.0:
        return math.inf
    return time_omega_c / scales.omega_c


def time_from_seconds(time_si: float, scales: DerivedScales) -> float:
    """Convert a time in seconds to units of 1/omega_c."""
    return time_si * scales.omega_c
