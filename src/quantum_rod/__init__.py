"""Quantum mechanics of a rod balanced on its edge.

The package answers one question in several complementary ways: how
long does a perfectly balanced rigid rod stay upright once quantum
uncertainty is taken into account?  The modules split the problem into
unit handling, the exact grid spectrum of the pendulum-on-a-wall
Hamiltonian, semiclassical (WKB) approximations with their barrier-top
refinement, the Airy limit of a linear well, wavepacket dynamics with
fall-time estimates, and the response of near-degenerate doublets to a
tilted table.
"""
from .errors import (
    DomainError,
    InsufficientBasisError,
    InvalidParameterError,
    RegimeError,
    ResolutionError,
    StepSizeError,
)
from .spectrum import (
    EVEN,
    ODD,
    Doublet,
    EnergyLevel,
    PotentialSpec,
    SpectrumResult,
    Wavefunction,
    make_grid,
    pairing_table,
    potential,
    solve_spectrum,
)
from .units import (
    DerivedScales,
    RodParams,
    derive_scales,
    time_to_seconds,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InsufficientBasisError",
    "InvalidParameterError",
    "RegimeError",
    "ResolutionError",
    "StepSizeError",
    "EVEN",
    "ODD",
    "Doublet",
    "EnergyLevel",
    "PotentialSpec",
    "SpectrumResult",
    "Wavefunction",
    "make_grid",
    "pairing_table",
    "potential",
    "solve_spectrum",
    "DerivedScales",
    "RodParams",
    "derive_scales",
    "time_to_seconds",
    "__version__",
]
