"""Tilted-table perturbation of a near-degenerate doublet.

A small table tilt delta adds B * delta * sin(theta) to the potential,
which is odd and therefore couples only states of opposite parity.  For
a doublet deep below the barrier the relevant physics is captured by
the 2x2 problem in the (even, odd) subspace,

    [[E_plus, V], [V, E_minus]],   V = B * delta * <psi_minus|sin|psi_plus>,

valid while the coupling stays well below the gap to the neighbouring
doublets and well above the bare tunneling splitting.  The mixed
eigenstates localize in one well; `localization_measure` quantifies
this as the probability of finding the rod at theta < 0.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RegimeError
from .spectrum import (EVEN, ODD, PotentialSpec, SpectrumResult, Wavefunction, pairing_table,
                       simpson)

REGIME_FACTOR = 10.0  # required separation on both sides of the 2x2 window


def sin_matrix_element(psi_a: Wavefunction, psi_b: Wavefunction) -> float:
    """<psi_a | sin(theta) | psi_b> on the common grid."""
    if len(psi_a.grid) != len(psi_b.grid):
        raise InvalidParameterError("wavefunctions live on different grids")
    return float(simpson(psi_a.values * np.sin(psi_a.grid) * psi_b.values,
                         x=psi_a.grid))


def coupling_element(basis: SpectrumResult, n: int, delta_theta: float) -> float:
    """Tilt coupling V = B * delta * <odd_n | sin | even_n> for doublet n."""
    v_plus = basis.wavefunction(EVEN, n)
    v_minus = basis.wavefunction(ODD, n)
    element = sin_matrix_element(v_minus, v_plus)
    return basis.B * delta_theta * element


@dataclass(frozen=True)
class TwoLevelProblem:
    """The projected 2x2 problem for one doublet at one tilt."""

    n: int
    delta_theta: float
    e_plus: float
    e_minus: float
    coupling: float

    @property
    def splitting(self) -> float:
        return self.e_minus - self.e_plus

    @property
    def center(self) -> float:
        return 0.5 * (self.e_plus + self.e_minus)


@dataclass(frozen=True)
class TwoLevelSolution:
    """Eigenpairs of the 2x2 problem; amplitudes are (even, odd) weights."""

    energies: tuple[float, float]
    amplitudes: tuple[tuple[float, float], tuple[float, float]]

    @property
    def effective_splitting(self) -> float:
        return self.energies[1] - self.energies[0]


def solve_two_level(problem: TwoLevelProblem) -> TwoLevelSolution:
    """Diagonalize [[E+, V], [V, E-]] analytically.

    E = center -/+ sqrt(half_gap^2 + V^2).  The lower eigenvector is
    proportional to (h + r, -V) with h the half-splitting and r the
    root, which covers every sign of V including the pure-doublet
    limit V -> 0.  A fully degenerate problem (V = 0 and zero
    splitting) has no preferred mixing; it is flagged with a warning
    and the parity states are returned unchanged.
    """
    half = 0.5 * problem.splitting
    v = problem.coupling
    root = math.hypot(half, v)
    e_lo = problem.center - root
    e_hi = problem.center + root
    if root == 0.0:
        warnings.warn("degenerate doublet with zero coupling: "
                      "mixing is arbitrary", stacklevel=2)
        return TwoLevelSolution(energies=(e_lo, e_hi), amplitudes=((1.0, 0.0), (0.0, 1.0)))
    scale = math.hypot(half + root, v)
    lo = ((half + root) / scale, -v / scale)
    hi = (v / scale, (half + root) / scale)
    return TwoLevelSolution(energies=(e_lo, e_hi), amplitudes=(lo, hi))


def regime_check(problem: TwoLevelProblem, gap_to_next: float) -> dict[str, bool]:
    """Validity window of the two-level truncation, as flags.

    upper: |V| * REGIME_FACTOR <= gap to the neighbouring doublet
    (False: the 2x2 truncation is unreliable)
    lower: |V| >= REGIME_FACTOR * bare splitting (False: tunneling
    dominates the tilt and the states stay delocalized)

    It does not warn: `slant` prints the flags as regime_upper and
    regime_lower.
    """
    v = abs(problem.coupling)
    return {
        "upper": v * REGIME_FACTOR <= gap_to_next,
        "lower": v >= REGIME_FACTOR * problem.splitting,
    }


def localization_measure(amplitudes: tuple[float, float],
                         psi_plus: Wavefunction,
                         psi_minus: Wavefunction) -> float:
    """Probability of theta < 0 for the mixed state a*psi+ + b*psi-."""
    a, b = amplitudes
    grid = psi_plus.grid
    mixed = a * psi_plus.values + b * psi_minus.values
    left = grid <= 0.0
    dens = mixed**2
    total = float(simpson(dens, x=grid))
    return float(simpson(dens[left], x=grid[left])) / total


@dataclass(frozen=True)
class TiltResponse:
    """Result of one tilt value in a sweep."""

    delta_theta: float
    coupling: float
    effective_splitting: float
    p_left_lower: float
    regime: dict[str, bool]


def tilt_sweep(basis: SpectrumResult, n: int,
               delta_thetas: np.ndarray) -> list[TiltResponse]:
    """Two-level response of doublet n over a range of tilts.

    The doublet energies and the gap to the next doublet come from the
    untilted basis; each tilt only rescales the coupling element.
    """
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if basis.tilt != 0.0:
        raise InvalidParameterError("sweep needs an untilted basis")
    deltas = np.asarray(delta_thetas, dtype=float)
    for delta in deltas:
        PotentialSpec(basis.B, float(delta))  # the solver's rule: finite, |tilt| < 0.1
    doublets = pairing_table(basis)
    if n >= len(doublets):
        raise RegimeError(f"doublet {n} not present in the basis")
    d = doublets[n]
    if n + 1 < len(doublets):
        gap_next = doublets[n + 1].center - d.center
    else:
        gap_next = d.gap

    out = []
    for delta in deltas:
        problem = TwoLevelProblem(n=n, delta_theta=float(delta),
                                  e_plus=d.e_plus, e_minus=d.e_minus,
                                  coupling=coupling_element(basis, n, float(delta)))
        sol = solve_two_level(problem)
        p_left = localization_measure(sol.amplitudes[0],
                                      basis.wavefunction(EVEN, n),
                                      basis.wavefunction(ODD, n))
        out.append(TiltResponse(delta_theta=float(delta),
                                coupling=problem.coupling,
                                effective_splitting=sol.effective_splitting,
                                p_left_lower=p_left,
                                regime=regime_check(problem, gap_next)))
    return out
