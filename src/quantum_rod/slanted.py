"""Tilted-table perturbation of a near-degenerate doublet.

A small table tilt delta adds B * delta * sin(theta) to the potential,
which is odd and therefore couples only states of opposite parity.  For
a doublet deep below the barrier the relevant physics is captured by
the 2x2 problem in the (even, odd) subspace,

    [[E_plus, V], [V, E_minus]],   V = B * delta * <psi_minus|sin|psi_plus>,

valid while the coupling stays well below the gap to the neighbouring
doublets and well above the bare tunneling splitting.  The mixed
eigenstates localize in one well; `TiltResponse.p_left_lower` is the
probability of finding the lower one at theta < 0.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RegimeError, require_integer
from .spectrum import EVEN, ODD, PotentialSpec, SpectrumResult, pairing_table, simpson

REGIME_FACTOR = 10.0  # required separation on both sides of the 2x2 window


@dataclass(frozen=True)
class TiltResponse:
    """Result of one tilt value in a sweep.

    `regime` is the validity window of the two-level truncation, as flags:

    upper: |V| * REGIME_FACTOR <= gap to the neighbouring doublet
    (False: the 2x2 truncation is unreliable)
    lower: |V| >= REGIME_FACTOR * bare splitting (False: tunneling
    dominates the tilt and the states stay delocalized)

    It does not warn: `slant` prints the flags as regime_upper and
    regime_lower.
    """

    delta_theta: float
    coupling: float
    effective_splitting: float
    p_left_lower: float
    regime: dict[str, bool]


def tilt_sweep(basis: SpectrumResult, n: int,
               delta_thetas: np.ndarray) -> list[TiltResponse]:
    """Two-level response of doublet n over a range of tilts.

    The doublet energies, the gap to the next doublet and the element
    <odd_n|sin|even_n> come from the untilted basis; each tilt only
    rescales the coupling V.  The 2x2 problem is diagonalized in closed
    form: E = center -/+ r with r = hypot(h, V) and h the half-splitting,
    and the lower eigenvector is proportional to (h + r, -V), which covers
    every sign of V including the pure-doublet limit V -> 0.  A fully
    degenerate problem (V = 0 and zero splitting) has no preferred mixing;
    it is flagged with a warning and the even state is taken unchanged.
    """
    require_integer("n", n, least=0)
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
    grid = basis.grid
    psi_plus = basis.wavefunction(EVEN, n).values
    psi_minus = basis.wavefunction(ODD, n).values
    element = float(simpson(psi_minus * np.sin(grid) * psi_plus, x=grid))
    left = grid <= 0.0
    half = 0.5 * d.splitting

    out = []
    for delta in deltas:
        v = basis.B * float(delta) * element
        root = math.hypot(half, v)
        if root == 0.0:
            warnings.warn("degenerate doublet with zero coupling: "
                          "mixing is arbitrary", stacklevel=2)
            a, b = 1.0, 0.0
        else:
            scale = math.hypot(half + root, v)
            a, b = (half + root) / scale, -v / scale
        dens = (a * psi_plus + b * psi_minus)**2
        total = float(simpson(dens, x=grid))
        out.append(TiltResponse(
            delta_theta=float(delta), coupling=v,
            effective_splitting=2.0 * root,
            p_left_lower=float(simpson(dens[left], x=grid[left])) / total,
            regime={"upper": abs(v) * REGIME_FACTOR <= gap_next,
                    "lower": abs(v) >= REGIME_FACTOR * d.splitting}))
    return out
