"""Stationary states of a rod confined to theta in [-pi/2, pi/2].

In units of hbar^2/2J the Hamiltonian is

    H = -d^2/dtheta^2 + B*(cos(theta) + tilt*sin(theta)),

with hard walls (Dirichlet conditions) at theta = +/- pi/2 where the rod
hits the table.  The solver uses second-order central finite differences
on a uniform grid from wall to wall; the symmetric tridiagonal matrix
`grid_hamiltonian`, which `dynamics` steps too, is diagonalized with
LAPACK.  Eigenvalues are Richardson-extrapolated from the base grid and
a doubled grid, which removes the leading O(h^2) discretization error
and leaves the reported energies accurate to a few parts in 1e7 at the
default resolution for energies of order 1e4.

For tilt = 0 the matrix commutes with the reflection theta -> -theta,
so it splits into two half-size tridiagonal blocks, `parity_blocks`,
that are solved on their own (and that Crank-Nicolson in `dynamics`
steps on their own).  `make_grid` is exactly mirror-symmetric, so an
even or odd function sampled on it keeps its parity exactly.  With c
the interior index of theta = 0, the odd block is the leading c x c
corner (psi vanishes at the centre).  The even block adds the centre
row; folding psi[c+1] = psi[c-1] onto it and rescaling the centre
amplitude by 1/sqrt(2) keeps it symmetric, with sqrt(2) times the
usual off-diagonal on that last row.  Even level j is global level 2j
and odd level j is 2j+1, so parity labels follow the level order, and
the eigenvectors unfold onto the full grid with exact parity; no
rotation of near-degenerate doublets is needed.  A doublet below the
bisection tolerance, eps*(max|diag| + 2|off|), cannot be resolved, so
its odd member is set to the even value: the splitting reads exactly 0,
as bisection of the full matrix would return it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, InvalidParameterError, ResolutionError

HALF_PI = 0.5 * math.pi
RESOLUTION_RTOL = 0.02  # largest trusted relative eigenvalue drift under grid doubling

Parity = Literal["even", "odd"]

EVEN: Parity = "even"
ODD: Parity = "odd"


@dataclass(frozen=True)
class PotentialSpec:
    """Dimensionless potential parameters: barrier height B and table tilt."""

    B: float
    tilt: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.B) and self.B >= 0.0):
            raise InvalidParameterError(f"B must be finite and non-negative, got {self.B}")
        if not abs(self.tilt) < 0.1:
            raise InvalidParameterError(f"|tilt| must be < 0.1 rad, got {self.tilt}")


def potential(theta, B: float, tilt: float = 0.0):
    """Potential B*(cos(theta) + tilt*sin(theta)) in units of hbar^2/2J.

    Raises DomainError outside the physical domain |theta| <= pi/2.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > HALF_PI + 1e-12):
        raise DomainError("theta outside [-pi/2, pi/2]")
    v = B * (np.cos(th) + tilt * np.sin(th))
    return float(v) if np.isscalar(theta) else v


@dataclass(frozen=True)
class EnergyLevel:
    """One stationary level.

    `index` counts levels of the same parity from 0 upward; for tilted
    potentials parity is undefined and `index` is the global position.
    `drift` is the eigenvalue change under grid doubling (before
    extrapolation), a direct measure of the discretization error.
    """

    index: int
    parity: Parity | None
    energy: float
    drift: float = math.nan


@dataclass
class Wavefunction:
    """A normalized eigenfunction sampled on the solver grid."""

    grid: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        return float(simpson(self.values**2, x=self.grid))


@dataclass(frozen=True)
class Doublet:
    """A pair of even/odd levels with the same per-parity index n.

    `gap` is the distance to the next even level; `pairing_ratio` is
    splitting/gap, which tends to 1/2 far above the barrier where the
    spectrum approaches the degeneracy-free free-rotor ladder.
    """

    n: int
    e_plus: float   # even member
    e_minus: float  # odd member
    gap: float
    pairing_ratio: float

    @property
    def splitting(self) -> float:
        return self.e_minus - self.e_plus

    @property
    def center(self) -> float:
        return 0.5 * (self.e_plus + self.e_minus)


def make_grid(grid_n: int) -> np.ndarray:
    """Uniform grid of grid_n points spanning [-pi/2, pi/2], exactly mirror-symmetric.

    theta[grid_n - 1 - i] == -theta[i] for every i, and for odd grid_n the
    centre point is exactly 0.0: the left half is numpy's linspace and the
    right half its negated mirror.  (linspace alone is off by up to 4.4e-16,
    which gives every even function sampled on it a spurious odd part.)
    """
    left = np.linspace(-HALF_PI, HALF_PI, grid_n)[:grid_n // 2]
    return np.concatenate((left, np.zeros(grid_n % 2), -left[::-1]))


def min_grid_n(n_levels: int) -> int:
    """Fewest grid points `solve_spectrum` accepts for n_levels levels."""
    return 10 * n_levels + 1


def grid_hamiltonian(grid: np.ndarray, B: float, tilt: float = 0.0) -> tuple[np.ndarray, float]:
    """Three-point Hamiltonian on the grid interior, hard walls at the ends.

    Returns (diag, off): the diagonal 2/h^2 + V and the off-diagonal -1/h^2.
    """
    h = grid[1] - grid[0]
    return 2.0 / h**2 + potential(grid[1:-1], B, tilt), -1.0 / h**2


def parity_blocks(diag: np.ndarray, off: float) -> dict[Parity, tuple[np.ndarray, np.ndarray]]:
    """The even and odd blocks of an untilted `grid_hamiltonian`.

    With diag of 2c + 1 entries (c the interior index of theta = 0), maps
    each parity, even first, to its block's (diagonal, off-diagonal).  The
    odd block is the leading c x c corner; the even block adds the centre
    row with sqrt(2) times the off-diagonal there, acting on the vectors
    `fold_parity` makes.
    """
    c = len(diag) // 2
    off_even = np.full(c, off)
    off_even[-1:] *= math.sqrt(2.0)  # the symmetrized centre row
    return {EVEN: (diag[:c + 1], off_even), ODD: (diag[:c], off_even[:-1])}


def fold_parity(psi: np.ndarray) -> dict[Parity, np.ndarray]:
    """Block vectors of an interior vector of 2c + 1 entries, by parity.

    The even one is the even part's (psi_e[:c], psi[c]/sqrt(2)), the odd
    one the odd part's first c entries.  An exactly even (odd) psi gives
    an odd (even) block vector of exact zeros.
    """
    c = len(psi) // 2
    mirror = psi[:c:-1]
    even = np.empty(c + 1, dtype=psi.dtype)
    even[:c] = 0.5 * (psi[:c] + mirror)
    even[c] = psi[c] / math.sqrt(2.0)
    return {EVEN: even, ODD: 0.5 * (psi[:c] - mirror)}


def unfold_parity(vec: np.ndarray, parity: Parity, out: np.ndarray) -> None:
    """Add the interior vector of block vector `vec` to `out` (2c + 1 entries).

    The inverse of `fold_parity`: the left half is vec[:c], the right half
    its mirror (negated for odd), the centre sqrt(2)*vec[c] or 0.
    """
    c = len(out) // 2
    out[:c] += vec[:c]
    if parity == EVEN:
        out[c] += math.sqrt(2.0) * vec[c]
        out[c + 1:] += vec[:c][::-1]
    else:
        out[c + 1:] -= vec[::-1]


def _interior_eigensolve(B, tilt, grid_n, n_levels, eigvals_only=False):
    """Lowest n_levels eigenvalues of `grid_hamiltonian` on grid_n points.

    Unless eigvals_only, the eigenvectors come back as one full-grid array
    per level, zero at the walls and not yet normalized.  At tilt 0 the
    half-size block vectors are unfolded straight into these arrays, so no
    second n_levels x grid_n copy is held.
    """
    theta = make_grid(grid_n)
    diag, off = grid_hamiltonian(theta, B, tilt)
    if tilt != 0.0:
        out = eigh_tridiagonal(diag, np.full(grid_n - 3, off), eigvals_only=eigvals_only,
                               select="i", select_range=(0, n_levels - 1))
        if eigvals_only:
            return theta, out, None
        return theta, out[0], [np.pad(v, 1) for v in out[1].T]

    energies = np.empty(n_levels)
    values = None if eigvals_only else [np.zeros(grid_n) for _ in range(n_levels)]
    for p, (parity, (d, e)) in enumerate(parity_blocks(diag, off).items()):
        count = (n_levels + 1 - p) // 2  # level 2j is even j, level 2j + 1 is odd j
        if count == 0:
            continue
        out = eigh_tridiagonal(d, e, eigvals_only=eigvals_only, select="i",
                               select_range=(0, count - 1))
        if eigvals_only:
            energies[p::2] = out
            continue
        energies[p::2], vecs = out
        for full, v in zip(values[p::2], vecs.T):
            unfold_parity(v, parity, full[1:-1])
    # A doublet within dstebz's own absolute tolerance is unresolved: tie it,
    # as bisection of the full matrix does.
    even, odd = energies[0:n_levels - 1:2], energies[1::2]
    tied = np.abs(odd - even) <= np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(off))
    odd[tied] = even[tied]
    return theta, energies, values


@dataclass
class SpectrumResult:
    """Levels and eigenfunctions of one potential configuration."""

    B: float
    tilt: float
    levels: list[EnergyLevel]
    wavefunctions: list[Wavefunction]

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def level(self, parity: Parity, n: int) -> EnergyLevel:
        for lv in self.levels:
            if lv.parity == parity and lv.index == n:
                return lv
        raise InvalidParameterError(f"no {parity} level with index {n}")

    def wavefunction(self, parity: Parity, n: int) -> Wavefunction:
        for lv, wf in zip(self.levels, self.wavefunctions):
            if lv.parity == parity and lv.index == n:
                return wf
        raise InvalidParameterError(f"no {parity} level with index {n}")


def solve_spectrum(
    B: float,
    n_levels: int,
    grid_n: int = 4001,
    tilt: float = 0.0,
    refine: bool = True,
) -> SpectrumResult:
    """Solve for the lowest n_levels stationary states.

    Eigenvalues are extrapolated from grid_n and 2*grid_n - 1 points;
    eigenfunctions are returned on the base grid.  Raises
    ResolutionError when the eigenvalue drift under grid doubling
    exceeds RESOLUTION_RTOL relative, i.e. when even the extrapolated
    values should not be trusted.

    With refine=False the energies are the raw eigenvalues of the
    base-grid operator (no extrapolation, drift not available).  Use
    this when the energies must be consistent with other computations
    on the same grid, e.g. comparing eigenbasis propagation against a
    direct integrator that steps the identical discrete Hamiltonian.
    """
    spec = PotentialSpec(B, tilt)  # validates B and tilt
    if n_levels < 1:
        raise InvalidParameterError("n_levels must be >= 1")
    if grid_n < min_grid_n(n_levels):
        raise InvalidParameterError(
            f"grid_n={grid_n} too coarse for {n_levels} levels (need >= {min_grid_n(n_levels)})"
        )
    if grid_n % 2 == 0:
        raise InvalidParameterError("grid_n must be odd so the grid contains theta = 0")

    theta, raw, values = _interior_eigensolve(B, tilt, grid_n, n_levels)
    if refine:
        _, raw_fine, _ = _interior_eigensolve(
            B, tilt, 2 * grid_n - 1, n_levels, eigvals_only=True
        )
        drift = np.abs(raw_fine - raw)
        refined = (4.0 * raw_fine - raw) / 3.0
        rel_drift = drift / np.maximum(np.abs(refined), 1.0)
        if np.max(rel_drift) > RESOLUTION_RTOL:
            raise ResolutionError(
                f"eigenvalue drift {np.max(rel_drift):.2e} under grid doubling; "
                f"increase grid_n beyond {grid_n}"
            )
    else:
        refined = raw
        drift = np.full(n_levels, math.nan)

    symmetric = tilt == 0.0
    levels: list[EnergyLevel] = []
    wavefunctions: list[Wavefunction] = []
    for k, full in enumerate(values):
        full /= math.sqrt(simpson(full**2, x=theta))
        first = np.argmax(np.abs(full) > 1e-8 * np.max(np.abs(full)))
        if full[first] < 0.0:
            full *= -1.0  # in place: `values` still holds this array
        parity, idx = ((EVEN, ODD)[k % 2], k // 2) if symmetric else (None, k)
        levels.append(EnergyLevel(index=idx, parity=parity,
                                  energy=float(refined[k]), drift=float(drift[k])))
        wavefunctions.append(Wavefunction(grid=theta, values=full))

    return SpectrumResult(B=spec.B, tilt=spec.tilt, levels=levels, wavefunctions=wavefunctions)


def pairing_table(result: SpectrumResult) -> list[Doublet]:
    """Even/odd doublets with splitting, even-ladder gap and their ratio."""
    if result.tilt != 0.0:
        raise InvalidParameterError("pairing requires the untilted potential")
    evens, odds = result.levels[0::2], result.levels[1::2]  # labels follow level order
    count = min(len(evens) - 1, len(odds))
    if count < 1:
        raise InvalidParameterError("need at least two even and one odd level")
    table = []
    for n in range(count):
        gap = evens[n + 1].energy - evens[n].energy
        split = odds[n].energy - evens[n].energy
        table.append(Doublet(n=n, e_plus=evens[n].energy, e_minus=odds[n].energy,
                             gap=gap, pairing_ratio=split / gap))
    return table


def mathieu_residual(result: SpectrumResult, k: int) -> float:
    """Pointwise residual of level k in the angular Mathieu form.

    With eta = theta/2 the stationary equation is the Mathieu equation
    with characteristic value a = 4E and parameter q = 2B; evaluated in
    theta this is psi'' + (E - B cos theta) psi = 0.  The second
    derivative is taken with a fourth-order stencil and the maximum
    interior residual is normalized by E * max|psi|.  The residual
    scales as O(h^2), so fine grids are needed to push it below 1e-4.
    """
    lv, wf = result.levels[k], result.wavefunctions[k]
    h = wf.grid[1] - wf.grid[0]
    psi = wf.values
    d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1] - psi[4:]) / (
        12 * h**2
    )
    v = potential(wf.grid[2:-2], result.B, result.tilt)
    residual = d2 + (lv.energy - v) * psi[2:-2]
    return float(np.max(np.abs(residual)) / (max(abs(lv.energy), 1.0) * np.max(np.abs(psi))))

