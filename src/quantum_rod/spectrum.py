"""Stationary states of a rod confined to theta in [-pi/2, pi/2].

In units of hbar^2/2J the Hamiltonian is

    H = -d^2/dtheta^2 + B*(cos(theta) + tilt*sin(theta)),

with hard walls (Dirichlet conditions) at theta = +/- pi/2 where the rod
hits the table.  The solver uses second-order central finite differences
on a uniform grid; the resulting symmetric tridiagonal matrix is
diagonalized with LAPACK.  Eigenvalues are Richardson-extrapolated from
the base grid and a doubled grid, which removes the leading O(h^2)
discretization error and leaves the reported energies accurate to a few
parts in 1e7 at the default resolution for energies of order 1e4.

For tilt = 0 every level has definite parity about theta = 0.  Pairs of
levels closer than `parity_fix_gap` are rotated back onto even/odd
combinations before classification, because below the resolvable
splitting LAPACK returns an arbitrary mixture of the two members of a
tunneling doublet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, InvalidParameterError, ResolutionError

HALF_PI = 0.5 * math.pi

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
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def at(self, theta, nu: int = 0):
        """Interpolated value (nu=0) or derivative (nu=1,2) at theta."""
        th = np.asarray(theta, dtype=float)
        if np.any(np.abs(th) > self.grid[-1] + 1e-12):
            raise DomainError("theta outside the wavefunction domain")
        if self._spline is None:
            self._spline = CubicSpline(self.grid, self.values)
        out = self._spline(th, nu)
        return float(out) if np.isscalar(theta) else out

    def norm(self) -> float:
        return float(simpson(self.values**2, x=self.grid))

    def mirrored(self) -> np.ndarray:
        """Values reflected through theta = 0 (grid must be symmetric)."""
        return self.values[::-1]


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


def make_grid(grid_n: int, half_width: float = HALF_PI) -> np.ndarray:
    """Uniform symmetric grid of grid_n points spanning [-w, w]."""
    return np.linspace(-half_width, half_width, grid_n)


def _interior_eigensolve(B, tilt, grid_n, n_levels, half_width, eigvals_only=False):
    theta = make_grid(grid_n, half_width)
    h = theta[1] - theta[0]
    diag = 2.0 / h**2 + potential(theta[1:-1], B, tilt)
    off = np.full(grid_n - 3, -1.0 / h**2)
    if eigvals_only:
        vals = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, n_levels - 1)
        )
        return theta, vals, None
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    return theta, vals, vecs


def _fix_parity_mixing(vecs: np.ndarray, energies: np.ndarray, gap: float) -> None:
    """Rotate near-degenerate pairs onto definite-parity combinations.

    Operates in place on the interior eigenvector columns.  For each
    neighbouring pair closer than `gap`, the even and odd combinations
    are rebuilt from whichever input vector carries the larger share of
    each symmetry (always at least half), then assigned with the even
    state on the lower slot, as required for a tunneling doublet.
    """
    k = 0
    while k + 1 < len(energies):
        if energies[k + 1] - energies[k] >= gap:
            k += 1
            continue
        va, vb = vecs[:, k], vecs[:, k + 1]
        sym_a, sym_b = va + va[::-1], vb + vb[::-1]
        anti_a, anti_b = va - va[::-1], vb - vb[::-1]
        even = sym_a if np.linalg.norm(sym_a) >= np.linalg.norm(sym_b) else sym_b
        odd = anti_a if np.linalg.norm(anti_a) >= np.linalg.norm(anti_b) else anti_b
        vecs[:, k] = even / np.linalg.norm(even)
        vecs[:, k + 1] = odd / np.linalg.norm(odd)
        k += 2


@dataclass
class SpectrumResult:
    """Levels and eigenfunctions of one potential configuration."""

    B: float
    tilt: float
    grid_n: int
    half_width: float
    levels: list[EnergyLevel]
    wavefunctions: list[Wavefunction]

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def by_parity(self, parity: Parity) -> list[EnergyLevel]:
        return [lv for lv in self.levels if lv.parity == parity]

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

    def doublets(self) -> list[Doublet]:
        return pairing_table(self)

    def to_record(self) -> dict:
        """JSON-ready summary: parameters plus (n, parity, energy) rows."""
        return {
            "B": self.B,
            "tilt": self.tilt,
            "grid_n": self.grid_n,
            "levels": [
                {"n": lv.index, "parity": lv.parity, "energy": lv.energy}
                for lv in self.levels
            ],
        }


def solve_spectrum(
    B: float,
    n_levels: int,
    grid_n: int = 4001,
    tilt: float = 0.0,
    half_width: float = HALF_PI,
    refine: bool = True,
    parity_fix_gap: float = 1e-2,
    resolution_rtol: float = 0.02,
) -> SpectrumResult:
    """Solve for the lowest n_levels stationary states.

    Eigenvalues are extrapolated from grid_n and 2*grid_n - 1 points;
    eigenfunctions are returned on the base grid.  Raises
    ResolutionError when the eigenvalue drift under grid doubling
    exceeds `resolution_rtol` relative, i.e. when even the extrapolated
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
    if grid_n < 10 * n_levels:
        raise InvalidParameterError(
            f"grid_n={grid_n} too coarse for {n_levels} levels (need >= {10 * n_levels})"
        )
    if grid_n % 2 == 0:
        raise InvalidParameterError("grid_n must be odd so the grid contains theta = 0")
    if not (0.0 < half_width <= HALF_PI):
        raise InvalidParameterError("half_width must lie in (0, pi/2]")

    theta, raw, vecs = _interior_eigensolve(B, tilt, grid_n, n_levels, half_width)
    if refine:
        _, raw_fine, _ = _interior_eigensolve(
            B, tilt, 2 * grid_n - 1, n_levels, half_width, eigvals_only=True
        )
        drift = np.abs(raw_fine - raw)
        refined = (4.0 * raw_fine - raw) / 3.0
        rel_drift = drift / np.maximum(np.abs(refined), 1.0)
        if np.max(rel_drift) > resolution_rtol:
            raise ResolutionError(
                f"eigenvalue drift {np.max(rel_drift):.2e} under grid doubling; "
                f"increase grid_n beyond {grid_n}"
            )
    else:
        refined = raw
        drift = np.full(n_levels, math.nan)

    symmetric = tilt == 0.0
    if symmetric:
        _fix_parity_mixing(vecs, refined, parity_fix_gap)

    levels: list[EnergyLevel] = []
    wavefunctions: list[Wavefunction] = []
    n_even = n_odd = 0
    for k in range(n_levels):
        full = np.zeros(grid_n)
        full[1:-1] = vecs[:, k]
        full /= math.sqrt(simpson(full**2, x=theta))
        first = np.argmax(np.abs(full) > 1e-8 * np.max(np.abs(full)))
        if full[first] < 0.0:
            full = -full
        if symmetric:
            score = float(np.dot(full, full[::-1]))
            if score > 0.0:
                parity, idx = EVEN, n_even
                n_even += 1
            else:
                parity, idx = ODD, n_odd
                n_odd += 1
        else:
            parity, idx = None, k
        levels.append(EnergyLevel(index=idx, parity=parity,
                                  energy=float(refined[k]), drift=float(drift[k])))
        wavefunctions.append(Wavefunction(grid=theta, values=full))

    return SpectrumResult(
        B=spec.B, tilt=spec.tilt, grid_n=grid_n, half_width=half_width,
        levels=levels, wavefunctions=wavefunctions,
    )


def pairing_table(result: SpectrumResult) -> list[Doublet]:
    """Even/odd doublets with splitting, even-ladder gap and their ratio."""
    if result.tilt != 0.0:
        raise InvalidParameterError("pairing requires the untilted potential")
    evens = sorted(result.by_parity(EVEN), key=lambda lv: lv.index)
    odds = sorted(result.by_parity(ODD), key=lambda lv: lv.index)
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


def levels_from_record(record: dict) -> tuple[dict, list[EnergyLevel]]:
    """Parse the record format produced by SpectrumResult.to_record."""
    try:
        meta = {"B": float(record["B"]), "tilt": float(record["tilt"]),
                "grid_n": int(record["grid_n"])}
        levels = [
            EnergyLevel(index=int(row["n"]), parity=row["parity"],
                        energy=float(row["energy"]))
            for row in record["levels"]
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed spectrum record: {exc}") from exc
    return meta, levels
