"""Stationary states of a rod confined to theta in [-pi/2, pi/2].

In units of hbar^2/2J the Hamiltonian is

    H = -d^2/dtheta^2 + B*(cos(theta) + tilt*sin(theta)),

with hard walls (Dirichlet conditions) at theta = +/- pi/2 where the rod
hits the table.  The solver uses second-order central finite differences
on a uniform grid from wall to wall; the symmetric tridiagonal matrix
`grid_hamiltonian`, which `dynamics` steps too, is diagonalized with
LAPACK (`stebz`, `stein` and `gtsv`, loaded by `_scipy_ext`).  Eigenvalues
are Romberg-extrapolated from the finest three grids of the solve (see
`solve_spectrum`), which removes the O(h^2) and O(h^4) discretization
errors: at B = 1e4 the 72 lowest levels from the default 4001 points are
within 6e-5 of the converged ones, half the error of Richardson on 4001
and 8001 points.

Every eigenvalue is a certified Rayleigh quotient; none is a bisection
midpoint, save in the last-resort fallback below.  `_grids` plans the
grids of a solve, coarsest first: a halving chain up to the base grid of
N points and, where that chain is short, the doubled grid of 2N - 1.
The first grid is only bracketed by `_bisect`, which makes every
by-index bisection (LAPACK `stebz`) and inverse iteration (`stein`):
each eigenvalue to an interval of width BRACKET_RTOL |T|, with a vector
at its midpoint (levels the bracket cannot tell apart are then
separated by Rayleigh-Ritz).  Each later grid continues every level
from its interpolated eigenvector on the grid before it.  From either
start Rayleigh-quotient iteration, cubically convergent (none to three
shifted tridiagonal solves per level), takes the vector to a residual
at rounding level.
Each Rayleigh quotient then lies within its residual of an eigenvalue,
and when these intervals are disjoint one Sturm count fixes which
eigenvalue each is, the guarantee full bisection gives (Parlett, The
Symmetric Eigenvalue Problem, ch. 4).  Levels closer than that, such as
deep doublets split by a tiny tilt, are continued as one cluster by
Rayleigh-Ritz on the span of their vectors, whose Ritz values lie as
close to as many eigenvalues (Kahan; Parlett, ch. 11).  A block that
fails to converge or to certify from the grid below is restarted from
its own grid's bracket, and if that fails too `_bisect` runs to full
precision; a LAPACK failure there is a ResolutionError.  Every grid up
to the base grid writes its vectors into the rows of one (n_levels,
grid_n) array, the result's modes, a row once its start is read.

For tilt = 0 the matrix commutes with the reflection theta -> -theta, so
it splits into two half-size tridiagonal blocks, `parity_blocks`, that
are solved on their own (and that Crank-Nicolson in `dynamics` steps on
their own).  `make_grid` is exactly mirror-symmetric, so an even or odd
function sampled on it keeps its parity exactly.  The odd block is a
leading corner of the matrix; the even block adds the centre row, kept
symmetric by `fold_parity`'s scaling.  Even level j is global level 2j
and odd level j is 2j+1, so parity labels follow the level order, and
the eigenvectors unfold onto the full grid with exact parity; no
rotation of near-degenerate doublets is needed.  A doublet split by less
than bisection's own tolerance, eps*(max|diag| + 2|off|), is tied on that
grid: its splitting reads 0, as bisection of the full matrix would return
it.  The tolerance grows like 1/h^2, so the finest grid ties a doublet
first, and `solve_spectrum` then ties the extrapolated pair as well:
Romberg's combination of that 0 with the coarser grids' splittings is
noise, and can be negative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._scipy_ext import dgtsv, dstebz, dstein
from .errors import DomainError, InvalidParameterError, ResolutionError, require_integer

HALF_PI = 0.5 * math.pi
RESOLUTION_RTOL = 0.02  # largest trusted relative `drift`, over the finest doubling extrapolated
MAX_RQI_SOLVES = 6  # Rayleigh-quotient solves per level before it counts as unconverged
ROMBERG_GRIDS = 3  # grids, each of twice the last one's spacing, that refined energies come from
CHAIN_FLOOR = 180.0  # largest h^2 E n_levels of a chain grid below those
BRACKET_RTOL = 1e-8  # width of a bracketing bisection's intervals, relative to |T|
SIMPSON_BLOCK = 2**15  # grid values multiplied and integrated per `simpson` call, in `row_simpson`
DEFAULT_GRID_N = 4001  # base grid of `solve_spectrum` and the stationary subcommands
MAX_GRID_N = 2**20 + 1  # most base-grid points `solve_spectrum` accepts
MAX_MODE_VALUES = 2**29  # most n_levels * grid_n values of one mode matrix

Parity = Literal["even", "odd"]

EVEN: Parity = "even"
ODD: Parity = "odd"


def require_potential(B: float, tilt: float = 0.0) -> None:
    """Raise InvalidParameterError unless B is finite and >= 0 and |tilt| < 0.1 rad."""
    if not (math.isfinite(B) and B >= 0.0):
        raise InvalidParameterError(f"B must be finite and non-negative, got {B}")
    if not abs(tilt) < 0.1:
        raise InvalidParameterError(f"|tilt| must be < 0.1 rad, got {tilt}")


def potential(theta, B: float, tilt: float = 0.0) -> np.ndarray:
    """Potential B*(cos(theta) + tilt*sin(theta)) in units of hbar^2/2J, at each theta.

    Raises DomainError outside the physical domain |theta| <= pi/2 (NaN
    included), and InvalidParameterError where `require_potential` does.
    """
    require_potential(B, tilt)
    th = np.asarray(theta, dtype=float)
    if not np.all(np.abs(th) <= HALF_PI + 1e-12):
        raise DomainError("theta outside [-pi/2, pi/2]")
    return B * (np.cos(th) + tilt * np.sin(th))


def simpson(y, x: np.ndarray):
    """Simpson's rule along the last axis of y, sampled at the points x.

    The arithmetic of scipy's `simpson(y, x=x)`, so the two agree to the
    bit, without loading scipy's integrate package: per-interval h0/h1
    weights rather than fixed h/3 ones (`make_grid`'s mirrored spacings
    are not exactly uniform, and fixed weights move printed digits), and
    for an even number of points the rule on all but the last interval
    plus Cartwright's correction for that one; two points take the
    trapezoid, as in scipy.
    """
    y = np.asarray(y)
    if len(x) == 2:
        return 0.5 * (x[1] - x[0]) * (y[..., 1] + y[..., 0])
    h = np.diff(x)
    stop = len(x) - 2 if len(x) % 2 else len(x) - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    result = np.sum(hsum / 6.0 * (y[..., 0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[..., 1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[..., 2:stop + 2:2] * (2.0 - ratio)), axis=-1)
    if len(x) % 2 == 0:
        a, b = h[-2], h[-1]
        result += ((2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[..., -1]
                   + (b**2 + 3.0 * a * b) / (6 * a) * y[..., -2]
                   - b**3 / (6 * a * (a + b)) * y[..., -3])
    return result


def row_simpson(rows: np.ndarray, x: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """`simpson` of each row times `weight` (the row itself if None), over x.

    A block of about SIMPSON_BLOCK values at a time, so no copy of all the
    rows is held; each row's value is, to the bit, `simpson` of that row.
    """
    step = max(1, SIMPSON_BLOCK // len(x))
    blocks = (rows[k:k + step] for k in range(0, len(rows), step))
    return np.concatenate([simpson(b * (b if weight is None else weight), x=x) for b in blocks])


@dataclass(frozen=True)
class EnergyLevel:
    """One stationary level.

    `index` counts levels of the same parity from 0 upward; for tilted
    potentials parity is undefined and `index` is the global position.
    `drift` is the raw eigenvalue change between the two finest grids of
    `spectrum._grids`, a direct measure of the discretization error; NaN
    when unrefined.
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
    """Fewest grid points `solve_spectrum` accepts for n_levels levels: 10 n_levels + 1.

    Raises InvalidParameterError, naming no grid, when even that grid's
    mode matrix would hold more than MAX_MODE_VALUES values (from
    n_levels = 7328 on): then no grid holds the levels.
    """
    grid_n = 10 * n_levels + 1
    if n_levels * grid_n > MAX_MODE_VALUES:
        raise InvalidParameterError(
            f"no grid holds {n_levels} levels within {MAX_MODE_VALUES} mode values")
    return grid_n


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


def _start_vectors(start, levels, parity: Parity | None, grid_n: int, vectors: bool):
    """Start vectors on grid_n points from full-grid vectors on (grid_n + 1)/2 points.

    Yields, for each level k of `levels`, an interpolant of the leading
    (grid_n + 1)/2 values of row start[k] that keeps every old point, in
    one reused buffer: the whole interior for parity None, else the block
    vector of that parity.  For start vectors of exact parity that is the
    interior up to the centre (the centre over sqrt(2) for even), so only
    the left half is interpolated.  Row k is read in full before its
    interpolant is yielded, so the caller may overwrite it from then on.

    With `vectors` the continued vectors are kept, to start the next grid
    or as the result: the midpoints are averaged.  Without, only
    eigenvalues are wanted, and each midpoint is the cubic through the
    four coarse points around it (the vector continued oddly through the
    walls): from that start a level converges in about one solve instead
    of two.  A kept vector is better for the second solve: from the cubic
    start it would stop at the residual bound, about 1e-9 from orthonormal
    at 4001 points.
    """
    stop = grid_n if parity is None else (grid_n + 1) // 2  # fine points taken, from the wall
    m = (stop + 1) // 2  # the coarse points among them
    fine = np.empty(stop)
    mids = fine[1::2]
    for k in levels:
        w = start[k]
        fine[0::2] = w[:m]
        np.add(w[:m - 1], w[1:m], out=mids)
        if vectors:
            mids *= 0.5
        else:  # (9 (w[i] + w[i+1]) - w[i-1] - w[i+2]) / 16
            mids *= 9.0
            mids[1:] -= w[:m - 2]
            mids[0] += w[1]  # w[-1] = -w[1], odd about the wall
            mids[:-1] -= w[2:m]
            mids[-1] -= w[m] if parity is not None else -w[m - 2]  # past the centre, or the wall
            mids *= 1.0 / 16.0
        if parity == EVEN:
            fine[-1] /= math.sqrt(2.0)
            yield fine[1:]
        else:
            yield fine[1:-1]


def _rayleigh_ritz(d, e, x, tol):
    """Ritz values, residual norm and Ritz vectors of a cluster, by subspace inverse iteration.

    The columns of x span approximate eigenvectors of the tridiagonal
    (d, e) whose eigenvalues lie too close together to be told apart one
    vector at a time.  With Q an orthonormal basis of their span, the
    eigenvalues theta of Q^T T Q are within |T Y - Y diag(theta)| (Frobenius
    norm, Y = Q times the eigenvectors) of as many distinct eigenvalues of T
    (Kahan; Parlett, ch. 11).  Until that norm is at most tol the span is
    replaced by (T - sigma)^-1 Q, sigma the mean Ritz value.  Returns
    (theta, norm, Y), or None as `_rayleigh_quotient_iteration` does.
    """
    for solve in range(MAX_RQI_SOLVES + 1):
        q = np.linalg.qr(x)[0]
        tq = d[:, None] * q
        tq[:-1] += e[:, None] * q[1:]
        tq[1:] += e[:, None] * q[:-1]
        theta, w = np.linalg.eigh(q.T @ tq)
        y = q @ w
        norm = np.linalg.norm(tq @ w - y * theta)
        if norm <= tol:
            return theta, norm, y
        if solve == MAX_RQI_SOLVES:
            return None
        for shift in (np.mean(theta), np.mean(theta) + tol):
            *_, x, info = dgtsv(e, d - shift, e, y)
            if info == 0:
                break
        else:
            return None


def _rayleigh_quotient_iteration(d, e, starts, count, tol, keep=None):
    """Rayleigh quotients and residual norms of `count` start vectors, iterated.

    Each vector x, normalized, is replaced by the normalized
    (T - rho)^-1 x, with rho its Rayleigh quotient on the tridiagonal
    (d, e), until |T x - rho x| <= tol.  The shifted systems are solved in
    place (LAPACK `gtsv`, LU with partial pivoting), in buffers reused
    for every solve; a shift that is exactly singular is moved by tol
    once.  A run of levels whose intervals rho +- (residual + tol)
    overlap, such as a doublet split by less than tol, is one cluster:
    `_rayleigh_ritz` replaces its values by Ritz values that share one
    residual norm, and joined[j] marks levels j and j + 1 as members of
    one cluster.  keep(j, vector), if given, receives each
    converged vector.  Returns (rho, residual, joined), or None when a
    moved shift is exactly singular too or a level or cluster needs more
    than MAX_RQI_SOLVES solves.
    """
    n = len(d)
    rho, residual = np.empty(count), np.empty(count)
    joined = np.zeros(count - 1, dtype=bool)
    buffers = np.empty(4 * n)  # one block, whose space stebz's work arrays reuse once freed
    tx, work, lower, upper = (buffers[k * n:(k + 1) * n - (k > 1)] for k in range(4))
    run = []  # converged vectors of the open run of overlapping levels, the last one j - 1

    def close_run(j):  # the run ends at level j - 1
        first = j - len(run)
        if len(run) > 1:
            cluster = _rayleigh_ritz(d, e, np.column_stack(run), tol)
            if cluster is None:
                return False
            rho[first:j], residual[first:j], y = cluster
            run[:] = y.T
        if keep is not None:
            for i, vec in enumerate(run):
                keep(first + i, vec)
        run.clear()
        return True

    for j, x in enumerate(starts):
        x /= np.linalg.norm(x)
        for solve in range(MAX_RQI_SOLVES + 1):
            np.multiply(d, x, out=tx)
            tx[:-1] += np.multiply(e, x[1:], out=lower)
            tx[1:] += np.multiply(e, x[:-1], out=lower)
            rho[j] = x @ tx
            tx -= np.multiply(x, rho[j], out=work)
            residual[j] = np.linalg.norm(tx)
            if residual[j] <= tol:
                break
            if solve == MAX_RQI_SOLVES:
                return None
            np.copyto(tx, x)  # for a second try: the shift can be an eigenvalue to the bit
            for shift in (rho[j], rho[j] + tol):
                np.subtract(d, shift, out=work)
                lower[:], upper[:] = e, e
                *_, x, info = dgtsv(lower, work, upper, x, overwrite_dl=1, overwrite_d=1,
                                    overwrite_du=1, overwrite_b=1)
                if info == 0:
                    break
                x[:] = tx
            else:
                return None
            x /= np.linalg.norm(x)
        if j and rho[j] - residual[j] <= rho[j - 1] + residual[j - 1] + 2.0 * tol:
            joined[j - 1] = True
        elif not close_run(j):
            return None
        run.append(x.copy())
    return (rho, residual, joined) if close_run(count) else None


def _norm_and_tol(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """|T| = max|d| + 2 max|e| of the tridiagonal, and the residual tolerance 8 eps |T| sqrt(n)."""
    scale = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
    return scale, 8.0 * np.finfo(float).eps * scale * math.sqrt(len(d))


def _continue_levels(d: np.ndarray, e: np.ndarray, starts, count: int,
                     keep=None) -> np.ndarray | None:
    """The lowest `count` eigenvalues of the tridiagonal (d, e), continued from start vectors.

    `starts` yields one approximate eigenvector per level, lowest first.
    Rayleigh-quotient iteration takes each to a residual |T x - rho x| of
    at most tol = 8 eps |T| sqrt(n), so rho_j lies within residual_j + tol
    of an eigenvalue (tol covering rounding); a cluster of levels too
    close for that holds as many eigenvalues within its shared radius.
    Take these intervals (a cluster's as one) in order; the top run is the
    last level or cluster, and its first level is j = top.  If the
    intervals are disjoint and one Sturm count (`stebz` by value, with a
    tolerance that spans the whole range so that it stops at once) finds
    exactly `top` eigenvalues up to the bottom of the top run, then each
    interval below holds exactly its own eigenvalues, and the top run,
    which holds at least its own, holds the lowest ones above: rho_j lies
    in one interval with eigenvalue j, for every j.  The top run may also
    hold an eigenvalue past `count`, such as the partner of a doublet
    whose lower member is the last level asked for; counting to its
    bottom, not its top, certifies that cut doublet too.  Returns None
    when the iteration fails or the certificate does not hold; keep(j,
    vector), if given, has then been called for some levels only.  The
    iteration's buffers are freed before `stebz` allocates its own.
    """
    scale, tol = _norm_and_tol(d, e)
    iterated = _rayleigh_quotient_iteration(d, e, starts, count, tol, keep)
    if iterated is None:
        return None
    rho, radius, joined = iterated
    radius += tol
    if not np.all((rho[:-1] + radius[:-1] < rho[1:] - radius[1:]) | joined):
        return None
    vl = np.min(d) - scale  # below every eigenvalue (Gershgorin)
    top = np.flatnonzero(np.append(True, ~joined))[-1]  # the first level of the top run
    vu = rho[top] - radius[top]
    found, *_, info = dstebz(d, e, 1, vl, vu, 1, 1, vu - vl, b"E")  # range 1: (vl, vu]
    return rho if info == 0 and found == top else None


def _bisect(d: np.ndarray, e: np.ndarray, count: int, width: float, vectors: bool):
    """The lowest `count` eigenvalues of the tridiagonal (d, e) by bisection, and their vectors.

    `stebz` by index (range 2) stops once each lies in an interval of width
    `width` (0: full precision); with `vectors`, `stein` gives unit
    eigenvectors as rows (its matrix transposed, not copied), else none.
    Vectors take stebz's block order, sorted here only if the matrix splits
    (|d| ~ 1e16/h^2).  Returns (values, rows), or None when LAPACK fails.
    """
    m, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, 1, count, width, b"B" if vectors else b"E")
    w = w[:m]
    if info:
        return None
    z, info = dstein(d, e, w, block, split) if vectors else (np.empty((len(d), 0)), 0)
    order = slice(None) if np.all(w[:-1] <= w[1:]) else np.argsort(w)
    return None if info else (w[order], z.T[order])


def _bracketed_levels(d: np.ndarray, e: np.ndarray, count: int, keep=None) -> np.ndarray | None:
    """`_continue_levels` started from a bracketing bisection of the same block.

    `_bisect` brackets each of the lowest `count` eigenvalues to a width
    of BRACKET_RTOL |T| (|T| = max|d| + 2 max|e|), far inside the level
    spacing, with a vector at each midpoint.  Levels within two widths of
    each other, such as deep doublets split by a tiny tilt, come out as
    mixtures from which Rayleigh-quotient iteration can stall, so
    Rayleigh-Ritz on each such run's span separates them first.
    `_continue_levels` then finishes and certifies every pair, iterating
    the rows in place; most have rounding-level residuals and take no
    solve.  Returns None where `_continue_levels` or `_bisect` does.
    """
    scale, tol = _norm_and_tol(d, e)
    width = BRACKET_RTOL * scale
    if (bracket := _bisect(d, e, count, width, vectors=True)) is None:
        return None
    w, starts = bracket
    for run in np.split(np.arange(count), np.flatnonzero(np.diff(w) > 2.0 * width) + 1):
        if len(run) > 1:
            ritz = _rayleigh_ritz(d, e, starts[run].T, tol)
            if ritz is not None:
                starts[run] = ritz[2].T
    return _continue_levels(d, e, starts, count, keep)


def _interior_eigensolve(B, tilt, grid_n, n_levels, modes=None, start=None):
    """Lowest n_levels eigenvalues of `grid_hamiltonian` on grid_n points.

    With `modes` (n_levels rows of at least grid_n values) level k's
    eigenvector, zero at the walls and not yet normalized (at tilt 0 the
    half-size block vector unfolded), is written into row k's leading
    grid_n values.  `start` holds such rows for the grid of (grid_n + 1)/2
    points, and may be `modes` itself (a row is overwritten only after it
    is read); each level is then continued from its interpolated vector
    by `_continue_levels`.  Without `start`, or when that fails its
    certificate, a block is continued from its own bracket
    (`_bracketed_levels`), and only when that fails too is it bisected to
    full precision, where a LAPACK failure raises ResolutionError.
    Returns the energies.
    """
    diag, off = grid_hamiltonian(make_grid(grid_n), B, tilt)
    if tilt == 0.0:
        blocks = parity_blocks(diag, off)  # level 2j is even j, level 2j + 1 is odd j
    else:
        blocks = {None: (diag, np.full(grid_n - 3, off))}
    stride = len(blocks)
    energies = np.empty(n_levels)
    for p, (parity, (d, e)) in enumerate(blocks.items()):
        levels = range(p, n_levels, stride)
        if not levels:
            continue

        def keep(j, vec):
            row = modes[levels[j], 1:grid_n - 1]  # the interior: the walls stay zero
            if parity is None:
                row[:] = vec
            else:
                row[:] = 0.0  # unfold_parity adds to it
                unfold_parity(vec, parity, row)

        kept = None if modes is None else keep
        continued = None
        if start is not None:
            starts = _start_vectors(start, levels, parity, grid_n, modes is not None)
            continued = _continue_levels(d, e, starts, len(levels), kept)
        if continued is None:
            continued = _bracketed_levels(d, e, len(levels), kept)
        if continued is None:
            bisected = _bisect(d, e, len(levels), 0.0, vectors=modes is not None)
            if bisected is None:
                raise ResolutionError(f"bisection failed on a block of the {grid_n}-point grid")
            continued, rows = bisected
            for j, vec in enumerate(rows):
                keep(j, vec)
        energies[p::stride] = continued
    if tilt == 0.0:
        # Bisection of the full matrix cannot resolve a doublet within its
        # absolute tolerance; tie it, so that its splitting reads 0 whether
        # the block was continued, bracketed or bisected.
        even, odd = energies[0:n_levels - 1:2], energies[1::2]
        tied = np.abs(odd - even) <= np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(off))
        odd[tied] = even[tied]
    return energies


def _grids(B, tilt, grid_n, n_levels, refine):
    """Grid sizes of one solve, coarsest first: the halving chain, then the doubled grid.

    The chain halves grid_n -> (grid_n + 1)/2 -> ... while the next grid
    is odd and has at least min_grid_n(n_levels) points.  Below the
    finest ROMBERG_GRIDS grids, which the extrapolation uses, a grid of
    spacing h must also resolve the top level: h^2 E n_levels <=
    CHAIN_FLOOR, with E = B (1 + |tilt|) + n_levels^2 above every level
    (min-max).  That is about the top level's drift onto the next grid
    over the level spacing; from a coarser grid the continuation fails,
    and the next grid is bracketed after all.  With `refine`, a chain of
    fewer than ROMBERG_GRIDS grids is followed by the doubled grid of
    2 grid_n - 1 points.  Only the first grid is bracketed; each later
    one is continued from the eigenvectors of the one before it.
    """
    top = B * (1.0 + abs(tilt)) + n_levels**2
    grids = [grid_n]
    while (n := (grids[0] + 1) // 2) % 2 and n >= min_grid_n(n_levels) and (
            len(grids) < ROMBERG_GRIDS or (math.pi / (n - 1))**2 * top * n_levels <= CHAIN_FLOOR):
        grids.insert(0, n)
    return grids + [2 * grid_n - 1] if refine and len(grids) < ROMBERG_GRIDS else grids


def _richardson_table(energies):
    """Eigenvalues extrapolated to h -> 0 from grids whose spacing doubles, finest first.

    The three-point eigenvalues expand in even powers of h, because the
    walls are grid points, where psi'' vanishes.  Column k of the table,
    (4^k fine - coarse)/(4^k - 1), cancels the h^2k term, so two grids
    give Richardson's (4 E_h - E_2h)/3 and three grids Romberg's
    (64 E_h - 20 E_2h + E_4h)/45.
    """
    column = list(energies)
    for k in range(1, len(column)):
        weight = 4.0**k
        column = [(weight * fine - coarse) / (weight - 1.0)
                  for fine, coarse in zip(column, column[1:])]
    return column[0]


@dataclass
class SpectrumResult:
    """Levels and eigenfunctions of one potential configuration."""

    B: float
    tilt: float
    levels: list[EnergyLevel]
    wavefunctions: list[Wavefunction]
    grid: np.ndarray
    modes: np.ndarray  # (n_levels, grid_n), C-contiguous; wavefunctions[k].values is row k

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def level(self, parity: Parity, n: int) -> EnergyLevel:
        for lv in self.levels:
            if lv.parity == parity and lv.index == n:
                return lv
        raise InvalidParameterError(f"no {parity} level with index {n}")

    def wavefunction(self, parity: Parity, n: int) -> Wavefunction:
        return self.wavefunctions[self.levels.index(self.level(parity, n))]


def solve_spectrum(
    B: float,
    n_levels: int,
    grid_n: int = DEFAULT_GRID_N,
    tilt: float = 0.0,
    refine: bool = True,
) -> SpectrumResult:
    """Solve for the lowest n_levels stationary states.

    Eigenfunctions are returned on the base grid as the rows of
    `SpectrumResult.modes`, normalized by `row_simpson` and signed so that
    the first value above 1e-8 of the largest is positive.  Every
    eigenvalue is a certified Rayleigh quotient (see the module docstring)
    on each grid of `_grids`, in one loop: every grid up to grid_n writes
    its eigenvectors into the rows of the one mode matrix, and the
    doubled grid, if any, is solved for eigenvalues only.

    The energies are the Richardson table (`_richardson_table`) of the
    finest ROMBERG_GRIDS = 3 of these grids, and `EnergyLevel.drift` is
    the raw change between the finest two.

    Raises InvalidParameterError, before anything is allocated, unless
    n_levels and grid_n are integers (not bool), n_levels >= 1, some grid
    holds n_levels levels (`min_grid_n`), grid_n is odd, at least
    min_grid_n(n_levels) and at most MAX_GRID_N, and
    n_levels * grid_n is at most MAX_MODE_VALUES; raises ResolutionError
    when that drift exceeds RESOLUTION_RTOL relative (even the
    extrapolated values should not be trusted) or LAPACK's bisection fails.

    With refine=False the energies are the raw eigenvalues of the
    base-grid operator (no extrapolation, drift not available).  Use
    this when the energies must be consistent with other computations
    on the same grid, e.g. comparing eigenbasis propagation against a
    direct integrator that steps the identical discrete Hamiltonian.
    """
    require_potential(B, tilt)
    require_integer("n_levels", n_levels, least=1)
    require_integer("grid_n", grid_n)
    least = min_grid_n(n_levels)  # refuses first where no grid holds the levels
    if grid_n < least:
        raise InvalidParameterError(
            f"grid_n={grid_n} too coarse for {n_levels} levels (need >= {least})")
    if grid_n % 2 == 0:
        raise InvalidParameterError("grid_n must be odd so the grid contains theta = 0")
    if grid_n > MAX_GRID_N:
        raise InvalidParameterError(f"grid_n={grid_n} exceeds the largest grid, {MAX_GRID_N}")
    if n_levels * grid_n > MAX_MODE_VALUES:
        raise InvalidParameterError(f"{n_levels} x {grid_n} mode values exceed {MAX_MODE_VALUES}")

    modes = np.zeros((n_levels, grid_n))
    solved = []  # the eigenvalues of each grid, finest first
    for n in _grids(B, tilt, grid_n, n_levels, refine):
        solved.insert(0, _interior_eigensolve(B, tilt, n, n_levels, modes if n <= grid_n else None,
                                              start=modes if solved else None))
    theta = make_grid(grid_n)
    if refine:
        drift = np.abs(solved[0] - solved[1])
        refined = _richardson_table(solved[:ROMBERG_GRIDS])
        if tilt == 0.0:  # a doublet tied on the finest grid stays tied
            tied = solved[0][1::2] == solved[0][0:n_levels - 1:2]
            refined[1::2][tied] = refined[0:n_levels - 1:2][tied]
        rel_drift = drift / np.maximum(np.abs(refined), 1.0)
        if np.max(rel_drift) > RESOLUTION_RTOL:
            raise ResolutionError(
                f"eigenvalue drift {np.max(rel_drift):.2e} under grid doubling; "
                f"increase grid_n beyond {grid_n}"
            )
    else:
        refined = solved[0]
        drift = np.full(n_levels, math.nan)

    levels: list[EnergyLevel] = []
    wavefunctions: list[Wavefunction] = []
    for k, (row, norm) in enumerate(zip(modes, np.sqrt(row_simpson(modes, theta)))):
        row /= norm
        first = np.argmax(np.abs(row) > 1e-8 * np.max(np.abs(row)))
        if row[first] < 0.0:
            row *= -1.0
        parity, idx = ((EVEN, ODD)[k % 2], k // 2) if tilt == 0.0 else (None, k)
        levels.append(EnergyLevel(index=idx, parity=parity,
                                  energy=float(refined[k]), drift=float(drift[k])))
        wavefunctions.append(Wavefunction(grid=theta, values=row))

    return SpectrumResult(B=B, tilt=tilt, levels=levels, wavefunctions=wavefunctions,
                          grid=theta, modes=modes)


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

