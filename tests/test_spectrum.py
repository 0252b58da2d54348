"""Finite-difference spectrum: exact limits, invariants, reference doublets."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from quantum_rod import _scipy_ext, spectrum
from quantum_rod.cli import main
from quantum_rod.errors import DomainError, InvalidParameterError, ResolutionError
from quantum_rod.spectrum import (
    grid_hamiltonian,
    make_grid,
    pairing_table,
    potential,
    simpson as grid_simpson,
    solve_spectrum,
)
from reference_routes import mathieu_residual

# Reference doublets at B = 1e4 across the barrier crossover, indexed by
# the per-parity quantum number n: (e_plus, e_minus, splitting, gap, ratio).
CROSSOVER_DOUBLETS = {
    22: (9420.43, 9420.43, 0.00, 187.59, 0.0000),
    26: (10024.28, 10071.29, 47.01, 122.49, 0.3838),
    29: (10486.15, 10581.94, 95.79, 195.17, 0.4908),
    33: (11344.21, 11464.82, 120.61, 243.92, 0.4945),
}


def test_free_rod_ladder():
    # B = 0 in a box of width pi: E_k = (k+1)^2 exactly.
    res = solve_spectrum(0.0, 5, grid_n=201)
    exact = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    assert np.max(np.abs(res.energies - exact) / exact) < 1e-6


def test_free_rod_parity_alternation():
    res = solve_spectrum(0.0, 8, grid_n=201)
    parities = [lv.parity for lv in res.levels]
    assert parities == ["even", "odd"] * 4
    indices = [lv.index for lv in res.levels]
    assert indices == [0, 0, 1, 1, 2, 2, 3, 3]


def test_free_rod_ground_state_amplitude():
    # psi_0 = sqrt(2/pi) cos(theta); check the grid point at theta = 0.
    res = solve_spectrum(0.0, 2, grid_n=201)
    assert res.wavefunctions[0].grid[100] == 0.0
    assert res.wavefunction("even", 0).values[100] == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-10)
    assert res.wavefunction("odd", 0).values[100] == pytest.approx(0.0, abs=1e-12)


def _sign_changes(values):
    # Samples below 1e-8 of the peak (the walls, and deep-well tails that
    # hold only rounding noise) are skipped; a node inside such a stretch
    # still shows as a sign change between the samples around it.
    kept = values[np.abs(values) > 1e-8 * np.max(np.abs(values))]
    return int(np.count_nonzero(np.sign(kept[1:]) != np.sign(kept[:-1])))


@pytest.mark.parametrize("B", [0.0, 1e2, 1e4])
def test_level_order_fixes_nodes_and_parity(B, spectrum_b1e4):
    # Level k has k interior nodes, so its parity is (even, odd)[k % 2].
    res = spectrum_b1e4 if B == 1e4 else solve_spectrum(B, 30, grid_n=401)
    for k, (lv, wf) in enumerate(zip(res.levels, res.wavefunctions)):
        assert _sign_changes(wf.values) == k
        assert (lv.parity, lv.index) == (("even", "odd")[k % 2], k // 2)


def test_wavefunction_invariants(spectrum_b1e4):
    for lv, wf in zip(spectrum_b1e4.levels[:70], spectrum_b1e4.wavefunctions[:70]):
        assert simpson(wf.values**2, x=wf.grid) == pytest.approx(1.0, abs=1e-8)
        assert wf.values[0] == 0.0 and wf.values[-1] == 0.0
        sign = 1.0 if lv.parity == "even" else -1.0
        assert np.array_equal(wf.values, sign * wf.values[::-1])


def test_orthonormality(spectrum_b1e4):
    # The lowest 20 doublets lie far below the bisection tolerance, yet the
    # block eigenvectors form an orthonormal eigenbasis of the grid operator.
    grid = spectrum_b1e4.wavefunctions[0].grid
    block = np.array([wf.values for wf in spectrum_b1e4.wavefunctions[:72]])
    gram = np.array([simpson(block * psi, x=grid, axis=1) for psi in block])
    assert np.max(np.abs(gram - np.eye(72))) < 1e-10
    diag, off = grid_hamiltonian(grid, spectrum_b1e4.B)
    scale = np.max(np.abs(diag)) + 2.0 * abs(off)
    for psi in block:
        inner = psi[1:-1]
        h_psi = diag * inner + off * (psi[:-2] + psi[2:])
        residual = h_psi - (inner @ h_psi) / (inner @ inner) * inner
        assert np.linalg.norm(residual) < 1e-12 * scale * np.linalg.norm(inner)


def _full_matrix_levels(B, n_levels, grid_n):
    # The whole (grid_n - 2)-point three-point matrix, bisected at once.
    grid = make_grid(grid_n)
    h = grid[1] - grid[0]
    diag = 2.0 / h**2 + B * np.cos(grid[1:-1])
    return eigh_tridiagonal(diag, np.full(grid_n - 3, -1.0 / h**2), eigvals_only=True,
                            select="i", select_range=(0, n_levels - 1))


@pytest.mark.parametrize("B", [0.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("n_levels", [1, 41])
def test_parity_blocks_match_full_matrix(B, n_levels):
    grid_n = 2001
    res = solve_spectrum(B, n_levels, grid_n=grid_n, refine=False)
    ref = _full_matrix_levels(B, n_levels, grid_n)
    h = math.pi / (grid_n - 1)
    assert np.max(np.abs(res.energies - ref)) <= 8 * np.finfo(float).eps * (4 / h**2 + B)
    for j in range(n_levels // 2):   # a doublet the full matrix ties stays tied
        if ref[2 * j + 1] == ref[2 * j]:
            assert res.energies[2 * j + 1] == res.energies[2 * j]
    for lv, wf in zip(res.levels, res.wavefunctions):
        sign = 1.0 if lv.parity == "even" else -1.0
        assert np.array_equal(wf.values, sign * wf.values[::-1])
    assert [(lv.parity, lv.index) for lv in res.levels] == [
        (("even", "odd")[k % 2], k // 2) for k in range(n_levels)]


def test_crossover_doublets(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    for n, (e_plus, e_minus, split, gap, ratio) in CROSSOVER_DOUBLETS.items():
        d = table[n]
        assert d.n == n
        assert d.e_plus == pytest.approx(e_plus, abs=0.05)
        assert d.e_minus == pytest.approx(e_minus, abs=0.05)
        assert d.splitting == pytest.approx(split, abs=0.05)
        assert d.gap == pytest.approx(gap, abs=0.05)
        assert d.pairing_ratio == pytest.approx(ratio, abs=0.002)


def test_pairing_ratio_approaches_half(spectrum_b1e4):
    table = pairing_table(spectrum_b1e4)
    assert abs(table[59].pairing_ratio - 0.5) < 0.01
    # Above the barrier the approach to 1/2 is monotone.
    ratios = [d.pairing_ratio for d in table[28:60]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 0.5 for r in ratios)


def test_mathieu_residual(spectrum_b1e4):
    assert mathieu_residual(spectrum_b1e4, 0) < 1e-4
    assert mathieu_residual(spectrum_b1e4, 100) < 1e-3


@pytest.mark.parametrize("k", [-1, 4])
def test_mathieu_residual_rejects_a_missing_level(k):
    res = solve_spectrum(100.0, 4, grid_n=201)
    with pytest.raises(InvalidParameterError, match=rf"level k={k} not in 0\.\.3"):
        mathieu_residual(res, k)


def test_grid_convergence(spectrum_b1e4):
    # Extrapolated energies must be grid-insensitive well below 1e-6.
    coarse = solve_spectrum(1e4, 30, grid_n=2001)
    ref = spectrum_b1e4.energies[:30]
    assert np.max(np.abs(coarse.energies - ref) / ref) < 1e-6


def test_resolution_guard():
    with pytest.raises(ResolutionError):
        solve_spectrum(1e6, 20, grid_n=201)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        solve_spectrum(100.0, 5, grid_n=200)       # even grid
    with pytest.raises(InvalidParameterError, match=r"need >= 301\)"):
        solve_spectrum(100.0, 30, grid_n=201)      # too coarse
    solve_spectrum(100.0, 30, grid_n=301)          # the value the message names
    with pytest.raises(InvalidParameterError):
        solve_spectrum(100.0, 0)
    with pytest.raises(InvalidParameterError):
        solve_spectrum(-1.0, 5, grid_n=201)
    with pytest.raises(InvalidParameterError):
        solve_spectrum(100.0, 5, grid_n=201, tilt=0.2)
    for args, kwargs, name in [((100.0, 2.5), {}, "n_levels"), ((100.0, True), {}, "n_levels"),
                               ((100.0, 4), {"grid_n": 401.0}, "grid_n")]:
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
            solve_spectrum(*args, **kwargs)
    assert len(solve_spectrum(100.0, np.int64(4), grid_n=np.int64(401)).levels) == 4
    # A grid past MAX_GRID_N, or a mode matrix past MAX_MODE_VALUES, is
    # refused before anything of its size is allocated.
    for n_levels, grid_n, message in [(4, 1000000001, "exceeds the largest grid"),
                                      (600, spectrum.MAX_GRID_N, "mode values")]:
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match=message):
                solve_spectrum(1e4, n_levels, grid_n=grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


def test_min_grid_n_stops_at_the_mode_matrix_bound():
    # 7327 levels on 73271 points fit in MAX_MODE_VALUES; 7328 levels fit on no grid,
    # and solve_spectrum says so before judging the grid it was given.
    assert spectrum.min_grid_n(7327) == 73271
    assert 7327 * 73271 <= spectrum.MAX_MODE_VALUES < 7328 * 73281
    for call in (lambda: spectrum.min_grid_n(7328), lambda: solve_spectrum(1e4, 7328, grid_n=201)):
        with pytest.raises(InvalidParameterError, match="no grid holds 7328 levels"):
            call()


def test_potential_values():
    assert potential(0.0, 1e4) == pytest.approx(1e4, rel=1e-14)
    assert abs(potential(0.5 * math.pi, 1e4)) < 1e-9
    tilted = potential(0.25 * math.pi, 100.0, tilt=0.01)
    assert tilted == pytest.approx(100.0 * math.sqrt(0.5) * 1.01, rel=1e-14)
    with pytest.raises(DomainError):
        potential(2.0, 100.0)


def test_make_grid_symmetry():
    for grid_n in (3, 4, 400, 401, 2000, 4001, 20001):
        grid = make_grid(grid_n)
        assert len(grid) == grid_n and grid[0] == -0.5 * math.pi
        assert np.array_equal(grid, -grid[::-1])
        if grid_n % 2:
            assert grid[grid_n // 2] == 0.0
        assert np.max(np.abs(np.diff(grid, 2))) < 1e-14   # uniform


@pytest.mark.parametrize("grid_n", [3, 5, 7, 9, 401, 2001, 4001, 4003, 20001])
def test_simpson_is_scipy_simpson_bit_for_bit(grid_n):
    # The helper copies scipy's arithmetic, so it must agree to the bit on
    # full grids, on the left halves slanted.tilt_sweep takes for p_left_lower
    # ((grid_n + 1) / 2 points: odd for grid_n = 1 mod 4, even and
    # Cartwright-corrected for grid_n = 3 mod 4, the trapezoid for
    # grid_n = 3) and row-wise on 2-D input.
    rng = np.random.default_rng(grid_n)
    grid = make_grid(grid_n)
    left = grid <= 0.0
    rows = np.stack([np.exp(-grid**2 / 0.02), np.cos(3.0 * grid) * np.sin(grid),
                     rng.standard_normal(grid_n)])
    for y in rows:
        assert grid_simpson(y, grid) == simpson(y, x=grid)
        assert grid_simpson(y[left], grid[left]) == simpson(y[left], x=grid[left])
    assert np.array_equal(grid_simpson(rows, grid), simpson(rows, x=grid, axis=1))
    assert np.array_equal(grid_simpson(rows[:, left], grid[left]),
                          simpson(rows[:, left], x=grid[left], axis=1))


@pytest.mark.parametrize("B, n_levels, grid_n, tilt", [(1e3, 280, 2801, 0.0),
                                                       (1e4, 16, 401, 1e-3)])
def test_levels_are_normalized_and_signed_one_by_one(monkeypatch, B, n_levels, grid_n, tilt):
    # Reference: each level normalized by its own Simpson quadrature, then
    # signed so that its first non-negligible value is positive.
    raw = []
    interior_eigensolve = spectrum._interior_eigensolve

    def copied(B, tilt, n, n_levels, modes=None, start=None):  # the rows as each grid left them
        energies = interior_eigensolve(B, tilt, n, n_levels, modes, start)
        raw[:] = [modes.copy()]
        return energies

    with monkeypatch.context() as m:
        m.setattr(spectrum, "_interior_eigensolve", copied)
        res = solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt, refine=False)
    for full, wf in zip(raw[0], res.wavefunctions):
        full /= math.sqrt(grid_simpson(full**2, x=res.grid))
        first = np.argmax(np.abs(full) > 1e-8 * np.max(np.abs(full)))
        if full[first] < 0.0:
            full *= -1.0
        assert np.array_equal(wf.values, full)


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
def test_modes_are_one_matrix(tilt):
    # The eigenfunctions are the rows of one C-contiguous array, and each
    # Wavefunction's values are a view of its row, not a copy.
    res = solve_spectrum(1e4, 16, grid_n=401, tilt=tilt)
    assert res.modes.shape == (16, 401) and res.modes.flags.c_contiguous
    for k, wf in enumerate(res.wavefunctions):
        assert wf.grid is res.grid and wf.values.shape == (401,)
        assert np.shares_memory(wf.values, res.modes[k])


def _peak_over_modes(B, n_levels, grid_n, refine=True):
    # The traced peak of a solve, over the size of its mode matrix.
    tracemalloc.start()
    try:
        res = solve_spectrum(B, n_levels, grid_n=grid_n, refine=refine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / res.modes.nbytes


@pytest.mark.parametrize("B, n_levels, grid_n", [(1e4, 140, 5601), (1e6, 200, 20001)])
def test_solve_holds_about_one_mode_matrix(B, n_levels, grid_n):
    # Every grid of the chain writes into the rows of the result's modes, and
    # the norms are taken a block of rows at a time, so the traced peak is
    # the mode matrix plus about one coarser grid's work.
    assert _peak_over_modes(B, n_levels, grid_n) <= 1.15


def test_unrefined_basis_holds_about_one_mode_matrix():
    # The benchmark's largest dynamics basis has no grid below it, so one
    # block's stein vectors, held once, coexist with the whole matrix.
    assert _peak_over_modes(1e3, 280, 2801, refine=False) <= 1.35


def test_tilted_levels_have_no_parity():
    res = solve_spectrum(100.0, 4, grid_n=401, tilt=0.01)
    assert all(lv.parity is None for lv in res.levels)
    assert [lv.index for lv in res.levels] == [0, 1, 2, 3]
    with pytest.raises(InvalidParameterError):
        pairing_table(res)


def _count_bisections(monkeypatch):
    # One (block size, kind) entry per `_bisect` call, labelled from its own
    # arguments.  A "bracket" has width > 0 and starts the Rayleigh-quotient
    # iteration; a full-precision one (width 0) is the fallback, with
    # eigenvectors ("vectors") on the chain's grids and eigenvalues only
    # ("values") on the doubled grid.
    calls = []
    bisect = spectrum._bisect

    def counted(d, e, count, width, vectors):
        calls.append((len(d), "bracket" if width > 0.0 else "vectors" if vectors else "values"))
        return bisect(d, e, count, width, vectors)

    monkeypatch.setattr(spectrum, "_bisect", counted)
    return calls


def _solve(B, tilt, grid_n, n_levels, start=None):
    # `_interior_eigensolve` with eigenvectors: (energies, modes), the
    # vectors written into the rows of a fresh (n_levels, grid_n) array.
    modes = np.zeros((n_levels, grid_n))
    return spectrum._interior_eigensolve(B, tilt, grid_n, n_levels, modes, start), modes


def _bisected(monkeypatch, call):
    # `call` with every block, on every grid, sent to the full-precision
    # fallback: neither its chain start nor its bracket is continued.
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_continue_levels", lambda *args: None)
        return call()


def _block_sizes(grid_n, tilt):
    # Block matrix sizes on grid_n points: the parity blocks at tilt 0.
    c = (grid_n - 2) // 2
    return [c + 1, c] if tilt == 0.0 else [grid_n - 2]


def _tol(grid_n, B, tilt):
    # dstebz's absolute tolerance on the grid: eps * (max|diag| + 2|off|).
    diag, off = grid_hamiltonian(make_grid(grid_n), B, tilt)
    return np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(off))


# (B, base grid, levels): the benchmark's sizes, 40001 doubled-grid points at B = 1e6.
CONTINUATION_CASES = [(0.0, 2001, 12), (1e2, 2001, 16), (1e4, 4001, 40), (1e6, 20001, 20)]


@pytest.mark.parametrize("tilt", [0.0, 1e-3, 1e-12])
@pytest.mark.parametrize("B, grid_n, n_levels", CONTINUATION_CASES)
def test_doubled_grid_continuation_matches_bisection(monkeypatch, B, grid_n, n_levels, tilt):
    # tilt = 1e-12 splits the deep doublets by less than the certificate's
    # interval width at B >= 1e4: they are continued as two-level clusters.
    values = _solve(B, tilt, grid_n, n_levels)[1]
    fine_n = 2 * grid_n - 1
    calls = _count_bisections(monkeypatch)
    continued = spectrum._interior_eigensolve(B, tilt, fine_n, n_levels, start=values)
    assert not calls                             # no block fell back to bisection
    bisected = _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, fine_n, n_levels, start=values))
    assert [kind for _, kind in calls] == ["bracket", "values"] * (2 if tilt == 0.0 else 1)
    assert np.max(np.abs(continued - bisected)) <= _tol(fine_n, B, tilt)
    if tilt == 0.0:  # the tie rule holds for continued values as for bisected ones
        assert np.array_equal(continued[1::2] == continued[0::2], bisected[1::2] == bisected[0::2])


@pytest.mark.parametrize("tilt", [0.0, 1e-3, 1e-12])
@pytest.mark.parametrize("B, grid_n, n_levels", CONTINUATION_CASES)
def test_only_the_coarsest_grid_is_bisected(monkeypatch, B, grid_n, n_levels, tilt):
    chain = spectrum._grids(B, tilt, grid_n, n_levels, refine=False)
    calls = _count_bisections(monkeypatch)
    solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt)
    assert len(chain) > 1
    assert calls == [(size, "bracket") for size in _block_sizes(chain[0], tilt)]


def _record_solves(monkeypatch):
    # grid_n -> eigenvalues of each `_interior_eigensolve` call, in call order.
    solves = {}
    interior_eigensolve = spectrum._interior_eigensolve

    def recorded(B, tilt, grid_n, n_levels, modes=None, start=None):
        solves[grid_n] = interior_eigensolve(B, tilt, grid_n, n_levels, modes, start)
        return solves[grid_n]

    monkeypatch.setattr(spectrum, "_interior_eigensolve", recorded)
    return solves


@pytest.mark.parametrize("B, n_levels, grid_n, solved, table", [
    (1e4, 72, 4001, [1001, 2001, 4001], [4001, 2001, 1001]),  # Romberg on the chain
    (1e4, 72, 2001, [1001, 2001, 4001], [4001, 2001, 1001]),  # the chain has (N + 1)/2 only
    (1e4, 72, 4003, [4003, 8005], [8005, 4003]),              # 2002 points is even: no chain
    (1e4, 140, 2001, [2001, 4001], [4001, 2001]),             # 1001 < min_grid_n(140)
    (1e6, 200, 10001, [2501, 5001, 10001], [10001, 5001, 2501]),  # kept below the floor
])
def test_extrapolation_takes_the_finest_three_grids(monkeypatch, B, n_levels, grid_n, solved,
                                                    table):
    # The doubled grid of 2 grid_n - 1 points is solved only when the chain
    # lacks (grid_n + 1)/2 or (grid_n + 3)/4, and `drift` is the raw change
    # over the finest doubling in the table.  The chain floor never drops
    # those two grids, even where, as for 2501 points at B = 1e6 with 200
    # levels, it would drop them further down a chain.
    solves = _record_solves(monkeypatch)
    res = solve_spectrum(B, n_levels, grid_n=grid_n)
    assert list(solves) == solved
    fine, mid, *coarse = (solves[n] for n in table)
    if coarse:
        expected = (64.0 * fine - 20.0 * mid + coarse[0]) / 45.0
    else:
        expected = (4.0 * fine - mid) / 3.0
    assert np.allclose(res.energies, expected, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert np.array_equal([lv.drift for lv in res.levels], np.abs(fine - mid))


@pytest.mark.parametrize("B, n_levels, grid_n, n", [
    (1e3, 40, 4001, 3), (1e4, 60, 16001, 20), (300.0, 40, 2001, 0)])
def test_doublet_tied_on_the_finest_grid_stays_tied(B, n_levels, grid_n, n):
    # The tie tolerance grows like 1/h^2, so the finest grid ties these
    # doublets while coarser grids still split them.  Romberg's
    # (64 * 0 - 20 s_2h + s_4h) / 45 of those splittings is negative noise:
    # -6.1e-9 for n = 20 at B = 1e4, where the true splitting is +1.46e-8.
    assert pairing_table(solve_spectrum(B, n_levels, grid_n=grid_n))[n].splitting == 0.0


# (B, levels, grid N, max |error| of Richardson on N and 2N - 1 points, measured
# against Romberg on grids 8-16 times finer)
ROMBERG_CASES = [(1e4, 72, 4001, 1.22e-4), (1e3, 100, 4001, 2.63e-4), (1e4, 140, 5601, 4.50e-4),
                 (100.0, 40, 2001, 1.73e-5), (1e5, 400, 16001, 3.39e-3),
                 (1e6, 200, 20001, 2.19e-2)]


@pytest.mark.parametrize("B, n_levels, grid_n, richardson_error", ROMBERG_CASES)
def test_romberg_on_the_chain_beats_richardson(monkeypatch, B, n_levels, grid_n,
                                               richardson_error):
    # Romberg on N, (N + 1)/2 and (N + 3)/4 points against a reference of
    # Romberg on 4N - 3, 2N - 1 and N points, whose h^6 error is 4^6 times
    # smaller; Richardson on 2N - 1 and N points, the value it replaces, is
    # judged against the same reference.
    solves = _record_solves(monkeypatch)
    res = solve_spectrum(B, n_levels, grid_n=grid_n)
    assert 2 * grid_n - 1 not in solves
    energies, base = res.energies, solves[grid_n]
    fine, fine_vectors = _solve(B, 0.0, 2 * grid_n - 1, n_levels, start=res.modes)
    del res
    finer = spectrum._interior_eigensolve(B, 0.0, 4 * grid_n - 3, n_levels,
                                          start=fine_vectors)
    reference = (64.0 * finer - 20.0 * fine + base) / 45.0
    error = np.max(np.abs(energies - reference))
    assert error <= np.max(np.abs((4.0 * fine - base) / 3.0 - reference))
    assert error <= richardson_error


@pytest.mark.parametrize("B, n_levels, grid_n, refine, grids", [
    (1e4, 72, 4001, True, [1001, 2001, 4001]),        # Romberg on the chain
    (1e4, 72, 2001, True, [1001, 2001, 4001]),        # the chain has (N + 1)/2 only
    (1e4, 72, 4003, True, [4003, 8005]),              # 2002 points is even: no chain
    (1e4, 140, 2001, True, [2001, 4001]),             # 1001 < min_grid_n(140)
    (1e6, 200, 10001, True, [2501, 5001, 10001]),     # kept below the floor
    (1e6, 200, 20001, True, [5001, 10001, 20001]),    # 2501 points miss the top level
    (1.6156e5, 32, 16001, True, [1001, 2001, 4001, 8001, 16001]),  # and 501 here
    (1e6, 20, 20001, True, [1251, 2501, 5001, 10001, 20001]),      # 626 points is even
    (1e4, 72, 2001, False, [1001, 2001]),             # unrefined: no doubled grid
    (1e4, 72, 4003, False, [4003]),
    (1e4, 140, 2001, False, [2001]),
])
def test_grids_of_a_solve(B, n_levels, grid_n, refine, grids):
    # The plan alone, coarsest first, for the solves of the two tests around it.
    assert spectrum._grids(B, 0.0, grid_n, n_levels, refine) == grids


@pytest.mark.parametrize("B, n_levels, grid_n, coarsest, wasted", [
    (1e6, 200, 20001, 5001, [2501]), (1.6156e5, 32, 16001, 1001, [501]), (1e6, 20, 20001, 1251, [])])
def test_chain_floor_follows_the_top_level(monkeypatch, B, n_levels, grid_n, coarsest, wasted):
    # min_grid_n alone would take the first two chains one grid lower, from
    # which the continuation fails, so that the grid above is bracketed
    # again; the third chain goes down to 1251 points either way.
    assert spectrum._grids(B, 0.0, grid_n, n_levels, refine=True)[0] == coarsest
    calls = _count_bisections(monkeypatch)
    solve_spectrum(B, n_levels, grid_n=grid_n)
    assert calls == [(size, "bracket") for size in _block_sizes(coarsest, 0.0)]
    calls.clear()
    monkeypatch.setattr(spectrum, "CHAIN_FLOOR", math.inf)
    solve_spectrum(B, n_levels, grid_n=grid_n)
    assert calls == [(size, "bracket") for n in wasted + [coarsest]
                     for size in _block_sizes(n, 0.0)]


def _unit(v):
    return v / np.linalg.norm(v)


def _assert_match_bisection(monkeypatch, B, tilt, grid_n, n_levels, energies, vectors):
    bisected, stein = _bisected(monkeypatch, lambda: _solve(B, tilt, grid_n, n_levels))
    assert np.max(np.abs(energies - bisected)) <= _tol(grid_n, B, tilt)
    # Davis-Kahan: a unit vector with residual r is within r/gap of the
    # eigenvector whose eigenvalue is gap away from every other one with
    # the same symmetry (the same parity at tilt 0), so the two vectors
    # are within the sum of their residuals over the gap (doubled for the
    # sine and the gap's own error).
    stride = 2 if tilt == 0.0 else 1
    ladder = _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, grid_n, n_levels + 2))
    diag, off = grid_hamiltonian(make_grid(grid_n), B, tilt)

    def residual(v):
        tv = diag * v + off * np.concatenate(([0.0], v[:-1])) + off * np.concatenate((v[1:], [0.0]))
        return np.linalg.norm(tv - (v @ tv) * v)

    for k in range(n_levels):
        v, w = _unit(vectors[k][1:-1]), _unit(stein[k][1:-1])
        w *= np.sign(v @ w)
        same = ladder[k % stride::stride]
        gap = np.min(np.abs(np.delete(same, k // stride) - ladder[k]))
        assert np.linalg.norm(v - w) <= 2.0 * (residual(v) + residual(w)) / gap
        if tilt == 0.0:
            assert np.array_equal(vectors[k], (-1) ** k * vectors[k][::-1])


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
@pytest.mark.parametrize("B, grid_n, n_levels", CONTINUATION_CASES)
def test_base_grid_eigenpairs_match_bisection(monkeypatch, B, grid_n, n_levels, tilt):
    with monkeypatch.context() as m:
        solves = _record_solves(m)
        res = solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt, refine=False)
    _assert_match_bisection(monkeypatch, B, tilt, grid_n, n_levels, solves[grid_n], res.modes)
    # The coarser grids' eigenvalues, which the extrapolation uses, are certified too.
    assert list(solves) == spectrum._grids(B, tilt, grid_n, n_levels, refine=False)
    for n, energies in solves.items():
        bisected = _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
            B, tilt, n, n_levels))
        assert np.max(np.abs(energies - bisected)) <= _tol(n, B, tilt)


# (B, levels, grid): the benchmark's dynamics bases, at min_grid_n points,
# and the bases of the README-size evolve runs.
UNREFINED_CASES = [(1e4, 140, 2001), (1e3, 280, 2801), (100.0, 200, 2001)]


@pytest.mark.parametrize("B, n_levels, grid_n", UNREFINED_CASES)
def test_unrefined_bases_are_bracketed_not_bisected(monkeypatch, B, n_levels, grid_n):
    # No chain grid lies below these, so each block is bracketed and finished
    # by Rayleigh-quotient iteration, with no full-precision bisection.
    calls = _count_bisections(monkeypatch)
    res = solve_spectrum(B, n_levels, grid_n=grid_n, refine=False)
    assert calls == [(size, "bracket") for size in _block_sizes(grid_n, 0.0)]
    energies, vectors = _solve(B, 0.0, grid_n, n_levels)
    assert np.array_equal(res.energies, energies)
    _assert_match_bisection(monkeypatch, B, 0.0, grid_n, n_levels, energies, vectors)


@pytest.mark.parametrize("B, n_levels, grid_n", [(1e4, 40, 501), (1e6, 200, 2501)])
def test_bracket_separates_unresolved_doublets(monkeypatch, B, n_levels, grid_n):
    # At tilt 1e-12 the deep doublets lie far inside one bracket width, so
    # stein returns arbitrary mixtures of each pair.  Rayleigh-Ritz on each
    # pair's span separates them: the block certifies (without it, at
    # B = 1e6, the iteration stalls and the block is bisected) and matches
    # bisection (without it, at B = 1e4, some values are 22 eps|T| off).
    tilt = 1e-12
    bisected = _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, grid_n, n_levels))
    calls = _count_bisections(monkeypatch)
    energies = spectrum._interior_eigensolve(B, tilt, grid_n, n_levels)
    assert calls == [(grid_n - 2, "bracket")]
    assert np.max(np.abs(energies - bisected)) <= _tol(grid_n, B, tilt)


def test_cut_doublet_is_certified_on_every_grid(monkeypatch):
    # 41 levels at tilt 1e-12 cut the top doublet: the unrequested partner
    # of level 40 lies within that level's radius on the grids of 1001
    # points or more.  The Sturm count stops at the bottom of the top
    # level's interval, so those grids are certified as continued, and only
    # the 501-point grid is bracketed.  (Its top level starts from a mixture
    # of the doublet the bracket cannot split and ends 3.5 eps|T| from full
    # bisection, inside its certificate's radius.)
    B, n_levels, grid_n, tilt = 1e4, 41, 4001, 1e-12
    grids = spectrum._grids(B, tilt, grid_n, n_levels, refine=True)
    bisected = {n: _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, n, n_levels)) for n in grids[1:]}
    solves = _record_solves(monkeypatch)
    calls = _count_bisections(monkeypatch)
    solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt)
    assert grids[0] == 501 and calls == [(grids[0] - 2, "bracket")]
    for n in grids[1:]:
        assert np.max(np.abs(solves[n] - bisected[n])) <= _tol(n, B, tilt)


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
def test_failed_bracket_falls_back_to_bisection(monkeypatch, tilt):
    # LAPACK failing on the bracket (`_bisect` returns None) sends the block
    # straight to full-precision bisection.
    B, grid_n, n_levels = 1e4, 1001, 40
    bisected, stein = _bisected(monkeypatch, lambda: _solve(B, tilt, grid_n, n_levels))
    calls = _count_bisections(monkeypatch)
    counted = spectrum._bisect

    def failing(d, e, count, width, vectors):
        out = counted(d, e, count, width, vectors)
        return None if width > 0.0 else out

    monkeypatch.setattr(spectrum, "_bisect", failing)
    energies, vectors = _solve(B, tilt, grid_n, n_levels)
    assert calls == [(size, kind) for size in _block_sizes(grid_n, tilt)
                     for kind in ("bracket", "vectors")]
    assert np.array_equal(energies, bisected)
    assert np.array_equal(vectors, stein)


# (B, levels, grid, tilt): parity blocks, full matrices whose deep doublets
# a 1e-12 tilt splits far inside one bracket width, and a matrix that
# stebz splits into blocks, whose values it lists out of order.
BISECT_CASES = [(1e4, 40, 501, 0.0), (1e3, 280, 2801, 0.0), (1e6, 200, 2501, 0.0),
                (1e4, 40, 501, 1e-12), (1e6, 534, 5001, 1e-12), (1e25, 40, 401, 0.09)]


@pytest.mark.parametrize("B, n_levels, grid_n, tilt", BISECT_CASES)
def test_bisect_is_eigh_tridiagonal_bit_for_bit(B, n_levels, grid_n, tilt):
    # `_bisect` makes scipy's calls, stebz by index and stein, and reorders
    # the values only where they do not already ascend, as at B = 1e25.
    diag, off = grid_hamiltonian(make_grid(grid_n), B, tilt)
    blocks = (list(spectrum.parity_blocks(diag, off).values()) if tilt == 0.0
              else [(diag, np.full(grid_n - 3, off))])
    count = n_levels // len(blocks)
    for d, e in blocks:
        for width in (spectrum.BRACKET_RTOL * spectrum._norm_and_tol(d, e)[0], 0.0):
            select = dict(select="i", select_range=(0, count - 1), tol=width)
            values, vectors = eigh_tridiagonal(d, e, **select)
            w, rows = spectrum._bisect(d, e, count, width, vectors=True)
            assert np.array_equal(w, values) and np.array_equal(rows, vectors.T)
            assert rows.flags.c_contiguous
            w, rows = spectrum._bisect(d, e, count, width, vectors=False)
            assert np.array_equal(w, eigh_tridiagonal(d, e, eigvals_only=True, **select))
            assert rows.shape == (0, len(d))


def test_failed_bisection_is_a_resolution_error(monkeypatch, capsys):
    # With LAPACK failing at every width the last rung has no fallback: a
    # typed error, which the CLI reports in one line with exit code 3.
    monkeypatch.setattr(spectrum, "_bisect", lambda *args, **kwargs: None)
    with pytest.raises(ResolutionError, match="bisection failed"):
        solve_spectrum(1e4, 16, grid_n=401)
    assert main(["spectrum", "--B", "1e4", "--n-levels", "16", "--grid-n", "401"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
def test_failure_on_one_grid_falls_back_for_that_block(monkeypatch, tilt):
    # A failure forced on the 2001-point grid of the chain 501 -> 1001 ->
    # 2001 -> 4001, in the even (or only) block, restarts that block on that
    # grid from its own bracket and nothing else; the chain goes on from
    # there.  A second failure, of the bracket's continuation, sends the
    # block to full-precision bisection.
    B, grid_n, n_levels = 1e4, 4001, 40
    failing = _block_sizes(2001, tilt)[0]
    block = slice(0, None, 2 if tilt == 0.0 else 1)
    continue_levels = spectrum._continue_levels
    bisected = {n: _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, n, n_levels)) for n in (2001, grid_n)}
    failed = []

    def sabotaged(d, *args):  # the first `failures` calls on the failing block fail
        if len(d) == failing and len(failed) < failures:
            failed.append(len(d))
            return None
        return continue_levels(d, *args)

    energies = _record_solves(monkeypatch)
    monkeypatch.setattr(spectrum, "_continue_levels", sabotaged)
    for failures in (1, 2):
        failed.clear()
        calls = _count_bisections(monkeypatch)
        res = solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt)
        assert calls == ([(size, "bracket") for size in _block_sizes(501, tilt)]
                         + [(failing, "bracket"), (failing, "vectors")][:failures])
        if failures == 2:
            assert np.array_equal(energies[2001][block], bisected[2001][block])
        else:
            assert np.max(np.abs(energies[2001] - bisected[2001])) <= _tol(2001, B, tilt)
        assert np.max(np.abs(energies[grid_n] - bisected[grid_n])) <= _tol(grid_n, B, tilt)
        assert len(res.levels) == n_levels


def _singular_first(dgtsv):
    tries = []

    def patched(dl, d, du, b, **kwargs):  # every first try meets an exact zero pivot
        tries.append(len(d))
        if len(tries) % 2:
            if kwargs.get("overwrite_b"):
                b[:] = np.nan             # gtsv leaves b part-eliminated
            return dl, d, du, b, len(d)
        return dgtsv(dl, d, du, b, **kwargs)
    return patched


@pytest.mark.parametrize("tilt", [0.0, 1e-12])
def test_exactly_singular_shift_is_moved(monkeypatch, tilt):
    # The retried solve restores the vector and moves the shift by tol, so
    # no block falls back; tilt = 1e-12 covers the clusters' solves too.
    B, grid_n, n_levels = 1e4, 4001, 40
    bisected = _bisected(monkeypatch, lambda: spectrum._interior_eigensolve(
        B, tilt, grid_n, n_levels))
    solves = _record_solves(monkeypatch)
    monkeypatch.setattr(_scipy_ext, "dgtsv", _singular_first(_scipy_ext.dgtsv))
    calls = _count_bisections(monkeypatch)
    solve_spectrum(B, n_levels, grid_n=grid_n, tilt=tilt, refine=False)
    energies = solves[grid_n]
    assert calls == [(size, "bracket") for size in _block_sizes(501, tilt)]
    assert np.max(np.abs(energies - bisected)) <= _tol(grid_n, B, tilt)


def _singular(dgtsv):
    def patched(*args, **kwargs):
        *out, info = dgtsv(*args, **kwargs)
        return (*out, 1)
    return patched


def _no_solve(dgtsv):
    def patched(dl, d, du, b, **kwargs):  # the right-hand side comes back unsolved
        return dl, d, du, b, 0
    return patched


def _one_start(start_vectors):
    def patched(start, levels, *args, **kwargs):  # every level starts from the block's lowest
        return start_vectors({k: start[levels[0]] for k in levels}, levels, *args, **kwargs)
    return patched


def _one_too_many(dstebz):
    def patched(d, e, range_, *args):  # only the Sturm count, by value (range 1), is off
        found, *rest = dstebz(d, e, range_, *args)
        return (found + 1 if range_ == 1 else found, *rest)
    return patched


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
@pytest.mark.parametrize("name, wrap", [
    ("dgtsv", _singular),               # a shift is exactly singular (info != 0)
    ("dgtsv", _no_solve),               # no convergence within MAX_RQI_SOLVES
    ("_start_vectors", _one_start),     # every level lands on one eigenvalue: overlap
    ("dstebz", _one_too_many),          # the Sturm count disagrees
])
def test_failed_continuation_falls_back_to_bisection(monkeypatch, name, wrap, tilt):
    def solve():
        return solve_spectrum(1e4, 16, grid_n=2001, tilt=tilt)

    bisected = _bisected(monkeypatch, solve)
    owner = _scipy_ext if name in _scipy_ext.ROUTINES else spectrum
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    calls = _count_bisections(monkeypatch)
    energies = solve().energies
    grids = spectrum._grids(1e4, tilt, 2001, 16, refine=True)  # 251 -> 501 -> 1001 -> 2001
    if name != "dstebz":
        # Only the chain starts fail: stein's vectors from the brackets have
        # rounding-level residuals, so their continuation needs no solve (and
        # one start per level).  Every block on every grid is restarted from
        # its bracket, and no bisection runs to full precision; Romberg's
        # (64 E_2001 - 20 E_1001 + E_501)/45 takes each grid's tolerance along.
        assert calls == [(size, "bracket") for n in grids for size in _block_sizes(n, tilt)]
        bound = (64.0 * _tol(2001, 1e4, tilt) + 20.0 * _tol(1001, 1e4, tilt)
                 + _tol(501, 1e4, tilt)) / 45.0
        assert np.max(np.abs(energies - bisected.energies)) <= bound
    else:  # the Sturm count fails the brackets' continuations too: all is bisected
        assert calls == [(size, kind) for n in grids for size in _block_sizes(n, tilt)
                         for kind in ("bracket", "vectors")]
        assert np.array_equal(energies, bisected.energies)
