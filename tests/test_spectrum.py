"""Finite-difference spectrum: exact limits, invariants, reference doublets."""
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from quantum_rod.errors import DomainError, InvalidParameterError, ResolutionError
from quantum_rod.spectrum import (
    grid_hamiltonian,
    make_grid,
    mathieu_residual,
    pairing_table,
    potential,
    solve_spectrum,
)

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
        assert wf.norm() == pytest.approx(1.0, abs=1e-8)
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


def test_tilted_levels_have_no_parity():
    res = solve_spectrum(100.0, 4, grid_n=401, tilt=0.01)
    assert all(lv.parity is None for lv in res.levels)
    assert [lv.index for lv in res.levels] == [0, 1, 2, 3]
    with pytest.raises(InvalidParameterError):
        pairing_table(res)

