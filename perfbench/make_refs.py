"""Regenerate the frozen reference data in perfbench/refs/reference.json.

    python3 perfbench/make_refs.py

The levels come from the benchmark's own finite-difference eigensolver,
written here independently of `quantum_rod.spectrum`: the untilted
problem is split by parity into two half-domain problems (Neumann or
Dirichlet at theta = 0), so every doublet splitting is resolved however
small it is, and the tilted problem is solved on the full domain.
Eigenvalues are Richardson-extrapolated from N and 2N - 1 points, with
N = GRID_N.  Airy zeros come from `scipy.special.ai_zeros`.  The
package itself is used only to choose task parameters (the doublet
window where the barrier action lies in 3..15, the tilt at which the
two-level model applies, and the hardest case of each seeded task family,
found by running every candidate once), never to produce a reference
value.
"""
from __future__ import annotations

import datetime
import json
import math
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal
from scipy.special import ai_zeros

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from quantum_rod import wkb  # noqa: E402  (parameter choice only)

import tracing  # noqa: E402
import workloads  # noqa: E402

GRID_N = 32001          # full-domain points; the fine grid has 2*GRID_N - 1
LOW_LEVELS = 40         # lowest levels stored per parity
WINDOW = 7              # per-parity levels stored on each side of the summit
STRATA = 8              # half-decade strata of log10 B over [2, 6]
NODES_PER_STRATUM = 6
ANCHORS = (1.0e4, 1.0e6)
SLANT_EXAMPLE = {"B": 1.0e4, "n": 18, "tilts": [1.0e-4, 1.0e-3]}  # README `slant`


def _richardson(solve, n_points: int, count: int) -> list[float]:
    coarse = solve(n_points, count)
    fine = solve(2 * n_points - 1, count)
    return [float(f"{e:.13g}") for e in (4.0 * fine - coarse) / 3.0]


def parity_levels(B: float, parity: str, lo: int, hi: int) -> list[float]:
    """Levels lo..hi-1 of one parity of -psi'' + B cos(theta) psi on [-pi/2, pi/2]."""

    def solve(n_points: int, count: int) -> np.ndarray:
        h = math.pi / (n_points - 1)
        centre = (n_points - 1) // 2
        first = centre if parity == "even" else centre + 1
        theta = -0.5 * math.pi + h * np.arange(first, n_points - 1)
        diag = 2.0 / h**2 + B * np.cos(theta)
        off = np.full(len(theta) - 1, -1.0 / h**2)
        if parity == "even":
            off[0] = -math.sqrt(2.0) / h**2  # symmetrized ghost-point row
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(lo, count - 1))

    return _richardson(solve, GRID_N, hi)


def tilted_levels(B: float, tilt: float, count: int) -> list[float]:
    """Lowest `count` levels of -psi'' + B (cos theta + tilt sin theta) psi."""

    def solve(n_points: int, count: int) -> np.ndarray:
        h = math.pi / (n_points - 1)
        theta = -0.5 * math.pi + h * np.arange(1, n_points - 1)
        diag = 2.0 / h**2 + B * (np.cos(theta) + tilt * np.sin(theta))
        off = np.full(len(theta) - 1, -1.0 / h**2)
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, count - 1))

    return _richardson(solve, GRID_N, count)


def node_record(B: float) -> dict:
    n_summit = int(wkb.max_well_action(B) / math.pi - 0.75)
    lo_win = max(n_summit - WINDOW, 0)
    hi_win = n_summit + WINDOW
    low = {p: parity_levels(B, p, 0, LOW_LEVELS) for p in ("even", "odd")}
    win = {p: parity_levels(B, p, lo_win, hi_win) for p in ("even", "odd")}

    # Doublets whose barrier action lies in 3..15, the window of the
    # WKB splitting claim; energies are the reference doublet centres.
    crossover = []
    for n in range(lo_win, min(n_summit + 1, hi_win)):
        centre = 0.5 * (win["even"][n - lo_win] + win["odd"][n - lo_win])
        if centre < B and 3.0 < wkb.barrier_action(centre, B) < 15.0:
            crossover.append(n)

    # Tilt test: a deep doublet, and a tilt whose coupling B*tilt sits
    # well inside the two-level window (above the splitting, far below
    # the gap to the next doublet).
    n_tilt = min(max(n_summit // 2, 0), 8)
    gap = low["even"][n_tilt + 1] - low["even"][n_tilt]
    tilt = float(f"{0.02 * gap / B:.3g}")
    tilted = tilted_levels(B, tilt, 2 * n_tilt + 2)
    return {
        "B": B,
        "n_summit": n_summit,
        "low": low,
        "window_start": lo_win,
        "window": win,
        "crossover_n": crossover,
        "tilt": {"n": n_tilt, "delta": tilt, "levels": tilted},
    }


def hardest_cases(refs: dict) -> dict:
    """Per seeded family, the candidate with the largest error ratio."""
    hardest = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for family, strata in workloads.family_candidates(refs).items():
            worst = max(
                (max(err / tol for _, err, tol in
                     workloads.family_task(refs, family, p).run(tracing.NullTracer(), 0)), p)
                for stratum in strata for p in stratum)
            hardest[family] = list(worst[1])
            print(f"hardest {family}: {worst[1]} at error ratio {worst[0]:.4g}")
    return hardest


def main() -> None:
    from quantum_rod.units import RodParams, derive_scales

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    log_b = [2.0 + 0.5 * s + 0.5 * (j + 0.5) / NODES_PER_STRATUM
             for s in range(STRATA) for j in range(NODES_PER_STRATUM)]
    nodes = [node_record(float(f"{10.0 ** x:.6g}")) for x in log_b]
    anchors = [node_record(B) for B in ANCHORS]
    zeros = ai_zeros(12)[0]
    rod = derive_scales(RodParams(mass=1e-3, length=0.1, gravity=9.81))
    doc = {
        "provenance": {
            "command": "python3 perfbench/make_refs.py",
            "commit": commit,
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "levels": (
                f"independent finite differences, Richardson from {GRID_N} and "
                f"{2 * GRID_N - 1} points; untilted levels per parity from the "
                "half-domain problem, tilted levels from the full domain"
            ),
            "airy_zeros": "scipy.special.ai_zeros(12)",
            "nodes": f"{STRATA} half-decade strata of log10 B in [2, 6], "
                     f"{NODES_PER_STRATUM} nodes each, plus anchors {list(ANCHORS)}",
        },
        "strata": STRATA,
        "nodes": nodes,
        "anchors": anchors,
        "slant_example": dict(SLANT_EXAMPLE, levels=[
            tilted_levels(SLANT_EXAMPLE["B"], t, 2 * SLANT_EXAMPLE["n"] + 2)
            for t in SLANT_EXAMPLE["tilts"]]),
        "airy_zeros": [float(z) for z in -zeros],
        "reference_rod_B": rod.B,
    }
    doc["hardest"] = hardest_cases(doc)
    doc["provenance"]["hardest"] = (
        "per seeded task family, the candidate with the largest error ratio, "
        "from one run of every candidate at this commit")
    out = Path(__file__).resolve().parent / "refs" / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
