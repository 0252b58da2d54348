"""Print whether the tests kill each one-line mutant of the package source.

Each mutant in MUTANTS changes one formula: it replaces one exact text,
which must occur once in its file, in a temporary copy of src/, and runs
only the test files mapped to it with `pytest -x -q`, the copy first on
PYTHONPATH.  The working tree is never written.  A mutant is killed when
those tests fail and survived when they pass; a mutant whose text no
longer occurs exactly once is stale, which means the table needs
mending.  It prints one line per mutant and exits 0: it gates nothing.

Usage: python3 tools/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file in src/quantum_rod, old text, new text, test files in tests/)
MUTANTS = [
    ("splitting-prefactor-2.2", "wkb.py", "prefactor = 2.0 / period_integral",
     "prefactor = 2.2 / period_integral", ["test_wkb.py"]),
    ("splitting-prefactor-3.0", "wkb.py", "prefactor = 2.0 / period_integral",
     "prefactor = 3.0 / period_integral", ["test_wkb.py"]),
    ("splitting-exponent-1.02", "wkb.py", "prefactor * math.exp(-w)",
     "prefactor * math.exp(-1.02 * w)", ["test_wkb.py"]),
    ("log-splitting-1.01", "wkb.py", "math.log(prefactor) - w",
     "math.log(prefactor) - 1.01 * w", ["test_wkb.py"]),
    ("period-integral-1.05", "wkb.py", "return 2.0 * scale * elliprf(",
     "return 2.1 * scale * elliprf(", ["test_wkb.py"]),
    ("single-well-target", "wkb.py", "target = (n + 0.75) * math.pi",
     "target = (n + 0.76) * math.pi", ["test_wkb.py"]),
    ("high-energy-target", "wkb.py", "target = n * math.pi",
     "target = (n + 0.01) * math.pi", ["test_wkb.py"]),
    ("airy-newton-step", "airy.py", "table = -(zeros - airy(zeros)[0] / slopes)",
     "table = -zeros", ["test_airy.py"]),
    ("airy-table-regrown", "airy.py", "if count > len(_zeros):", "if count > 0:",
     ["test_airy.py"]),
    ("single-well-linear-bound", "wkb.py", "(1.5 * target) ** (2.0 / 3.0)",
     "(1.4 * target) ** (2.0 / 3.0)", ["test_wkb.py"]),
    ("high-energy-lower-bound", "wkb.py", "(square + 2.0 * B / math.pi) * (1.0 - BRACKET_MARGIN)",
     "(square + 0.7 * B) * (1.0 - BRACKET_MARGIN)", ["test_wkb.py"]),
    ("high-energy-upper-bound", "wkb.py", "hi = (square + B) * (1.0 + BRACKET_MARGIN)",
     "hi = (square + 0.6 * B) * (1.0 + BRACKET_MARGIN)", ["test_wkb.py"]),
    ("summit-neighbour-cell", "summit.py", "energies[lo], energies[hi])",
     "energies[lo + 1], energies[hi + 1])", ["test_summit.py"]),
    ("fit-gamma", "summit.py", "FIT_GAMMA = 1.78107", "FIT_GAMMA = 1.80",
     ["test_summit.py"]),
    ("summit-arctan-1.04", "summit.py", "wave = 0.5 * _arctan_exp(",
     "wave = 0.52 * _arctan_exp(", ["test_summit.py"]),
    ("fall-wkb-pi-over-4", "dynamics.py", '"phase_slope_arctan": 0.25 * math.pi',
     '"phase_slope_arctan": 0.26 * math.pi', ["test_dynamics.py"]),
    ("fall-estimate-log", "dynamics.py", "value = math.log(8.0 *",
     "value = math.log(1.05 * 8.0 *", ["test_dynamics.py"]),
    ("fall-wkb-geometry", "dynamics.py", '"geometry": math.log(4.0 *',
     '"geometry": math.log(1.05 * 4.0 *', ["test_dynamics.py"]),
    ("classical-asymptote", "dynamics.py", "asym = math.log(8.0 *",
     "asym = math.log(1.0125 * 8.0 *", ["test_dynamics.py"]),
    ("tilt-element-1.01", "slanted.py", "element = float(simpson(",
     "element = 1.01 * float(simpson(", ["test_slanted.py"]),
    ("effective-splitting-1.01", "slanted.py", "effective_splitting=2.0 * root",
     "effective_splitting=2.02 * root", ["test_slanted.py"]),
    ("romberg-weights", "spectrum.py", "weight = 4.0**k",
     "weight = 4.0**k * (1.0 + 1e-3)", ["test_spectrum.py"]),
]


def run(file: str, old: str, new: str, tests: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "quantum_rod" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(str(ROOT / "tests" / t) for t in tests)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=900)
        except subprocess.TimeoutExpired:
            return "killed"  # a mutant that hangs the tests is caught too
        return "survived" if proc.returncode == 0 else "killed"


def main() -> None:
    counts: dict[str, int] = {}
    for name, file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        status = run(file, old, new, tests)
        counts[status] = counts.get(status, 0) + 1
        print(f"{name:<26} {status:<8} {time.perf_counter() - start:6.1f} s   {' '.join(tests)}",
              flush=True)
    print(", ".join(f"{count} {status}" for status, count in sorted(counts.items())))


if __name__ == "__main__":
    main()
