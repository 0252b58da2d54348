"""Print the cold wall time of each README example and their sum.

Each `quantum-rod ...` line of README.md runs as `python -m
quantum_rod.cli ...` in a fresh interpreter, with src/ first on
PYTHONPATH, its output discarded.  The examples take turns, so slow
spells of the machine spread over all of them; each time printed is the
least of its runs.

Usage: python3 tools/cold_start.py [--runs N]   (default 5)
"""
import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--runs", type=int, default=5, help="fresh processes per example")
runs = parser.parse_args().runs

examples = [line.split("#")[0].split()[1:]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("quantum-rod ")]
env = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
best = [float("inf")] * len(examples)
for _ in range(runs):
    for i, argv in enumerate(examples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "quantum_rod.cli", *argv], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        best[i] = min(best[i], time.perf_counter() - start)
for argv, seconds in zip(examples, best):
    print(f"{argv[0]:<12} {1e3 * seconds:6.0f} ms")
print(f"{'sum':<12} {1e3 * sum(best):6.0f} ms   (min of {runs} runs each)")
