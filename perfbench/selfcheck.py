"""Fast self-check of the benchmark itself (under a minute).

    python3 perfbench/selfcheck.py

For every workload, at a tiny size: the untraced run reports every
end-to-end metric of BENCHMARK.json with its unit, the traced run every
per-layer metric, and both are correct.  With reference values offset
(`--corrupt-ref`), the workloads that read the frozen references count
failures and report incorrect.  Finally, in a directory holding only
BENCHMARK.json and the benchmark, run.py must exit non-zero without a
result.  Exits non-zero on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stationary", "semiclassical", "dynamics", "cli")
REFERENCED = ("stationary", "semiclassical", "cli")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(cwd: Path, workload: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    check(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int), "failed")
    return result


def expect_metrics(result: dict, wanted: list[dict]) -> None:
    for m in wanted:
        got = result["metrics"].get(m["name"])
        check(got is not None, f"missing metric {m['name']}")
        check(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)), f"{m['name']}: not a number")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        plain = result_of(run(ROOT, workload, "--trace", "0", "--tiny"))
        check(plain["correct"], f"{workload}: tiny run not correct")
        expect_metrics(plain, bench["end_to_end"])
        traced = result_of(run(ROOT, workload, "--trace", "1", "--tiny"))
        check(traced["correct"], f"{workload}: tiny traced run not correct")
        expect_metrics(traced, bench["per_layer"])
        print(f"ok   {workload}: metrics and units", flush=True)
        if workload in REFERENCED:
            bad = result_of(run(ROOT, workload, "--trace", "0", "--tiny", "--corrupt-ref"))
            check(bad["failed"] >= 1 and not bad["correct"],
                  f"{workload}: corrupted reference not counted as a failure")
            print(f"ok   {workload}: corrupted reference counted as "
                  f"{bad['failed']} failed of {bad['attempted']}", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "stationary", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0, "run.py succeeded without the program's sources")
    check(not proc.stdout.strip(), "run.py printed output without the program's sources")
    print("ok   without sources: exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
