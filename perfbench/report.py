"""Run every workload, untraced and traced, and print all their metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Prints, per workload: every end-to-end metric by name and unit, with
latency_p90_s (or why it is omitted), failed_frac and the known failing
inputs; then the traced run's per-layer metrics (computed counts
marked), its largest self times and the tracing overhead.  Runs each
workload twice, untraced and traced.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = json.loads((ROOT / ".perfbench_out" /
                      f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, doc


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        last, doc = run(workload, args.seed, args.seconds, 0)
        s = doc["summary"]
        print(f"== {workload} (seed {args.seed}, correct={last['correct']}, "
              f"attempted {last['attempted']}, samples {s['samples']})")
        for name, m in last["metrics"].items():
            print(f"  {name:24s} {m['value']:<14.6g} {m['unit']}")
        p90 = s["latency_p90_s"]
        print(f"  {'latency_p90_s':24s} " + (f"{p90:<14.6g} s" if p90 is not None else
              f"omitted: fewer than ten of {s['samples']['tasks_per_pass']} tasks beyond it"))
        print(f"  {'failed_frac':24s} {s['failed_frac']:<14.6g} 1 "
              f"({doc['known_failed']} known, {doc['failed']} other)")
        for inputs, f in doc["failures"].items():
            print(f"    {'known' if f['known'] else 'FAILED'}: {inputs}: {f['detail']}")

        last, doc = run(workload, args.seed, args.seconds, 1)
        print(f"  -- traced: overhead {doc['tracing_overhead_s']:.4g} s per pass; "
              "per-layer metrics per pass (non-zero):")
        for name, m in last["metrics"].items():
            if m["value"]:
                tag = "  (computed count)" if name in tracing.COMPUTED_COUNTS else ""
                print(f"  {name:28s} {m['value']:<14.6g} {m['unit']}{tag}")
        print("  -- self time per pass, largest first:")
        for name, t in list(doc["self_time_per_pass_s"].items())[:8]:
            print(f"  {name:36s} {t:.6f} s")


if __name__ == "__main__":
    main()
