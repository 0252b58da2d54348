"""The quantum-rod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/quantum_rod`).
Workloads, each a closed loop of one client in its own process:

    stationary     seeded solve_spectrum tasks (pairing table, tilt sweep,
                   small-tilt solves), B in 1e2..1e6, grids to 20001 points
    semiclassical  WKB doublets, high-energy and summit quantization, Airy
                   zeros and fall times, B from 1e2 to the 1 g rod's 3e59
    dynamics       eigenbasis against Crank-Nicolson wavepacket propagation
    cli            the seven README `quantum-rod` examples, each in a fresh
                   process, in JSON and in CSV on alternate passes

Each run sets the workload up SETUPS times in fresh processes; the
middle one then runs passes of the seeded task list for S seconds, and
at least two passes of each variant of the list (cli has two, so at
least four passes of about 5 s each).  With
`--trace 0` the last stdout line holds the end-to-end metrics:

    wall_s         time of one pass of the task list, each task taken at
                   its fastest over the run's passes
    latency_p50_s  median over the tasks of that per-task time
    setup_s        median time from process start to the first timed task
    err_ratio_max  largest checked error over its tolerance
    peak_rss_mb    peak resident memory of the workload process or of a
                   CLI process it started

With `--trace 1` it holds the per-layer metrics from spans around every
call into the package (see tracing.py), per pass of the task list.
Also printed before it, and written with provenance to
.perfbench_out/<workload>-seed<N>-trace<T>.json: failed_frac (known
failures included), the failing inputs, latency_p90_s where at least ten
samples lie beyond it, the sample counts, and for traced runs the
self-time table and the tracing overhead.

`failed` in the last line counts failures that are not documented
defects; the known ones (the reference rod's WKB doublets, the README
`evolve` example's L2 gap) are counted in failed_frac and listed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 5
BLAS_THREADS = "1"
END_TO_END = {"wall_s": "s", "latency_p50_s": "s", "setup_s": "s",
              "err_ratio_max": "ratio", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_ref:
        cmd.append("--corrupt-ref")
    launched = time.perf_counter()
    proc = subprocess.run([*cmd, "--launched", repr(launched)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "revision": source_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def percentile_with_tail(samples: list[float], q: float) -> float | None:
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]
    return value if sum(s > value for s in samples) >= 10 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stationary", "semiclassical", "dynamics", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few tasks and one set-up (self-check only)")
    ap.add_argument("--corrupt-ref", action="store_true",
                    help="offset reference values (self-check only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "quantum_rod" / "__init__.py").is_file():
        print(f"no quantum_rod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Set-ups before and after the measured process, so that they sample
    # the machine at both ends of the run.
    extra_setups = 0 if args.tiny else SETUPS - 1
    setups = [start_worker(args, "--setup-only")["setup_s"]
              for _ in range(extra_setups // 2)]
    extra = ["--spans-out", str(OUT / f"spans-{stem}.json")] if args.trace else []
    res = start_worker(args, *extra)
    setups.append(res["setup_s"])
    setups += [start_worker(args, "--setup-only")["setup_s"]
               for _ in range(extra_setups - extra_setups // 2)]

    untraced = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    # Each task's time is its fastest over the untraced passes: on a shared
    # machine other tenants slow whole stretches of a run, and the fastest
    # run of a task is what the program itself costs.
    best = [min(per_pass) for per_pass in zip(*res["latencies"])]
    failed_all = res["failed"] + res["known_failed"]
    summary = {
        "wall_s": sum(best),
        "latency_p50_s": statistics.median(best),
        "setup_s": statistics.median(setups),
        "err_ratio_max": res["err_ratio_max"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latency_p90_s": percentile_with_tail(best, 0.9),
        "failed_frac": failed_all / res["attempted"],
        "pass_wall_median_s": statistics.median(untraced),
        "samples": {"passes": len(untraced), "tasks_per_pass": len(best),
                    "setups": len(setups)},
    }
    doc = {"provenance": provenance(args), "summary": summary,
           "attempted": res["attempted"], "failed": res["failed"],
           "known_failed": res["known_failed"], "failures": res["failures"],
           "setups_s": setups, "passes": res["passes"]}
    if args.trace:
        traced = [p["wall_s"] for p in res["passes"] if p["traced"]]
        doc["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        doc["layers"] = res["layers"]
        doc["self_time_per_pass_s"] = dict(sorted(res["self_time_per_pass"].items(),
                                                  key=lambda kv: -kv[1]))
        doc["computed_counts"] = {name: res["layers"][name]
                                  for name in tracing.COMPUTED_COUNTS}
        metrics = {name: {"value": res["layers"][name], "unit": tracing.UNITS[name]}
                   for name in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    print(json.dumps(doc["provenance"]))
    p90 = summary["latency_p90_s"]
    print(f"{args.workload}: {summary['samples']}, failed_frac {summary['failed_frac']:.4g} "
          f"({res['known_failed']} known, {res['failed']} other), latency_p90_s "
          + (f"{p90:.6g} s" if p90 is not None else "omitted (fewer than ten samples beyond it)"))
    for inputs, f in res["failures"].items():
        print(f"  {'known' if f['known'] else 'FAILED'}: {inputs}: {f['detail']}")
    if args.trace:
        print(f"tracing overhead per pass: {doc['tracing_overhead_s']:.4g} s; "
              "self time per pass (s):")
        for name, t in doc["self_time_per_pass_s"].items():
            print(f"  {name:40s} {t:.6f}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
