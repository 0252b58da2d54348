"""One workload in one process: set up, run passes of the task list, report.

Started by run.py; not meant to be run by hand.  The last stdout line is
a JSON document for run.py.  `--launched` is run.py's `perf_counter`
just before it started this process (the clock is system-wide), so
setup_s covers interpreter start, imports, reference loading and warm-up.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


MIN_ROUNDS = 2

# Untimed warm-up tasks, chosen from the task list and the tiny list so
# that their cost does not depend on the seed: the last (20001-point)
# stratum, a whole (short) pass, the tiny packet, one tiny CLI process.
WARM_UP = {
    "stationary": lambda tasks, tiny: tasks[-1:],
    "semiclassical": lambda tasks, tiny: tasks,
    "dynamics": lambda tasks, tiny: tiny,
    "cli": lambda tasks, tiny: tiny[:1],
}


def load_refs(corrupt: bool) -> dict:
    refs = json.loads((HERE / "refs" / "reference.json").read_text())
    if corrupt:  # for the self-check: these values are checked in every workload
        for node in refs["nodes"] + refs["anchors"]:
            node["low"]["even"][0] += 1.0
        refs["airy_zeros"][0] += 0.1
    return refs


def run_pass(tasks, tr, first_id: int, outcome: dict) -> list[float]:
    """Run every task once; return per-task latencies, tally into outcome."""
    latencies = []
    for k, task in enumerate(tasks):
        tid = first_id + k
        error = None
        start = time.perf_counter()
        try:
            with tr.span("task", tid, kind=task.kind):
                checks = task.run(tr, tid)
        except Exception as exc:  # a crash or typed error is a failed task
            checks, error = [], type(exc).__name__
            detail = f"{error}: {exc}"
        latencies.append(time.perf_counter() - start)
        outcome["attempted"] += 1
        missed = sorted({label for label, err, tol in checks if not err <= tol})
        for label, err, tol in checks:
            outcome["err_ratio_max"] = max(outcome["err_ratio_max"], err / tol)
        if error is None and not missed:
            continue
        if error is None:
            detail = "missed " + ", ".join(missed)
        known = task.known_failure is not None and (
            error == task.known_failure or (error is None and missed == [task.known_failure]))
        outcome["known_failed" if known else "failed"] += 1
        outcome["failures"].setdefault(task.inputs, {"known": known, "detail": detail})
    return latencies


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TASK_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-ref", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    # Regime warnings carry the offending value, so each one would be
    # formatted and written; silence them to keep their I/O out of the timings.
    warnings.simplefilter("ignore")

    if args.workload != "cli":
        import quantum_rod.cli  # noqa: F401  (the whole package, as a user loads it)
    refs = load_refs(args.corrupt_ref)
    variants = workloads.build(args.workload, args.seed, refs, args.tiny)
    tiny = workloads.build(args.workload, args.seed, refs, tiny=True)[0]
    # Warm-up, untimed: the first call of a size pays for lazy set-up (a
    # first 20001-point solve takes about five times as long as later ones).
    warm = {"attempted": 0, "failed": 0, "known_failed": 0, "err_ratio_max": 0.0,
            "failures": {}}
    run_pass(WARM_UP[args.workload](variants[0], tiny), tracing.NullTracer(), 0, warm)
    setup_s = time.perf_counter() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    outcome = {"attempted": 0, "failed": 0, "known_failed": 0, "err_ratio_max": 0.0,
               "failures": {}}
    tracer = tracing.Tracer()
    passes, latencies = [], []
    done = {False: 0, True: 0}  # passes run, untraced and traced
    # Traced runs alternate untraced and traced passes, so that their
    # difference gives the tracing overhead.  A run ends only after whole
    # cycles (every variant, untraced and traced), so per-pass counts are
    # exact, and after at least MIN_ROUNDS cycles (unless tiny), so that a
    # task's fastest time is taken over that many samples even where a
    # pass is long (cli: about 5 s).
    cycle = len(variants) * (2 if args.trace else 1)
    min_passes = (1 if args.tiny else MIN_ROUNDS) * cycle
    per_pass = len(variants[0])
    start = time.perf_counter()
    while (len(passes) < min_passes or len(passes) % cycle
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tasks = variants[done[traced] % len(variants)]
        done[traced] += 1
        t0 = time.perf_counter()
        lat = run_pass(tasks, tracer if traced else tracing.NullTracer(),
                       len(passes) * per_pass, outcome)
        passes.append({"wall_s": time.perf_counter() - t0, "traced": traced})
        if not traced:
            latencies.append(lat)

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = dict(outcome, setup_s=setup_s, passes=passes, latencies=latencies,
                  tasks_per_pass=per_pass, peak_rss_mb=usage / 1024.0)
    if args.trace:
        traced_passes = sum(p["traced"] for p in passes)
        result["layers"] = tracing.layer_metrics(tracer.spans, traced_passes)
        result["self_time_per_pass"] = {
            name: t / traced_passes for name, t in tracing.self_times(tracer.spans).items()}
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
