"""Spans around the benchmark's calls into `quantum_rod`, and what they add up to.

A span records name, start, end, parent span, task id, the typed error
it raised (if any) and counts computed from the call's arguments.  The
untraced run uses `NullTracer`, whose spans cost one no-op context
manager.  Times come from `time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans recorded in a child process line
up with the parent's.
"""
from __future__ import annotations

import contextlib
import time

# quantum_rod.errors, by name, so this module imports nothing from the package
TYPED_ERRORS = frozenset({
    "InvalidParameterError", "DomainError", "ResolutionError", "RegimeError",
    "InsufficientBasisError", "StepSizeError",
})
MODULES = ("cli", "spectrum", "slanted", "wkb", "summit", "airy", "dynamics")

# span name -> (time metric, call-count metric or None)
TIMED = {
    "cli.import": ("cli.import_s", None),
    "cli.build_parser": ("cli.parse_s", None),
    "cli.resolve_config": ("cli.parse_s", None),
    "cli.run": ("cli.run_s", None),
    "cli.emit": ("cli.emit_s", None),
    "spectrum.solve_spectrum": ("spectrum.solve_s", "spectrum.calls"),
    "spectrum.pairing_table": ("spectrum.pairing_s", None),
    "slanted.tilt_sweep": ("slanted.tilt_sweep_s", None),
    "wkb.doublet_prediction": ("wkb.doublet_s", "wkb.doublet_calls"),
    "wkb.high_energy_quantize": ("wkb.high_energy_s", "wkb.high_energy_calls"),
    "summit.summit_quantize": ("summit.quantize_s", "summit.quantize_calls"),
    "airy.airy_zero": ("airy.s", "airy.calls"),
    "airy.linear_well_energy": ("airy.s", "airy.calls"),
    "dynamics.prepare_gaussian": ("dynamics.prepare_s", None),
    "dynamics.expand": ("dynamics.expand_s", None),
    "dynamics.evolve_eigen": ("dynamics.evolve_eigen_s", None),
    "dynamics.evolve_direct": ("dynamics.evolve_direct_s", None),
    "dynamics.quantum_fall_time_wkb": ("dynamics.fall_time_s", None),
    "dynamics.quantum_fall_time_estimate": ("dynamics.fall_time_s", None),
    "dynamics.fall_time_assembly": ("dynamics.fall_time_s", None),
    "dynamics.classical_fall_time": ("dynamics.fall_time_s", None),
}
# span attribute -> count metric; these are computed from call arguments
COUNTED = {
    "grid_points": "spectrum.grid_points",
    "levels": "spectrum.levels",
    "tilts": "slanted.tilts",
    "cn_steps": "dynamics.cn_steps",
    "eigen_mode_times": "dynamics.eigen_mode_times",
    "output_bytes": "cli.output_bytes",
}
SPANS_MARK = "PERFBENCH_SPANS "  # prefixes the spans line a traced CLI child writes
COMPUTED_COUNTS = ("spectrum.grid_points", "dynamics.cn_steps",
                   "dynamics.eigen_mode_times")

UNITS = {name: "s" for name, _ in TIMED.values()}
UNITS.update({name: "count" for _, name in TIMED.values() if name})
UNITS.update({name: "count" for name in COUNTED.values()})
UNITS["cli.output_bytes"] = "bytes"
UNITS.update({f"{m}.errors": "count" for m in MODULES})
PER_LAYER = sorted(UNITS)


class NullTracer:
    enabled = False

    def span(self, name: str, task: int, **counts):
        return contextlib.nullcontext()


class Tracer:
    """Collects spans in memory; `spans` is written out when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, task: int, **counts):
        record = {"id": len(self.spans), "name": name, "task": task,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), **counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans: list[dict], task: int) -> None:
        """Attach spans recorded by a child process under the current span."""
        offset = len(self.spans)
        for s in child_spans:
            parent = s["parent"]
            self.spans.append(dict(
                s, id=s["id"] + offset, task=task,
                parent=self._stack[-1] if parent is None else parent + offset))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time of direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - inner)
    return totals


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the task list, for every name in PER_LAYER."""
    values = {name: 0.0 for name in PER_LAYER}
    for s in spans:
        name = s["name"]
        timed = TIMED.get(name)
        if timed:
            values[timed[0]] += s["end"] - s["start"]
            if timed[1]:
                values[timed[1]] += 1
        for attr, metric in COUNTED.items():
            if attr in s:
                values[metric] += s[attr]
        module = name.split(".")[0]
        if s.get("error") in TYPED_ERRORS and module in MODULES:
            values[f"{module}.errors"] += 1
    out = {}
    for name, total in values.items():
        per_pass = total / passes
        if UNITS[name] != "s":
            per_pass = round(per_pass, 9)
            per_pass = int(per_pass) if per_pass == int(per_pass) else per_pass
        out[name] = per_pass
    return out
