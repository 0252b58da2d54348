"""Command-line front end.

Every computation in the package is exposed as a subcommand with
machine-readable output:

    spectrum     levels and pairing columns for one barrier height
    wkb-compare  numerical levels against the semiclassical predictions
    summit       quantization through the barrier-top region
    airy         linear-well eigenvalue table (exact zeros vs their
                 semiclassical estimates)
    fall-time    classical and quantum fall-time estimates for a rod
    evolve       wavepacket propagation observables
    slant        two-level response of a doublet to a table tilt

Configuration precedence is flags > JSON config file > defaults; pass
--config FILE to load a flat JSON object whose keys are the flag names
with underscores.  Output is a JSON envelope {config, results,
provenance} or a CSV table with a header row, written to --output or
stdout.  All numbers are rounded to --precision significant digits
(round-half-even), and a given configuration always produces
byte-identical output.  Each Python warning raised on the way is shown
as one `warning: <message>` line on stderr, once per occurrence, whatever
PYTHONWARNINGS says; `main` is the one place that sets the warning
filters.  Two checks return their answer instead of warning:
`slanted.TiltResponse.regime` the flags that `slant` prints as
regime_upper and regime_lower, and `wkb.doublet_prediction` the barrier
action W, which falls below 1 near the summit, as `WkbDoublet.action`,
which `wkb-compare` prints as action_wkb.
A negative value may be written -1e-3 as well as -0.001.

The modules a subcommand needs beyond `spectrum` and `slanted` are
imported by its handler, so that, for example, `spectrum` never loads
scipy.special's extensions.  No subcommand loads the `scipy.linalg`,
`scipy.special` or `scipy.optimize` package: `_scipy_ext` loads the
extensions that hold what the package calls, one group on the first use
of any of its names, and `spectrum` and `dynamics` take the LAPACK
routines only when they solve or step.  So `spectrum`, `evolve` and
`slant` load only the LAPACK routines; `airy` only scipy.special's
extensions (cython_special's scalar kernels, the `airy` ufunc and
`ai_zeros`); `fall-time` those and the root finder that `summit` and
`wkb` use, `_scipy_ext.brentq`, but no LAPACK; and `summit` and
`wkb-compare`, whose rows are checked against a grid spectrum, all three
groups.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import warnings
from typing import Any

import numpy as np

from . import __version__, slanted
from .errors import (
    DomainError,
    InsufficientBasisError,
    InvalidParameterError,
    RegimeError,
    ResolutionError,
    StepSizeError,
)
from .spectrum import (DEFAULT_GRID_N, MAX_GRID_N, MAX_MODE_VALUES, make_grid,
                       min_grid_n, pairing_table, require_potential, simpson, solve_spectrum)
from .units import RodParams, derive_scales

_CONFIG_ERRORS = (InvalidParameterError, DomainError)
_NUMERICAL_ERRORS = (ResolutionError, RegimeError, InsufficientBasisError,
                     StepSizeError)

# (flag, type, default, help); None default means optional/absent
_COMMON = [
    ("config", str, None, "JSON file with default option values"),
    ("format", str, "json", "output format: json or csv"),
    ("output", str, None, "output file (default stdout)"),
    ("precision", int, 9, "significant digits in output, 3..15"),
]

_ROD = [
    ("mass", float, None, "rod mass in kg"),
    ("length", float, None, "rod length in m"),
    ("gravity", float, 9.81, "gravitational acceleration in m/s^2"),
]

_SCHEMAS: dict[str, list[tuple[str, type, Any, str]]] = {
    "spectrum": _COMMON + _ROD + [
        ("B", float, None, "dimensionless barrier height 2J*V0/hbar^2"),
        ("n-levels", int, 10, "number of levels (both parities combined)"),
        ("grid-n", int, DEFAULT_GRID_N, "base grid size (odd)"),
        ("tilt", float, 0.0, "table tilt delta_theta in rad"),
    ],
    "wkb-compare": _COMMON + _ROD + [
        ("B", float, None, "dimensionless barrier height"),
        ("n-min", int, 0, "first doublet index"),
        ("n-max", int, 9, "last doublet index"),
        ("grid-n", int, DEFAULT_GRID_N, "base grid size (odd)"),
    ],
    "summit": _COMMON + _ROD + [
        ("B", float, None, "dimensionless barrier height"),
        ("n-min", int, None, "first per-parity level index (default: near summit)"),
        ("n-max", int, None, "last per-parity level index"),
        ("grid-n", int, DEFAULT_GRID_N, "base grid size (odd)"),
    ],
    "airy": _COMMON + [
        ("count", int, 6, "number of levels"),
        ("B", float, None, "optional barrier height for energy columns"),
    ],
    "fall-time": _COMMON + _ROD + [
        ("delta-theta", float, None, "classical release angle in rad"),
        ("alpha", float, None, "initial width sigma/s for the spreading time"),
    ],
    "evolve": _COMMON + _ROD + [
        ("B", float, None, "dimensionless barrier height"),
        ("sigma", float, 0.05, "initial Gaussian width in rad"),
        ("t-max", float, 5.0, "final time in 1/omega_c"),
        ("n-times", int, 26, "number of output times"),
        ("dt", float, 0.001, "direct-integrator step bound in 1/omega_c"),
        ("method", str, "eigen", "propagator: eigen, direct, or both"),
        ("grid-n", int, 2001, "grid size (odd)"),
        ("n-levels", int, 200, "eigenbasis size"),
    ],
    "slant": _COMMON + _ROD + [
        ("B", float, None, "dimensionless barrier height"),
        ("n", int, 18, "doublet index"),
        ("tilts", float, [1e-3], "tilt values delta_theta in rad"),
        ("grid-n", int, DEFAULT_GRID_N, "base grid size (odd)"),
    ],
}

# The values a flag or config key may take, where they are a fixed set.
_CHOICES = {"format": ("json", "csv"), "method": ("eigen", "direct", "both")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantum-rod",
        description="spectrum, tunneling, and fall dynamics of a rod "
                    "balanced on a table",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        sp = subs.add_parser(name, help=f"run the {name} computation")
        sp._negative_number_matcher = re.compile(r"^-\.?\d")  # -1e-3 is a value, not a flag
        for flag, typ, default, text in schema:
            kwargs: dict[str, Any] = {"type": typ, "default": None, "help": text,
                                      "choices": _CHOICES.get(flag)}
            if flag == "tilts":
                kwargs["nargs"] = "+"
            sp.add_argument(f"--{flag}", **kwargs)
    return parser


def _coerce(key: str, value: Any, typ: type) -> Any:
    """`value` as `typ`; bools, fractional numbers for int and non-finite floats are refused.

    Raises InvalidParameterError naming `key` when the value does not convert.
    No option takes NaN or inf, so none reaches a handler or the output.
    """
    if not isinstance(value, bool) and not (
            typ is int and isinstance(value, float) and not value.is_integer()):
        try:
            result = typ(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if typ is not float or math.isfinite(result):
                return result
    raise InvalidParameterError(f"config value {key}={value!r} is not a valid {typ.__name__}")


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Merge flags over the config file over defaults into one flat dict.

    Config file values are checked as strictly as flags: each must convert
    to the flag's type and lie in its choices, and a null stands for an
    absent value only where the flag has no default.
    """
    schema = _SCHEMAS[args.subcommand]
    file_values: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InvalidParameterError("config file must hold a JSON object")

    cfg: dict[str, Any] = {"subcommand": args.subcommand}
    for flag, typ, default, _ in schema:
        if flag == "config":
            continue
        key = flag.replace("-", "_")
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key, default)
        if flag == "tilts":
            value = [_coerce(key, v, typ) for v in (value if isinstance(value, list) else [value])]
            if not value:
                raise InvalidParameterError("config value tilts=[] needs at least one tilt")
        elif value is not None or default is not None:
            value = _coerce(key, value, typ)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise InvalidParameterError(
                f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")
        cfg[key] = value

    unknown = set(file_values) - {f.replace("-", "_") for f, *_ in schema}
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
    if not 3 <= cfg["precision"] <= 15:
        raise InvalidParameterError("precision must be in [3, 15]")
    return cfg


def _resolve_barrier(cfg: dict[str, Any]) -> float:
    """Barrier height from either --B or the rod parameters, never both."""
    have_rod = cfg.get("mass") is not None or cfg.get("length") is not None
    if cfg.get("B") is not None:
        if have_rod:
            raise InvalidParameterError(
                "give either --B or the rod parameters, not both")
        B = float(cfg["B"])
    elif have_rod:
        B = derive_scales(_rod_params(cfg)).B
    else:
        raise InvalidParameterError("need --B or --mass and --length")
    require_potential(B)
    return B


def _rod_params(cfg: dict[str, Any]) -> RodParams:
    if cfg.get("mass") is None or cfg.get("length") is None:
        raise InvalidParameterError("need both --mass and --length")
    return RodParams(mass=cfg["mass"], length=cfg["length"],
                     gravity=cfg["gravity"])


def _solve_rows(cfg: dict[str, Any], B: float, n_levels: int, rows: str):
    """`solve_spectrum` of the lowest n_levels levels, which `rows` need, on --grid-n.

    Refuses, naming `rows`, when no grid holds that many levels
    (`min_grid_n`), and when --grid-n is coarser than the least grid that
    does, which the message names.
    """
    try:
        least = min_grid_n(n_levels)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"a grid solve cannot check {rows}: {exc}") from None
    if cfg["grid_n"] < least:
        raise InvalidParameterError(
            f"{rows} need the lowest {n_levels} levels, which takes "
            f"--grid-n >= {least} (default {DEFAULT_GRID_N})")
    return solve_spectrum(B, n_levels, grid_n=cfg["grid_n"])


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, csv header, csv rows)

Payload = tuple[dict[str, Any], list[str], list[list[Any]]]


def run_spectrum(cfg: dict[str, Any]) -> Payload:
    B = _resolve_barrier(cfg)
    result = solve_spectrum(B, cfg["n_levels"], grid_n=cfg["grid_n"],
                            tilt=cfg["tilt"])
    by_even_n = {}
    if cfg["tilt"] == 0.0 and len(result.levels) >= 3:  # a doublet and the next even level
        by_even_n = {d.n: d for d in pairing_table(result)}

    header = ["n", "parity", "energy", "splitting", "gap", "pairing_ratio"]
    rows = []
    entries = []
    for level in result.levels:
        d = by_even_n.get(level.index) if level.parity == "even" else None
        row = [level.index, level.parity or "none", level.energy,
               d.splitting if d else None,
               d.gap if d else None,
               d.pairing_ratio if d else None]
        rows.append(row)
        entries.append(dict(zip(header, row)))
    return {"levels": entries}, header, rows


def run_wkb_compare(cfg: dict[str, Any]) -> Payload:
    from . import wkb

    B = _resolve_barrier(cfg)
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    if not 0 <= n_min <= n_max:
        raise InvalidParameterError("need 0 <= n-min <= n-max")

    if B == 0.0:
        # free well: each level is its own row, E = n^2 exactly
        count = n_max + 1
        result = _solve_rows(cfg, B, count, f"the rows up to --n-max {n_max}")
        header = ["n", "energy", "energy_wkb"]
        rows = [[k + 1, result.energies[k], wkb.high_energy_quantize(k + 1, B)]
                for k in range(count)]
        return {"levels": [dict(zip(header, r)) for r in rows]}, header, rows

    result = _solve_rows(cfg, B, 2 * (n_max + 1) + 2, f"the rows up to --n-max {n_max}")
    doublets = pairing_table(result)

    header = ["n", "center", "center_wkb", "splitting", "splitting_wkb",
              "regime", "log_splitting_wkb", "action_wkb"]
    rows = []
    for n in range(n_min, n_max + 1):
        d = doublets[n]
        pred = wkb.semiclassical_doublet(n, B)
        if pred is None:  # the summit gap: the summit route is `summit`'s
            rows.append([n, d.center, None, d.splitting, None, wkb.NEAR_SUMMIT, None, None])
        else:
            rows.append([n, d.center, pred.center, d.splitting, pred.splitting, pred.regime,
                         pred.log_splitting, pred.action])
    return {"doublets": [dict(zip(header, r)) for r in rows]}, header, rows


def run_summit(cfg: dict[str, Any]) -> Payload:
    from . import summit, wkb

    B = _resolve_barrier(cfg)
    n_summit = int(wkb.max_well_action(B) / math.pi - 0.75)
    n_min = cfg["n_min"] if cfg["n_min"] is not None else max(0, n_summit - 2)
    n_max = cfg["n_max"] if cfg["n_max"] is not None else n_summit + 2
    if not 0 <= n_min <= n_max:
        raise InvalidParameterError("need 0 <= n-min <= n-max")

    result = _solve_rows(cfg, B, 2 * (n_max + 1) + 4, "the summit rows")
    hw = math.sqrt(2.0 * B)
    header = ["n", "parity", "epsilon", "energy_model", "energy", "error"]
    rows = []
    for n in range(n_min, n_max + 1):
        for parity in ("even", "odd"):
            e_model = summit.summit_quantize(n, B, parity)
            e_num = result.level(parity, n).energy
            rows.append([n, parity, (e_model - B) / hw, e_model, e_num,
                         e_model - e_num])
    return {"levels": [dict(zip(header, r)) for r in rows]}, header, rows


def run_airy(cfg: dict[str, Any]) -> Payload:
    from . import airy

    count = cfg["count"]
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if count > airy.MAX_N:  # refused before the first row
        raise DomainError(f"--count {count} exceeds the {airy.MAX_N} Airy zeros available")
    B = cfg.get("B")
    header = ["n", "lambda_wkb", "lambda"]
    if B is not None:
        header += ["energy_wkb", "energy"]
    rows = []
    for n in range(count):
        row = [n, airy.wkb_lambda(n), airy.airy_zero(n)]
        if B is not None:
            row += [airy.linear_well_energy(n, B, exact=False), airy.linear_well_energy(n, B)]
        rows.append(row)
    return {"levels": [dict(zip(header, r)) for r in rows]}, header, rows


def run_fall_time(cfg: dict[str, Any]) -> Payload:
    from . import dynamics

    scales = derive_scales(_rod_params(cfg))
    t_prime = dynamics.quantum_fall_time_estimate(scales)
    t_wkb = dynamics.quantum_fall_time_wkb(scales)
    results: dict[str, Any] = {
        "scales": {"omega_c": scales.omega_c, "B": scales.B, "s": scales.s},
        "quantum_estimate": {"omega_c_units": t_prime.omega_c_units,
                             "seconds": t_prime.seconds},
        "quantum_wkb": {"omega_c_units": t_wkb.omega_c_units,
                        "seconds": t_wkb.seconds,
                        "terms": t_wkb.terms},
    }
    if cfg["delta_theta"] is not None:
        t_cl = dynamics.classical_fall_time(cfg["delta_theta"])
        results["classical"] = {
            "delta_theta": t_cl.delta_theta,
            "exact_omega_c_units": t_cl.exact,
            "asymptotic_omega_c_units": t_cl.asymptotic,
            "exact_seconds": t_cl.exact / scales.omega_c,
        }
    if cfg["alpha"] is not None:
        t_sp = dynamics.spreading_time(cfg["alpha"], scales)
        results["spreading"] = {"alpha": t_sp.alpha,
                                "omega_c_units": t_sp.omega_c_units,
                                "seconds": t_sp.seconds}

    header = ["quantity", "value"]
    rows = [["omega_c", scales.omega_c], ["B", scales.B], ["s", scales.s],
            ["t_q_prime_omega_c_units", t_prime.omega_c_units],
            ["t_q_prime_seconds", t_prime.seconds],
            ["t_q_omega_c_units", t_wkb.omega_c_units],
            ["t_q_seconds", t_wkb.seconds]]
    if "classical" in results:
        c = results["classical"]
        rows += [["t_classical_exact_omega_c_units", c["exact_omega_c_units"]],
                 ["t_classical_asymptotic_omega_c_units",
                  c["asymptotic_omega_c_units"]],
                 ["t_classical_exact_seconds", c["exact_seconds"]]]
    if "spreading" in results:
        rows += [["t_spread_omega_c_units", results["spreading"]["omega_c_units"]],
                 ["t_spread_seconds", results["spreading"]["seconds"]]]
    return results, header, rows


def run_evolve(cfg: dict[str, Any]) -> Payload:
    from . import dynamics

    B = _resolve_barrier(cfg)
    grid_n, n_times, method = cfg["grid_n"], cfg["n_times"], cfg["method"]
    if not cfg["t_max"] > 0.0 or n_times < 2:  # _coerce refused a non-finite t-max
        raise InvalidParameterError("need finite t-max > 0 and n-times >= 2")
    if not 9 <= grid_n <= MAX_GRID_N:  # evolve_direct's least grid, the solver's most
        raise InvalidParameterError(f"grid_n={grid_n} is not in 9..{MAX_GRID_N}")
    if n_times * grid_n > MAX_MODE_VALUES // 4:  # the two complex snapshot stacks of `both`
        raise InvalidParameterError(
            f"{n_times} times x {grid_n} points exceed {MAX_MODE_VALUES // 4} values")
    times = np.linspace(0.0, cfg["t_max"], n_times)
    snapshot_times = times if method == "both" else None  # only l2_distance reads them
    state = dynamics.prepare_gaussian(cfg["sigma"], make_grid(grid_n))

    res_eigen = res_direct = None
    if method in ("eigen", "both"):
        # refine=False so both propagators step the same discrete operator
        basis = solve_spectrum(B, cfg["n_levels"], grid_n=grid_n, refine=False)
        res_eigen = dynamics.evolve_eigen(dynamics.expand(state, basis), basis, times,
                                          snapshot_times=snapshot_times)
    if method in ("direct", "both"):
        res_direct = dynamics.evolve_direct(state, B, cfg["dt"], times,
                                            snapshot_times=snapshot_times)

    main_res = res_eigen if res_eigen is not None else res_direct
    header = ["time", "norm", "energy", "mean_abs_theta", "fall_prob"]
    rows = [[t, main_res.norm[i], main_res.energy[i],
             main_res.mean_abs_theta[i], main_res.fall_prob[i]]
            for i, t in enumerate(times)]
    if method == "both":
        header.append("l2_distance")
        for i in range(len(times)):
            diff = res_eigen.snapshots[i] - res_direct.snapshots[i]
            rows[i].append(math.sqrt(float(
                simpson(np.abs(diff) ** 2, x=state.grid))))
    return {"method": method,
            "series": [dict(zip(header, r)) for r in rows]}, header, rows


def run_slant(cfg: dict[str, Any]) -> Payload:
    B = _resolve_barrier(cfg)
    n = cfg["n"]
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    basis = _solve_rows(cfg, B, 2 * (n + 1) + 4, f"the rows of doublet --n {n}")
    responses = slanted.tilt_sweep(basis, n, np.asarray(cfg["tilts"]))
    header = ["delta_theta", "coupling", "effective_splitting",
              "p_left_lower", "regime_upper", "regime_lower"]
    rows = [[r.delta_theta, r.coupling, r.effective_splitting,
             r.p_left_lower, r.regime["upper"], r.regime["lower"]]
            for r in responses]
    return {"doublet": n, "sweep": [dict(zip(header, r)) for r in rows]}, \
        header, rows


_DISPATCH = {
    "spectrum": run_spectrum,
    "wkb-compare": run_wkb_compare,
    "summit": run_summit,
    "airy": run_airy,
    "fall-time": run_fall_time,
    "evolve": run_evolve,
    "slant": run_slant,
}


# ---------------------------------------------------------------------------
# Output


def _round_value(value: Any, precision: int) -> Any:
    """Round floats to the output precision; make everything JSON-safe."""
    if isinstance(value, dict):
        return {k: _round_value(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_value(v, precision) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return repr(v)
        return float(f"{v:.{precision}g}") + 0.0  # + 0.0 turns -0.0 into 0.0
    return value


def _csv_cell(value: Any, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value) + 0.0:.{precision}g}"  # -0.0 prints as 0
    return str(value)


def emit(cfg: dict[str, Any], results: dict[str, Any],
         header: list[str], rows: list[list[Any]]) -> str:
    precision = cfg["precision"]
    if cfg["format"] == "json":
        doc = {
            "config": _round_value({k: v for k, v in cfg.items()
                                    if k not in ("output",)}, precision),
            "results": _round_value(results, precision),
            "provenance": {"version": __version__},
        }
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v, precision) for v in row])
    return buf.getvalue()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` for the CLI: the message alone, on one stderr line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            cfg = resolve_config(args)
            results, header, rows = _DISPATCH[args.subcommand](cfg)
            text = emit(cfg, results, header, rows)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if cfg["output"] is not None:
        try:
            with open(cfg["output"], "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
