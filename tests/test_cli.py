"""Command-line interface: schemas, precedence, formats, exit codes."""
import ast
import csv
import importlib.abc
import importlib.machinery
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import quantum_rod
from quantum_rod import spectrum
from quantum_rod.cli import main

SUBCOMMANDS = ["spectrum", "wkb-compare", "summit", "airy", "fall-time",
               "evolve", "slant"]

FREE_SPECTRUM = ["spectrum", "--B", "0", "--n-levels", "6", "--grid-n", "201"]


# A grid past spectrum.MAX_GRID_N, on the eigenbasis and the direct route,
# a mode matrix of 600 levels x MAX_GRID_N points, past MAX_MODE_VALUES,
# output times x grid points past MAX_MODE_VALUES / 4 on each evolve route,
# and, on every subcommand that solves for levels, more levels than any
# grid's mode matrix holds within MAX_MODE_VALUES.
NO_GRID_HOLDS = {
    "slant": "slant --B 1e4 --n 1000000",
    "wkb-compare": "wkb-compare --B 1e4 --n-max 1000000",
    "wkb-compare-free": "wkb-compare --B 0 --n-max 1000000",
    "spectrum": "spectrum --B 1e4 --n-levels 8000",
    "evolve": "evolve --B 1e4 --n-levels 1000000",
}
OVERSIZED = [
    ["spectrum", "--B", "1e4", "--n-levels", "4", "--grid-n", "1000000001"],
    ["evolve", "--B", "100", "--method", "direct", "--grid-n", "1000000001"],
    ["spectrum", "--B", "1e4", "--n-levels", "600", "--grid-n", "1048577"],
    ["evolve", "--B", "100", "--n-times", "400000000"],
    ["evolve", "--B", "100", "--method", "direct", "--n-times", "3000000"],
    ["evolve", "--B", "100", "--method", "both", "--n-times", "67109", "--grid-n", "2001"],
    *(argv.split() for argv in NO_GRID_HOLDS.values()),
]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == quantum_rod.__version__


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert "--format" in capsys.readouterr().out


def test_spectrum_csv(capsys):
    assert main(FREE_SPECTRUM + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,parity,energy,splitting,gap,pairing_ratio"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "even"
    assert float(first[2]) == pytest.approx(1.0, rel=1e-6)
    assert float(first[3]) == pytest.approx(3.0, rel=1e-6)    # odd0 - even0
    assert float(first[4]) == pytest.approx(8.0, rel=1e-6)    # even1 - even0
    assert float(first[5]) == pytest.approx(0.375, rel=1e-6)
    # Odd levels carry no pairing columns.
    second = lines[2].split(",")
    assert second[1] == "odd" and second[3] == second[4] == second[5] == ""
    assert float(second[2]) == pytest.approx(4.0, rel=1e-6)


# The README examples whose results are one list of rows, on smaller grids.
ROW_EXAMPLES = [
    ["spectrum", "--B", "1e4", "--n-levels", "72", "--grid-n", "2001"],
    ["wkb-compare", "--B", "1e4", "--n-min", "22", "--n-max", "24", "--grid-n", "2001"],
    ["summit", "--B", "1e4", "--grid-n", "2001"],
    ["airy", "--count", "6", "--B", "100"],
    ["evolve", "--B", "100", "--sigma", "0.1", "--method", "both", "--t-max", "0.5",
     "--grid-n", "2001"],
    ["slant", "--B", "1e4", "--n", "18", "--tilts", "1e-4", "1e-3", "--grid-n", "2001"],
]


def test_json_matches_csv(capsys):
    # The JSON rows hold the CSV table cell for cell, null for an empty cell.
    for argv in ROW_EXAMPLES:
        doc = run_json(capsys, argv)
        entries, = [v for v in doc["results"].values() if isinstance(v, list)]
        assert main(argv + ["--format", "csv"]) == 0
        header, *lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(lines) == len(entries) > 0, argv
        for entry, cells in zip(entries, lines):
            assert list(entry) == header, argv
            for value, cell in zip(entry.values(), cells):
                if value is None:
                    assert cell == "", argv
                elif isinstance(value, bool):
                    assert cell == str(value).lower(), argv
                elif isinstance(value, (int, float)):
                    # JSON and CSV round identically (same significant digits).
                    assert float(cell) == value, argv
                else:
                    assert cell == value, argv


def test_envelope_and_determinism(capsys):
    doc = run_json(capsys, FREE_SPECTRUM)
    assert doc["provenance"]["version"] == quantum_rod.__version__
    assert doc["config"]["subcommand"] == "spectrum"
    assert doc["config"]["precision"] == 9
    assert "output" not in doc["config"]
    assert main(FREE_SPECTRUM) == 0
    first = capsys.readouterr().out
    assert main(FREE_SPECTRUM) == 0
    assert capsys.readouterr().out == first


def test_output_file(tmp_path, capsys):
    target = tmp_path / "levels.json"
    assert main(FREE_SPECTRUM + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert len(doc["results"]["levels"]) == 6


def test_output_to_missing_directory_exits(tmp_path, capsys):
    target = tmp_path / "missing" / "levels.json"
    assert main(FREE_SPECTRUM + ["--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("n_levels", [1, 2])
def test_spectrum_below_first_doublet(capsys, n_levels):
    # Too few levels for a pairing row: the pairing cells stay blank.
    doc = run_json(capsys, ["spectrum", "--B", "0", "--n-levels", str(n_levels),
                            "--grid-n", "201"])
    levels = doc["results"]["levels"]
    assert len(levels) == n_levels
    assert all(lv["splitting"] is None and lv["pairing_ratio"] is None for lv in levels)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"B": 0.0, "n_levels": 4, "grid_n": 201,
                               "precision": 5}))
    doc = run_json(capsys, ["spectrum", "--config", str(cfg)])
    assert len(doc["results"]["levels"]) == 4
    assert doc["config"]["precision"] == 5
    # Flags win over the file.
    doc = run_json(capsys, ["spectrum", "--config", str(cfg),
                            "--n-levels", "6"])
    assert len(doc["results"]["levels"]) == 6


def test_config_error_exits(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1, 2]")
    cases = [
        FREE_SPECTRUM + ["--config", str(bad_key)],
        FREE_SPECTRUM + ["--config", str(not_dict)],
        FREE_SPECTRUM + ["--config", str(tmp_path / "missing.json")],
        FREE_SPECTRUM + ["--precision", "2"],
        FREE_SPECTRUM + ["--precision", "16"],
        ["spectrum", "--B", "100", "--mass", "1e-3", "--length", "0.1"],
        ["spectrum", "--n-levels", "4"],        # no barrier source at all
        ["fall-time", "--mass", "1e-3"],        # length missing
        ["airy", "--count", "0"],
        ["airy", "--count", "10001"],           # past airy.MAX_N, refused before any row
        ["evolve", "--B", "100", "--t-max", "0"],
        ["evolve", "--B", "100", "--n-times", "1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("subcommand, values, key", [
    ("spectrum", {"n_levels": "abc"}, "n_levels"),
    ("spectrum", {"n_levels": 3.7}, "n_levels"),
    ("spectrum", {"precision": "x"}, "precision"),
    ("spectrum", {"precision": None}, "precision"),
    ("spectrum", {"format": "xml"}, "format"),
    ("spectrum", {"B": [1, 2]}, "B"),
    ("spectrum", {"B": True}, "B"),
    ("slant", {"tilts": "abc"}, "tilts"),
    ("slant", {"tilts": [[0.001, 0.002]]}, "tilts"),
    ("slant", {"tilts": []}, "tilts"),
    ("evolve", {"method": "foo"}, "method"),
])
def test_config_value_errors(tmp_path, capsys, subcommand, values, key):
    # File values skip argparse, so resolve_config types and checks them.
    base = {"spectrum": {"B": 100.0, "grid_n": 401, "n_levels": 4},
            "slant": {"B": 100.0, "grid_n": 401, "n": 0},
            "evolve": {"B": 100.0, "grid_n": 401, "n_levels": 30}}[subcommand]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(base | values))
    assert main([subcommand, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert key in captured.err and "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("bad", [
    ["--method", "direct", "--sigma", "nan"],
    ["--method", "direct", "--dt", "nan"],
    ["--method", "direct", "--t-max", "nan"],
    ["--method", "eigen", "--sigma", "nan"],
    ["--method", "eigen", "--t-max", "nan"],
    ["--method", "direct", "--dt", "inf"],
    ["--method", "direct", "--t-max", "inf"],
    ["--method", "direct", "--B", "inf"],
])
def test_evolve_nonfinite_input_exits(capsys, bad):
    argv = ["evolve", "--B", "100", "--grid-n", "401", "--n-levels", "30",
            "--t-max", "0.1", "--n-times", "2"] + bad
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--B", "nan", "--grid-n", "201"],
    ["spectrum", "--B", "inf", "--grid-n", "201"],
    ["wkb-compare", "--B", "nan", "--n-max", "0", "--grid-n", "201"],
    ["wkb-compare", "--B", "inf", "--n-max", "0", "--grid-n", "201"],
    ["slant", "--B", "nan", "--n", "0", "--grid-n", "201"],
    ["slant", "--B", "inf", "--n", "0", "--grid-n", "201"],
    ["evolve", "--B", "nan", "--grid-n", "201", "--n-levels", "10"],
    ["evolve", "--B", "inf", "--grid-n", "201", "--n-levels", "10"],
    ["summit", "--B", "nan"],
    ["summit", "--B", "inf"],
    ["airy", "--B", "nan"],
    ["airy", "--B", "inf"],
    ["slant", "--B", "100", "--n", "0", "--grid-n", "401", "--tilts", "nan"],
    ["slant", "--B", "100", "--n", "0", "--grid-n", "401", "--tilts", "0.2"],
    ["fall-time", "--mass", "1e-3", "--length", "0.1", "--alpha", "nan"],
    ["spectrum", "--mass", "inf", "--length", "0.1"],
    ["spectrum", "--mass", "1e300", "--length", "0.1"],
    ["spectrum", "--mass", "1e-3", "--length", "inf"],
    ["spectrum", "--mass", "1e-3", "--length", "1e-300"],
    ["spectrum", "--mass", "1e-3", "--length", "1e300"],
    ["fall-time", "--mass", "inf", "--length", "0.1"],
    ["fall-time", "--mass", "1e300", "--length", "0.1"],
    ["fall-time", "--mass", "1e-3", "--length", "inf"],
    ["fall-time", "--mass", "1e-3", "--length", "1e-300"],
    ["fall-time", "--mass", "1e-3", "--length", "1e300"],
    ["fall-time", "--mass", "1e-3", "--length", "0.1", "--gravity", "inf"],
    ["fall-time", "--mass", "1e-3", "--length", "0.1", "--gravity", "1e300"],
    ["fall-time", "--mass", "1e-3", "--length", "0.1", "--delta-theta", "1e-300"],
    ["fall-time", "--mass", "1e-3", "--length", "0.1", "--alpha", "1e300"],
    ["evolve", "--B", "100", "--sigma", "1e300", "--grid-n", "401", "--n-levels", "30"],
    ["evolve", "--B", "100", "--method", "direct", "--t-max", "1e300"],
    ["evolve", "--B", "100", "--method", "direct", "--dt", "1e-300"],
    ["evolve", "--B", "100", "--sigma", "1e-300", "--grid-n", "401", "--n-levels", "30"],
    ["evolve", "--B", "100", "--sigma", "1e-300", "--method", "direct", "--grid-n", "401"],
    ["evolve", "--B", "100", "--method", "direct", "--grid-n", "2000"],
    ["evolve", "--B", "100", "--t-max", "1e18", "--n-times", "3"],
    ["evolve", "--B", "100", "--method", "direct", "--grid-n", "0"],
    ["evolve", "--B", "100", "--method", "direct", "--grid-n", "-5"],
    *OVERSIZED,
])
def test_nonfinite_and_out_of_range_input_exits(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_grid_is_refused_before_allocation(capsys, argv):
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err.startswith("error:")


def test_numerical_error_exits(capsys):
    code = main(["spectrum", "--B", "1e6", "--n-levels", "20",
                 "--grid-n", "201"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_airy_with_energies(capsys):
    doc = run_json(capsys, ["airy", "--count", "3", "--B", "100"])
    rows = doc["results"]["levels"]
    assert len(rows) == 3
    assert rows[0]["lambda"] == pytest.approx(2.33810741, rel=1e-8)
    assert rows[0]["lambda_wkb"] == pytest.approx(2.320, abs=5e-3)
    assert rows[0]["energy"] == pytest.approx(100.0 ** (2.0 / 3.0) * 2.33810741,
                                              rel=1e-6)
    bare = run_json(capsys, ["airy", "--count", "2"])
    assert "energy" not in bare["results"]["levels"][0]


def test_fall_time_report(capsys):
    doc = run_json(capsys, ["fall-time", "--mass", "1e-3", "--length", "0.1",
                            "--delta-theta", "0.1", "--alpha", "10"])
    res = doc["results"]
    assert res["quantum_wkb"]["seconds"] == pytest.approx(3.0236181, rel=1e-7)
    assert res["quantum_estimate"]["seconds"] == pytest.approx(2.90651046,
                                                               rel=1e-7)
    assert res["classical"]["exact_omega_c_units"] == pytest.approx(
        3.50174761, rel=1e-7)
    assert res["spreading"]["omega_c_units"] == 200.0
    assert sum(res["quantum_wkb"]["terms"].values()) == pytest.approx(
        res["quantum_wkb"]["omega_c_units"], rel=1e-6)


def test_fall_time_csv_rows(capsys):
    assert main(["fall-time", "--mass", "1e-3", "--length", "0.1",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["omega_c", "B", "s", "t_q_prime_omega_c_units",
                     "t_q_prime_seconds", "t_q_omega_c_units", "t_q_seconds"]


def test_evolve_both_routes(capsys):
    doc = run_json(capsys, ["evolve", "--B", "100", "--sigma", "0.1",
                            "--t-max", "0.5", "--n-times", "3",
                            "--grid-n", "801", "--n-levels", "60",
                            "--method", "both", "--dt", "0.001"])
    series = doc["results"]["series"]
    assert len(series) == 3
    for row in series:
        assert row["norm"] == pytest.approx(1.0, abs=1e-6)
        assert row["l2_distance"] < 1e-3


@pytest.mark.parametrize("method, kept", [("eigen", [False]), ("direct", [False]),
                                          ("both", [True, True])])
def test_evolve_keeps_snapshots_only_for_both(monkeypatch, capsys, method, kept):
    # Only l2_distance reads the full-grid states, so one route keeps none.
    from quantum_rod import dynamics
    series = dynamics._series
    snapshots = []

    def spy(*args):
        res = series(*args)
        snapshots.append(res.snapshots is not None)
        return res

    monkeypatch.setattr(dynamics, "_series", spy)
    run_json(capsys, ["evolve", "--B", "100", "--sigma", "0.1", "--t-max", "0.1",
                      "--n-times", "3", "--grid-n", "401", "--n-levels", "30",
                      "--method", method])
    assert snapshots == kept


@pytest.mark.parametrize("dt", ["1e-3", "1e-5"])
def test_evolve_direct_coarse_grid(capsys, dt):
    # Simpson's norm drifts on 9 points; the plain sum CN conserves does not.
    doc = run_json(capsys, ["evolve", "--B", "100", "--method", "direct", "--grid-n", "9",
                            "--sigma", "0.3", "--t-max", "0.01", "--n-times", "2",
                            "--dt", dt])
    assert len(doc["results"]["series"]) == 2


def test_slant_sweep(capsys):
    argv = ["slant", "--B", "1e4", "--n", "18", "--tilts", "1e-3", "2e-3",
            "--grid-n", "2001"]
    doc = run_json(capsys, argv)
    sweep = doc["results"]["sweep"]
    assert [r["delta_theta"] for r in sweep] == [1e-3, 2e-3]
    for r in sweep:
        assert r["p_left_lower"] > 0.99
        assert r["regime_upper"] is True and r["regime_lower"] is True
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("delta_theta,coupling,")
    assert lines[1].endswith("true,true")


@pytest.mark.parametrize("n", ["-1", "-3"])
def test_slant_refuses_a_negative_doublet_index(capsys, n):
    # Refused before the solve, naming the flag the user passed.
    assert main(["slant", "--B", "1e4", "--n", n]) == 2
    assert capsys.readouterr().err == "error: n must be >= 0\n"


def test_summit_table(capsys):
    doc = run_json(capsys, ["summit", "--B", "1e4", "--grid-n", "2001"])
    rows = doc["results"]["levels"]
    assert [r["n"] for r in rows] == [23, 23, 24, 24, 25, 25, 26, 26, 27, 27]
    for r in rows:
        assert abs(r["error"]) / r["energy"] < 1e-3
        assert r["energy_model"] == pytest.approx(r["energy"] + r["error"],
                                                  rel=1e-6)


@pytest.mark.parametrize("argv, rows, n_levels, grid_n", [
    # The summit rows reach level n = 2638 of each parity: 2 * 2639 + 4 levels.
    pytest.param("summit --B 1e8", "the summit rows", 5282, 52821, id="summit"),
    pytest.param("slant --B 1e4 --n 300", "the rows of doublet --n 300", 606, 6061, id="slant"),
    pytest.param("wkb-compare --B 1e4 --n-max 300", "the rows up to --n-max 300", 604, 6041,
                 id="wkb-compare"),
])
def test_summit_names_the_grid_it_needs(capsys, argv, rows, n_levels, grid_n):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {rows} need the lowest {n_levels} levels, which takes "
                   f"--grid-n >= {grid_n} (default 4001)\n")
    # solve_spectrum accepts the grid it advises.
    assert grid_n % 2 == 1 and grid_n <= spectrum.MAX_GRID_N
    assert n_levels * grid_n <= spectrum.MAX_MODE_VALUES


@pytest.mark.parametrize("argv, advice", [
    pytest.param("summit --B 1.9e8", True, id="1.9e8-True"),
    pytest.param("summit --B 2e8", False, id="2e8-False"),
    pytest.param("summit --B 4e10", False, id="4e10-False"),
    *(pytest.param(argv, False, id=name) for name, argv in NO_GRID_HOLDS.items()),
])
def test_summit_names_no_grid_past_the_mode_matrix_bound(capsys, argv, advice):
    # From B ~ 2e8 the summit rows' levels times min_grid_n(levels) exceed
    # MAX_MODE_VALUES, and so do the levels of the other cases, so no
    # --grid-n could work: the refusal names none.
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert ("--grid-n" in err) == advice
    assert "need >=" not in err
    if argv.startswith(("slant", "wkb-compare")):  # the row flag and value the user passed
        assert " ".join(argv.split()[-2:]) in err


def test_summit_refuses_a_row_past_the_wall(capsys):
    # At B = 100 the n = 0 root would match at 2.102 rad, beyond the table.
    assert main(["summit", "--B", "100", "--grid-n", "2001"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: even level n=0 at B=100: matching angle 2.102")


# The README examples, and what each group may load of scipy.  The first
# group runs first, so that nothing else has loaded scipy.special yet.
_FOOTPRINT = """
import contextlib, io, json, sys
from quantum_rod.cli import main
unused = ("scipy.linalg", "scipy.special", "scipy.integrate", "scipy.optimize", "scipy.constants")
loaded = {"import": [m for m in unused if m in sys.modules]}
for group, runs in (("no-special", [
        "spectrum --B 1e4 --n-levels 72",
        "evolve --B 100 --sigma 0.1 --method both --t-max 0.5",
        "slant --B 1e4 --n 18 --tilts 1e-4 1e-3"]),
        ("lean", [
        "airy --count 6 --B 100",
        "fall-time --mass 1e-3 --length 0.1 --delta-theta 0.1 --alpha 10"]),
        ("root-finding", [
        "summit --B 1e4",
        "wkb-compare --B 1e4 --n-min 22 --n-max 24"])):
    for run in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(run.split()) == 0, run
    loaded[group] = [m for m in unused if m in sys.modules]
print(json.dumps(loaded))
"""


def _run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this package."""
    src = str(Path(quantum_rod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout


def test_import_footprint():
    # One fresh process: spectrum, evolve and slant load neither the
    # scipy.linalg package nor scipy.special, and no subcommand loads
    # scipy.integrate or scipy.optimize: summit and wkb-compare find their
    # roots with _scipy_ext.brentq, on the _zeros core alone.  Whether
    # scipy.special loads scipy.linalg depends on the scipy version (recent
    # ones import it lazily, older ones on import), so the groups after
    # no-special are not checked for it.
    loaded = json.loads(_run_fresh(_FOOTPRINT))
    assert loaded["import"] == [] and loaded["no-special"] == []
    assert [m for m in loaded["lean"] if m != "scipy.linalg"] == ["scipy.special"]
    assert [m for m in loaded["root-finding"] if m != "scipy.linalg"] == ["scipy.special"]


_IDENTITY = """
import json, sys
{first}
{second}
print(json.dumps([all(getattr(_scipy_ext, name) is getattr(lapack, name) for name in _scipy_ext.ROUTINES),
                  sys.modules[_scipy_ext.FLAPACK] is lapack._flapack,
                  scipy.optimize._zeros_py._zeros is sys.modules[_scipy_ext.ZEROS]]))
"""


@pytest.mark.parametrize("first, second", [
    pytest.param("from quantum_rod import _scipy_ext",
                 "import scipy.optimize; from scipy.linalg import lapack", id="loader first"),
    pytest.param("import scipy.optimize; from scipy.linalg import lapack",
                 "from quantum_rod import _scipy_ext", id="scipy first"),
])
def test_loaded_routines_are_scipy_lapack_objects(first, second):
    # In either import order there is one _flapack module, so the loader's
    # routines are scipy's own objects, and one _zeros module, whose core
    # scipy.optimize.brentq calls.
    assert json.loads(_run_fresh(_IDENTITY.format(first=first, second=second))) == [True, True, True]


def _raise_import_error(self, module):
    raise ImportError("refused")


def _core_raising_type_error(*args):
    raise TypeError("refused")


def _core_with_another_argument_list(f, a, b, *rest):
    from scipy.optimize._zeros_py import _zeros
    return _zeros._brentq(f, a, b)  # the real core refuses it with RuntimeError


class _CoreLoader(importlib.abc.Loader):
    """Loads a stand-in `_zeros` module whose `_brentq` is `core`."""

    def __init__(self, core):
        self.core = core

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        module._brentq = self.core


@pytest.mark.parametrize("extension, break_load", [
    pytest.param("flapack", "missing file", id="missing file"),
    pytest.param("flapack", "exec_module raises", id="exec_module raises"),
    pytest.param("zeros", "missing file", id="zeros missing file"),
    pytest.param("zeros", "exec_module raises", id="zeros exec_module raises"),
    pytest.param("zeros", _core_raising_type_error, id="zeros core raises TypeError"),
    pytest.param("zeros", _core_with_another_argument_list, id="zeros core with another signature"),
])
def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch, tmp_path, extension, break_load):
    # Each way an extension can fail to serve leaves scipy's public routines:
    # scipy.linalg.lapack's, or scipy.optimize.brentq itself.
    import scipy.optimize
    from scipy.linalg import lapack

    from quantum_rod import _scipy_ext

    name, take, fallback = {
        "flapack": (_scipy_ext.FLAPACK, _scipy_ext.lapack_routines, _scipy_ext.scipy_lapack_routines),
        "zeros": (_scipy_ext.ZEROS, _scipy_ext.zeros_brentq, _scipy_ext.scipy_optimize_brentq),
    }[extension]
    spec = _scipy_ext.find_spec(name)
    if break_load == "missing file":
        spec = importlib.util.spec_from_file_location(name, str(tmp_path / Path(spec.origin).name))
    elif break_load == "exec_module raises":
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module",
                            _raise_import_error)
    else:
        spec = importlib.util.spec_from_loader(name, _CoreLoader(break_load))
    monkeypatch.delitem(sys.modules, name)
    found = _scipy_ext.load(spec, take, fallback)
    assert name not in sys.modules  # no half-loaded module left behind
    if extension == "flapack":
        assert all(r is getattr(lapack, routine) for r, routine in zip(found, _scipy_ext.ROUTINES))
    else:
        assert found is scipy.optimize.brentq


def test_warning_is_one_line_and_zero_has_no_sign(capsys):
    # At zero tilt the coupling is -0.0 and the two-level solve warns.
    argv = ["slant", "--B", "1e4", "--n", "0", "--tilts", "0", "--grid-n", "2001"]
    warning = "warning: degenerate doublet with zero coupling: mixing is arbitrary\n"
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    row = json.loads(captured.out)["results"]["sweep"][0]
    assert row["coupling"] == 0.0 and math.copysign(1.0, row["coupling"]) == 1.0
    assert "-0" not in captured.out
    assert main(argv + ["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out.splitlines()[1] == "0,0,0,0.5,true,true"


@pytest.mark.parametrize("argv, count", [
    (["summit", "--B", "300"], 10),
    (["slant", "--B", "1e4", "--n", "0", "--tilts", "0", "0", "--grid-n", "2001"], 2),
])
def test_every_warning_is_shown_whatever_the_filters(capsys, argv, count):
    # As under PYTHONWARNINGS=error: a warning is a stderr line, never an
    # exception, and each occurrence has its own line.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == count
    assert all(line.startswith("warning: ") for line in err)


def test_only_cli_main_sets_the_warning_filters():
    # Library code warns, or returns a flag that is printed; only `main`
    # decides how a warning is shown.
    filter_names = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}
    owners = set()
    for path in Path(quantum_rod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in filter_names:
                enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                inner = max(enclosing, key=lambda f: f.lineno, default=None)
                owners.add((path.stem, inner.name if inner else None))
    assert owners == {("cli", "main")}


def test_evolve_phase_bound_names_t_max(capsys):
    assert main(["evolve", "--B", "100", "--sigma", "0.1", "--grid-n", "401",
                 "--n-levels", "30", "--t-max", "1e18", "--n-times", "3"]) == 2
    assert "--t-max" in capsys.readouterr().err


def test_wkb_compare_free_and_barrier(capsys):
    doc = run_json(capsys, ["wkb-compare", "--B", "0", "--n-max", "4",
                            "--grid-n", "201"])
    for row in doc["results"]["levels"]:
        assert row["energy_wkb"] == row["n"] ** 2
        assert row["energy"] == pytest.approx(row["n"] ** 2, rel=1e-6)

    doc = run_json(capsys, ["wkb-compare", "--B", "1e4", "--n-min", "22",
                            "--n-max", "24", "--grid-n", "2001"])
    rows = doc["results"]["doublets"]
    assert [r["n"] for r in rows] == [22, 23, 24]
    for r in rows:
        assert 0.5 < r["splitting_wkb"] / r["splitting"] < 2.0
        assert abs(r["center_wkb"] - r["center"]) < 2.0   # ~1% of the spacing
    assert rows[0]["regime"] == "deep-well"
    assert rows[2]["regime"] == "near-summit"


@pytest.mark.filterwarnings("ignore:E=.* is not far above the barrier")
@pytest.mark.parametrize("B, n_max, gap", [("100", "5", 2), ("300", "12", 4)])
def test_wkb_compare_rows_in_the_summit_gap(capsys, B, n_max, gap):
    # Doublet `gap` is too high for the single-well condition while its
    # (2n + 1)-th full-domain level is still below the barrier: its WKB
    # columns are empty and its regime near-summit; the table goes on.
    from quantum_rod import wkb
    argv = ["wkb-compare", "--B", B, "--n-min", "0", "--n-max", n_max, "--grid-n", "2001"]
    rows = run_json(capsys, argv)["results"]["doublets"]
    assert [r["n"] for r in rows] == list(range(int(n_max) + 1))
    assert rows[gap]["center_wkb"] is None and rows[gap]["splitting_wkb"] is None
    assert rows[gap]["regime"] == "near-summit"
    for r in rows[gap + 1:]:  # the full-domain ladder above
        lo, hi = (wkb.high_energy_quantize(2 * r["n"] + k, float(B)) for k in (1, 2))
        assert r["center_wkb"] == pytest.approx(0.5 * (lo + hi), rel=1e-8)
        assert r["splitting_wkb"] == pytest.approx(hi - lo, rel=1e-8)
        assert r["regime"] == "above-barrier"
    assert main(argv + ["--format", "csv"]) == 0
    cells = capsys.readouterr().out.splitlines()[gap + 1].split(",")
    assert cells[2] == cells[4] == "" and cells[5] == "near-summit"
