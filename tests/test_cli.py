"""Command-line interface: schemas, precedence, formats, exit codes."""
import json

import pytest

import quantum_rod
from quantum_rod.cli import main

SUBCOMMANDS = ["spectrum", "wkb-compare", "summit", "airy", "fall-time",
               "evolve", "slant"]

FREE_SPECTRUM = ["spectrum", "--B", "0", "--n-levels", "6", "--grid-n", "201"]


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


def test_json_matches_csv(capsys):
    doc = run_json(capsys, FREE_SPECTRUM)
    assert main(FREE_SPECTRUM + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for level, line in zip(doc["results"]["levels"], lines):
        cells = line.split(",")
        assert level["n"] == int(cells[0])
        assert level["parity"] == cells[1]
        # JSON and CSV round identically (same significant digits).
        assert level["energy"] == float(cells[2])


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
        ["evolve", "--B", "100", "--t-max", "0"],
        ["evolve", "--B", "100", "--n-times", "1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")


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
])
def test_nonfinite_and_out_of_range_input_exits(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


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


def test_summit_table(capsys):
    doc = run_json(capsys, ["summit", "--B", "1e4", "--grid-n", "2001"])
    rows = doc["results"]["levels"]
    assert [r["n"] for r in rows] == [23, 23, 24, 24, 25, 25, 26, 26, 27, 27]
    for r in rows:
        assert abs(r["error"]) / r["energy"] < 1e-3
        assert r["energy_model"] == pytest.approx(r["energy"] + r["error"],
                                                  rel=1e-6)


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
