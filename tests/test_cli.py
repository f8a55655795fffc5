"""End-to-end command-line behavior: exit codes, output routing,
determinism of serialized runs.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcdnse.cli import OUTPUT_DIR_ENV, main
from pcdnse.collective import SolitonCoords
from pcdnse.io import write_field_csv, write_field_json
from pcdnse.model_continuum import FieldState, make_soliton_field


def small_config(**overrides):
    cfg = {
        "model": "pcdnse",
        "effective": {"g": -2.0, "gamma": 0.05},
        "grid": {"domain_length": 40.0, "n_points": 400},
        "initial": {"soliton": {"psi": 1.0, "x0": 20.0, "w": 1.0}},
        "run": {"t_final": 0.5, "snapshots": 3},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_params_command_prints_checks(tmp_path, capsys):
    rc = main(["params", "--out", str(tmp_path / "sweep"), "--num", "101"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_simulate_runs_are_bit_identical(tmp_path):
    cfg = write_config(tmp_path, small_config())
    for run in ("run1", "run2"):
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / run)]) == 0
    m1 = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "run2" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert any(e["path"].startswith("snapshots/") for e in m1["files"])


def test_simulate_solver_flags_reach_the_integrator(tmp_path):
    cfg = write_config(tmp_path, small_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--rtol", "1e-6", "--atol", "1e-8"]) == 0
    echoed = json.loads((tmp_path / "a" / "config_echo.json").read_text())
    assert echoed["run"]["solver"]["rtol"] == 1e-6
    assert echoed["run"]["solver"]["atol"] == 1e-8


def test_simulate_rejects_malformed_configs(tmp_path, capsys):
    bad_model = write_config(tmp_path, small_config(model="quantum"), "m.json")
    assert main(["simulate", "--config", bad_model,
                 "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err

    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate", "--config", str(broken),
                 "--out", str(tmp_path / "x")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_simulate_numerical_failure_exits_3(tmp_path, capsys):
    cfg = small_config()
    cfg["run"]["solver"] = {"max_steps": 5}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "max_steps=5" in err


def test_fit_command_stdout_and_file(tmp_path, capsys):
    coords = SolitonCoords(psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.3)
    snap = write_field_csv(tmp_path / "snap.csv",
                           make_soliton_field(coords, 40.0, 400))
    assert main(["fit", "--input", str(snap)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert_allclose(payload["psi"], 1.0, rtol=1e-6)
    assert_allclose(payload["v"], 0.1, rtol=1e-4)

    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(snap), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["converged"]

    assert main(["fit", "--input", str(tmp_path / "none.csv")]) == 2


def test_fit_featureless_snapshot_is_numerical_failure(tmp_path, capsys):
    flat = write_field_csv(tmp_path / "flat.csv",
                           FieldState(np.ones(64, dtype=complex), 64.0))
    assert main(["fit", "--input", str(flat)]) == 3
    assert "NoPeakError" in capsys.readouterr().err


def _drop_line(text: str, prefix: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(prefix))


def _edit_row(text: str, edit) -> str:
    lines = text.splitlines(keepends=True)
    lines[10] = edit(lines[10].rstrip("\n")) + "\n"     # a data row
    return "".join(lines)


MALFORMED_SNAPSHOTS = {
    "missing_metadata": (".csv", lambda t: _drop_line(t, "# domain_length")),
    "short_row": (".csv", lambda t: _edit_row(
        t, lambda row: row.rsplit(",", 1)[0])),
    "extra_column": (".csv", lambda t: _edit_row(t, lambda row: row + ",0")),
    "non_numeric_cell": (".csv", lambda t: _edit_row(
        t, lambda row: row.split(",")[0] + ",abc,0")),
    "non_numeric_x": (".csv", lambda t: _edit_row(
        t, lambda row: "1x," + row.split(",", 1)[1])),
    "json_missing_key": (".json", lambda t: json.dumps(
        {k: v for k, v in json.loads(t).items() if k != "re_psi"})),
    "invalid_json": (".json", lambda t: t[: len(t) // 2]),
    "json_null_value": (".json", lambda t: json.dumps(
        {**json.loads(t), "re_psi": [None] * 400})),
}


@pytest.mark.parametrize("command", ["fit", "simulate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_is_a_configuration_error(tmp_path, capsys,
                                                     command, case):
    suffix, corrupt = MALFORMED_SNAPSHOTS[case]
    field = make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.3),
        40.0, 400)
    write = write_field_json if suffix == ".json" else write_field_csv
    snap = write(tmp_path / f"snap{suffix}", field, {"t": "0"})
    snap.write_text(corrupt(snap.read_text()))
    if command == "fit":
        argv = ["fit", "--input", str(snap)]
    else:
        cfg = write_config(tmp_path, small_config(
            initial={"field_file": str(snap)}))
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(snap) in err
    assert "Traceback" not in err


def test_fit_names_the_line_of_a_short_row(tmp_path, capsys):
    snap = write_field_csv(tmp_path / "snap.csv", FieldState(
        np.ones(64, dtype=complex), 64.0), {"t": "0"})
    snap.write_text(_edit_row(snap.read_text(),
                              lambda row: row.rsplit(",", 1)[0]))
    assert main(["fit", "--input", str(snap)]) == 2
    err = capsys.readouterr().err
    assert "line 11: 2 fields, expected 3" in err
    assert "usecols" not in err


def test_back_to_back_calls_parse_independently(tmp_path, capsys):
    snap = write_field_csv(tmp_path / "snap.csv", make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.3),
        40.0, 400))
    flat = write_field_csv(tmp_path / "flat.csv",
                           FieldState(np.ones(64, dtype=complex), 64.0))
    cfg = write_config(tmp_path, small_config())

    def echoed_solver(run):
        echo = json.loads((tmp_path / run / "config_echo.json").read_text())
        return echo["run"]["solver"]

    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--rtol", "1e-6"]) == 0
    capsys.readouterr()
    assert main(["fit", "--input", str(snap), "--residual-threshold",
                 "1e-30"]) == 0
    assert not json.loads(capsys.readouterr().out)["converged"]
    assert main(["fit", "--input", str(snap)]) == 0
    assert json.loads(capsys.readouterr().out)["converged"]
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert echoed_solver("a")["rtol"] == 1e-6
    assert echoed_solver("b")["rtol"] != 1e-6
    assert main(["fit", "--input", str(tmp_path / "none.csv")]) == 2
    assert main(["fit", "--input", str(flat)]) == 3
    assert main(["params", "--out", str(tmp_path / "p"), "--num", "11"]) == 0


def test_output_dir_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["params", "--num", "51"]) == 0
    assert (env_dir / "sweep.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["params", "--num", "51", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "sweep.csv").exists()

    # without the flag, the environment beats the config file
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env2"))
    cfg = write_config(tmp_path, small_config(
        output={"directory": str(tmp_path / "from_config")}))
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "env2" / "manifest.json").exists()
    assert not (tmp_path / "from_config").exists()

    # without flag and environment, the config file wins
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "manifest.json").exists()


def test_experiment_command(tmp_path, capsys):
    rc = main(["experiment", "fig2", "--out", str(tmp_path / "fig2")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "fig2" / "report.json").exists()
    with pytest.raises(SystemExit):
        main(["experiment", "fig9"])
