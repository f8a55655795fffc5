"""End-to-end command-line behavior: exit codes, output routing,
determinism of serialized runs.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pcdnse import cli, experiments
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


@pytest.mark.parametrize("model", ["pcdnse", "collective"])
def test_simulate_records_snapshots_closer_than_the_t0_slack(tmp_path, model):
    # 5e-14 apart: each is stepped to and recorded as a snapshot of its own
    cfg = small_config(run={"t_final": 1e-13, "snapshots": 3})
    if model == "collective":
        cfg = {"model": "collective", "effective": cfg["effective"],
               "initial": cfg["initial"], "run": cfg["run"]}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("model", ["pcdnse", "collective"])
def test_simulate_rejects_a_t_final_too_small_for_distinct_snapshots(
        tmp_path, capsys, model):
    # the smallest subnormal double: linspace(0, 5e-324, 5) repeats values
    cfg = small_config(run={"t_final": 5e-324, "snapshots": 5})
    if model == "collective":
        cfg = {"model": "collective", "effective": cfg["effective"],
               "initial": cfg["initial"], "run": cfg["run"]}
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert ("configuration error: config[run.t_final]: "
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_solver_flags_reach_the_integrator(tmp_path):
    cfg = write_config(tmp_path, small_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--rtol", "1e-6", "--atol", "1e-8"]) == 0
    echoed = json.loads((tmp_path / "a" / "config_echo.json").read_text())
    assert echoed["run"]["solver"]["rtol"] == 1e-6
    assert echoed["run"]["solver"]["atol"] == 1e-8


def test_simulate_rejects_malformed_configs(tmp_path, capsys, monkeypatch):
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

    # sections that are not JSON objects, with and without solver flags
    for text in ("[]", "5", '"run"'):
        top = tmp_path / "top.json"
        top.write_text(text)
        for flags in ([], ["--rtol", "1e-6"]):
            assert main(["simulate", "--config", str(top),
                         "--out", str(tmp_path / "x"), *flags]) == 2
            assert "JSON object" in capsys.readouterr().err
    sections = [(key,) for key in ("effective", "grid", "initial", "run",
                                   "output")]
    for path in sections + [("initial", "soliton"), ("run", "solver")]:
        for flags in ([], ["--rtol", "1e-6", "--preset", "pcdnse"]):
            cfg = small_config()
            parent = cfg[path[0]] if len(path) == 2 else cfg
            parent[path[-1]] = 5
            bad = write_config(tmp_path, cfg, "section.json")
            assert main(["simulate", "--config", bad,
                         "--out", str(tmp_path / "x"), *flags]) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err
            assert f"config[{'.'.join(path)}]: expected an object" in err

    # a directory that is not a path string, with no --out flag
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    bad = write_config(tmp_path, small_config(output={"directory": 5}),
                       "directory.json")
    assert main(["simulate", "--config", bad]) == 2
    assert "config[output.directory]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MICROSCOPIC = {"chi": 0.05, "eta": 1.0, "kappa": 1.0, "delta": -0.5}
_INF, _NAN = float("inf"), float("nan")


# small_config overrides; a section set to None is left out
@pytest.mark.parametrize("overrides, flags", [
    pytest.param({"effective": None,
                  "microscopic": {**_MICROSCOPIC, "chi": -0.05}}, [],
                 id="chi_negative"),
    pytest.param({"effective": None, "microscopic": {
        **_MICROSCOPIC, "kappa": 0.0, "delta": 0.0}}, [],
                 id="kappa_delta_zero"),
    pytest.param({"model": "langevin", "grid": None, "sites": 400,
                  "effective": None, "microscopic": {
                      **_MICROSCOPIC, "kappa": 0.0, "delta": 0.0}}, [],
                 id="langevin_kappa_delta_zero"),
    # kappa**2/4 + delta**2 is 1e-120, whose cube underflows to zero
    pytest.param({"model": "langevin", "grid": None, "sites": 400,
                  "effective": None, "microscopic": {
                      **_MICROSCOPIC, "kappa": 0.0, "delta": -1e-60}}, [],
                 id="langevin_kappa_zero_delta_tiny"),
    pytest.param({"initial": {"soliton": {"psi": -1.0, "x0": 20.0,
                                          "w": 1.0}}}, [], id="psi_negative"),
    pytest.param({"initial": {"soliton": {"psi": 1.0, "x0": 20.0,
                                          "w": 0.0}}}, [], id="w_zero"),
    pytest.param({"effective": {"g": 2.0},
                  "initial": {"soliton": {"psi": 1.0, "x0": 20.0}}}, [],
                 id="omitted_w_repulsive"),
    pytest.param({"model": "stable", "grid": None,
                  "initial": {"stable": {"n_particles": 0.0}}}, [],
                 id="n_particles_zero"),
    pytest.param({"initial": {"field_file": "/nonexistent/start.csv"}}, [],
                 id="missing_field_file"),
    pytest.param({"grid": {"domain_length": _INF, "n_points": 400}}, [],
                 id="infinite_domain_length"),
    pytest.param({"run": {"t_final": _INF}}, [], id="infinite_t_final"),
    pytest.param({"run": {"t_final": 0.5, "solver": {"rtol": _NAN}}}, [],
                 id="nan_rtol"),
    pytest.param({}, ["--rtol", "nan"], id="nan_rtol_flag"),
    pytest.param({}, ["--atol", "inf"], id="infinite_atol_flag"),
    pytest.param({}, ["--preset", "gallium"], id="unknown_preset_flag"),
    pytest.param({}, ["--preset", ""], id="empty_preset_flag"),
    pytest.param({}, ["--rtol", "-1"], id="negative_rtol_flag"),
    pytest.param({"model": "collective"}, [], id="collective_with_grid"),
])
def test_simulate_rejects_invalid_values_and_writes_nothing(
        tmp_path, capsys, overrides, flags):
    cfg = {key: value for key, value in small_config(**overrides).items()
           if value is not None}
    out = tmp_path / "x"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    # a bad flag is named as the flag, not as the config key it sets
    assert not flags or f"error: {flags[0]}: " in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[1]", "top level must be a JSON object"),
    ('{"params_sweep": 5}', "config[params_sweep]: expected an object"),
    ('{"params_sweep": {"chi": "a"}}', "config[params_sweep.chi]"),
    ('{"params_sweep": {"kapa": 1}}', "unknown keys ['kapa']"),
    ('{"params_sweep": {"num": 2.5}}', "config[params_sweep.num]"),
    ('{"params_sweep": {"directory": 5}}', "config[params_sweep.directory]"),
    ('{"params_sweep": {"chi": -1}}', "chi must be non-negative"),
    ('{"params_swep": {"chi": 0.2, "num": 11}}',
     "config: unknown keys ['params_swep']"),
    # numpy refuses this count before it allocates anything
    pytest.param('{"params_sweep": {"num": 1%s}}' % ("0" * 400),
                 "params sweep: Maximum allowed size exceeded",
                 id="num_10_to_the_400"),
])
def test_params_rejects_malformed_configs(tmp_path, capsys, text, message):
    path = tmp_path / "params.json"
    path.write_text(text)
    assert main(["params", "--config", str(path),
                 "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "p").exists()


def test_params_config_sets_sweep_and_directory(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    path = write_config(tmp_path, {"params_sweep": {
        "num": 11, "chi": 0.1, "directory": str(tmp_path / "from_config")}})
    assert main(["params", "--config", path]) == 0
    report = json.loads(
        (tmp_path / "from_config" / "report.json").read_text())
    assert report["sweep_points"] == 11
    assert report["parameters"]["chi"] == 0.1
    # numbers are echoed as written; only num must become an int
    whole = write_config(tmp_path, {"params_sweep": {
        "num": 11.0, "chi": 1, "kappa": 2,
        "directory": str(tmp_path / "whole")}}, name="whole.json")
    assert main(["params", "--config", whole]) == 0
    report = json.loads((tmp_path / "whole" / "report.json").read_text())
    assert report["sweep_points"] == 11
    chi, kappa = report["parameters"]["chi"], report["parameters"]["kappa"]
    assert (chi, kappa) == (1, 2)
    assert type(chi) is int and type(kappa) is int
    # a flag beats the config file
    assert main(["params", "--config", path, "--num", "21"]) == 0
    report = json.loads(
        (tmp_path / "from_config" / "report.json").read_text())
    assert report["sweep_points"] == 21


def test_simulate_numerical_failure_exits_3(tmp_path, capsys):
    cfg = small_config()
    cfg["run"]["solver"] = {"max_steps": 5}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "max_steps=5" in err


def test_a_simulate_run_that_exits_3_leaves_its_directory_empty(tmp_path):
    # every file is written after the run's last computation
    cfg = small_config()
    cfg["run"]["solver"] = {"max_steps": 5}
    out = tmp_path / "x"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert out.is_dir() and list(out.iterdir()) == []


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_simulate_lists_and_prints_every_warning_a_run_raised(tmp_path,
                                                              capsys):
    # psi^4 overflows in the energy, so its drift is not finite, but the run
    # ends; the manifest stays JSON, with the drift as null
    cfg = {"model": "pcdnse", "effective": {"g": -1e-160, "gamma": 0.0},
           "grid": {"domain_length": 400.0, "n_points": 400},
           "initial": {"soliton": {"psi": 1e78, "x0": 200.0, "w": 10.0}},
           "run": {"t_final": 0.5, "snapshots": 3}}
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["diagnostics"]["energy_drift"] is None
    assert manifest["diagnostics"]["energy_conserved"] is False
    assert any("overflow" in m for m in manifest["warnings"])
    assert len(set(manifest["warnings"])) == len(manifest["warnings"])
    printed = capsys.readouterr().out
    assert "energy_drift: None" in printed
    assert "warning: overflow" in printed


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"run": {"t_final": 0.5,
                          "solver": {"method": "rk45_tsitouras"}}},
                 "config[run.solver.method]: must be one of "
                 "['tsit5', 'rkf78'], got 'rk45_tsitouras'", id="tsit5_alias"),
    pytest.param({"run": {"t_final": 0.5,
                          "solver": {"method": "rk_high_order"}}},
                 "config[run.solver.method]: must be one of "
                 "['tsit5', 'rkf78'], got 'rk_high_order'", id="rkf78_alias"),
    pytest.param({"effective": {"g": -2.0, "gamma": 0.05, "delta_g": 0.0}},
                 "config[effective]: unknown keys ['delta_g']; "
                 "known keys ['g', 'gamma', 'hopping']", id="delta_g"),
])
def test_a_removed_setting_exits_2_naming_the_key_and_its_choices(
        tmp_path, capsys, overrides, message):
    # one name per method, and no key that no model reads
    out = tmp_path / "x"
    assert main(["simulate", "--config",
                 write_config(tmp_path, small_config(**overrides)),
                 "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def stable_config(**overrides):
    cfg = {"model": "stable", "effective": {"g": -0.1, "gamma": 0.05},
           "initial": {"stable": {"n_particles": 2.0, "v": 0.5}},
           "run": {"t_final": 10.0, "snapshots": 6}}
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("run, flags", [
    ({"t_final": 10.0, "solver": {"rtol": 1e-6}}, []),
    ({"t_final": 10.0, "solver": {"method": "tsit5"}}, []),
    ({"t_final": 10.0}, ["--rtol", "1e-6"]),
    ({"t_final": 10.0}, ["--preset", "collective"]),
])
def test_a_solver_setting_on_the_stable_model_exits_2(tmp_path, capsys, run,
                                                        flags):
    # the stable model is written from its closed form: nothing to tune
    out = tmp_path / "x"
    path = write_config(tmp_path, stable_config(run=run))
    assert main(["simulate", "--config", path, "--out", str(out),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert "config[run.solver]: not read by the stable model" in err
    assert not out.exists()


def test_an_overflowing_stable_run_exits_3_and_writes_no_such_value(
        tmp_path, capsys):
    # anti-damped: v grows as exp(|Gamma| J t), which overflows by Jt = 100
    cfg = stable_config(effective={"g": -1.0, "gamma": -1.0},
                        initial={"stable": {"n_particles": 10.0, "v": 0.5}},
                        run={"t_final": 100.0})
    out = tmp_path / "x"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert "FloatingPointError" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    for written in out.rglob("*"):
        text = written.read_text().lower()
        assert "nan" not in text and "inf" not in text, written


# 10**17 doubles are 711 PiB, more than any address space can map
_UNALLOCATABLE = 10**17


def _sized_configs(size: int) -> list:
    """A field, a lattice and a collective run, each with one size key set
    to ``size``, and that key."""
    return [
        (small_config(grid={"domain_length": 40.0, "n_points": size}),
         "grid.n_points"),
        (small_config(model="lattice", grid=None, sites=size), "sites"),
        (stable_config(model="collective",
                       run={"t_final": 1.0, "snapshots": size}),
         "run.snapshots"),
    ]


# 10**19 lies beyond numpy's index range, 10**400 beyond a double's
@pytest.mark.parametrize("cfg, key, size", [
    (cfg, key, size)
    for size in (_UNALLOCATABLE, 10**19, 10**400)
    for cfg, key in _sized_configs(size)
], ids=["n_points", "sites", "snapshots",
        "n_points-1e19", "sites-1e19", "snapshots-1e19",
        "n_points-1e400", "sites-1e400", "snapshots-1e400"])
def test_simulate_rejects_a_size_too_large_to_allocate(tmp_path, capsys, cfg,
                                                       key, size):
    cfg = {name: value for name, value in cfg.items() if value is not None}
    out = tmp_path / "x"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: config[{key}]: " in err
    if size == _UNALLOCATABLE:
        assert f"config[{key}]: Unable to allocate" in err
    assert not out.exists()


_SOLITON = {"psi": 1.0, "x0": 20.0, "v": 0.1, "w": 2.0, "d": 0.0, "phi": 0.0}
_SOLVER = {"rtol": 1e-6, "atol": 1e-8, "max_steps": 500}
#: A small run of each model.  Every float is a number key the property
#: below may redraw; the sizes and max_steps are ints and stay.
_SMALL_RUNS = {
    "pcdnse": {"model": "pcdnse",
               "effective": {"g": -2.0, "gamma": 0.05, "hopping": 1.0},
               "grid": {"domain_length": 40.0, "n_points": 64},
               "initial": {"soliton": _SOLITON},
               "run": {"t_final": 0.5, "snapshots": 3, "solver": _SOLVER}},
    "langevin": {"model": "langevin",
                 "microscopic": {**_MICROSCOPIC, "hopping": 1.0,
                                 "anharmonicity": 0.0},
                 "sites": 16, "initial": {"soliton": {**_SOLITON,
                                                      "x0": 8.0}},
                 "run": {"t_final": 0.5, "snapshots": 3, "solver": _SOLVER}},
    "collective": {"model": "collective",
                   "effective": {"g": -2.0, "gamma": 0.05},
                   "initial": {"soliton": _SOLITON},
                   "run": {"t_final": 0.5, "snapshots": 3,
                           "solver": _SOLVER}},
    "stable": {"model": "stable", "effective": {"g": -0.5, "gamma": 0.05},
               "initial": {"stable": {"n_particles": 2.0, "x0": 0.0,
                                      "v": 0.5, "phi": 0.0}},
               "run": {"t_final": 0.5, "snapshots": 3}},
}


def _float_keys(node, path=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _float_keys(value, path + (key,))
        elif isinstance(value, float):
            yield path + (key,)


_NUMBER_KEYS = [(model, path) for model, cfg in _SMALL_RUNS.items()
                for path in _float_keys(cfg)]


@settings(max_examples=100, deadline=None)
# inputs that cannot be built: exit 2
@example(key=("pcdnse", ("grid", "domain_length")), value=1e-300)
@example(key=("pcdnse", ("initial", "soliton", "x0")), value=1e200)
@example(key=("langevin", ("initial", "soliton", "x0")), value=1e200)
@example(key=("stable", ("initial", "stable", "n_particles")), value=5e-324)
@example(key=("langevin", ("microscopic", "delta")), value=-1e200)
@example(key=("stable", ("initial", "stable", "n_particles")), value=1e200)
# a first step that underflows to 0: exit 3
@example(key=("collective", ("effective", "g")), value=1e200)
@given(key=st.sampled_from(_NUMBER_KEYS), value=st.floats())
def test_simulate_with_any_number_exits_0_2_or_3(key, value):
    model, path = key
    cfg = json.loads(json.dumps(_SMALL_RUNS[model]))
    parent = cfg
    for name in path[:-1]:
        parent = parent[name]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp, "run")
        rc = main(["simulate", "--config", write_config(Path(tmp), cfg),
                   "--out", str(out)])
        assert rc in (0, 2, 3), err.getvalue()
        # a config error is found before anything is written
        assert rc != 2 or not out.exists()


def test_simulate_of_a_field_whose_slope_overflows_exits_3_at_once(
        tmp_path, capsys):
    # |psi|^2 psi overflows, so there is no first step to take
    cfg = small_config(initial={"soliton": {"psi": 1e200, "x0": 20.0,
                                            "w": 1.0}},
                       run={"t_final": 0.5, "snapshots": 3,
                            "solver": {"max_steps": 2000}})
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "StepUnderflowError" in err and "accepted=0, rejected=0" in err


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


def test_fit_with_a_residual_that_overflows_writes_null(tmp_path, capsys):
    # |psi|^2 = 1e300 fits, but the squared residual overflows
    coords = SolitonCoords(psi=1e150, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.0)
    snap = write_field_csv(tmp_path / "snap.csv",
                           make_soliton_field(coords, 40.0, 400))
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # polyfit is poorly conditioned
        assert main(["fit", "--input", str(snap)]) == 0
        assert main(["fit", "--input", str(snap), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.split("fit written to")[0]
    for text in (printed, out.read_text()):
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload["residual"] is None
        assert payload["converged"] is False


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
def test_fit_rejects_a_threshold_that_is_not_finite_and_positive(
        tmp_path, capsys, threshold):
    snap = write_field_csv(tmp_path / "snap.csv", make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.0, w=1.0, d=0.0, phi=0.0),
        40.0, 400))
    assert main(["fit", "--input", str(snap),
                 f"--residual-threshold={threshold}"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "--residual-threshold" in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def soliton_csv(tmp_path_factory):
    return write_field_csv(tmp_path_factory.mktemp("fit") / "snap.csv",
                           make_soliton_field(SolitonCoords(
                               psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0,
                               phi=0.0), 40.0, 400))


@settings(max_examples=40, deadline=None)
@example(threshold=math.nan)
@example(threshold=-math.inf)
@example(threshold=math.inf)
@example(threshold=0.0)
@example(threshold=-0.0)
@example(threshold=5e-324)
@example(threshold=1.7976931348623157e308)
@given(threshold=st.floats())
def test_fit_exits_0_exactly_for_a_finite_positive_threshold(soliton_csv,
                                                             threshold):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["fit", "--input", str(soliton_csv),
                   f"--residual-threshold={threshold!r}"])
    assert rc == (0 if 0 < threshold < math.inf else 2)


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
    # a row that starts with a letter is a header only before the data
    "header_row_after_data": (".csv", lambda t: _edit_row(
        t, lambda row: "nan_is_not_x,0.1,0.2")),
    "nan_x": (".csv", lambda t: _edit_row(
        t, lambda row: "nan," + row.split(",", 1)[1])),
    "x_far_off_grid": (".csv", lambda t: _edit_row(
        t, lambda row: "1e9," + row.split(",", 1)[1])),
    "periodic_relabelled_open": (".csv", lambda t: t.replace(
        "# boundary=periodic", "# boundary=open")),
    "json_null_x": (".json", lambda t: json.dumps(
        {**json.loads(t), "x": [None] * 400})),
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


@pytest.mark.parametrize("command", ["fit", "simulate"])
@pytest.mark.parametrize("suffix, value, where", [
    (".csv", "nan", "line 11: psi is not finite"),
    (".csv", "-inf", "line 11: psi is not finite"),
    (".json", "NaN", "must be finite"),
    (".json", "Infinity", "must be finite"),
])
def test_non_finite_snapshot_is_a_configuration_error(tmp_path, capsys,
                                                      command, suffix,
                                                      value, where):
    field = make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.3),
        40.0, 400)
    if suffix == ".csv":
        snap = write_field_csv(tmp_path / "snap.csv", field, {"t": "0"})
        snap.write_text(_edit_row(snap.read_text(), lambda row: ",".join(
            row.split(",")[:2] + [value])))
    else:
        snap = write_field_json(tmp_path / "snap.json", field)
        payload = json.loads(snap.read_text())
        payload["re_psi"][200] = float(value)
        snap.write_text(json.dumps(payload))
    if command == "fit":
        argv = ["fit", "--input", str(snap)]
    else:
        # the cap bounds a solver that would accept the state: a NaN state
        # rejects every step
        cfg = write_config(tmp_path, small_config(
            initial={"field_file": str(snap)},
            run={"t_final": 0.5, "snapshots": 3,
                 "solver": {"max_steps": 1000}}))
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and where in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_params_reports_only_the_checks_its_sweep_can_test(tmp_path,
                                                           capsys):
    # all detunings blue: no red points, no delta = 0, no extremum
    assert main(["params", "--out", str(tmp_path / "blue"), "--delta-min",
                 "0.5", "--delta-max", "2", "--num", "11"]) == 0
    report = json.loads((tmp_path / "blue" / "report.json").read_text())
    assert report["checks"] == {"gamma_odd_in_detuning": True}
    assert "extremum" not in capsys.readouterr().out


def test_params_with_a_failed_check_exits_4(tmp_path, capsys, monkeypatch):
    effective_params = experiments.effective_params
    monkeypatch.setattr(experiments, "effective_params", lambda res, chain:
                        dataclasses.replace(effective_params(res, chain),
                                            gamma=-abs(res.delta)))
    assert main(["params", "--out", str(tmp_path / "p"), "--num", "101"]) == 4
    out = capsys.readouterr().out
    assert "red_detuning_gives_positive_gamma: FAIL" in out


@pytest.mark.parametrize("grid", [
    {"domain_length": 80.0, "n_points": 400},
    {"domain_length": 40.0, "n_points": 400, "boundary": "open"},
])
def test_simulate_rejects_a_field_file_of_another_grid(tmp_path, capsys,
                                                       grid):
    # a periodic L = 40 snapshot must not be stretched or re-bounded
    snap = write_field_csv(tmp_path / "snap.csv", make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.1, w=1.0, d=0.0, phi=0.3),
        40.0, 400))
    cfg = write_config(tmp_path, small_config(
        grid=grid, initial={"field_file": str(snap)}))
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config[initial.field_file]" in err and "does not match" in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["pcdnse", "lattice"])
def test_simulate_restarts_from_a_snapshot_of_its_own_grid(tmp_path, model):
    cfg = small_config(grid={"domain_length": 40.0, "n_points": 400,
                             "boundary": "open"}, output={"field_files": 2})
    if model == "lattice":
        cfg = {"model": "lattice", "effective": {"g": -0.1, "gamma": 0.05},
               "sites": 64, "boundary": "open",
               "initial": {"soliton": {"psi": 1.0, "x0": 32.0, "w": 3.0}},
               "run": cfg["run"], "output": cfg["output"]}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "first")]) == 0
    last = sorted((tmp_path / "first" / "snapshots").glob("*.csv"))[-1]
    cfg["initial"] = {"field_file": str(last)}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "restart")]) == 0
    assert (tmp_path / "restart" / "manifest.json").exists()


def test_params_rejects_a_degenerate_reservoir(tmp_path, capsys):
    # the default sweep passes delta = 0
    out = tmp_path / "p"
    assert main(["params", "--kappa", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "params sweep: kappa and delta both vanish" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--kappa=1e200", "--chi=1e200",
                                  "--delta-min=-1e200", "--delta-max=1e200"])
def test_params_rejects_constants_out_of_floating_point_range(
        tmp_path, capsys, flag):
    out = tmp_path / "p"
    assert main(["params", flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "params sweep: effective constants out of floating-point range" \
        in err
    assert not out.exists()


_PARAMS_FLOATS = [key for key, kind in cli._SWEEP_FLAGS.items()
                  if kind is float]


@settings(max_examples=100, deadline=None)
@example(flag="delta_min", value=-1e200)
@example(flag="delta_max", value=1e200)
@example(flag="kappa", value=1e200)
@example(flag="chi", value=-1e200)
@example(flag="eta", value=1.7976931348623157e308)
@example(flag="hopping", value=-1.7976931348623157e308)
@example(flag="kappa", value=5e-324)
@example(flag="chi", value=math.nan)
@example(flag="delta_min", value=-math.inf)
@example(flag="delta_max", value=math.inf)
@example(flag="hopping", value=0.0)
@example(flag="kappa", value=-0.0)
@given(flag=st.sampled_from(_PARAMS_FLOATS), value=st.floats())
def test_params_with_any_number_exits_0_2_or_4(flag, value):
    # no value warns: a warning here is an input that was not checked
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["params", "--num", "11", "--out", str(Path(tmp, "p")),
                   f"--{flag.replace('_', '-')}={value!r}"])
    assert rc in (0, 2, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if (flag, value) in (("delta_min", -1e200), ("kappa", 1e200)):
        assert rc == 2
    if flag.startswith("delta") and not math.isfinite(value):
        assert f"{flag} must be finite, got {value!r}" in err.getvalue()


def test_params_rejects_a_count_too_large_to_allocate(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["params", "--num", str(10**20), "--out", str(out)]) == 2
    assert "params sweep: " in capsys.readouterr().err
    assert not out.exists()


def test_params_rejects_a_count_it_cannot_allocate(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["params", "--num", str(_UNALLOCATABLE),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"params sweep: num = {_UNALLOCATABLE}: Unable to allocate" in err
    assert not out.exists()


def test_params_config_takes_an_integral_float_count(tmp_path):
    path = write_config(tmp_path, {"params_sweep": {"num": 11.0}})
    assert main(["params", "--config", path,
                 "--out", str(tmp_path / "p")]) == 0
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert report["sweep_points"] == 11


@pytest.mark.parametrize("command", ["simulate", "params", "fit",
                                     "field_file"])
def test_json_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys,
                                                       command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "simulate": ["simulate", "--config", str(deep)],
        "params": ["params", "--config", str(deep)],
        "fit": ["fit", "--input", str(deep)],
        "field_file": ["simulate", "--config", write_config(
            tmp_path, small_config(initial={"field_file": str(deep)}))],
    }[command]
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(deep) in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", [
    ["params", "--num", "11"],
    ["simulate"],
    ["experiment", "fig4"],
], ids=["params", "simulate", "experiment"])
@pytest.mark.parametrize("under_file", [False, True],
                         ids=["file", "under_file"])
def test_an_output_directory_that_cannot_be_made_exits_2(
        tmp_path, capsys, command, under_file):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    out = taken / "out" if under_file else taken
    if command == ["simulate"]:
        command = command + ["--config", write_config(tmp_path, small_config())]
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("where", ["directory", "under_missing"])
def test_a_fit_out_path_that_cannot_be_written_exits_2(tmp_path, capsys,
                                                       where):
    snap = write_field_csv(tmp_path / "snap.csv", make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.0, w=1.0, d=0.0, phi=0.0),
        40.0, 400))
    out = tmp_path if where == "directory" else tmp_path / "missing" / "f.json"
    assert main(["fit", "--input", str(snap), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --out" in err and str(out) in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_experiment_command(tmp_path, capsys):
    rc = main(["experiment", "fig2", "--out", str(tmp_path / "fig2")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "fig2" / "report.json").exists()
    with pytest.raises(SystemExit):
        main(["experiment", "fig9"])


@pytest.mark.parametrize("report,printed", [
    ({"checks": {"a": True, "b": False}, "failures": []}, "b: FAIL"),
    ({"checks": {"a": True}, "failures": ["RuntimeError: x"]},
     "sub-run failed: RuntimeError: x"),
])
def test_experiment_with_a_failed_check_or_sub_run_exits_4(
        monkeypatch, tmp_path, capsys, report, printed):
    monkeypatch.setattr(cli, "run_experiment", lambda config: report)
    assert main(["experiment", "fig4", "--out", str(tmp_path)]) == 4
    assert printed in capsys.readouterr().out


def test_experiment_flags_that_would_do_nothing_exit_2(tmp_path, capsys):
    out = tmp_path / "fig4"
    assert main(["experiment", "fig4", "--full", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "fig4", "--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
