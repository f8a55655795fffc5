"""Config validation and single-run driver behavior on small problems."""

import copy
import dataclasses
import inspect
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pcdnse import config, experiments
from pcdnse.collective import SolitonCoords, stable_soliton
from pcdnse.config import ConfigError, normalize_config
from pcdnse.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    run_params_sweep,
    run_simulation,
)
from pcdnse.io import write_field_csv
from pcdnse.model_continuum import make_soliton_field
from pcdnse.params import EffectiveParams


def pcdnse_config(**overrides):
    cfg = {
        "model": "pcdnse",
        "effective": {"g": -2.0, "gamma": 0.05},
        "grid": {"domain_length": 40.0, "n_points": 400},
        # width omitted: filled with the stable width sqrt(-2J/g)/psi = 1
        "initial": {"soliton": {"psi": 1.0, "x0": 20.0}},
        "run": {"t_final": 1.0, "snapshots": 5},
    }
    cfg.update(overrides)
    return cfg


def test_normalize_config_fills_defaults_and_is_idempotent():
    cfg = normalize_config(pcdnse_config())
    assert cfg["run"]["solver"]["preset"] == "pcdnse"
    assert cfg["run"]["solver"]["max_steps"] > 0
    assert cfg["output"] == {"directory": None, "formats": ["csv"],
                             "field_files": 5}
    assert cfg["initial"]["soliton"]["v"] == 0.0
    assert cfg["initial"]["soliton"]["w"] is None
    assert normalize_config(cfg) == cfg


@pytest.mark.parametrize("mangle, message", [
    (lambda c: c.pop("model"), "model"),
    (lambda c: c.update(model="tight-binding"), "model"),
    (lambda c: c.update(microscopic={"chi": 0.05, "eta": 1.0, "kappa": 1.0,
                                     "delta": -0.1}),
     "exactly one parameterization"),
    (lambda c: c.update(extra=1), "unknown keys"),
    (lambda c: c.pop("grid"), "grid"),
    (lambda c: c["grid"].update(n_points=8), "n_points"),
    (lambda c: c["grid"].update(boundary="absorbing"), "boundary"),
    (lambda c: c.pop("initial"), "initial"),
    (lambda c: c["initial"].update(stable={"n_particles": 1.0}),
     "exactly one of"),
    (lambda c: c["initial"]["soliton"].pop("psi"), "psi"),
    (lambda c: c["run"].pop("t_final"), "t_final"),
    (lambda c: c["run"].update(t_final=-1.0), "positive"),
    (lambda c: c["run"].update(snapshots=1), "at least 2"),
    (lambda c: c["run"].update(solver={"preset": "gallium"}), "preset"),
    (lambda c: c["run"].update(solver={"rtol": -1e-9}), "solver"),
    (lambda c: c["run"].update(t_final=True), "number"),
    (lambda c: c.update(output={"formats": ["yaml"]}), "formats"),
    (lambda c: c.update(output={"field_files": 1}), "field_files"),
    (lambda c: c.update(output={"directory": 5}), "output.directory"),
    (lambda c: c.update(effective=5), "config.effective.: expected an object"),
    (lambda c: c.update(grid=5), "config.grid.: expected an object"),
    (lambda c: c.update(initial=5), "config.initial.: expected an object"),
    (lambda c: c.update(initial="soliton"),
     "config.initial.: expected an object, got 'soliton'"),
    (lambda c: c.update(run=5), "config.run.: expected an object"),
    (lambda c: c.update(output=5), "config.output.: expected an object"),
    (lambda c: c["initial"].update(soliton=5),
     "config.initial.soliton.: expected an object"),
    (lambda c: c["run"].update(solver=5),
     "config.run.solver.: expected an object"),
    (lambda c: c["grid"].update(domain_length=math.inf),
     "config.grid.domain_length.: expected a finite number, got inf"),
    (lambda c: c["run"].update(t_final=math.inf),
     "config.run.t_final.: expected a finite number"),
    (lambda c: c["run"].update(solver={"rtol": math.nan}),
     "config.run.solver.rtol.: expected a finite number, got nan"),
    (lambda c: c["run"].update(solver={"atol": math.nan}),
     "config.run.solver.atol.: expected a finite number"),
    (lambda c: c["initial"]["soliton"].update(x0=-math.inf),
     "config.initial.soliton.x0.: expected a finite number"),
    (lambda c: c["effective"].update(g=10**400),
     "config.effective.g.: expected a finite number"),
    (lambda c: c.update(model="collective", grid={"domain_length": "x"},
                        sites="many", boundary="moebius"),
     "config.grid.: not read by the collective model"),
    (lambda c: c.update(model="stable"),
     "config.grid.: not read by the stable model"),
    (lambda c: c.update(sites="many"),
     "config.sites.: not read by the pcdnse model"),
    (lambda c: c.update(boundary="moebius"),
     "config.boundary.: not read by the pcdnse model"),
    (lambda c: c.update(model="lattice", sites=16),
     "config.grid.: not read by the lattice model"),
    (lambda c: (c.pop("grid"), c.update(model="lattice", sites=15)),
     "config.sites.: must be at least 16"),
    (lambda c: (c.pop("grid"), c.update(model="lattice")),
     r"^config\[sites\]"),
])
def test_normalize_config_rejects_malformed_input(mangle, message):
    cfg = pcdnse_config()
    mangle(cfg)
    with pytest.raises(ConfigError, match=message):
        normalize_config(cfg)


def langevin_config():
    return {
        "model": "langevin",
        "microscopic": {"chi": 0.05, "eta": 1.0, "kappa": 1.0, "delta": -0.5},
        "sites": 16,
        "initial": {"soliton": {"psi": 0.5, "x0": 8.0, "w": 2.0}},
        "run": {"t_final": 1.0, "solver": {"preset": "langevin"}},
        "output": {"formats": ["csv"]},
    }


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False), st.text(max_size=8))
_SECTIONS = [(pcdnse_config, path) for path in (
    ("effective",), ("grid",), ("initial",), ("initial", "soliton"),
    ("run",), ("run", "solver"), ("output",))] + [
    (langevin_config, path) for path in (
        ("microscopic",), ("initial",), ("run", "solver"), ("output",))]


@settings(max_examples=200, deadline=None)
@given(section=st.sampled_from(_SECTIONS),
       value=st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)))
def test_a_section_that_is_not_an_object_is_a_config_error(section, value):
    make, path = section
    cfg = make()
    assert normalize_config(copy.deepcopy(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigError, match=r"expected an object"):
        normalize_config(cfg)


def stable_config():
    return {
        "model": "stable",
        "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"stable": {"n_particles": 2.0, "v": 0.5}},
        "run": {"t_final": 1.0},
    }


@pytest.fixture(scope="module")
def snapshot_400(tmp_path_factory):
    """A 400-point field snapshot, the grid size of ``pcdnse_config``."""
    coords = SolitonCoords(psi=1.0, x0=20.0, v=0.0, w=1.0, d=0.0, phi=0.0)
    return str(write_field_csv(tmp_path_factory.mktemp("start") / "start.csv",
                               make_soliton_field(coords, 40.0, 400)))


_NEGATIVE = st.floats(max_value=-1e-12)
_NON_POSITIVE = st.floats(max_value=0.0)
_NON_NEGATIVE = st.floats(min_value=0.0)
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# (config, key paths set to the drawn value, values that are all invalid)
_VALUE_INVALID = [
    (langevin_config, [("microscopic", "chi")], _NEGATIVE),
    (langevin_config, [("microscopic", "kappa"), ("microscopic", "delta")],
     st.just(0.0)),
    (langevin_config, [("initial", "soliton", "psi")], _NEGATIVE),
    (pcdnse_config, [("initial", "soliton", "w")], _NON_POSITIVE),
    # the width is omitted: the stable width needs g < 0
    (pcdnse_config, [("effective", "g")], _NON_NEGATIVE),
    (stable_config, [("initial", "stable", "n_particles")], _NON_POSITIVE),
    (stable_config, [("effective", "g")], _NON_NEGATIVE),
    (pcdnse_config, [("initial",)],
     st.just({"field_file": "/nonexistent/start.csv"})),
    (pcdnse_config, [("grid", "n_points")],
     st.integers(16, 1000).filter(lambda n: n != 400)),
    *[(make, [path], _NON_FINITE) for make, path in (
        (pcdnse_config, ("grid", "domain_length")),
        (pcdnse_config, ("run", "t_final")),
        (pcdnse_config, ("effective", "gamma")),
        (pcdnse_config, ("initial", "soliton", "x0")),
        (langevin_config, ("microscopic", "eta")),
        (langevin_config, ("run", "solver", "rtol")),
        (langevin_config, ("run", "solver", "atol")),
        (stable_config, ("initial", "stable", "v")))],
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_value_invalid_config_writes_nothing(data, tmp_path_factory,
                                                snapshot_400):
    make, paths, values = data.draw(st.sampled_from(_VALUE_INVALID))
    value = data.draw(values)
    cfg = make()
    if paths == [("grid", "n_points")]:
        # a grid size other than that of the start file
        cfg["initial"] = {"field_file": snapshot_400}
    for path in paths:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    out_dir = tmp_path_factory.mktemp("rejected") / "out"
    with pytest.raises(ConfigError, match=r"config\["):
        run_simulation(cfg, out_dir)
    assert not out_dir.exists()


def test_normalize_config_lattice_needs_sites():
    cfg = {
        "model": "lattice",
        "effective": {"g": -0.1},
        "initial": {"soliton": {"psi": 1.0, "x0": 16.0, "w": 3.0}},
        "run": {"t_final": 1.0},
    }
    with pytest.raises(ConfigError, match="sites"):
        normalize_config(cfg)
    cfg["sites"] = 32
    assert normalize_config(cfg)["sites"] == 32


def test_normalize_config_langevin_needs_microscopic():
    cfg = {
        "model": "langevin",
        "effective": {"g": -0.1},
        "sites": 16,
        "initial": {"soliton": {"psi": 0.5, "x0": 8.0, "w": 2.0}},
        "run": {"t_final": 1.0},
    }
    with pytest.raises(ConfigError, match="microscopic"):
        normalize_config(cfg)


def test_integral_floats_are_integers():
    # JSON has one number type: 400.0 is the integer 400, 400.5 is not
    cfg = pcdnse_config(grid={"domain_length": 40.0, "n_points": 400.0},
                        run={"t_final": 1.0, "snapshots": 5.0,
                             "solver": {"max_steps": 1e4}},
                        output={"field_files": 2.0})
    echoed = normalize_config(cfg)
    assert json.dumps(echoed) == json.dumps(normalize_config(pcdnse_config(
        run={"t_final": 1.0, "snapshots": 5,
             "solver": {"max_steps": 10000}},
        output={"field_files": 2})))
    for bad in (400.5, math.inf, math.nan, True):
        cfg["grid"]["n_points"] = bad
        with pytest.raises(ConfigError, match="expected an integer"):
            normalize_config(cfg)


# ---------------------------------------------------------------------------
# config_schema.json accepts exactly the configs normalize_config does,
# except for the rules the schema states only in prose.  A config that
# breaks one of those must still be rejected by normalize_config:
# - exactly one of 'microscopic' and 'effective';
# - the langevin model needs 'microscopic';
# - 'grid' is read by the pcdnse model only, 'sites' and 'boundary' by the
#   lattice and langevin models only, and each reader needs its key;
# - the stable model starts from 'initial.stable' and takes no solver
#   setting;
# - 'initial.field_file' applies to the field models only.
# Non-finite numbers are not JSON, and JSON numbers beyond the range of a
# double have no float to parse into, so neither is drawn.

_SCHEMA_PATH = (Path(__file__).resolve().parents[1] / "src" / "pcdnse"
                / "config_schema.json")


def _full_field_config():
    return pcdnse_config(
        grid={"domain_length": 40.0, "n_points": 400, "boundary": "open"},
        initial={"soliton": {"psi": 1.0, "x0": 20.0, "v": 0.1, "w": None,
                             "d": 0.0, "phi": 0.0}},
        run={"t_final": 1.0, "snapshots": 5, "solver": {
            "preset": "pcdnse", "method": "rk45_tsitouras", "rtol": 1e-6,
            "atol": 0.0, "max_steps": 100}},
        output={"directory": "out/run", "formats": ["csv", "json"],
                "field_files": 2})


def _lattice_config():
    return {"model": "lattice", "effective": {"g": -0.1, "gamma": 0.05,
                                              "delta_g": 0.0, "hopping": 1.0},
            "sites": 32, "boundary": "periodic",
            "initial": {"field_file": "start.csv"},
            "run": {"t_final": 1.0, "solver": {"method": "rk_high_order"}}}


_SCHEMA_CONFIGS = [pcdnse_config, langevin_config, stable_config,
                   _full_field_config, _lattice_config]
_WORDS = [*config.MODELS, "periodic", "open", "csv", "json", "yaml",
          "tsit5", "rkf78", "rk45_tsitouras", "rk_high_order", "euler",
          "pcdnse_tight", "two_soliton", "", "x"]
# each bound of the schema, on both sides, and a value of every JSON type
_CATALOGUE = [None, True, False, -1, 0, 1, 2, 15, 16, -1e-9, 0.0, 0.5, 2.5,
              16.0, 400.0, *_WORDS, [], {}, ["csv"], ["csv", 1]]
_JSON_VALUES = st.one_of(
    st.sampled_from(_CATALOGUE), st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False), st.text(max_size=6),
    st.lists(st.sampled_from(_WORDS), max_size=2))


def _paths(node, prefix=()):
    """The path of every member and list item inside a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutant(make, kind: str, path: tuple, value=None) -> dict:
    """``make()`` with one member dropped, added as ``unknown_key`` to the
    object at ``path``, or set to ``value``."""
    cfg = make()
    if kind == "add":
        _at(cfg, path)["unknown_key"] = value
    elif kind == "drop":
        del _at(cfg, path[:-1])[path[-1]]
    else:
        _at(cfg, path[:-1])[path[-1]] = value
    return cfg


def _breaks_a_prose_rule(cfg) -> bool:
    model = cfg.get("model")
    if model not in config.MODELS:
        return False
    lattice = model in ("lattice", "langevin")
    initial = cfg.get("initial")
    starts = initial if isinstance(initial, dict) else {}
    return (("microscopic" in cfg) == ("effective" in cfg)
            or (model == "langevin" and "microscopic" not in cfg)
            or ("grid" in cfg) != (model == "pcdnse")
            or ("sites" in cfg) != lattice
            or ("boundary" in cfg and not lattice)
            or (model == "stable" and "stable" not in starts)
            or (model == "stable" and isinstance(cfg.get("run"), dict)
                and bool(cfg["run"].get("solver")))
            or ("field_file" in starts
                and model not in ("pcdnse", "lattice", "langevin")))


@pytest.fixture(scope="module")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(
        json.loads(_SCHEMA_PATH.read_text()))


def _assert_schema_agrees(validator, cfg) -> None:
    try:
        normalize_config(copy.deepcopy(cfg))
        accepted = True
    except ConfigError:
        accepted = False
    if _breaks_a_prose_rule(cfg):
        assert not accepted, cfg
    else:
        assert validator.is_valid(cfg) == accepted, cfg


def test_schema_accepts_the_test_configs(schema_validator):
    for make in _SCHEMA_CONFIGS:
        assert schema_validator.is_valid(make()) and normalize_config(make())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_accepts_exactly_what_normalize_config_accepts(
        data, schema_validator):
    make = data.draw(st.sampled_from(_SCHEMA_CONFIGS))
    kind = data.draw(st.sampled_from(["drop", "add", "set"]))
    paths = list(_paths(make()))
    if kind == "add":
        paths = [()] + [p for p in paths if isinstance(_at(make(), p), dict)]
    path = data.draw(st.sampled_from(paths))
    value = None if kind == "drop" else data.draw(_JSON_VALUES)
    _assert_schema_agrees(schema_validator, _mutant(make, kind, path, value))


def test_schema_agrees_on_every_catalogued_mutation(schema_validator):
    # the same property, swept over every member and catalogue value, so
    # that no bound or enum depends on what the random draw hits
    for make in _SCHEMA_CONFIGS:
        _assert_schema_agrees(schema_validator, _mutant(make, "add", (), 0))
        for path in _paths(make()):
            _assert_schema_agrees(schema_validator, _mutant(make, "drop", path))
            if isinstance(_at(make(), path), dict):
                _assert_schema_agrees(schema_validator,
                                      _mutant(make, "add", path, 0))
            for value in _CATALOGUE:
                _assert_schema_agrees(schema_validator,
                                      _mutant(make, "set", path, value))


def test_run_simulation_pcdnse_writes_everything(tmp_path):
    manifest = run_simulation(pcdnse_config(), tmp_path)
    names = [e["path"] for e in manifest["files"]]
    assert "config_echo.json" in names
    assert "diagnostics.csv" in names
    assert "snapshots/snap_0000.csv" in names
    assert "snapshots/snap_0004.csv" in names
    assert manifest["model"] == "pcdnse"
    assert "warnings" not in manifest
    diag = manifest["diagnostics"]
    assert diag["particle_conserved"]
    assert diag["particle_drift"] < 1e-6
    assert manifest["integrator"]["accepted_steps"] > 0
    echoed = json.loads((tmp_path / "config_echo.json").read_text())
    assert echoed["model"] == "pcdnse"


def test_run_simulation_records_containment_warning(tmp_path):
    cfg = pcdnse_config(
        initial={"soliton": {"psi": 1.0, "x0": 20.0, "w": 4.0}},
        run={"t_final": 0.2, "snapshots": 2},
    )
    manifest = run_simulation(cfg, tmp_path)
    assert manifest["warnings"]
    assert "tail" in manifest["warnings"][0]


def test_run_simulation_lattice_conserves_occupation(tmp_path):
    cfg = {
        "model": "lattice",
        "effective": {"g": -0.1, "gamma": 0.05},
        "sites": 64,
        "initial": {"soliton": {"psi": 1.0, "x0": 32.0, "w": 3.0}},
        "run": {"t_final": 2.0, "snapshots": 3},
        "output": {"formats": ["csv", "json"], "field_files": 2},
    }
    manifest = run_simulation(cfg, tmp_path)
    names = [e["path"] for e in manifest["files"]]
    assert "snapshots/snap_0000.json" in names
    assert "snapshots/snap_0002.csv" in names
    assert manifest["diagnostics"]["particle_conserved"]


def test_run_simulation_open_lattice_conserves_energy(tmp_path):
    # gamma = 0: the bond energy, ghost bonds included, is a flow invariant
    cfg = {
        "model": "lattice",
        "effective": {"g": -0.3, "gamma": 0.0},
        "sites": 40,
        "boundary": "open",
        "initial": {"soliton": {"psi": 1.0, "x0": 20.0, "v": 0.3, "w": 1.5}},
        "run": {"t_final": 20.0, "snapshots": 21},
    }
    diag = run_simulation(cfg, tmp_path)["diagnostics"]
    assert diag["energy_conserved"]
    assert diag["particle_conserved"]


def _solved_problems(monkeypatch, cfg, out_dir) -> list:
    """The problems ``run_simulation(cfg)`` hands to ``solve``."""
    real_solve = experiments.solve
    problems = []

    def spy(problem, config):
        problems.append(problem)
        return real_solve(problem, config)

    monkeypatch.setattr(experiments, "solve", spy)
    run_simulation(cfg, out_dir)
    return problems


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_only_periodic_field_runs_step_the_dispersion_exactly(
        tmp_path, monkeypatch, boundary):
    # open grids stay on plain steps: their Laplacian needs a DST-I
    cfg = pcdnse_config(run={"t_final": 0.2, "snapshots": 2})
    cfg["grid"]["boundary"] = boundary
    problems = _solved_problems(monkeypatch, cfg, tmp_path)
    assert len(problems) == 1
    assert (problems[0].linear is None) == (boundary == "open")


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_only_periodic_langevin_runs_step_the_hopping_exactly(
        tmp_path, monkeypatch, boundary):
    # open chains stay on plain steps
    problems = _solved_problems(monkeypatch, {
        "model": "langevin",
        "microscopic": {"chi": 0.05, "eta": 1.0, "kappa": 1.0, "delta": -0.1},
        "sites": 24,
        "boundary": boundary,
        "initial": {"soliton": {"psi": 0.5, "x0": 12.0, "w": 2.0}},
        "run": {"t_final": 0.2, "snapshots": 2},
    }, tmp_path)
    assert len(problems) == 1
    assert (problems[0].linear is None) == (boundary == "open")


def test_run_simulation_langevin_reports_weak_coupling(tmp_path):
    cfg = {
        "model": "langevin",
        "microscopic": {"chi": 0.05, "eta": 1.0, "kappa": 1.0, "delta": -0.1},
        "sites": 24,
        "initial": {"soliton": {"psi": 0.5, "x0": 12.0, "w": 2.0}},
        "run": {"t_final": 0.5, "snapshots": 2},
    }
    manifest = run_simulation(cfg, tmp_path)
    derived = manifest["effective_derived"]
    assert derived["gamma"] > 0          # red detuning damps
    diag = manifest["diagnostics"]
    assert "energy_conserved" not in diag
    wc = diag["weak_coupling"]
    assert 0 < wc["r1"] < 1 and 0 < wc["r2"] < 1
    assert wc["within_advisory"]
    assert diag["particle_conserved"]


def test_run_simulation_collective_conserves_particles(tmp_path):
    cfg = {
        "model": "collective",
        "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"stable": {"n_particles": 2.0 * math.sqrt(20.0),
                               "v": 0.3}},
        "run": {"t_final": 5.0, "snapshots": 6},
    }
    manifest = run_simulation(cfg, tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert manifest["diagnostics"]["particle_conserved"]
    assert "energy_conserved" not in manifest["diagnostics"]


def test_run_simulation_stable_matches_closed_form(tmp_path):
    from pcdnse.collective import stable_closed_form

    cfg = {
        "model": "stable",
        "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"stable": {"n_particles": 2.0, "x0": 1.0, "v": 0.5,
                               "phi": 0.2}},
        "run": {"t_final": 10.0, "snapshots": 6},
    }
    manifest = run_simulation(cfg, tmp_path)
    # written from the closed form: nothing is integrated, no solver is set
    assert "integrator" not in manifest
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    assert echo["run"] == {"t_final": 10.0, "snapshots": 6}
    ss = stable_soliton(2.0, EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0))
    block = manifest["stable_soliton"]
    assert_allclose(block["width"], ss.width, rtol=1e-15)
    assert_allclose(block["damping_rate"], ss.damping_rate, rtol=1e-15)

    table = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",",
                          names=True)
    assert np.array_equal(table["t"], np.linspace(0.0, 10.0, 6))
    x_ref, v_ref, phi_ref = stable_closed_form(table["t"], 1.0, 0.5, 0.2, ss)
    assert np.array_equal(table["x0"], x_ref)
    assert np.array_equal(table["v"], v_ref)
    assert np.array_equal(table["phi"], phi_ref)
    assert_allclose(table["energy"], [ss.energy(v) for v in table["v"]],
                    rtol=1e-12)


def test_run_simulation_stable_requires_stable_initial(tmp_path):
    cfg = {
        "model": "stable",
        "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"soliton": {"psi": 1.0, "x0": 0.0, "w": 2.0}},
        "run": {"t_final": 1.0},
    }
    with pytest.raises(ConfigError, match="stable"):
        run_simulation(cfg, tmp_path)


def test_run_simulation_from_field_file(tmp_path):
    coords = SolitonCoords(psi=1.0, x0=20.0, v=0.0, w=1.0, d=0.0, phi=0.0)
    field = make_soliton_field(coords, 40.0, 400)
    start = write_field_csv(tmp_path / "start.csv", field)

    cfg = pcdnse_config(initial={"field_file": str(start)},
                        run={"t_final": 0.2, "snapshots": 2})
    manifest = run_simulation(cfg, tmp_path / "run")
    assert manifest["diagnostics"]["particle_conserved"]

    bad_grid = pcdnse_config(initial={"field_file": str(start)},
                             grid={"domain_length": 40.0, "n_points": 512},
                             run={"t_final": 0.2, "snapshots": 2})
    with pytest.raises(ConfigError, match="does not match"):
        run_simulation(bad_grid, tmp_path / "run2")

    gone = pcdnse_config(initial={"field_file": str(tmp_path / "gone.csv")})
    with pytest.raises(ConfigError, match="no such file"):
        run_simulation(gone, tmp_path / "run3")


def test_params_sweep_checks_pass(tmp_path):
    report = run_params_sweep(tmp_path, num=201)
    assert report["checks"] == {
        "vanishes_at_zero_detuning": True,
        "red_detuning_gives_positive_gamma": True,
        "gamma_odd_in_detuning": True,
        "gamma_extremum_near_expected_detuning": True,
    }
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "manifest.json").exists()
    with pytest.raises(ConfigError, match="at least 5"):
        run_params_sweep(tmp_path, num=3)
    with pytest.raises(ConfigError, match="delta_min"):
        run_params_sweep(tmp_path, delta_min=1.0, delta_max=-1.0)


def test_params_sweep_odd_check_reads_gamma_not_the_grid(tmp_path,
                                                         monkeypatch):
    # a sweep that is not symmetric about delta = 0 still has an odd gamma
    report = run_params_sweep(tmp_path / "a", delta_min=-3.0, delta_max=2.0,
                              num=121)
    assert report["checks"]["gamma_odd_in_detuning"]
    # an even count is checked too, not passed unseen
    effective_params = experiments.effective_params
    monkeypatch.setattr(experiments, "effective_params", lambda res, chain:
                        dataclasses.replace(effective_params(res, chain),
                                            gamma=res.delta ** 2))
    report = run_params_sweep(tmp_path / "b", num=100)
    assert not report["checks"]["gamma_odd_in_detuning"]


def test_experiment_registry_and_dispatch(tmp_path):
    assert set(EXPERIMENTS) == {"fig2", "fig3a", "fig3b", "fig4", "fig5",
                                "fig6"}
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment(ExperimentConfig(figure="fig9", out_dir=tmp_path))
    report = run_experiment(ExperimentConfig(figure="fig2",
                                             out_dir=tmp_path / "fig2"))
    assert all(report["checks"].values())


def test_a_canned_runner_computes_without_writing(tmp_path, monkeypatch):
    # only the entry points write; a runner takes no output directory
    for runner in EXPERIMENTS.values():
        assert "out_dir" not in inspect.signature(runner).parameters

    def no_write(*args):
        raise AssertionError("a canned runner wrote")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(experiments, "_write_run", no_write)
    report, tables = EXPERIMENTS["fig2"]()
    assert all(report["checks"].values())
    assert list(tables) == ["sweep"]
    assert len(tables["sweep"]["delta"]) == report["sweep_points"] == 601
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("figure", ["fig2", "fig3b", "fig4", "fig6"])
def test_run_experiment_rejects_full_without_a_full_scale(tmp_path, figure):
    with pytest.raises(ConfigError, match="no full scale"):
        run_experiment(ExperimentConfig(figure=figure, out_dir=tmp_path / "x",
                                        full=True))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", [0, 2, 5])
def test_run_experiment_rejects_threads_other_than_one(tmp_path, threads):
    with pytest.raises(ConfigError, match="threads must be 1"):
        run_experiment(ExperimentConfig(figure="fig4", out_dir=tmp_path / "x",
                                        threads=threads))
    assert not (tmp_path / "x").exists()


def test_run_jobs_runs_in_order_and_keeps_the_rows_that_finish(
        tmp_path, monkeypatch):
    calls = []

    def job(i):
        calls.append((i, threading.get_ident()))
        if i == 1:
            raise ValueError("sub-run 1 broke")
        return {"i": i}, {f"a_{i}": {"x": np.arange(2.0) + i},
                          f"b_{i}": {"y": np.array([0.5])}}

    monkeypatch.chdir(tmp_path)
    rows, failures, tables = experiments._run_jobs(job, [(0,), (1,), (2,)])
    assert calls == [(i, threading.get_ident()) for i in range(3)]
    assert rows == [{"i": 0}, {"i": 2}]
    assert failures == ["ValueError: sub-run 1 broke"]
    # the tables of the sub-runs that finished, and nothing of the other
    assert list(tables) == ["a_0", "b_0", "a_2", "b_2"]
    np.testing.assert_array_equal(tables["a_2"]["x"], [2.0, 3.0])
    np.testing.assert_array_equal(tables["b_2"]["y"], [0.5])
    # nothing is written
    assert list(tmp_path.iterdir()) == []
