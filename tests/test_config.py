"""The committed config schema states every per-key rule, and
``pcdnse.config`` reads all of it."""

from pathlib import Path

import pytest

from pcdnse import config, integrate

# the keywords config._check reads, and those it leaves to the code or the
# reader of the schema
_READ = {"type", "enum", "minimum", "exclusiveMinimum", "items", "minItems",
         "properties", "required", "additionalProperties", "default"}
_NOT_READ = {"$schema", "title", "description", "minProperties",
             "maxProperties"}


def _rules(rule):
    yield rule
    for sub in rule.get("properties", {}).values():
        yield from _rules(sub)
    if "items" in rule:
        yield from _rules(rule["items"])


def test_the_schema_uses_only_keywords_the_reader_handles():
    # another keyword, such as "maximum", would be ignored without a word
    for rule in _rules(config._SCHEMA):
        assert set(rule) <= _READ | _NOT_READ, rule
        assert rule.get("additionalProperties", False) is False, rule
        # the reader words this bound as "must be positive"
        assert rule.get("exclusiveMinimum", 0) == 0, rule


def test_solver_choices_match_the_integrator():
    solver = config._SCHEMA["properties"]["run"]["properties"]["solver"]
    assert set(solver["properties"]["preset"]["enum"]) == set(
        integrate.SOLVER_PRESETS)
    assert set(solver["properties"]["method"]["enum"]) == set(
        integrate._TABLEAUS)
    # the stable model is written from its closed form and has no solver
    assert set(config._DEFAULT_SOLVER_PRESET) == set(config.MODELS) - {
        "stable"}


def test_the_schema_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    setuptools = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]
    assert "config_schema.json" in setuptools["package-data"]["pcdnse"]


def test_an_integer_of_any_size_is_an_integer():
    # only a number must fit a double; JSON gives integers no size limit
    cfg = config.normalize_config({
        "model": "collective", "effective": {"g": -0.1},
        "initial": {"stable": {"n_particles": 2.0}},
        "run": {"t_final": 1.0, "solver": {"max_steps": 10**400}}})
    assert cfg["run"]["solver"]["max_steps"] == 10**400
