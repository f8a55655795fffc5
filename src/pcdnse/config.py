"""Run-config checking against the committed JSON schema.

``config_schema.json``, next to this module, states every per-key rule of a
run config: type, bounds, choices and default.  :func:`normalize_config`
checks a config against it, fills in every default, and then applies the
rules that relate keys to each other, which the schema states only in its
descriptions.  The one reader, :func:`_check`, handles only the keywords the
schema uses.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from typing import Mapping

from .integrate import SOLVER_PRESETS

__all__ = ["ConfigError", "MODELS", "SWEEP_RULE", "check_solver_flags",
           "normalize_config", "normalize_sweep_config"]

_SCHEMA = json.loads(Path(__file__).with_name("config_schema.json").read_text())
MODELS = tuple(_SCHEMA["properties"]["model"]["enum"])
_LATTICE_MODELS = ("lattice", "langevin")
# the models that read each optional top-level key
_READERS = {"grid": ("pcdnse",), "sites": _LATTICE_MODELS,
            "boundary": _LATTICE_MODELS}

_DEFAULT_SOLVER_PRESET = {
    "pcdnse": "pcdnse",
    "lattice": "pcdnse",
    "langevin": "langevin",
    "collective": "collective",
}

#: The rule of a params_sweep section, whose keys are also the params flags.
SWEEP_RULE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        **dict.fromkeys(("chi", "eta", "kappa", "hopping", "delta_min",
                         "delta_max"), {"type": "number"}),
        "num": {"type": "integer"},
        "directory": {"type": "string"},
    },
}
# a params --config file holds the sweep section and nothing else
_SWEEP_FILE_RULE = {"type": "object", "additionalProperties": False,
                    "properties": {"params_sweep": SWEEP_RULE}}


class ConfigError(ValueError):
    """A configuration file is malformed or inconsistent."""


def _where(path: str) -> str:
    """How a message names ``path``: a command-line flag as itself, the top
    level as ``config`` and any key as ``config[key]``."""
    if path.startswith("--"):
        return path
    return f"config[{path}]" if path else "config"


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{_where(path)}: {message}")


def _is_number(value) -> bool:
    # NaN fails the comparison, as does an int too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    # JSON has one number type, so 400.0 is the integer 400
    return ((isinstance(value, int) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer()))


# JSON type -> (test, name in messages)
_TYPES = {
    "number": (_is_number, "a finite number"),
    "integer": (_is_integer, "an integer"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "null": (lambda v: v is None, "null"),
    "object": (lambda v: isinstance(v, Mapping), "an object"),
    "array": (lambda v: isinstance(v, list), "a list"),
}


def _check(value, rule: Mapping, path: str):
    """``value`` checked against one schema rule, with numbers as ``float``
    and integers as ``int``.  An object comes back with every property in
    schema order; an absent one takes its ``default``, or is checked as an
    empty object when it is an object with no required key, or else is
    ``None``.  Raises :class:`ConfigError` naming ``path``."""
    types = rule.get("type", [])
    types = [types] if isinstance(types, str) else types
    kind = next((t for t in types if _TYPES[t][0](value)), None)
    if types and kind is None:
        names = " or ".join(_TYPES[t][1] for t in types)
        raise ConfigError(f"{_where(path)}: expected {names}, got {value!r}")
    if kind == "number":
        value = float(value)
    elif kind == "integer":
        value = int(value)
    if "enum" in rule:
        _expect(value in rule["enum"], path,
                f"must be one of {rule['enum']}, got {value!r}")
    if "minimum" in rule:
        _expect(value >= rule["minimum"], path,
                f"must be at least {rule['minimum']}")
    if "exclusiveMinimum" in rule:   # always 0 in the schema
        _expect(value > rule["exclusiveMinimum"], path, "must be positive")
    if kind == "array":
        _expect(len(value) >= rule.get("minItems", 0), path,
                f"must have at least {rule.get('minItems')} item(s)")
        value = [_check(item, rule["items"], f"{path}[{i}]")
                 for i, item in enumerate(value)]
    if kind != "object":
        return value
    properties = rule.get("properties", {})
    unknown = set(value) - set(properties)
    _expect(rule.get("additionalProperties", True) or not unknown, path,
            f"unknown keys {sorted(unknown)}; known keys {list(properties)}")
    out = {}
    for key, sub in properties.items():
        sub_path = f"{path}.{key}" if path else key
        if key in value:
            out[key] = _check(value[key], sub, sub_path)
        elif key in rule.get("required", ()):
            raise ConfigError(f"config[{sub_path}]: missing required key")
        elif "default" in sub:
            out[key] = copy.deepcopy(sub["default"])
        elif sub.get("type") == "object" and not sub.get("required"):
            out[key] = _check({}, sub, sub_path)
        else:
            out[key] = None
    return out


def normalize_config(config: Mapping) -> dict:
    """Validate a run configuration and fill in every default.

    Returns the fully-explicit config echoed into each run directory.
    Raises :class:`ConfigError` with the offending key path on any problem.
    """
    _check(config, {"type": "object"}, "")
    model = _check(config.get("model"), _SCHEMA["properties"]["model"], "model")
    for key, readers in _READERS.items():
        _expect(key not in config or model in readers, key,
                f"not read by the {model} model")
    out = _check(config, _SCHEMA, "")

    _expect((out["microscopic"] is None) != (out["effective"] is None),
            "microscopic|effective",
            "exactly one parameterization (microscopic or effective) required")
    _expect(model != "langevin" or out["microscopic"] is not None,
            "microscopic", "the langevin model needs microscopic parameters")
    _expect(model != "pcdnse" or out["grid"] is not None, "grid",
            "required for the pcdnse model")
    _expect(model not in _LATTICE_MODELS or out["sites"] is not None, "sites",
            "missing required key")
    starts = {kind: spec for kind, spec in out["initial"].items()
              if spec is not None}
    _expect(len(starts) == 1, "initial",
            "exactly one of 'soliton', 'stable', 'field_file' required")
    [kind] = starts
    _expect(model != "stable" or kind == "stable", "initial",
            "the stable model needs an 'initial.stable' section")
    _expect(kind != "field_file" or model in ("pcdnse", *_LATTICE_MODELS),
            "initial.field_file",
            "field files apply to field/lattice models only")
    out["initial"] = starts

    solver = out["run"].pop("solver")
    _expect(model != "stable" or not config["run"].get("solver"), "run.solver",
            "not read by the stable model")
    if model != "stable":
        solver["preset"] = solver["preset"] or _DEFAULT_SOLVER_PRESET[model]
        base = SOLVER_PRESETS[solver["preset"]]
        for key, value in solver.items():
            if value is None:
                solver[key] = getattr(base, key)
        out["run"]["solver"] = solver
    # absent sections, and the boundary of a model that has no lattice
    return {key: value for key, value in out.items() if value is not None
            and (key not in _READERS or model in _READERS[key])}


def check_solver_flags(**flags) -> dict:
    """The solver flags given (not ``None``), by ``run.solver`` key, each
    checked against the schema rule of its key.  Raises
    :class:`ConfigError` naming the flag."""
    rules = _SCHEMA["properties"]["run"]["properties"]["solver"]["properties"]
    return {key: _check(value, rules[key], f"--{key}")
            for key, value in flags.items() if value is not None}


def normalize_sweep_config(config) -> dict:
    """Validate a ``params --config`` file, whose one key is
    ``params_sweep``, and return a copy of that section:
    :func:`~pcdnse.experiments.run_params_sweep` keyword arguments and an
    optional output ``directory``, as written except that ``num`` is an
    ``int``.  Raises :class:`ConfigError` with the key path."""
    _check(config, _SWEEP_FILE_RULE, "")
    out = dict(config.get("params_sweep", {}))
    if "num" in out:
        out["num"] = int(out["num"])
    return out
