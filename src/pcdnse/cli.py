"""Command-line interface.

Four subcommands: ``params`` (detuning sweep of the effective constants),
``simulate`` (one configured run from a JSON file), ``fit`` (sech-pulse fit
of a stored snapshot), and ``experiment`` (canned multi-run datasets).

``params`` takes its sweep from its flags, one per keyword argument of
:func:`~pcdnse.experiments.params_sweep`.  Output directory precedence:
``--out`` flag, then the ``PCDNSE_OUTPUT_DIR`` environment variable, then
(for ``simulate``) the config file's ``output.directory``, then
``./out/<name>``.  Exit codes: 0 on success, 2 on configuration errors
(a missing or malformed snapshot file among them, or one holding a NaN or
infinite value, and an ``--out`` that cannot be written), 3 on numerical
failures, 4 when the report of ``params`` or ``experiment`` has a failed
check or a failed sub-run.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from pathlib import Path

from . import io
from .analysis import FIT_RESIDUAL_THRESHOLD, NoPeakError, fit_soliton
from .collective import WidthCollapseError
from .config import ConfigError, check_solver_flags, normalize_config
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    params_sweep,
    read_snapshot,
    run_experiment,
    run_params_sweep,
    run_simulation,
)
from .integrate import IntegrationError

__all__ = ["main", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "PCDNSE_OUTPUT_DIR"

_NUMERICAL_ERRORS = (IntegrationError, WidthCollapseError, NoPeakError,
                     ArithmeticError)

#: The params flags, by key and type: the keyword arguments of
#: :func:`~pcdnse.experiments.params_sweep`, typed as their defaults.
_SWEEP_FLAGS = {key: type(param.default) for key, param
                in inspect.signature(params_sweep).parameters.items()}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:       # arrays or objects nested too deeply
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return config


def _resolve_out(flag_value: str | None, config_value: str | None,
                 default: str) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if config_value:
        return Path(config_value)
    return Path(default)


def _print_checks(report: dict) -> int:
    """Print the report's checks and failed sub-runs; return the exit
    code: 0 when every check passed and no sub-run failed, else 4."""
    for name, ok in report["checks"].items():
        print(f"  {name}: {'PASS' if ok else 'FAIL'}")
    for failure in report.get("failures", []):
        print(f"  sub-run failed: {failure}")
    passed = all(report["checks"].values()) and not report.get("failures")
    return 0 if passed else 4


def _cmd_params(args: argparse.Namespace) -> int:
    out_dir = _resolve_out(args.out, None, "out/params")
    report = run_params_sweep(out_dir, **{
        key: getattr(args, key) for key in _SWEEP_FLAGS
        if getattr(args, key) is not None})
    print(f"parameter sweep written to {out_dir}")
    return _print_checks(report)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    overrides = check_solver_flags(preset=args.preset, rtol=args.rtol,
                                   atol=args.atol)
    run = config.setdefault("run", {})
    # A run or solver section that is not an object is left for
    # normalize_config to reject with its key path.
    if isinstance(run, dict) and isinstance(run.setdefault("solver", {}), dict):
        run["solver"].update(overrides)
    cfg = normalize_config(config)
    out_dir = _resolve_out(args.out, cfg["output"]["directory"], "out/run")
    manifest = run_simulation(cfg, out_dir)
    print(f"run complete: {out_dir}")
    diag = manifest.get("diagnostics", {})
    for key in ("particle_drift", "particle_conserved", "energy_drift",
                "energy_conserved"):
        if key in diag:
            print(f"  {key}: {diag[key]}")
    for message in manifest.get("warnings", []):
        print(f"  warning: {message}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    threshold = args.residual_threshold
    if not 0 < threshold < math.inf:    # NaN fails both comparisons
        raise ConfigError(
            f"--residual-threshold must be finite and > 0, got {threshold!r}")
    field = read_snapshot(args.input, "--input")
    result = fit_soliton(field, residual_threshold=threshold)
    # a residual that overflowed has no JSON form; such a fit has not
    # converged
    residual = result.residual if math.isfinite(result.residual) else None
    payload = {
        "psi": result.coords.psi, "x0": result.coords.x0,
        "v": result.coords.v, "w": result.coords.w, "d": result.coords.d,
        "phi": result.coords.phi, "residual": residual,
        "converged": result.converged,
    }
    if args.out:
        try:
            io.write_json(args.out, payload)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: "
                              f"{exc.strerror or exc}") from exc
        print(f"fit written to {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    out_dir = _resolve_out(args.out, None, f"out/{args.figure}")
    report = run_experiment(ExperimentConfig(
        figure=args.figure, out_dir=out_dir, full=args.full))
    print(f"experiment {args.figure} written to {out_dir}")
    return _print_checks(report)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="pcdnse",
        description="Particle-conserving dissipative lattice and field "
                    "simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser(
        "params", help="sweep detuning and tabulate effective g shift and "
                       "dissipation rate")
    p_params.add_argument("--out", help="output directory")
    for key, kind in _SWEEP_FLAGS.items():
        p_params.add_argument("--" + key.replace("_", "-"), dest=key,
                              type=kind)
    p_params.set_defaults(func=_cmd_params)

    p_sim = sub.add_parser("simulate", help="run one configured simulation")
    p_sim.add_argument("--config", required=True, help="JSON run config")
    p_sim.add_argument("--out", help="output directory")
    p_sim.add_argument("--preset", help="solver preset override")
    p_sim.add_argument("--rtol", type=float, default=None)
    p_sim.add_argument("--atol", type=float, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a sech pulse to a stored "
                                       "snapshot")
    p_fit.add_argument("--input", required=True, help="snapshot CSV or JSON")
    p_fit.add_argument("--out", help="write the fit as JSON here instead of "
                                     "stdout")
    p_fit.add_argument("--residual-threshold", dest="residual_threshold",
                       type=float, default=FIT_RESIDUAL_THRESHOLD)
    p_fit.set_defaults(func=_cmd_fit)

    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    p_exp.add_argument("figure", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--out", help="output directory")
    p_exp.add_argument("--full", action="store_true",
                       help="full-scale sizes and horizons (fig3a and fig5)")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
