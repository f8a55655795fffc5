"""Simulation driver and reproducible figure-style experiments.

:func:`run_simulation` executes one configured run (any of the five model
levels) and writes snapshots, diagnostics, a fully-defaulted config echo,
and a checksummed manifest into the output directory.  The canned
experiments, :func:`params_sweep` and the ``run_figN`` functions, only
compute: each returns its report, whose ``checks`` section holds named
pass/fail booleans, and its plot-ready tables by file stem.  A figure's
sub-runs run in order on the calling thread, and its report has the one
shape :func:`_run_jobs` builds: the ``experiment``, the ``rows`` of the
sub-runs that finished, the ``checks`` and the ``failures`` of those that
raised.  Only the three entry points, :func:`run_simulation`,
:func:`run_params_sweep` and :func:`run_experiment`, create a directory,
and each writes through one writer, :func:`_write_run`, after the run's
last computation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import io
from .analysis import (
    NoPeakError,
    envelope_deviation,
    compare_profiles,
    fit_soliton,
    velocity_damping_estimate,
)
from .collective import (
    SolitonCoords,
    StableSoliton,
    ansatz_energy,
    make_collective_ode,
    stable_closed_form,
    stable_soliton,
)
from .config import ConfigError, normalize_config
from .integrate import (
    SOLVER_PRESETS,
    OdeProblem,
    SolverConfig,
    TimeSeries,
    solve,
)
from .model_continuum import (
    FieldState,
    dispersion_part,
    field_energy,
    make_pcdnse_ode,
    make_soliton_field,
    particle_number,
)
from .model_effective import make_chain_ode
from .model_full import (
    _frame_phases,
    hopping_part,
    make_full_ode,
    rotating_frame_to_effective,
    steady_state_cavities,
)
from .params import (
    PERIODIC,
    WEAK_COUPLING_ADVISORY,
    ChainParams,
    EffectiveParams,
    ReservoirParams,
    effective_params,
    invert_for_chi_alpha,
    weak_coupling_ratios,
)

__all__ = [
    "ExperimentConfig",
    "run_simulation",
    "run_params_sweep",
    "run_experiment",
    "read_snapshot",
    "EXPERIMENTS",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Selection of a canned experiment and its execution scale."""

    figure: str
    out_dir: Path
    full: bool = False  # fig3a and fig5 only
    threads: int = 1  # must be 1: sub-runs run in order


# ---------------------------------------------------------------------------
# single runs


def _make_out_dir(out_dir: str | Path) -> Path:
    """``out_dir`` as a path, created with its parents if missing.

    A path that names a file, lies under one or cannot be created raises
    :class:`ConfigError` naming it.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    return out_dir


def _write_run(out_dir: Path, manifest_extra: Mapping, documents: Mapping,
               tables: Mapping, snapshots: Mapping, formats) -> Path:
    """Write a run's JSON ``documents`` by file name, its ``tables`` of
    columns as ``<stem>.csv`` and its ``snapshots``, (field, time) pairs by
    stem, under ``snapshots/`` in each of ``formats``; then its manifest,
    whose path it returns.  A snapshot's files are written one after the
    other, so its psi is rendered once for both."""
    files = [io.write_json(out_dir / name, payload)
             for name, payload in documents.items()]
    files += [io.write_table_csv(out_dir / f"{stem}.csv", columns)
              for stem, columns in tables.items()]
    writers = {"csv": io.write_field_csv, "json": io.write_field_json}
    snap_dir = _make_out_dir(out_dir / "snapshots") if snapshots else None
    files += [writers[fmt](snap_dir / f"{stem}.{fmt}", field, t)
              for stem, (field, t) in snapshots.items()
              for fmt in writers if fmt in formats]
    return io.write_manifest(out_dir, files, manifest_extra)


def run_simulation(config: Mapping, out_dir: str | Path) -> dict:
    """Execute one configured run; write outputs; return the manifest dict.

    Every input is built before ``out_dir`` is created, so a rejected
    config raises :class:`ConfigError` and writes nothing.  Every file is
    written after the run's last computation, so a run that raises leaves
    ``out_dir`` empty.  The manifest's ``warnings`` lists each distinct
    warning the run raised, in order, whatever the process's filters.
    """
    cfg = normalize_config(config)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("default")    # once per line that raises it
        eff, res, chain, start, times, problem, solver = _build_run(cfg)
        out_dir = _make_out_dir(out_dir)
        result, tables, snapshots = _dispatch_run(
            cfg, eff, res, chain, start, times, problem, solver)
    caught = list(dict.fromkeys(str(w.message) for w in wlist))

    manifest_extra: dict = {"model": cfg["model"]}
    if res is not None:
        manifest_extra["effective_derived"] = dataclasses.asdict(eff)
    if caught:
        manifest_extra["warnings"] = caught
    manifest_extra.update(result)
    manifest = _write_run(out_dir, manifest_extra, {"config_echo.json": cfg},
                          tables, snapshots, cfg["output"]["formats"])
    with manifest.open() as fh:
        return json.load(fh)


def _diagnostics_and_flags(times, n_series, e_series, peak_series
                           ) -> tuple[dict, dict]:
    """The drift flags of a run and its diagnostics table.

    A drift that is not finite (the run's values overflowed, and a warning
    says so) is ``None``, which JSON writes as ``null``; its flag is false.
    """
    n0 = n_series[0]
    e0 = e_series[0]
    particle_drift = float(np.max(np.abs(np.asarray(n_series) / n0 - 1.0))) \
        if n0 != 0 else 0.0
    energy_drift = float(np.max(np.abs(np.asarray(e_series) - e0))) / max(abs(e0), 1e-300)
    diag = {
        "particle_drift": _finite_or_none(particle_drift),
        "particle_conserved": bool(particle_drift < 1e-6),
        "energy_drift": _finite_or_none(energy_drift),
    }
    return diag, {"diagnostics": {
        "t": times, "particle_number": np.asarray(n_series),
        "energy": np.asarray(e_series),
        "peak_amplitude": np.asarray(peak_series)}}


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def read_snapshot(path: str | Path, where: str) -> FieldState:
    """A field snapshot from a ``.json`` file, or else from CSV.

    A missing, unreadable or malformed file raises ``ConfigError``; the
    message starts with ``where`` and names the path.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{where}: no such file {path}")
    try:
        return (io.read_field_json(path) if path.suffix == ".json"
                else io.read_field_csv(path))
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON arrays or objects nested too deeply
        raise ConfigError(f"{where}: cannot read {path}: {exc}") from exc


def _build_run(cfg: Mapping) -> tuple:
    """The typed inputs of a normalized run config: the effective, reservoir
    and chain parameters (the last two ``None`` without a ``microscopic``
    section), the start state, the snapshot times, and the ODE problem and
    solver (both ``None`` for the stable model).

    A value the constructors reject, a value out of floating-point range, a
    start field that is not finite, or a size too large to allocate, raises
    :class:`ConfigError` naming the config key it came from.
    """
    model = cfg["model"]
    where = source = "microscopic" if "microscopic" in cfg else "effective"
    try:
        res = chain = None
        if where == "microscopic":
            m = cfg["microscopic"]
            res = ReservoirParams(chi=m["chi"], eta=m["eta"], kappa=m["kappa"],
                                  delta=m["delta"])
            chain = ChainParams(hopping=m["hopping"],
                                anharmonicity=m["anharmonicity"],
                                sites=cfg.get("sites", 2),
                                boundary=cfg.get("boundary", PERIODIC))
            eff = effective_params(res, chain)
        else:
            eff = EffectiveParams(**cfg["effective"])
        run = cfg["run"]
        where = "run.snapshots"
        times = np.linspace(0.0, run["t_final"], run["snapshots"])
        if not np.all(np.diff(times) > 0):
            # a t_final near the smallest double repeats grid values
            raise ConfigError(
                f"config[run.t_final]: {run['t_final']!r} is too small to "
                f"hold {run['snapshots']} distinct snapshot times")
        [(kind, spec)] = cfg["initial"].items()
        where = f"initial.{kind}"
        start = _start_state(cfg, eff, kind, spec)
        # only a field's grid spacing can put its flow out of range
        where = "grid" if model == "pcdnse" else source
        problem = None       # the stable model's solution is exact
        if model == "collective":
            problem = OdeProblem(make_collective_ode(eff), times,
                                 start.to_array())
        elif model == "langevin":
            problem = _chain_problem(res, chain, start.psi, times)
        elif model != "stable":
            problem = _field_problem(start, eff, times)
        where = "run.solver"
        solver = None if "solver" not in run else SolverConfig(
            **{k: v for k, v in run["solver"].items() if k != "preset"})
    except ConfigError:
        raise
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"config[{where}]: {exc}") from exc
    except ArithmeticError as exc:
        raise ConfigError(f"config[{where}]: out of floating-point range "
                          f"({type(exc).__name__}: {exc})") from exc
    return eff, res, chain, start, times, problem, solver


def _start_state(cfg: Mapping, eff: EffectiveParams, kind: str, spec
                 ) -> FieldState | SolitonCoords | StableSoliton:
    """The start of the run: a :class:`StableSoliton` for the stable model,
    :class:`SolitonCoords` for the collective one, and otherwise the field
    on the configured grid, where a lattice is the dx = 1 grid."""
    model = cfg["model"]
    if kind == "stable":
        ss = stable_soliton(spec["n_particles"], eff)
        if model == "stable":
            return ss
        coords = ss.coords(x0=spec["x0"], v=spec["v"], phi=spec["phi"])
    elif kind == "soliton":
        w = spec["w"]
        if w is None:
            # Stable width for this amplitude: psi^2 w^2 = -2J/g.
            if eff.g >= 0 or spec["psi"] <= 0:
                raise ConfigError("config[initial.soliton.w]: omitted width "
                                  "needs g < 0 and psi > 0")
            w = math.sqrt(-2.0 * eff.hopping / eff.g) / spec["psi"]
        coords = SolitonCoords(**{**spec, "w": w})
    if model == "collective":
        return coords

    if model == "pcdnse":
        grid = cfg["grid"]
        domain_length, n_points = grid["domain_length"], grid["n_points"]
        boundary, size_key = grid["boundary"], "grid.n_points"
    else:
        n_points, boundary, size_key = cfg["sites"], cfg["boundary"], "sites"
        domain_length = n_points if boundary == PERIODIC else n_points - 1
    if kind == "field_file":
        field = read_snapshot(spec, "config[initial.field_file]")
        # %.17g round-trips, so a snapshot of this very grid matches exactly
        grid = (field.n_points, field.domain_length, field.boundary)
        if grid != (n_points, domain_length, boundary):
            raise ValueError(
                f"snapshot grid (n_points, domain_length, boundary) {grid} "
                f"does not match configured "
                f"{(n_points, domain_length, boundary)}")
        return field
    try:
        field = make_soliton_field(coords, domain_length, n_points, boundary)
    except (ValueError, OverflowError, MemoryError) as exc:
        # numpy refuses a size beyond its index range with a ValueError and
        # one it cannot allocate with a MemoryError; a lattice length beyond
        # a double's range fails its conversion with an OverflowError
        raise ConfigError(f"config[{size_key}]: {exc}") from exc
    if not np.isfinite(field.psi).all():
        # a phase (x - x0) v + (x - x0)^2 d out of range
        raise ValueError("the soliton is not finite on the grid")
    return field


def _field_problem(field0: FieldState, eff: EffectiveParams,
                   times: np.ndarray) -> OdeProblem:
    """The field flow from ``field0``, recorded at ``times``.

    Periodic grids pass their dispersion as the linear part, so the solver
    steps it exactly; open grids take plain steps.
    """
    return OdeProblem(make_pcdnse_ode(field0, eff), times, field0.psi,
                      linear=dispersion_part(field0, eff))


def _chain_problem(res: ReservoirParams, chain: ChainParams, psi0: np.ndarray,
                   times: np.ndarray) -> OdeProblem:
    """The cavity-chain flow from sites ``psi0``, with every cavity at its
    steady state, recorded at ``times``.

    Periodic chains pass their cavity pole and hopping as the linear part,
    so the solver steps them exactly; open chains take plain steps.
    """
    y0 = np.concatenate([steady_state_cavities(res, len(psi0)), psi0])
    return OdeProblem(make_full_ode(res, chain), times, y0,
                      linear=hopping_part(res, chain))


def _solve_counts(series: TimeSeries) -> dict:
    """The step and RHS counts of a solve, as reports and manifests name
    them; they are deterministic, so reruns write the same values."""
    return {
        "accepted_steps": series.stats.n_accepted,
        "rejected_steps": series.stats.n_rejected,
        "rhs_evaluations": series.stats.n_rhs,
    }


def _dispatch_run(cfg, eff, res, chain, start, times, problem, solver
                  ) -> tuple[dict, dict, dict]:
    """Run the model; return its manifest block, its tables by file stem
    and its field snapshots by file stem."""
    model = cfg["model"]
    if model in ("pcdnse", "lattice", "langevin"):
        # Each state is reduced as the solve reaches it; only the fields
        # written as files are kept, in one block (separate copies would
        # fragment the heap).  At most one file per snapshot, so the
        # indices are distinct.
        n_files = min(cfg["output"]["field_files"], len(times))
        kept = {i: row for row, i in enumerate(
            np.linspace(0, len(times) - 1, n_files).astype(int).tolist())}
        fields = np.empty((n_files, start.n_points), complex)
        n_series, e_series, peak = [], [], []
        if model == "langevin":
            phases = _frame_phases(res, chain, problem.times)

        def record(i: int, y: np.ndarray) -> None:
            psi = y[chain.sites:] * phases[i] if model == "langevin" else y
            f = start.with_psi(psi)
            n_series.append(particle_number(f))
            e_series.append(field_energy(f, eff))
            peak.append(float(np.max(np.abs(f.psi))))
            if i in kept:
                fields[kept[i]] = psi

        series = solve(problem, solver, record)
        t = series.times
        snapshots = {f"snap_{i:04d}": (start.with_psi(fields[row]), t[i])
                     for i, row in kept.items()}
        diag, tables = _diagnostics_and_flags(t, n_series, e_series, peak)
        if model == "langevin":
            r1, r2 = weak_coupling_ratios(res, chain, max(peak))
            diag["weak_coupling"] = {
                "r1": r1, "r2": r2,
                "advisory_threshold": WEAK_COUPLING_ADVISORY,
                "within_advisory": bool(max(r1, r2) < WEAK_COUPLING_ADVISORY),
            }
        elif eff.gamma == 0.0:
            # a langevin run's energy is the effective frame's only
            drift = diag["energy_drift"]
            diag["energy_conserved"] = drift is not None and drift < 1e-6
        return ({"integrator": _solve_counts(series), "diagnostics": diag},
                tables, snapshots)

    if model == "collective":
        series = solve(problem, solver)
        psi, x0, v, w, d, phi = series.states.real.T
        coords = [SolitonCoords(*row) for row in series.states.real]
        n_series = [c.particle_number for c in coords]
        e_series = [ansatz_energy(c, eff) for c in coords]
        diag, tables = _diagnostics_and_flags(series.times, n_series,
                                              e_series, psi)
        tables["trajectory"] = {"t": series.times, "psi": psi, "x0": x0,
                                "v": v, "w": w, "d": d, "phi": phi}
        return ({"integrator": _solve_counts(series), "diagnostics": diag},
                tables, {})

    # stable: the exact solution on the stable manifold; nothing integrated
    ss = start
    s = cfg["initial"]["stable"]
    x0_t, v_t, phi_t = stable_closed_form(times, s["x0"], s["v"], s["phi"], ss)
    return {
        "stable_soliton": {
            "particle_number": ss.particle_number, "width": ss.width,
            "amplitude": ss.amplitude, "damping_rate": ss.damping_rate,
        },
    }, {"trajectory": {"t": times, "x0": x0_t, "v": v_t, "phi": phi_t,
                       "energy": np.array([ss.energy(v) for v in v_t])}}, {}


# ---------------------------------------------------------------------------
# parameter sweep (cavity response versus detuning)


def params_sweep(chi: float = 0.05, eta: float = 1.0, kappa: float = 1.0,
                 hopping: float = 1.0, delta_min: float = -3.0,
                 delta_max: float = 3.0, num: int = 601
                 ) -> tuple[dict, dict]:
    """Sweep the detuning and tabulate (delta, delta_g, gamma) as the
    ``sweep`` table; return the report and that table.

    Also verifies the analytic structure of the sweep: both effective
    constants vanish at zero detuning and are odd in it, gamma is positive
    on the red-detuned side, and |gamma| peaks near |delta| = kappa/sqrt(20)
    (located via the sign change of the finite-difference derivative).
    A check is reported only when the sweep can test it: the first needs a
    delta = 0 point, the positivity check red-detuned points, and the
    extremum check red-detuned points that span [-0.3 kappa, -0.15 kappa].
    """
    if num < 5:
        raise ConfigError("params sweep needs at least 5 points")
    for key, value in {"delta_min": delta_min, "delta_max": delta_max}.items():
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if delta_min >= delta_max:
        raise ConfigError("delta_min must be below delta_max")
    try:
        # numpy refuses a count beyond its index range with a ValueError,
        # and one it cannot allocate with a MemoryError
        deltas = np.linspace(delta_min, delta_max, num)
        chain = ChainParams(hopping=hopping, anharmonicity=0.0, sites=2)

        # the detunings are numpy floats, whose overflow only warns unless
        # errstate makes it raise, as a Python float's does
        @np.errstate(over="raise", invalid="raise")
        def effective(delta: float) -> EffectiveParams:
            return effective_params(ReservoirParams(
                chi=chi, eta=eta, kappa=kappa, delta=delta), chain)

        effs = [effective(delta) for delta in deltas]
        mirrored = np.array([effective(-delta).gamma for delta in deltas])
    except ValueError as exc:
        raise ConfigError(f"params sweep: {exc}") from exc
    except ArithmeticError as exc:
        raise ConfigError(f"params sweep: effective constants out of "
                          f"floating-point range ({type(exc).__name__}: "
                          f"{exc})") from exc
    except MemoryError as exc:
        raise ConfigError(f"params sweep: num = {num}: {exc}") from exc
    dg = np.array([eff.delta_g for eff in effs])
    gam = np.array([eff.gamma for eff in effs])

    # A check is reported only when the sweep has the points it tests.
    checks: dict[str, bool] = {}
    on_axis = np.isclose(deltas, 0.0, atol=1e-12)
    if on_axis.any():
        checks["vanishes_at_zero_detuning"] = bool(
            np.all(dg[on_axis] == 0.0) and np.all(gam[on_axis] == 0.0))
    red = deltas < 0
    if red.any():
        checks["red_detuning_gives_positive_gamma"] = bool(
            np.all(gam[red] > 0))
    checks["gamma_odd_in_detuning"] = bool(
        np.allclose(gam, -mirrored, atol=1e-15))

    # |gamma| extremum on the red side: finite-difference derivative changes
    # sign once, near |delta| = kappa/sqrt(20) ~ 0.2236 kappa.
    red_idx = np.where(red)[0]
    if red.any() and (deltas[red_idx[0]] <= -0.3 * kappa
                      and deltas[red_idx[-1]] >= -0.15 * kappa):
        dgam = np.diff(gam[red_idx])
        flips = np.where(np.sign(dgam[:-1]) * np.sign(dgam[1:]) < 0)[0]
        d_star = (abs(deltas[red_idx[flips[0] + 1]]) if len(flips) == 1
                  else math.nan)
        checks["gamma_extremum_near_expected_detuning"] = bool(
            0.15 * kappa < d_star < 0.3 * kappa)

    report = {"checks": checks, "sweep_points": num,
              "parameters": {"chi": chi, "eta": eta, "kappa": kappa,
                             "hopping": hopping}}
    return report, {"sweep": {"delta": deltas, "delta_g": dg, "gamma": gam}}


def run_params_sweep(out_dir: str | Path, **sweep) -> dict:
    """Run :func:`params_sweep` with the keyword arguments ``sweep``, then
    create ``out_dir`` and write the report, the table and the manifest
    into it; return the report.  A rejected sweep leaves no directory."""
    report, tables = params_sweep(**sweep)
    _write_run(_make_out_dir(out_dir), {"experiment": "params_sweep"},
               {"report.json": report}, tables, {}, ())
    return report


# ---------------------------------------------------------------------------
# figure-style experiments


# Working point used across the comparison experiments: attractive
# g = -0.1 J, unit amplitude, stable width sqrt(20), moderate velocity.
_REFERENCE_SOLITON = SolitonCoords(psi=1.0, x0=100.0, v=0.48,
                                   w=math.sqrt(20.0), d=0.0, phi=0.0)


def _fig3_single_size(sites: int, delta: float) -> tuple[dict, dict]:
    """Langevin versus effective lattice at one chain size, with the
    reservoir tuned to g = -0.1 J, gamma = 0.05; its table holds both
    final occupation profiles."""
    scale = sites / 400.0
    ref = _REFERENCE_SOLITON
    coords = SolitonCoords(psi=ref.psi / scale, x0=sites / 4.0,
                           v=ref.v / scale, w=ref.w * scale, d=0.0, phi=0.0)
    t_final = 50.0 * scale**2

    chi, alpha = invert_for_chi_alpha(-0.1, 0.05, eta=1.0, kappa=1.0,
                                      delta=delta)
    res = ReservoirParams(chi=chi, eta=1.0, kappa=1.0, delta=delta)
    chain = ChainParams(hopping=1.0, anharmonicity=alpha, sites=sites)
    eff = effective_params(res, chain)

    field0 = make_soliton_field(coords, float(sites), sites, PERIODIC)
    b_max = float(np.max(np.abs(field0.psi)))
    r1, r2 = weak_coupling_ratios(res, chain, b_max)

    times = np.array([0.0, t_final])
    full_series = solve(_chain_problem(res, chain, field0.psi, times),
                        SOLVER_PRESETS["langevin"])
    site_series = rotating_frame_to_effective(full_series, res, chain)

    lattice_series = solve(
        OdeProblem(make_chain_ode(eff, PERIODIC), times, field0.psi),
        SOLVER_PRESETS["pcdnse"])

    occ_langevin = np.abs(site_series.states[-1]) ** 2
    occ_lattice = np.abs(lattice_series.states[-1]) ** 2
    x_sites = np.arange(sites, dtype=float)
    linf_rel = compare_profiles(x_sites, occ_langevin, x_sites, occ_lattice)

    return {
        "sites": sites,
        "delta": delta,
        "chi": chi,
        "alpha": alpha,
        "t_final": t_final,
        "scale": scale,
        "b_max": b_max,
        "r1": r1,
        "r2": r2,
        "weak_coupling_ok": bool(max(r1, r2) < WEAK_COUPLING_ADVISORY),
        "linf_rel_langevin_vs_lattice": linf_rel,
    }, {f"profiles_{_tag('delta', delta)}_L{sites}": {
        "site": x_sites, "occ_langevin": occ_langevin,
        "occ_lattice": occ_lattice}}


def _run_jobs(experiment: str, fn: Callable[..., tuple[dict, dict]], jobs
              ) -> tuple[dict, dict]:
    """Run ``fn(*job)`` for every job, in job order.

    Each sub-run returns its report row and its tables, columns by file
    stem.  Returns the report of ``experiment`` and the tables of the
    sub-runs that finished.  The report holds the ``rows`` of the sub-runs
    that finished, an empty ``checks`` mapping for the runner to fill, and
    under ``failures`` one error message per sub-run that raised (partial
    datasets are allowed).
    """
    report = {"experiment": experiment, "rows": [], "checks": {},
              "failures": []}
    tables = {}
    for job in jobs:
        try:
            row, job_tables = fn(*job)
        except Exception as exc:  # noqa: BLE001 - recorded in the report
            report["failures"].append(f"{type(exc).__name__}: {exc}")
            continue
        report["rows"].append(row)
        tables.update(job_tables)
    return report, tables


def _tag(name: str, value: float) -> str:
    """File-name label such as ``gamma_m0p0125`` for gamma = -0.0125."""
    return f"{name}_{value:g}".replace("-", "m").replace(".", "p")


def run_fig3a(full: bool = False) -> tuple[dict, dict]:
    """Cross-model occupation profiles: microscopic vs lattice vs continuum.

    Chain sizes share one reference solution through the scaling family
    (soliton extent proportional to L, amplitude inversely proportional,
    horizon Jt = 50 (L/400)^2).  Each size is compared against its own
    effective-lattice run (reservoir-elimination quality) and, rescaled,
    against a single continuum reference at L = 400 (continuum-limit
    quality, which degrades for narrow solitons by construction).  Every
    run records only its start and its end; the continuum reference takes
    Fehlberg 7(8) steps at the ``pcdnse_tight`` preset.
    """
    sizes = (100, 200, 400, 800) if full else (100, 200, 400)

    field_ref = make_soliton_field(_REFERENCE_SOLITON, 400.0, 4000, PERIODIC)
    eff_ref = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)
    ref_series = solve(
        _field_problem(field_ref, eff_ref, np.array([0.0, 50.0])),
        SOLVER_PRESETS["pcdnse_tight"])
    occ_ref = np.abs(ref_series.states[-1]) ** 2

    def single_size(sites: int) -> tuple[dict, dict]:
        row, tables = _fig3_single_size(sites, -0.1)
        [profile] = tables.values()
        scale = row.pop("scale")
        del row["delta"], row["alpha"]
        x_rescaled = profile["site"] / scale
        for model in ("lattice", "langevin"):
            row[f"linf_rel_{model}_vs_continuum"] = compare_profiles(
                x_rescaled, profile[f"occ_{model}"] * scale**2,
                field_ref.x, occ_ref)
        return row, {f"profiles_L{sites}": profile}

    report, tables = _run_jobs("fig3a", single_size,
                               [(sites,) for sites in sizes])
    tables["pcdnse_reference"] = {"x": field_ref.x, "occupation": occ_ref}

    rows, checks = report["rows"], report["checks"]
    for r in rows:
        if r["weak_coupling_ok"]:
            checks[f"elimination_agrees_L{r['sites']}"] = bool(
                r["linf_rel_langevin_vs_lattice"] < 0.05)
    # Panel-(a) statement: the scaling family converges to the continuum
    # solution as the chain grows (the soliton widens in site units).  At
    # the two smallest sizes the profiles separate entirely within the
    # horizon and the sup norm saturates near the peak value, so only the
    # endpoints order reliably.  The rows come in order of size.
    errs = [r["linf_rel_lattice_vs_continuum"] for r in rows]
    checks["continuum_error_improves_with_length"] = bool(
        len(errs) >= 2 and errs[-1] < errs[0])
    checks["largest_size_tracks_continuum"] = bool(errs and errs[-1] < 0.5)
    return report, tables


def run_fig3b() -> tuple[dict, dict]:
    """Reservoir-elimination breakdown at strong detuning.

    Same effective working point (g = -0.1 J, gamma = 0.05) realized at
    delta = -0.1 J and delta = -2 J.  The weakly-detuned case runs the
    L = 800 member of the scaling family (peak amplitude 0.5): both ratio
    diagnostics pass the 0.1 advisory and the microscopic chain tracks the
    effective lattice well inside the 5% band.  The strongly-detuned case
    runs at unit peak amplitude (L = 400), where the advisory is
    calibrated: r1 = chi b_max^2/|i delta + kappa/2| exceeds 0.1 and the
    occupations leave the band.  At strong detuning the advisory is
    necessary rather than sufficient; halving the amplitude drops r1 back
    under 0.1 while the dynamics still disagrees at the 17% level, so the
    breakdown demonstration must sit at the calibration amplitude.
    """
    report, tables = _run_jobs("fig3b", _fig3_single_size,
                               [(800, -0.1), (400, -2.0)])
    checks = report["checks"]
    for row in report["rows"]:
        if row["delta"] == -0.1:
            checks["weak_detuning_agrees"] = bool(
                row["linf_rel_langevin_vs_lattice"] < 0.05)
            checks["weak_detuning_within_advisory"] = row["weak_coupling_ok"]
        else:
            checks["strong_detuning_disagrees"] = bool(
                row["linf_rel_langevin_vs_lattice"] > 0.05)
            checks["strong_detuning_flagged"] = bool(
                not row["weak_coupling_ok"])
    return report, tables


def _fig4_single_gamma(gamma: float) -> tuple[dict, dict]:
    g = -0.1
    eff = EffectiveParams(g=g, gamma=gamma, hopping=1.0)
    # Start at an eighth of the box; tails at the seam are ~1e-7 of peak.
    coords = SolitonCoords(psi=1.0, x0=75.0, v=0.49, w=math.sqrt(20.0),
                           d=0.0, phi=0.0)
    field0 = make_soliton_field(coords, 600.0, 6000, PERIODIC,
                                containment_tol=1e-6)
    n = particle_number(field0)
    predicted = stable_soliton(n, eff).damping_rate

    # the rate compares the first and the last state, so only those are
    # recorded: Fehlberg steps clip at every recorded time
    solver = SOLVER_PRESETS["pcdnse_tight"]
    series = solve(_field_problem(field0, eff, np.array([0.0, 4.0])), solver)
    measured = -velocity_damping_estimate(
        field0.with_psi(series.states[0]), field0.with_psi(series.states[-1]),
        series.times[0], series.times[-1], hopping=eff.hopping)
    return {
        "gamma": gamma,
        "g_gamma_psi4": g * gamma * coords.psi**4,
        "particle_number": n,
        "predicted_rate": predicted,
        "measured_rate": measured,
        "relative_error": abs(measured - predicted) / abs(predicted),
        "method": solver.method,
        **_solve_counts(series),
    }, {}


def run_fig4() -> tuple[dict, dict]:
    """Velocity damping rate versus dissipation strength.

    Red-detuned (gamma > 0) runs must reproduce the collective-coordinate
    friction Gamma = gamma (-g/J)^3 N^4 / 240 within 5%; the blue-detuned
    run (gamma < 0, anti-damping) within 10%.  Every run takes Fehlberg
    7(8) steps at the ``pcdnse_tight`` preset and records only the two
    states the rate compares, at Jt = 0 and 4.
    """
    report, tables = _run_jobs(
        "fig4", _fig4_single_gamma,
        [(gamma,) for gamma in (0.0125, 0.025, 0.05, 0.1, -0.0125)])
    rows, checks = report["rows"], report["checks"]
    tables["damping"] = {
        key: np.array([r[key] for r in rows])
        for key in ("gamma", "g_gamma_psi4", "measured_rate",
                    "predicted_rate", "relative_error")}

    for r in rows:
        tag = _tag("gamma", r["gamma"])
        tol = 0.10 if r["gamma"] < 0 else 0.05
        checks[f"damping_matches_{tag}"] = bool(r["relative_error"] < tol)
    return report, tables


def _fig5_single_delta(delta: float, gamma: float, full: bool
                       ) -> tuple[dict, dict]:
    g = -0.1
    eff = EffectiveParams(g=g, gamma=gamma, hopping=1.0)
    ss = stable_soliton(1.0, eff)
    psi0 = (1.0 + delta) * ss.amplitude
    w0 = ss.particle_number / (2.0 * psi0**2)
    domain = 10.0 * max(ss.width, w0)
    coords = SolitonCoords(psi=psi0, x0=domain / 2.0, v=0.0, w=w0, d=0.0,
                           phi=0.0)
    # Half-domain is ~5 widths, so sech tails sit near 1.4% at the seam;
    # the image tail back at the peak is ~7e-5, far below the bands tested.
    # dx = w_ss/80 resolves the pulse better than the cross-model benchmark
    # grid does (w/dx = 45 there); fit residuals agree with dx = 0.1 runs
    # to three digits at a sixtieth of the cost.
    field0 = make_soliton_field(coords, domain, int(round(domain / 0.5)),
                                PERIODIC, containment_tol=0.02)

    # Short field run: does the perturbed soliton keep its shape?  The run
    # keeps each state's peak and the states it fits.
    step, fit_stride = 2.5, 25.0
    times = np.arange(0.0, 500.0 + 1e-9, step)
    every = round(fit_stride / step)
    peaks, fit_states = [], []

    def record(i: int, y: np.ndarray) -> None:
        peaks.append(float(np.max(np.abs(y))))
        if i % every == 0:
            fit_states.append(y.copy())

    series = solve(_field_problem(field0, eff, times),
                   SOLVER_PRESETS["pcdnse"], record)
    peak_series = np.array(peaks)

    # Shape-integrity threshold: benign radiation shed while relaxing keeps
    # the RMS misfit below ~5e-3 even for a 10% amplitude kick, while a
    # destabilized pulse crosses 1e-2 early on its way to losing the peak
    # entirely (NoPeakError once it dissolves into the background).
    breakup_time = None
    fit_times, residuals = [], []
    for idx, state in zip(range(0, len(series.times), every), fit_states):
        try:
            fit = fit_soliton(field0.with_psi(state), residual_threshold=1e-2)
        except NoPeakError:
            breakup_time = float(series.times[idx])
            break
        fit_times.append(float(series.times[idx]))
        residuals.append(fit.residual)
        if not fit.converged:
            breakup_time = float(series.times[idx])
            break

    tag = _tag("delta", delta)
    row = {
        "delta": delta,
        "max_peak_deviation": float(np.max(np.abs(peak_series / ss.amplitude
                                                  - 1.0))),
        "breakup_time": breakup_time,
    }
    tables = {
        f"short_peak_{tag}": {"t": series.times, "peak_amplitude": peak_series},
        f"fit_residuals_{tag}": {"t": np.array(fit_times),
                                 "residual": np.array(residuals)},
    }
    if breakup_time is not None:
        return row, tables

    # Long collective run with envelope extraction.
    t_long = 2e6 if full else 2e4
    window = 5e4 if full else 1e4
    stride = 50.0 if full else 5.0
    ctimes = np.arange(0.0, t_long + 1e-9, stride)
    cseries = solve(OdeProblem(make_collective_ode(eff), ctimes,
                               coords.to_array()),
                    SOLVER_PRESETS["collective"])
    psi_t = cseries.states.real[:, 0]
    centers, maxima = envelope_deviation(cseries.times, psi_t, ss.amplitude,
                                         window)
    tables[f"collective_psi_{tag}"] = {"t": cseries.times, "psi": psi_t}
    tables[f"envelope_{tag}"] = {"t_center": centers, "max_deviation": maxima}
    row["envelope_non_increasing"] = bool(
        len(maxima) > 1 and np.all(np.diff(maxima) <= 1e-12))
    return row, tables


def run_fig5(full: bool = False) -> tuple[dict, dict]:
    """Shape stabilization of perturbed solitons (hybrid method).

    For each amplitude perturbation delta the field equation is integrated
    over a short horizon and the soliton fit monitored; if the shape
    survives, the long-horizon dynamics are continued with the collective
    coordinates and summarized by the windowed envelope deviation.  A large
    perturbation (delta = 0.3) must instead trip the fit-residual threshold,
    aborting the long run.
    """
    gamma = 0.1
    report, tables = _run_jobs("fig5", _fig5_single_delta,
                               [(d, gamma, full) for d in (-0.1, 0.01, 0.3)])
    report["gamma"] = gamma
    checks = report["checks"]
    for row in report["rows"]:
        if row["delta"] == 0.01:
            checks["small_perturbation_bounded"] = bool(
                row["max_peak_deviation"] <= 2.0 * abs(row["delta"]))
            checks["small_perturbation_envelope_contracts"] = bool(
                row.get("envelope_non_increasing", False))
        if row["delta"] == 0.3:
            checks["large_perturbation_breaks_up"] = bool(
                row["breakup_time"] is not None
                and row["breakup_time"] <= 200.0)
        if row["delta"] == -0.1:
            checks["negative_perturbation_survives"] = bool(
                row["breakup_time"] is None)
    return report, tables


def _fig6_single_gamma(gamma: float) -> tuple[dict, dict]:
    g = -0.1
    eff = EffectiveParams(g=g, gamma=gamma, hopping=1.0)
    w0 = math.sqrt(20.0)
    psi0 = 1.0
    v0 = 0.5
    domain = 20.0 * w0
    # dx = 0.0998: 896 = 2^7 * 7 points, where round(domain / 0.1) = 894 =
    # 2 * 3 * 149 would send every FFT through Bluestein's algorithm at
    # about three times the cost per transform.
    n_points = 896
    left = SolitonCoords(psi=psi0, x0=domain / 2.0 - 2.5 * w0, v=v0, w=w0,
                         d=0.0, phi=0.0)
    right = SolitonCoords(psi=psi0, x0=domain / 2.0 + 2.5 * w0, v=-v0, w=w0,
                          d=0.0, phi=0.0)
    # Solitons start 7.5 widths from the seam (tails ~1e-3 there by design,
    # as the pair needs room to collide and separate again).
    f_left = make_soliton_field(left, domain, n_points, PERIODIC,
                                containment_tol=5e-3)
    f_right = make_soliton_field(right, domain, n_points, PERIODIC,
                                 containment_tol=5e-3)
    field0 = f_left.with_psi(f_left.psi + f_right.psi)

    times = np.linspace(0.0, 25.0, 101)
    energies = []
    series = solve(_field_problem(field0, eff, times),
                   SOLVER_PRESETS["two_soliton"],
                   lambda i, y: energies.append(
                       field_energy(field0.with_psi(y), eff)))
    e_two = np.array(energies)

    # Separated prediction: two independent stable solitons, each damping.
    ss = stable_soliton(left.particle_number, eff)
    _, v_t, _ = stable_closed_form(series.times, 0.0, v0, 0.0, ss)
    e_single = np.array([ss.energy(v) for v in v_t])
    ratio = e_two / (2.0 * e_single)

    # Pre-collision: separation still at least 3 widths (closing speed 4Jv).
    t_pre = (5.0 * w0 - 3.0 * w0) / (4.0 * eff.hopping * v0)
    pre = series.times <= t_pre
    band = float(np.max(np.abs(ratio[pre] - 1.0)))
    return {
        "gamma": gamma,
        "t_pre_collision": t_pre,
        "pre_collision_band": band,
        "final_ratio": float(ratio[-1]),
        "max_ratio_deviation": float(np.max(np.abs(ratio - 1.0))),
    }, {f"energy_{_tag('gamma', gamma)}": {
        "t": series.times, "e_two": e_two, "e_single_pred": e_single,
        "ratio": ratio}}


def run_fig6() -> tuple[dict, dict]:
    """Colliding soliton pair: dissipation enhancement during overlap.

    Compares the two-soliton field energy against twice the single-soliton
    prediction.  Without dissipation the ratio stays within 1%; with
    gamma = 0.01 the post-collision energy must sit below the separated
    prediction by more than the pre-collision noise band.
    """
    report, tables = _run_jobs("fig6", _fig6_single_gamma,
                               [(g,) for g in (0.0, 0.01)])
    checks = report["checks"]
    for row in report["rows"]:
        if row["gamma"] == 0.0:
            checks["conservative_ratio_within_band"] = bool(
                row["max_ratio_deviation"] < 0.01)
        else:
            checks["dissipative_pre_collision_within_band"] = bool(
                row["pre_collision_band"] < 0.01)
            checks["collision_enhances_dissipation"] = bool(
                1.0 - row["final_ratio"] >= row["pre_collision_band"])
    return report, tables


EXPERIMENTS: dict[str, Callable[..., tuple[dict, dict]]] = {
    "fig2": params_sweep,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run a canned experiment by figure id, then write its report, tables
    and manifest into ``config.out_dir``; return the report.  The config
    is checked, and the directory created, before the experiment runs."""
    try:
        runner = EXPERIMENTS[config.figure]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {config.figure!r}; "
            f"choose from {sorted(EXPERIMENTS)}") from None
    if config.threads != 1:
        raise ConfigError(f"threads must be 1, got {config.threads!r}")
    if config.full and config.figure not in ("fig3a", "fig5"):
        raise ConfigError(f"{config.figure} has no full scale; only fig3a "
                          "and fig5 have one")
    out_dir = _make_out_dir(config.out_dir)
    report, tables = runner(full=True) if config.full else runner()
    # fig2's report, that of the default params sweep, names no experiment
    name = report.get("experiment", "params_sweep")
    _write_run(out_dir, {"experiment": name}, {"report.json": report},
               tables, {}, ())
    return report
