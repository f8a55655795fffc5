"""Span tracing of the package from the outside, and per-layer metrics.

:func:`install` wraps the exported functions listed in ``BOUNDARIES`` and
rebinds every reference to them inside the package, so calls between
modules are traced too.  Factories of right-hand sides (``make_*_ode``) get
their returned closure wrapped as ``<module>.rhs``.  Helpers that only run
inside a right-hand side (``lattice_laplacian``, ``pcdnse_rhs`` and the
like) are left alone, so their time is part of the RHS span that calls
them; so are the cheap ``params`` formulas, whose time is their caller's.

Spans (name, start, end, parent) are kept in memory and written out once
the call has ended.  The parent is the innermost open span.  One stack
serves all threads: the experiments run with ``threads=1``, so their
single pool worker runs while the calling thread waits, never beside it.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Module -> exported functions traced as spans.  A trailing "*" marks an
# RHS factory whose returned closure is traced as "<module>.rhs".
BOUNDARIES = {
    "integrate": ("solve", "solve_fixed_grid"),
    "model_continuum": ("make_pcdnse_ode*", "make_soliton_field",
                        "particle_number", "field_momentum", "mean_velocity",
                        "field_energy", "field_energy_decay_rate"),
    "model_effective": ("make_chain_ode*", "chain_energy",
                        "energy_decay_rate"),
    "model_full": ("make_full_ode*", "steady_state_cavities",
                   "rotating_frame_to_effective"),
    "collective": ("make_collective_ode*", "make_stable_ode*",
                   "stable_soliton", "ansatz_energy", "stable_closed_form"),
    "analysis": ("fit_soliton", "velocity_damping_estimate",
                 "envelope_deviation", "compare_profiles"),
    "io": ("write_field_csv", "read_field_csv", "write_field_json",
           "read_field_json", "write_table_csv", "write_json", "sha256_file",
           "write_manifest"),
    "experiments": ("run_experiment", "run_simulation", "run_params_sweep",
                    "normalize_config"),
    "cli": ("main",),
}
ROOT = "bench.call"
LAYERS = (*BOUNDARIES, "bench")

#: Per-layer metrics of a traced run, name -> (unit, better).
PER_LAYER = {
    "integrate.solve_s": ("s", "lower"),
    "integrate.self_s": ("s", "lower"),
    "integrate.accepted_steps": ("count", "lower"),
    "integrate.rejected_steps": ("count", "lower"),
    "integrate.rhs_evals": ("count", "lower"),
    "integrate.accept_ratio": ("ratio", "higher"),
    "integrate.self_us_per_step": ("us", "lower"),
    "model_continuum.rhs_calls": ("count", "lower"),
    "model_continuum.rhs_s": ("s", "lower"),
    "model_continuum.rhs_us": ("us", "lower"),
    "model_continuum.rhs_ns_per_point": ("ns", "lower"),
    "model_continuum.self_s": ("s", "lower"),
    "model_full.rhs_calls": ("count", "lower"),
    "model_full.rhs_s": ("s", "lower"),
    "model_full.rhs_us": ("us", "lower"),
    "model_full.self_s": ("s", "lower"),
    "model_effective.rhs_calls": ("count", "lower"),
    "model_effective.rhs_s": ("s", "lower"),
    "model_effective.rhs_us": ("us", "lower"),
    "model_effective.self_s": ("s", "lower"),
    "collective.rhs_calls": ("count", "lower"),
    "collective.rhs_s": ("s", "lower"),
    "collective.rhs_us": ("us", "lower"),
    "collective.self_s": ("s", "lower"),
    "analysis.fit_calls": ("count", "lower"),
    "analysis.fit_ms": ("ms", "lower"),
    "analysis.fit_converged_ratio": ("ratio", "higher"),
    "analysis.self_s": ("s", "lower"),
    "io.files_written": ("count", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.write_s": ("s", "lower"),
    "io.read_s": ("s", "lower"),
    "io.hash_s": ("s", "lower"),
    "io.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.subruns": ("count", "higher"),
    "experiments.subruns_failed": ("count", "lower"),
    "cli.calls": ("count", "higher"),
    "cli.nonzero_exits": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_sum_rel_err": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}
#: Counts that must repeat exactly from one traced call to the next.
REPEATABLE = tuple(n for n, (unit, _) in PER_LAYER.items()
                   if unit in ("count", "B") and not n.startswith("trace."))
#: Largest allowed |sum of self times - traced wall| / traced wall.
SELF_SUM_TOLERANCE = 0.01


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span; ``after(tracer, args, result)``
        runs once the span has closed, to take counts."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = perf_counter()
                stack.pop()
                self.counts[f"{name}.errors"] += 1
                raise
            ends[i] = perf_counter()
            stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count_solve(tracer, args, series):
    stats = series.stats
    tracer.counts["integrate.accepted_steps"] += stats.n_accepted
    tracer.counts["integrate.rejected_steps"] += stats.n_rejected
    tracer.counts["integrate.rhs_evals"] += stats.n_rhs


def _count_points(tracer, args, result):
    tracer.counts["model_continuum.points"] += len(args[1])


def _count_fit(tracer, args, result):
    tracer.counts["analysis.fit_converged"] += bool(result.converged)


def _count_write(tracer, args, path):
    tracer.counts["io.files_written"] += 1
    tracer.counts["io.bytes_written"] += Path(path).stat().st_size


def _count_report(tracer, args, report):
    tracer.counts["experiments.subruns"] += (
        len(report.get("rows", [])) + len(report.get("failures", [])))
    tracer.counts["experiments.subruns_failed"] += len(report.get("failures", []))


def _count_simulation(tracer, args, manifest):
    tracer.counts["experiments.subruns"] += 1


def _count_exit(tracer, args, code):
    tracer.counts["cli.nonzero_exits"] += code != 0


AFTER = {
    "integrate.solve": _count_solve,
    "model_continuum.rhs": _count_points,
    "analysis.fit_soliton": _count_fit,
    "io.write_field_csv": _count_write,
    "io.write_field_json": _count_write,
    "io.write_table_csv": _count_write,
    "io.write_json": _count_write,
    "experiments.run_experiment": _count_report,
    "experiments.run_simulation": _count_simulation,
    "cli.main": _count_exit,
}


def _factory(tracer: Tracer, module: str, name: str, fn):
    rhs_name = f"{module}.rhs"

    def make(*args, **kwargs):
        return tracer.wrap(rhs_name, fn(*args, **kwargs), AFTER.get(rhs_name))

    return tracer.wrap(f"{module}.{name}", make)


def install(tracer: Tracer) -> None:
    """Trace every boundary function for the rest of this process."""
    importlib.import_module("pcdnse")
    package = [m for n, m in sys.modules.items()
               if n == "pcdnse" or n.startswith("pcdnse.")]
    for module, entry in [(m, n) for m, names in BOUNDARIES.items()
                          for n in names]:
        name = entry.rstrip("*")
        mod = importlib.import_module(f"pcdnse.{module}")
        original = getattr(mod, name)
        if entry.endswith("*"):
            wrapped = _factory(tracer, module, name, original)
        else:
            span = f"{module}.{name}"
            wrapped = tracer.wrap(span, original, AFTER.get(span))
        for m in package:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        t0 = tracer.starts[0] if tracer.starts else 0.0
        for i, (name, parent, start, end) in enumerate(zip(
                tracer.names, tracer.parents, tracer.starts, tracer.ends)):
            fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def analyse(tracer: Tracer, wall_s: float) -> tuple[dict, list[tuple[str, bool]]]:
    """Per-layer metrics of one traced call and the checks of the trace.

    A span's self time is its duration minus that of its children.  The
    checks: every span closed, every child inside its parent, exactly one
    root, the self times summing to the traced wall time within
    ``SELF_SUM_TOLERANCE``, and one RHS span per RHS evaluation the
    solver counted.
    """
    names = np.array(tracer.names)
    parents = np.array(tracer.parents, dtype=np.int64)
    starts = np.array(tracer.starts)
    ends = np.array(tracer.ends)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    layer = np.array([n.split(".", 1)[0] for n in tracer.names])
    parent_layer = np.where(has_parent, layer[np.maximum(parents, 0)], "")
    counts = tracer.counts

    def total(values, mask) -> float:
        return float(np.sum(values[mask]))

    m: dict[str, float] = {}
    is_integrate = layer == "integrate"
    m["integrate.solve_s"] = total(dur, is_integrate & (parent_layer != "integrate"))
    m["integrate.self_s"] = total(self_t, is_integrate)
    acc = counts["integrate.accepted_steps"]
    rej = counts["integrate.rejected_steps"]
    m["integrate.accepted_steps"] = acc
    m["integrate.rejected_steps"] = rej
    m["integrate.rhs_evals"] = counts["integrate.rhs_evals"]
    m["integrate.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    m["integrate.self_us_per_step"] = m["integrate.self_s"] / acc * 1e6 if acc else 0.0
    for module in ("model_continuum", "model_full", "model_effective",
                   "collective"):
        rhs = names == f"{module}.rhs"
        calls = int(np.sum(rhs))
        m[f"{module}.rhs_calls"] = calls
        m[f"{module}.rhs_s"] = total(dur, rhs)
        m[f"{module}.rhs_us"] = m[f"{module}.rhs_s"] / calls * 1e6 if calls else 0.0
    points = counts["model_continuum.points"]
    m["model_continuum.rhs_ns_per_point"] = (
        m["model_continuum.rhs_s"] / points * 1e9 if points else 0.0)
    fits = names == "analysis.fit_soliton"
    n_fits = int(np.sum(fits))
    m["analysis.fit_calls"] = n_fits
    m["analysis.fit_ms"] = total(dur, fits) / n_fits * 1e3 if n_fits else 0.0
    m["analysis.fit_converged_ratio"] = (
        counts["analysis.fit_converged"] / n_fits if n_fits else 0.0)
    m["io.files_written"] = counts["io.files_written"]
    m["io.bytes_written"] = counts["io.bytes_written"]
    m["io.write_s"] = total(self_t, np.char.startswith(names, "io.write_"))
    m["io.read_s"] = total(dur, np.char.startswith(names, "io.read_"))
    m["io.hash_s"] = total(dur, names == "io.sha256_file")
    m["experiments.subruns"] = counts["experiments.subruns"]
    m["experiments.subruns_failed"] = counts["experiments.subruns_failed"]
    m["cli.calls"] = int(np.sum(names == "cli.main"))
    m["cli.nonzero_exits"] = counts["cli.nonzero_exits"]
    for name in LAYERS:
        m[f"{name}.self_s"] = total(self_t, layer == name)
    self_sum = float(np.sum(self_t))
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(dur)
    m["trace.self_sum_rel_err"] = abs(self_sum - wall_s) / wall_s

    closed = bool(np.all(np.isfinite(ends)))
    inside = bool(np.all(
        (starts[has_parent] >= starts[parents[has_parent]])
        & (ends[has_parent] <= ends[parents[has_parent]])))
    checks = [
        ("trace.spans_closed", closed),
        ("trace.children_inside_parent", inside),
        ("trace.single_root", int(np.sum(~has_parent)) == 1
         and bool(names[0] == ROOT)),
        ("trace.self_sum_matches_wall",
         m["trace.self_sum_rel_err"] <= SELF_SUM_TOLERANCE),
        ("trace.rhs_spans_match_solve_stats",
         sum(m[f"{mod}.rhs_calls"] for mod in (
             "model_continuum", "model_full", "model_effective", "collective"))
         == m["integrate.rhs_evals"]),
    ]
    return m, checks
