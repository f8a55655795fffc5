"""Benchmark of the pcdnse package: four workloads through its public API.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload call runs in a fresh worker process, as a user's
``pcdnse`` invocation would, with BLAS and OpenMP pinned to one thread.
Calls repeat until ``S`` seconds of calls have passed (at least two, so the
outputs of repeats can be compared).  Extra set-up-only processes give
``setup_s`` more samples.

End-to-end metrics (``--trace 0``):
  wall_s       median over the calls of the workload call, tracing off
  setup_s      median over all worker processes of importing the package
               and building the inputs
  peak_rss_mb  median over the calls of the worker's peak resident memory
  max_rel_dev  largest normwise relative deviation, over the calls, of the
               workload's scientific outputs from the same outputs with
               every solve at rtol = atol = 1e-12 (perfbench/refs/, or
               computed per seed before the timed calls for
               snapshot_roundtrip)

With ``--trace 1`` the untraced calls are followed by two traced calls and
the per-layer metrics of spans.PER_LAYER are printed instead; the tracing
overhead is the traced wall time minus the untraced median.

Every call is verified: the experiment's own checks and sub-runs, CLI exit
codes, particle drift, deviation from the reference, manifest sha256
digests identical across the run's repeats, and for traced calls the spans
themselves (see spans.analyse).  Each item
counts in ``attempted``; each false one in ``failed``.  The last line of
standard output is the JSON result; the line before it records the
environment.  Spans of traced calls go to perfbench/results/.

Exits with 1, printing no result, if the package cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CANNED = ("damping_sweep", "cavity_chain", "shape_relaxation")
WORKLOADS = (*CANNED, "snapshot_roundtrip")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_dev": "ratio",
}
SETUP_ONLY_SAMPLES = 1
TRACED_CALLS = 2
#: Every run must end well inside the three minutes one run is allowed.
RUN_BUDGET_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")


class HarnessError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run the worker to completion and return its JSON result."""
    result = Path(args[args.index("--result") + 1])
    result.unlink(missing_ok=True)
    if timeout <= 0:
        raise HarnessError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], env=child_env(),
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(result.read_text())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--work", str(work),
            "--result", str(work / "result.json")]

    def left() -> float:
        return deadline - time.monotonic()

    try:
        setups = [spawn([*base, "--setup-only"], left())["setup_s"]
                  for _ in range(SETUP_ONLY_SAMPLES)]
        ref_args: list[str] = []
        if workload == "snapshot_roundtrip":
            ref = work / "reference.json"
            spawn([*base, "--reference-out", str(ref)], left())
            ref_args = ["--reference", str(ref)]

        calls = []
        start = time.monotonic()
        while len(calls) < 2 or time.monotonic() - start < seconds:
            calls.append(spawn([*base, *ref_args], left()))
        traced = []
        for i in range(TRACED_CALLS if trace else 0):
            # Spans of the first traced call are kept; the rest only repeat.
            keep = ["--spans", str(results / f"{workload}-seed{seed}-spans.csv")]
            traced.append(spawn([*base, *ref_args, "--trace",
                                 *(keep if i == 0 else [])], left()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setups": setups, "calls": calls, "traced": traced}


def summarise(run: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result line of one run, and the names of the failed items."""
    calls, traced = run["calls"], run["traced"]
    items = [(name, ok) for c in calls + traced for name, ok in c["items"]]
    digests = [c.get("manifest_digest") for c in calls + traced]
    items += [("manifest_repeats", d is not None and d == digests[0])
              for d in digests[1:]]
    failed = sum(not ok for _, ok in items)

    def med(key: str, source=calls) -> float:
        return statistics.median(c[key] for c in source)

    if not trace:
        dev = max(c["max_rel_dev"] for c in calls)
        values = {
            "wall_s": med("wall_s"),
            "setup_s": statistics.median(
                run["setups"] + [c["setup_s"] for c in calls]),
            "peak_rss_mb": med("peak_rss_mb"),
            # A non-finite deviation means missing outputs; keep JSON valid.
            "max_rel_dev": dev if dev < 1e300 else 1e300,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    else:
        from spans import PER_LAYER, REPEATABLE

        first = traced[0]["layers"]
        items += [(f"trace.repeats.{name}",
                   all(t["layers"][name] == first[name] for t in traced))
                  for name in REPEATABLE]
        failed = sum(not ok for _, ok in items)
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in PER_LAYER if name in first}
        untraced = med("wall_s")
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced
        values["fail_ratio"] = failed / len(items)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}

    return {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": metrics,
    }, [name for name, ok in items if not ok]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pcdnse" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'pcdnse'}",
              file=sys.stderr)
        return 1
    trace = bool(args.trace)
    try:
        run = measure(args.workload, args.seed, args.seconds, trace)
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    result, failures = summarise(run, trace)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                **run["calls"][0]["env"],
                "threads": {n: "1" for n in PINNED_THREADS}},
        "calls": len(run["calls"]),
        "wall_s": [c["wall_s"] for c in run["calls"]],
        "failures": failures,
    }
    (HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
