"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py [--seeds N] [--first-seed S] [WORKLOAD ...]

Runs ``run.py`` once per seed on each workload with tracing off, then once
with tracing on (first seed).  For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile spread as a share of the median, next to the metric's bound
in BENCHMARK.json.  The untraced and traced results go to
perfbench/baseline.json, replacing the entries of the workloads measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"env": json.loads(lines[-2])["env"], **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in BENCH["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    baseline["run_seconds"] = BENCH["run_seconds"]
    baseline.setdefault("workloads", {})

    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(workload, seed, 0) for seed in seeds]
        traced = run_once(workload, args.first_seed, 1)
        entry = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {
                name: {"unit": m["unit"], "bound": bounds[name],
                       **summary([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
            "env": runs[0]["env"],
        }
        baseline["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:20s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}")
        print(f"{workload:20s} correct {entry['correct']} "
              f"failed {entry['failed']}", flush=True)
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
