"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent REV --label NAME --pairs N \\
        --seed S [--seconds 16] [--workload W ...]

The change is the checkout this file lives in, as it stands on disk; the
parent is commit REV, exported with ``git archive`` into a temporary
directory (``$TMPDIR``) that is deleted afterwards.  Pair i runs
``perfbench/run.py --workload W --seed S+i --seconds SEC --trace 0`` once
on each side, parent first in even pairs and change first in odd ones, so
a drift of the machine's speed favours neither side.

The result goes to ``BENCH_<label>.json`` at the root of the checkout and
is rewritten after every pair, so an interrupted run keeps what it
measured.  For each workload and end-to-end metric of ``BENCHMARK.json``
it holds each side's samples, median and quartiles, the number of pairs
the change won (ties count for neither), whether that is a gain (a win
in at least nine pairs of ten and medians further apart than the
parent's interquartile range) and whether the change's median stays
within the metric's ``bound`` of the parent's: at most parent x (1 +
bound) when lower is better.  Each side's failed and attempted
verification items, the commands' exit codes and the environment line of
the first run are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``samples``."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def summarise(parent: list[float], change: list[float], better: str,
              bound: float = 0.0) -> dict:
    """Compare paired samples of one metric; ``parent[i]`` and
    ``change[i]`` come from pair i.  ``better`` is "lower" or "higher";
    ``bound`` is the share of the parent's median by which the change's
    may be worse and still count as within it."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of samples per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, samples in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(samples)
        sides[name] = {"samples": samples, "median": median, "q1": q1,
                       "q3": q3}
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (sides["parent"]["median"] - sides["change"]["median"])
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {
        "better": better,
        **sides,
        "pairs": len(parent),
        "change_wins": wins,
        "gain": bool(wins >= 0.9 * len(parent) and gain > iqr),
        "bound": bound,
        "within_bound": bool(-gain <= bound * abs(sides["parent"]["median"])),
    }


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``root``: its exit code, environment line and
    result line (both None when it printed no result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = result = None
    if proc.returncode == 0 and len(lines) >= 2:
        env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
    else:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"returncode": proc.returncode, "env": env, "result": result}


def report(label: str, parent_rev: str, change_rev: str, seconds: int,
           runs: dict, metrics: dict) -> dict:
    """The BENCH_<label>.json document for the runs made so far."""
    envs = [p[side]["env"] for pairs in runs.values() for p in pairs
            for side in SIDES if p[side]["env"]]
    doc = {"label": label, "parent": parent_rev,
           "change": f"working tree on {change_rev}", "seconds": seconds,
           "env": envs[0] if envs else None, "workloads": {}}
    for workload, pairs in runs.items():
        entry = {"seeds": [p["seed"] for p in pairs]}
        for side in SIDES:
            results = [p[side]["result"] for p in pairs]
            entry[side] = {
                "returncodes": [p[side]["returncode"] for p in pairs],
                "failed": sum(r["failed"] for r in results if r),
                "attempted": sum(r["attempted"] for r in results if r),
            }
        complete = [p for p in pairs
                    if p["parent"]["result"] and p["change"]["result"]]
        entry["metrics"] = {
            name: summarise(
                [p["parent"]["result"]["metrics"][name]["value"]
                 for p in complete],
                [p["change"]["result"]["metrics"][name]["value"]
                 for p in complete], better, bound)
            for name, (better, bound) in metrics.items()} if complete else {}
        doc["workloads"][workload] = entry
    return doc


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", "HEAD")
    out = ROOT / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        archive = parent_root / "parent.tar"
        git("archive", "--output", str(archive), parent_rev)
        with tarfile.open(archive) as tar:
            tar.extractall(parent_root, filter="data")
        archive.unlink()
        roots = {"parent": parent_root, "change": ROOT}

        runs: dict = {w: [] for w in workloads}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"seed": seed}
                for side in order:
                    pair[side] = run_side(roots[side], workload, seed,
                                          args.seconds)
                    result = pair[side]["result"]
                    wall = result and result["metrics"]["wall_s"]["value"]
                    print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} "
                          f"{side}: wall_s {wall}", file=sys.stderr)
                runs[workload].append(pair)
                out.write_text(json.dumps(report(
                    args.label, parent_rev, change_rev, args.seconds, runs,
                    metrics), indent=1) + "\n")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
