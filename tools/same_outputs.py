"""Byte-for-byte outputs of a fixed set of runs, at a parent commit and here.

    python3 tools/same_outputs.py --parent REV

The change is the ``src/`` of the checkout this file lives in, as it stands
on disk; the parent is the ``src/`` of commit REV, exported with ``git
archive`` into a temporary directory (``$TMPDIR``) that is deleted
afterwards, so the checkout is not touched.  Each side runs every case in
a process of its own, one ``pcdnse.cli.main`` call per command, with BLAS
and OpenMP pinned to one thread:

- ``experiment fig2``-``fig6``;
- ``simulate`` of a periodic and an open ``pcdnse``, ``lattice`` and
  ``langevin`` config, one ``collective`` config and one ``stable`` config;
- ``simulate`` of an open lattice and a periodic langevin chain with 201
  snapshots, of which the default 5 are written as files, so most states
  reach only the diagnostics;
- the seed-21 snapshot_roundtrip config of ``perfbench/workloads.py``,
  then a ``fit`` of each CSV snapshot it wrote.

Each command's exit code and standard output are kept beside its files.
The script lists every file that differs, or exists on one side only, and
exits 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")

#: One side's process: import ``pcdnse`` from the ``src`` given first, run
#: the commands given second and print what each returned and printed.
_RUNNER = """\
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import pcdnse
if Path(pcdnse.__file__).parent.parent != Path(sys.argv[1]):
    sys.exit(f"pcdnse imported from {pcdnse.__file__}, not {sys.argv[1]}")
from pcdnse.cli import main
record = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    record.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
print(json.dumps(record, indent=1))
"""


def _field(boundary: str) -> dict:
    return {"model": "pcdnse", "effective": {"g": -0.5, "gamma": 0.05},
            "grid": {"domain_length": 200.0, "n_points": 2000,
                     "boundary": boundary},
            "initial": {"soliton": {"psi": 1.0, "x0": 70.0, "v": 0.5}},
            "run": {"t_final": 10.0, "snapshots": 11},
            "output": {"formats": ["csv", "json"]}}


def _lattice(boundary: str) -> dict:
    return {"model": "lattice", "effective": {"g": -0.5, "gamma": 0.05},
            "sites": 200, "boundary": boundary,
            "initial": {"soliton": {"psi": 1.0, "x0": 70.0, "v": 0.3}},
            "run": {"t_final": 20.0, "snapshots": 11}}


def _langevin(boundary: str) -> dict:
    return {"model": "langevin",
            "microscopic": {"chi": 0.05, "eta": 1.0, "kappa": 1.0,
                            "delta": -0.5, "hopping": 1.0,
                            "anharmonicity": 0.0},
            "sites": 96, "boundary": boundary,
            "initial": {"soliton": {"psi": 1.0, "x0": 48.0, "v": 0.1,
                                    "w": 2.0}},
            "run": {"t_final": 5.0, "snapshots": 6}}


def _roundtrip(seed: int) -> dict:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "src"))   # workloads imports pcdnse
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(ROOT / "src"))
    return workloads.roundtrip_config(seed)


def cases() -> dict[str, str | dict]:
    """Every case by name, which is also its output directory: the figure
    of an ``experiment`` or the config of a ``simulate``."""
    out: dict[str, str | dict] = {
        fig: fig for fig in ("fig2", "fig3a", "fig3b", "fig4", "fig5",
                             "fig6")}
    for boundary in ("periodic", "open"):
        out[f"pcdnse-{boundary}"] = _field(boundary)
        out[f"lattice-{boundary}"] = _lattice(boundary)
        out[f"langevin-{boundary}"] = _langevin(boundary)
    out["lattice-open-201"] = {**_lattice("open"),
                               "run": {"t_final": 20.0, "snapshots": 201}}
    out["langevin-periodic-201"] = {**_langevin("periodic"),
                                    "run": {"t_final": 5.0, "snapshots": 201}}
    out["collective"] = {
        "model": "collective", "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"soliton": {"psi": 1.0, "x0": 0.0, "v": 0.5}},
        "run": {"t_final": 50.0, "snapshots": 11}}
    out["stable"] = {
        "model": "stable", "effective": {"g": -0.1, "gamma": 0.05},
        "initial": {"stable": {"n_particles": 2.0, "v": 0.5}},
        "run": {"t_final": 50.0, "snapshots": 11}}
    out["roundtrip"] = _roundtrip(21)
    return out


def _run(src: Path, out: Path, commands: list[list[str]], record: str) -> None:
    """Run ``commands`` in ``out`` with the package in ``src``, and keep
    what they returned and printed in ``out/record``."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _RUNNER, str(src.resolve()),
         json.dumps(commands)],
        cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: runner failed:\n{proc.stderr[-2000:]}")
    (out / record).write_text(proc.stdout)


def run_side(src: Path, out: Path, cases: dict[str, str | dict]) -> None:
    """Every case with the package in ``src``, its files under ``out``."""
    (out / "configs").mkdir(parents=True)
    commands = []
    for name, case in cases.items():
        if isinstance(case, str):
            commands.append(["experiment", case, "--out", name])
            continue
        config = out / "configs" / f"{name}.json"
        config.write_text(json.dumps(case, indent=1))
        commands.append(["simulate", "--config", str(config.relative_to(out)),
                         "--out", name])
    _run(src, out, commands, "commands.json")
    fits = [["fit", "--input", str(csv.relative_to(out)),
             "--out", str(csv.relative_to(out).with_suffix(".fit.json"))]
            for csv in sorted((out / "roundtrip" / "snapshots").glob("*.csv"))]
    if fits:
        _run(src, out, fits, "fits.json")


def differing(a: Path, b: Path) -> list[str]:
    """The files, relative to ``a`` and ``b``, that differ between the two
    trees or exist in one only."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*")
             if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and filecmp.cmp(a / f, b / f, shallow=False)))


def same_outputs(parent_src: Path, change_src: Path, work: Path,
                 cases: dict[str, str | dict]) -> list[str]:
    """Run ``cases`` with each package, under ``work/parent`` and
    ``work/change``, and return the files that differ."""
    run_side(parent_src, work / "parent", cases)
    run_side(change_src, work / "change", cases)
    return differing(work / "parent", work / "change")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    args = ap.parse_args()
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        archive = tmp / "parent.tar"
        subprocess.run(["git", "archive", "--output", str(archive), rev,
                        "src"], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp / "parent-tree", filter="data")
        all_cases = cases()
        diff = same_outputs(tmp / "parent-tree" / "src", ROOT / "src",
                            tmp / "runs", all_cases)
        files = sum(p.is_file() for p in (tmp / "runs" / "change").rglob("*"))
    for path in diff:
        print(f"differs: {path}")
    print(f"{len(all_cases)} cases against {rev[:12]}: "
          f"{len(diff)} of {files} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
