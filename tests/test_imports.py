"""The package's import graph: what a fresh ``pcdnse`` process loads.

The runtime needs numpy alone; scipy serves only as a test oracle.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pcdnse

#: Makes every import of scipy or a scipy submodule fail.
BLOCK_SCIPY = textwrap.dedent("""
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoScipy())
""")

#: Runs each command of the JSON list in sys.argv[1] through ``cli.main``
#: and exits 1 unless every one returns 0.
RUN_COMMANDS = textwrap.dedent("""
    import json, sys
    from pcdnse import cli
    sys.exit(any([cli.main(argv) for argv in json.loads(sys.argv[1])]))
""")

FIELD = {"effective": {"g": -2.0, "gamma": 0.05},
         "initial": {"soliton": {"psi": 1.0, "x0": 20.0, "w": 1.0}},
         "run": {"t_final": 0.5, "snapshots": 3}}
LATTICE = {"microscopic": {"chi": 0.05, "eta": 1.0, "kappa": 1.0,
                           "delta": -0.5},
           "initial": {"soliton": {"psi": 0.5, "x0": 8.0, "w": 2.0}},
           "run": {"t_final": 1.0, "solver": {"preset": "langevin"}}}
CONFIGS = {
    # periodic field runs step the dispersion in the Fourier basis
    "periodic": {"model": "pcdnse", **FIELD,
                 "grid": {"domain_length": 40.0, "n_points": 400},
                 "output": {"formats": ["csv", "json"]}},
    "open": {"model": "pcdnse", **FIELD,
             "grid": {"domain_length": 40.0, "n_points": 400,
                      "boundary": "open"}},
    # a periodic cavity chain steps its hopping in the Fourier basis
    "langevin": {"model": "langevin", **LATTICE, "sites": 16,
                 "boundary": "periodic"},
}


def _run(code: str, *args: str, cwd: Path | None = None) -> str:
    src = str(Path(pcdnse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _loaded(module: str) -> set[str]:
    """The modules a fresh process has loaded after importing ``module``."""
    return set(_run(f"import sys, {module}; print(*sys.modules)").split())


def _submodules():
    return [importlib.import_module(f"pcdnse.{info.name}")
            for info in pkgutil.iter_modules(pcdnse.__path__)]


def test_importing_the_package_and_cli_loads_no_scipy_module():
    assert not {m for m in _loaded("pcdnse.cli")
                if m == "scipy" or m.startswith("scipy.")}


def test_package_root_holds_only_submodules_and_dunders():
    _submodules()
    for name, value in vars(pcdnse).items():
        assert name.startswith("__") or (inspect.ismodule(value) and
                                         value.__name__ == f"pcdnse.{name}")
    assert isinstance(pcdnse.__version__, str)


def test_no_module_exports_a_name_defined_elsewhere():
    for module in _submodules():
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module, name)


def test_importing_params_loads_no_numpy_module():
    assert not {m for m in _loaded("pcdnse.params")
                if m == "numpy" or m.startswith("numpy.")}


def test_importing_collective_loads_none_of_the_run_modules():
    run_modules = {f"pcdnse.{name}" for name in
                   ("config", "experiments", "io", "analysis", "cli")}
    assert not run_modules & _loaded("pcdnse.collective")


def test_commands_run_and_write_the_same_bytes_without_scipy(tmp_path):
    for name, cfg in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    commands = [["params", "--out", "out/params", "--num", "101"]]
    commands += [["simulate", "--config", str(tmp_path / f"{name}.json"),
                  "--out", f"out/{name}"] for name in CONFIGS]
    commands += [["fit", "--input", f"out/periodic/snapshots/snap_0002.{ext}",
                  "--out", f"out/fit_{ext}.json"] for ext in ("csv", "json")]
    trees = {}
    for blocked in (True, False):
        cwd = tmp_path / ("blocked" if blocked else "free")
        cwd.mkdir()
        _run((BLOCK_SCIPY if blocked else "") + RUN_COMMANDS,
             json.dumps(commands), cwd=cwd)
        trees[blocked] = _tree(cwd / "out")
    assert set(trees[True]) >= {"params/sweep.csv", "fit_csv.json",
                                "fit_json.json",
                                "periodic/snapshots/snap_0002.json",
                                "periodic/manifest.json",
                                "open/manifest.json",
                                "langevin/manifest.json"}
    assert trees[True] == trees[False]
    # the CSV and JSON snapshots read back to the same field
    assert trees[True]["fit_csv.json"] == trees[True]["fit_json.json"]
