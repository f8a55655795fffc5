"""The package's import graph: what a fresh ``pcdnse`` process loads."""

import os
import subprocess
import sys
from pathlib import Path

import pcdnse

#: scipy subpackages the runtime must not load; the soliton fit is numpy
#: only, and scipy.fft is the one scipy module the package uses.
UNWANTED = ("scipy.optimize", "scipy.linalg", "scipy.sparse")


def test_importing_the_package_and_cli_loads_no_heavy_scipy_module():
    code = ("import sys, pcdnse, pcdnse.cli; "
            f"print([m for m in {UNWANTED!r} if m in sys.modules])")
    src = str(Path(pcdnse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
