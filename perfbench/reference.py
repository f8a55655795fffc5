"""Regenerate the committed tight-tolerance references of the canned workloads.

    python3 perfbench/reference.py [WORKLOAD ...]

Each canned workload is run once with every solve at rtol = atol = 1e-12
(tightened from the benchmark's side by ``workloads.tight_presets``), and
its scientific outputs are written to perfbench/refs/<workload>.json.  The
snapshot_roundtrip reference depends on the seed and is computed by
``run.py`` before the timed calls of each run, the same way.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import CANNED, HERE, spawn


def main(names: list[str]) -> int:
    (HERE / "refs").mkdir(exist_ok=True)
    for name in names or CANNED:
        if name not in CANNED:
            print(f"not a canned workload: {name}", file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            work = Path(tmp)
            spawn(["--workload", name, "--seed", "0", "--work", str(work),
                   "--result", str(work / "result.json"),
                   "--reference-out", str(HERE / "refs" / f"{name}.json")],
                  timeout=3600)
        print(f"wrote refs/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
