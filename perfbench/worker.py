"""One call of one workload in a fresh process, as a user would run it.

    python3 perfbench/worker.py --workload W --seed N --work DIR --result FILE
                                [--setup-only] [--trace] [--spans FILE]
                                [--reference FILE] [--reference-out FILE]

Set-up (importing the package and building the inputs) is timed from the
top of this file.  The call itself is timed alone; peak memory is read right
after it.  Outputs are checked afterwards, outside the timed region, and
the outcome is written as JSON to ``--result``.  ``--reference-out`` makes
this process produce the tight-tolerance reference outputs instead.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--reference", type=Path)
    ap.add_argument("--reference-out", type=Path)
    args = ap.parse_args()

    import pcdnse
    import workloads

    if not Path(pcdnse.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pcdnse imported from {pcdnse.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.build_inputs(args.workload, args.seed, args.work,
                                    reference=bool(args.reference_out))
    result: dict = {"setup_s": perf_counter() - T_START}

    if args.reference_out:
        raw = workloads.reference_run(args.workload, inputs)
        args.reference_out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rtol": workloads.REFERENCE_RTOL, "atol": workloads.REFERENCE_ATOL,
            "outputs": workloads.outputs(args.workload, raw, inputs["out_dir"]),
        }))
    elif not args.setup_only:
        result.update(timed_call(args, inputs))
    shutil.rmtree(inputs["out_dir"], ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


def timed_call(args, inputs: dict) -> dict:
    import spans
    import workloads

    call = workloads.run
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        call = tracer.wrap(spans.ROOT, call)
    t0 = perf_counter()
    try:
        raw = call(args.workload, inputs)
    except Exception:  # noqa: BLE001 - a crashed call is a failed item
        traceback.print_exc()
        raw = None
    wall = perf_counter() - t0
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    items = [("call_completed", raw is not None)]
    if tracer is not None:
        # Analysed before the outputs are read, which would add spans.
        metrics, checks = spans.analyse(tracer, wall)
        items += checks
        out["layers"] = metrics
        if args.spans:
            spans.write_spans(tracer, args.spans)
    dev = float("inf")
    if raw is not None:
        try:
            ref = workloads.load_reference(args.workload, args.reference)
            got = workloads.outputs(args.workload, raw, inputs["out_dir"])
            dev = workloads.max_rel_dev(got, ref)
            items += workloads.verify(args.workload, raw, inputs["out_dir"], dev)
            out["manifest_digest"] = workloads.manifest_digest(inputs["out_dir"])
        except Exception:  # noqa: BLE001 - unreadable outputs fail the call
            traceback.print_exc()
            items.append(("outputs_readable", False))
    out["max_rel_dev"] = dev
    out["items"] = items
    return out


if __name__ == "__main__":
    sys.exit(main())
