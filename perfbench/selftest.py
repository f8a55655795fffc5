"""Fast self-test of the benchmark harness (a few seconds, no workload run).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks the metric names against BENCHMARK.json, that every workload reports
every end-to-end metric, that the seed changes only snapshot_roundtrip's
inputs, that corrupted outputs trip verification, and that the tracer's
spans nest and account for the traced wall time.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    bench = _bench()
    for section in ("end_to_end", "per_layer", "workloads"):
        for entry in bench[section]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == spans.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS
    assert tuple(workloads.CANNED) == run.CANNED


def _fake_call(layers=None) -> dict:
    call = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 80.0,
            "max_rel_dev": 1e-9, "items": [["call_completed", True]],
            "manifest_digest": "d"}
    if layers is not None:
        call["layers"] = layers
    return call


def test_every_workload_reports_every_metric():
    layers = {name: 1.0 for name in spans.PER_LAYER}
    for name in run.WORKLOADS:
        measured = {"setups": [0.4], "calls": [_fake_call(), _fake_call()],
                    "traced": []}
        result, failures = run.summarise(measured, trace=False)
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert result["correct"] and not failures
        measured["traced"] = [_fake_call(layers), _fake_call(layers)]
        result, failures = run.summarise(measured, trace=True)
        assert set(result["metrics"]) == set(spans.PER_LAYER)
        assert result["correct"] and not failures


def test_manifest_mismatch_between_repeats_fails():
    other = _fake_call()
    other["manifest_digest"] = "e"
    measured = {"setups": [0.4], "calls": [_fake_call(), other], "traced": []}
    result, failures = run.summarise(measured, trace=False)
    assert not result["correct"] and failures == ["manifest_repeats"]


def test_seed_changes_only_roundtrip_inputs():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in workloads.CANNED:
            a = workloads.build_inputs(name, 1, work)
            b = workloads.build_inputs(name, 2, work)
            assert a == b
        configs = []
        for seed in (1, 2, 1):
            inputs = workloads.build_inputs("snapshot_roundtrip", seed, work)
            configs.append(inputs["config"].read_text())
    assert configs[0] != configs[1] and configs[0] == configs[2]


def test_corrupted_canned_output_fails_verification():
    ref = workloads.load_reference("damping_sweep")
    rates = ref["measured_rate"]
    report = {"checks": {"ok": True}, "failures": [],
              "rows": [{"gamma": g, "measured_rate": r}
                       for g, r in zip(range(len(rates)), rates)]}
    raw = {"report": report}
    got = workloads.outputs("damping_sweep", raw, Path("."))
    dev = workloads.max_rel_dev(got, ref)
    assert dev == 0.0
    assert all(ok for _, ok in workloads.verify("damping_sweep", raw,
                                                Path("."), dev))
    report["rows"][0]["measured_rate"] *= 1.1
    dev = workloads.max_rel_dev(workloads.outputs("damping_sweep", raw,
                                                  Path(".")), ref)
    items = dict(workloads.verify("damping_sweep", raw, Path("."), dev))
    assert not items["max_rel_dev"]
    report["checks"]["ok"] = False
    assert not dict(workloads.verify("damping_sweep", raw, Path("."), 0.0))[
        "check.ok"]
    report["rows"].pop()
    assert workloads.max_rel_dev(workloads.outputs(
        "damping_sweep", raw, Path(".")), ref) == math.inf


def test_corrupted_roundtrip_output_fails_verification():
    n = workloads.ROUNDTRIP_SNAPSHOTS
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        manifest = {"files": [], "diagnostics": {"particle_drift": 1e-12}}
        (out / "manifest.json").write_text(json.dumps(manifest))
        raw = {"codes": [0] * (n + 1), "fit_texts": ["{}"] * n}
        assert all(ok for _, ok in workloads.verify(
            "snapshot_roundtrip", raw, out, 1e-9))
        raw["codes"][5] = 3
        manifest["diagnostics"]["particle_drift"] = 1e-3
        (out / "manifest.json").write_text(json.dumps(manifest))
        failed = {name for name, ok in workloads.verify(
            "snapshot_roundtrip", raw, out, 1e-9) if not ok}
    assert failed == {"fit_exit_0.4", "particle_drift"}
    snapshot = [[1.0, 0.0], [0.0, 1.0]]
    corrupt = [[1.0, 0.0], [0.0, 1.1]]
    assert workloads.max_rel_dev({"s": corrupt}, {"s": snapshot}) \
        > workloads.MAX_REL_DEV_LIMIT


def test_spans_nest_and_account_for_wall_time():
    from time import perf_counter

    from pcdnse import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    config = workloads.roundtrip_config(3)
    config["grid"]["n_points"] = 400
    config["run"] = {"t_final": 0.5, "snapshots": 3}
    config["output"] = {"formats": ["csv"], "field_files": 3}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))

        def call():
            return cli.main(["simulate", "--config", str(path), "--out",
                             str(Path(tmp) / "out")])

        t0 = perf_counter()
        code = tracer.wrap(spans.ROOT, call)()
        wall = perf_counter() - t0
    assert code == 0
    metrics, checks = spans.analyse(tracer, wall)
    assert all(ok for _, ok in checks), checks
    assert metrics["cli.calls"] == 1
    assert metrics["experiments.subruns"] == 1
    assert metrics["io.files_written"] == 6  # echo, 3 snapshots, diag, manifest
    assert metrics["model_continuum.rhs_calls"] == metrics["integrate.rhs_evals"] > 0
    assert set(spans.PER_LAYER) - set(metrics) == {
        "trace.overhead_s", "trace.overhead_ratio", "fail_ratio"}


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
