"""The paired-benchmark summary of tools/bench_pairs.py: quartiles, win
counts with ties, the rule that calls a difference a gain, and the check
of the change's median against the metric's bound; and the bytecode cache
each side runs with.
"""

import importlib.util
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise


def test_sides_report_samples_median_and_quartiles():
    out = summarise([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 2.5, 3.5, 4.5],
                    "lower")
    assert out["parent"] == {"samples": [1.0, 2.0, 3.0, 4.0, 5.0],
                             "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert (out["change"]["q1"], out["change"]["median"],
            out["change"]["q3"]) == (1.5, 2.5, 3.5)
    assert out["pairs"] == 5


def test_ties_count_for_neither_side():
    out = summarise([1.0, 1.0, 2.0, 2.0], [1.0, 0.5, 2.0, 3.0], "lower")
    assert out["change_wins"] == 1


def test_higher_is_better_reverses_the_wins():
    parent, change = [1.0, 2.0, 3.0], [2.0, 1.0, 4.0]
    assert summarise(parent, change, "higher")["change_wins"] == 2
    assert summarise(parent, change, "lower")["change_wins"] == 1


def test_gain_needs_nine_wins_in_ten_and_medians_beyond_the_parent_iqr():
    parent = [1.30, 1.35, 1.40, 1.45, 1.50, 1.55, 1.60, 1.65, 1.70, 1.75]
    faster = [p - 0.5 for p in parent]
    assert summarise(parent, faster, "lower")["gain"]
    assert not summarise(parent, faster, "higher")["gain"]

    one_loss = faster[:9] + [parent[9] + 0.1]        # still 9 of 10
    assert summarise(parent, one_loss, "lower")["change_wins"] == 9
    assert summarise(parent, one_loss, "lower")["gain"]
    two_losses = faster[:8] + [p + 0.1 for p in parent[8:]]
    assert not summarise(parent, two_losses, "lower")["gain"]

    # every pair won, but by less than the parent's own spread
    assert not summarise(parent, [p - 0.01 for p in parent], "lower")["gain"]


def test_a_single_pair_has_degenerate_quartiles():
    out = summarise([2.0], [1.0], "lower")
    assert out["parent"]["q1"] == out["parent"]["q3"] == 2.0
    assert out["change_wins"] == 1 and out["gain"]


@pytest.mark.parametrize("parent, change, better", [
    ([], [], "lower"),
    ([1.0], [1.0, 2.0], "lower"),
    ([1.0], [1.0], "faster"),
])
def test_malformed_input_is_rejected(parent, change, better):
    with pytest.raises(ValueError):
        summarise(parent, change, better)


@pytest.mark.parametrize("change_median, within", [
    (2.4, True),                  # inside: 20 % worse than the parent
    (2.5, True),                  # at the bound: exactly 25 % worse
    (2.6, False),                 # beyond: 30 % worse
])
def test_within_bound_compares_the_medians_with_the_bound(change_median,
                                                          within):
    parent = [1.0, 2.0, 3.0]                          # median 2.0
    change = [change_median - 1.0, change_median, change_median + 1.0]
    out = summarise(parent, change, "lower", 0.25)
    assert out["change"]["median"] == change_median
    assert out["bound"] == 0.25
    assert out["within_bound"] is within


def test_within_bound_when_higher_is_better_allows_a_fall_by_the_bound():
    parent = [1.0, 2.0, 3.0]                          # median 2.0
    assert summarise(parent, [1.0, 1.5, 2.0], "higher", 0.25)["within_bound"]
    assert not summarise(parent, [1.0, 1.4, 2.0], "higher",
                         0.25)["within_bound"]


def test_each_side_runs_with_its_own_bytecode_cache_outside_the_checkout(
        tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    shutil.copy(bench_pairs.ROOT / "BENCHMARK.json", checkout)
    runs = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":
            if "archive" in cmd:
                out = cmd[cmd.index("--output") + 1]
                tarfile.open(out, "w").close()
            return subprocess.CompletedProcess(cmd, 0, stdout="0" * 40)
        runs.append((Path(cwd), env))
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="")

    monkeypatch.setattr(bench_pairs, "ROOT", checkout)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "HEAD", "--label", "t", "--pairs", "2",
        "--seed", "1", "--workload", "damping_sweep"])
    assert bench_pairs.main() == 0

    prefixes = {}
    for cwd, env in runs:
        assert env is not None and "PYTHONDONTWRITEBYTECODE" not in env
        side = "change" if cwd == checkout else "parent"
        prefixes.setdefault(side, set()).add(env["PYTHONPYCACHEPREFIX"])
    assert len(runs) == 4
    # one cache per side for the whole run, and a different one per side
    assert all(len(p) == 1 for p in prefixes.values())
    [parent], [change] = prefixes["parent"], prefixes["change"]
    assert parent != change
    for prefix in (parent, change):
        assert not Path(prefix).is_relative_to(checkout)
        assert not Path(prefix).is_relative_to(_PATH.parent.parent)
