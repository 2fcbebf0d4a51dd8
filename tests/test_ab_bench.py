import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thzloc

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


@pytest.mark.parametrize("workload", ["single-pose", "coverage-cuboidal-4bs"])
def test_a_tree_against_itself_reports_every_field(capsys, workload):
    # Timings are not asserted: only that both workers ran every call on
    # the same inputs and that the report holds its fields.
    src = str(Path(thzloc.__file__).resolve().parents[1])
    assert ab_bench.main([src, src, "--workload", workload, "--calls", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])
    assert report["workload"] == workload and report["calls"] == 3 and report["pairs"] == 1
    assert report["equal_outputs"] == 3
    for clock in ("wall", "cpu"):
        stats = report[clock]
        assert set(stats) == {"old_ms", "new_ms", "ratio", "won", "interval", "pair_ratios"}
        assert stats["old_ms"] > 0 and stats["new_ms"] > 0 and stats["ratio"] > 0
        assert 0 <= stats["won"] <= 1
        assert 0 < stats["interval"][0] <= stats["interval"][1]
        assert stats["pair_ratios"] == [stats["ratio"]]
    assert [line.split()[:2] for line in lines[:2]] == [[workload, "wall"], [workload, "cpu"]]
    assert lines[2] == f"{workload} outputs equal in 3/3 calls"


def test_the_summary_pairs_calls():
    old, new = np.array([2.0, 2.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0, 2.0])
    stats = ab_bench.summary(old, new)
    assert stats["ratio"] == 2.0 and stats["won"] == 0.75
    assert stats["old_ms"] == 2000.0 and stats["new_ms"] == 1000.0
    assert stats["pair_ratios"] == [2.0]


def test_the_summary_pools_calls_and_keeps_each_process_pair():
    # Two pairs of processes of three calls: the new tree 1.5 times as fast
    # in the first and 1.1 times in the second.
    new = np.ones((2, 3))
    old = np.array([[1.5, 1.5, 1.4], [1.1, 1.1, 1.2]])
    stats = ab_bench.summary(old, new)
    assert stats["pair_ratios"] == [1.5, 1.1]
    assert stats["ratio"] == pytest.approx(1.3) and stats["won"] == 1.0
    assert 1.1 <= stats["interval"][0] <= stats["interval"][1] <= 1.5


def test_the_interval_of_several_pairs_covers_each_pair():
    # Two pairs of processes whose calls agree within 1% but whose median
    # ratios are 0.95 and 1.05.  Resampling the pooled calls puts the
    # interval between the two; resampling pairs first covers both.
    spread = np.linspace(-0.01, 0.01, 21)
    old = np.stack([0.95 + spread, 1.05 + spread])
    stats = ab_bench.summary(old, np.ones_like(old))
    assert stats["pair_ratios"] == pytest.approx([0.95, 1.05])
    low, high = stats["interval"]
    assert low <= 0.95 and high >= 1.05
    # One pair keeps the bootstrap over its calls.
    calls = 0.95 + spread
    picks = np.random.default_rng(0).integers(0, calls.size, (ab_bench.RESAMPLES, calls.size))
    want = np.percentile(np.median(calls[picks], axis=1), [2.5, 97.5])
    assert ab_bench.summary(calls, np.ones_like(calls))["interval"] == want.tolist()


def test_pairs_start_fresh_processes_on_later_calls(capsys, monkeypatch):
    # Each pair starts its own two workers and runs the next calls' inputs.
    started, calls = [], []

    class Worker:
        def __init__(self, src, name, seed):
            started.append(src)
            self.src = src

        def call(self, index):
            calls.append((len(started), self.src, index))
            return 1.0 if self.src == "old" else 0.5, 0.1, f"out {index}"

        def close(self):
            pass

    monkeypatch.setattr(ab_bench, "_Worker", Worker)
    argv = ["old", "new", "--workload", "coverage-cuboidal-4bs", "--calls", "2", "--pairs", "3"]
    assert ab_bench.main(argv) == 0
    assert started == ["old", "new"] * 3
    assert [index for _, src, index in calls if src == "new"] == [0, 1, 2, 3, 4, 5]
    assert all(count == 2 * (index // 2 + 1) for count, _, index in calls)
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])
    assert report["pairs"] == 3 and report["calls"] == 2 and report["equal_outputs"] == 6
    assert report["wall"]["pair_ratios"] == [2.0] * 3 and report["cpu"]["pair_ratios"] == [1.0] * 3
    assert lines[0].endswith("pairs 2.0000 2.0000 2.0000 (spread 0.0000)")
    assert lines[2] == "coverage-cuboidal-4bs outputs equal in 6/6 calls"


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["old", "new", "--workload", "single-pose", "--pairs", "0"])
    assert exit_info.value.code == 2
    assert "--pairs must be positive" in capsys.readouterr().err


def test_a_reader_that_leaves_early_ends_no_run_in_error():
    # stdout is a pipe whose read end is closed, as in `ab_bench ... | true`.
    src = str(Path(thzloc.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab_bench.py"), src, src,
             "--workload", "single-pose", "--calls", "1"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
