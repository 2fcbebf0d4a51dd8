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
    assert report["workload"] == workload and report["calls"] == 3
    assert report["equal_outputs"] == 3
    for clock in ("wall", "cpu"):
        stats = report[clock]
        assert set(stats) == {"old_ms", "new_ms", "ratio", "won", "interval"}
        assert stats["old_ms"] > 0 and stats["new_ms"] > 0 and stats["ratio"] > 0
        assert 0 <= stats["won"] <= 1
        assert 0 < stats["interval"][0] <= stats["interval"][1]
    assert [line.split()[:2] for line in lines[:2]] == [[workload, "wall"], [workload, "cpu"]]
    assert lines[2] == f"{workload} outputs equal in 3/3 calls"


def test_the_summary_pairs_calls():
    old, new = np.array([2.0, 2.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0, 2.0])
    stats = ab_bench.summary(old, new)
    assert stats["ratio"] == 2.0 and stats["won"] == 0.75
    assert stats["old_ms"] == 2000.0 and stats["new_ms"] == 1000.0


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
