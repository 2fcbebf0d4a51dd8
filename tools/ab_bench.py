"""Time two source trees of thzloc call for call on one benchmark workload.

    python3 tools/ab_bench.py OLD_SRC NEW_SRC --workload NAME [--calls N] [--pairs K]

OLD_SRC and NEW_SRC are directories that hold a `thzloc` package, such as
the `src` folder of two checkouts.  Each tree runs in its own long-lived
Python process with one OpenBLAS thread and sets the workload up as
perfbench/workloads.py does.  The parent then drives both in lockstep:
call i of one tree, then call i of the other on the same inputs, the old
tree first on even calls and the new tree first on odd ones, so that load
on the host falls on both sides of a pair alike.  The inputs are those of
perfbench at its default seed S = 1: call i of a coverage workload is one
coverage_ccdf of perfbench's batch with seed S * 100000 + i, call t of
`single-pose` is evaluate_pose of trial t (from 1), and a call of
`fields-cli` is one round of its three CLI commands.

With --pairs K, K fresh pairs of processes run N calls each in turn, pair
k the calls k * N to (k + 1) * N - 1, so that what a process fixes for its
lifetime (heap and code layout, its core) varies between pairs.  The
bootstrap then resamples pairs first and calls within each drawn pair, so
its interval widens with the spread of the pairs' ratios; with one pair
it resamples calls alone, and misses whatever is fixed per process.

For wall time and CPU time (children included), the script prints each
tree's median call in ms, the median of the paired ratios old / new over
all calls (above 1 when the new tree is faster), a 95% bootstrap interval
of that median, the share of calls the new tree won, and each process
pair's median ratio with their spread (largest less smallest); then how
many calls gave equal outputs in both trees, and the same as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("coverage-cuboidal-4bs", "coverage-planar-2bs-wide", "fields-cli", "single-pose")
RESAMPLES = 2000
# perfbench/run.py's default seed.
SEED = 1


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _calls(name: str, seed: int):
    """The workload set up as perfbench sets it up, and call(i), which
    returns call i's thunk and the digest of that thunk's output."""
    import workloads as w
    from thzloc import coverage_ccdf, evaluate_pose, sample_pose

    bench = w.WORKLOADS[name]
    bench.setup(seed)
    if name == "single-pose":
        def call(t):
            pose = sample_pose(w.DIST, seed, t)
            return lambda: evaluate_pose(bench.config, pose, seed=seed, trial=t), _digest
    elif name == "fields-cli":
        paths = [Path(bench.tmp.name) / f"{i}.csv" for i in range(len(w.COMMANDS))]

        def call(_):
            def run():
                return [w.run_cli(c.argv(seed, p)) for c, p in zip(w.COMMANDS, paths)]
            return run, lambda codes: _digest(codes, [p.read_bytes() for p in paths])
    else:
        def call(i):
            op_seed = w.op_seed(seed, i)

            def run():
                return coverage_ccdf(bench.config, w.BATCH, metric=bench.metric, seed=op_seed)
            return run, lambda c: _digest(c.exceedance.tobytes(), c.outage)
    return bench, call


def serve(name: str, seed: int) -> None:
    """Worker loop: one call index per line on stdin, one line of
    `wall_s cpu_s digest` per call on stdout."""
    bench, call = _calls(name, seed)
    try:
        print("ready", flush=True)
        for line in sys.stdin:
            run, digest = call(int(line))
            wall, cpu = time.perf_counter(), _cpu_s()
            out = run()
            wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
            print(wall, cpu, digest(out), flush=True)
    finally:
        getattr(bench, "close", lambda: None)()


class _Worker:
    def __init__(self, src: str, name: str, seed: int):
        code = (
            "import sys; sys.path[:0] = sys.argv[1:5]; import ab_bench; "
            "ab_bench.serve(sys.argv[5], int(sys.argv[6]))"
        )
        paths = [str(Path(src).resolve()), str(ROOT / "tools"), str(ROOT / "perfbench"), str(ROOT / "tests")]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        argv = [sys.executable, "-c", code, *paths, name, str(seed)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        if self.proc.stdout.readline().strip() != "ready":
            raise SystemExit(f"ab_bench: the worker of {src} did not start")

    def call(self, index: int) -> tuple[float, float, str]:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        wall, cpu, digest = self.proc.stdout.readline().split()
        return float(wall), float(cpu), digest

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def summary(old: np.ndarray, new: np.ndarray) -> dict:
    """Medians, the median paired ratio old / new, the share of calls the
    new tree won, a 95% bootstrap interval of the median ratio and the
    median ratio of each process pair: old and new hold (calls,) times of
    one pair or (pairs, calls) times of several."""
    ratios = np.atleast_2d(old / new)
    pairs, n = ratios.shape
    # Pairs first, then calls within each drawn pair; with one pair every
    # row pick is 0, so that resamples calls alone.
    rng = np.random.default_rng(0)
    columns = rng.integers(0, n, (RESAMPLES, pairs, n))
    rows = rng.integers(0, pairs, (RESAMPLES, pairs, 1))
    resampled = ratios[rows, columns].reshape(RESAMPLES, -1)
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return {
        "old_ms": float(np.median(old)) * 1e3,
        "new_ms": float(np.median(new)) * 1e3,
        "ratio": float(np.median(ratios)),
        "won": float(np.mean(new < old)),
        "interval": [float(low), float(high)],
        "pair_ratios": np.median(ratios, axis=1).tolist(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--calls", type=int, default=200, help="calls per pair of processes")
    parser.add_argument("--pairs", type=int, default=1, help="fresh pairs of processes, in turn")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be positive")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    first = 1 if args.workload == "single-pose" else 0
    times = np.empty((args.pairs, args.calls, 2, 2))  # pair, call, tree, (wall, cpu)
    equal = 0
    for pair in range(args.pairs):
        workers = [_Worker(src, args.workload, SEED) for src in (args.old_src, args.new_src)]
        try:
            for i in range(args.calls):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                digests = {}
                for tree in order:
                    wall, cpu, digests[tree] = workers[tree].call(first + pair * args.calls + i)
                    times[pair, i, tree] = wall, cpu
                equal += digests[0] == digests[1]
        finally:
            for worker in workers:
                worker.close()
    report = {"workload": args.workload, "calls": args.calls, "pairs": args.pairs, "seed": SEED}
    for k, clock in enumerate(("wall", "cpu")):
        report[clock] = stats = summary(times[..., 0, k], times[..., 1, k])
        ratios = stats["pair_ratios"]
        print(
            f"{args.workload} {clock:4s}  old {stats['old_ms']:.4g} ms  new {stats['new_ms']:.4g} ms  "
            f"ratio old/new {stats['ratio']:.4f}  [{stats['interval'][0]:.4f}, "
            f"{stats['interval'][1]:.4f}]  new won {stats['won']:.0%}  "
            f"pairs {' '.join(f'{r:.4f}' for r in ratios)} (spread {max(ratios) - min(ratios):.4f})"
        )
    report["equal_outputs"] = equal
    print(f"{args.workload} outputs equal in {equal}/{args.pairs * args.calls} calls")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early, after both workers were closed.  Point
        # stdout at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
