"""Benchmark of thzloc end to end (--trace 0) and per layer (--trace 1).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With one workload it prints every metric by name and unit, the operations
attempted and failed, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --workload all (the default)
it runs every workload untraced and traced, each in its own process, and
exits non-zero if any run is incorrect.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# The benchmark's only parallelism is the two-worker pool of fields-cli.
# OpenBLAS would otherwise run large matrix-vector products on every core,
# and the time of a serial workload would follow the load on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("coverage-cuboidal-4bs", "coverage-planar-2bs-wide", "fields-cli", "single-pose")
# Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 9


def probe_setups(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes: (total s scaled to the
    reference host speed, step ms)."""
    speed = Speed()
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(seed)]
    argv += ["--cli"] if workload.name == "fields-cli" else []
    argv += [str(ROOT / path) for path in workload.scenario_files]
    totals, steps = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
        totals.append(speed.scaled(wall))
        if proc.returncode != 0 or not line:
            raise SystemExit(f"set-up probe exited {proc.returncode}")
        steps.append(json.loads(line))
    median = {key: statistics.median(s[key] for s in steps) for key in steps[0]}
    return statistics.median(totals), median


def peak_rss_mib():
    """Largest peak RSS of this process and of any child it has waited for."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def workload_speed(ops):
    """Host speed over the timed calls, as a share of the reference speed."""
    return sum(ops.wall_s) and sum(ops.latencies_s) / sum(ops.wall_s)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.setup(seed)
    try:
        if trace:
            metrics, ops, problems = workload.traced(seconds)
            _, steps = probe_setups(workload, seed)
            metrics["setup.import_ms"] = (steps["import_ms"], "ms")
            metrics["scenario.load_config_ms"] = (steps["load_config_ms"], "ms")
            metrics["scenario.realize_ms"] = (steps["realize_ms"], "ms")
        else:
            ops, requests_s = workload.timed(seconds)
            rss = peak_rss_mib()
            problems = workload.check()
            setup_s, _ = probe_setups(workload, seed)
            lat_ms = [s * 1e3 for s in requests_s]
            metrics = {
                "poses_per_s": (ops.poses / sum(ops.latencies_s), "poses/s"),
                "latency_ms_p50": (statistics.median(lat_ms), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (rss, "MiB"),
            }
    finally:
        getattr(workload, "close", lambda: None)()

    correct = not problems
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    if not trace:
        print(f"  times are scaled to the reference host speed; unscaled poses/s "
              f"{ops.poses / sum(ops.wall_s):.6g}, host speed "
              f"{workload_speed(ops):.4g} of the reference")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    if not trace:
        print(f"  calls timed {len(ops.latencies_s)}, requests {len(requests_s)}, poses {ops.poses}")
        beyond = len(requests_s) - 1 - int(0.99 * len(requests_s))
        if beyond >= 10:  # a tail only with ten requests beyond it
            print(f"  latency p99 {percentile(lat_ms, 0.99):.6g} ms ({beyond} requests beyond it)")
    print(f"  attempted {ops.attempted}  failed {ops.failed}  correct {str(correct).lower()}")
    for problem in (problems + ops.errors)[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(seed, seconds):
    """Every workload untraced and traced, each in a fresh process."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            finished = bool(lines) and lines[-1].startswith("{")
            print("\n".join(lines[:-1] if finished else lines), flush=True)
            status |= proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(lines[-1]) if finished else None
    print(json.dumps({"correct": status == 0, "runs": results}))
    return 1 if status else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    for needed in (ROOT / "src" / "thzloc", ROOT / "tests" / "oracles.py"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a thzloc checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
