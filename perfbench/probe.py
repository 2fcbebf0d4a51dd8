"""One workload set-up in a fresh process, for the set-up time metrics.

    python3 perfbench/probe.py SEED [--cli] SCENARIO.yaml...

Imports thzloc (and its CLI with --cli), loads and realizes each scenario,
evaluates one warm-up pose on the last one, then prints one JSON line with
the time in ms of the import, loading and realizing.  The caller times the
whole process from its start to that line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv):
    seed, paths = int(argv[0]), [a for a in argv[1:] if a != "--cli"]
    t0 = perf_counter()
    import thzloc

    if "--cli" in argv:
        import thzloc.cli  # noqa: F401
    t1 = perf_counter()
    configs = [thzloc.load_config(path) for path in paths]
    t2 = perf_counter()
    for config in configs:
        config.realize()
    t3 = perf_counter()
    pose = thzloc.sample_pose(thzloc.PoseDistribution(), seed, 0)
    thzloc.evaluate_pose(configs[-1], pose, seed=seed)
    print(json.dumps({
        "import_ms": (t1 - t0) * 1e3,
        "load_config_ms": (t2 - t1) * 1e3,
        "realize_ms": (t3 - t2) * 1e3,
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
