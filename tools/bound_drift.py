"""Compare the bounds of two source trees of thzloc, pose by pose.

    python3 tools/bound_drift.py OLD_SRC NEW_SRC [--poses N]

OLD_SRC and NEW_SRC are directories that hold a `thzloc` package, such as
the `src` folder of two checkouts.  Each tree runs in its own Python
process and evaluates the same N random poses (default 1,500) of every
preset and of perfbench/planar-2bs-wide.yaml through evaluate_pose, one
pose per call, so trees whose evaluate_batch returns a list of results and
trees whose evaluate_batch returns a table of columns compare alike.  For each scenario the script prints whether the
classifications and path counts are equal; over the poses with a finite
PEB in both trees, the worst max(|dPEB|/PEB, |dOEB|/OEB) divided by the
condition number; and how many of those PEB and OEB values moved in the
`.10g` digits that the CSVs print.

It exits 1 when labels or path counts differ or a ratio exceeds 1e-15.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WIDE = Path(__file__).resolve().parents[1] / "perfbench" / "planar-2bs-wide.yaml"
POSE_SEED, BEAM_SEED = 7, 11
LIMIT = 1e-15
COLUMNS = ("classification", "num_paths", "peb_m", "oeb_deg", "condition_number")


def dump(out_path: str, poses: int) -> None:
    """Write every scenario's results on `poses` poses to an .npz file, with
    the thzloc that comes first on sys.path."""
    from thzloc import PRESET_NAMES, PoseDistribution, evaluate_pose, load_config, preset, sample_pose

    scenarios = [(name, preset(name)) for name in PRESET_NAMES]
    scenarios.append(("planar-2bs-wide", load_config(WIDE)))
    arrays = {}
    for name, config in scenarios:
        results = [
            evaluate_pose(
                config, sample_pose(PoseDistribution(), POSE_SEED, t), seed=BEAM_SEED, trial=t
            )
            for t in range(poses)
        ]
        for column in COLUMNS:
            arrays[f"{name}:{column}"] = np.array([getattr(r, column) for r in results])
    np.savez(out_path, **arrays)


def _results(src: str, poses: int, out_path: str) -> dict:
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import bound_drift; "
        "bound_drift.dump(sys.argv[3], int(sys.argv[4]))"
    )
    tools = str(Path(__file__).resolve().parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", code, str(Path(src).resolve()), tools, out_path, str(poses)]
    subprocess.run(argv, env=env, check=True)
    with np.load(out_path) as data:
        return dict(data)


def _moved(old: np.ndarray, new: np.ndarray) -> int:
    return sum(format(a, ".10g") != format(b, ".10g") for a, b in zip(old, new))


def compare(old: dict, new: dict) -> bool:
    """Print one line per scenario; True when every scenario passes."""
    passed = True
    for name in dict.fromkeys(key.split(":")[0] for key in old):
        a = {column: old[f"{name}:{column}"] for column in COLUMNS}
        b = {column: new[f"{name}:{column}"] for column in COLUMNS}
        labels = np.array_equal(a["classification"], b["classification"])
        paths = np.array_equal(a["num_paths"], b["num_paths"])
        finite = np.isfinite(a["peb_m"]) & np.isfinite(b["peb_m"])
        a, b = ({column: v[column][finite] for column in COLUMNS[2:]} for v in (a, b))
        relative = np.maximum(
            np.abs(b["peb_m"] - a["peb_m"]) / a["peb_m"],
            np.abs(b["oeb_deg"] - a["oeb_deg"]) / a["oeb_deg"],
        )
        worst = float((relative / a["condition_number"]).max(initial=0.0))
        ok = labels and paths and worst <= LIMIT
        passed &= ok
        print(
            f"{name:16s} poses {finite.size}  labels {'equal' if labels else 'DIFFER'}  "
            f"paths {'equal' if paths else 'DIFFER'}  worst ratio/cond {worst:.2e}  "
            f"PEB moved {_moved(a['peb_m'], b['peb_m'])}/{finite.sum()}  "
            f"OEB moved {_moved(a['oeb_deg'], b['oeb_deg'])}/{finite.sum()}  "
            f"{'ok' if ok else 'FAIL'}"
        )
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--poses", type=int, default=1500)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        old = _results(args.old_src, args.poses, os.path.join(scratch, "old.npz"))
        new = _results(args.new_src, args.poses, os.path.join(scratch, "new.npz"))
    return 0 if compare(old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
