"""Write tests/reference/numbers.json, the numbers that tier-1 holds bit for bit.

    python3 tools/reference_numbers.py

For each preset and perfbench/planar-2bs-wide.yaml the file stores 200
poses of one evaluate_batch pass, poses from seed 7 and beams from seed 11
(pose i is trial i).  Each pose is one line: label, path count, PEB, OEB
and condition number as exact hex floats, then PEB and OEB rebuilt in long
double by tests/oracles.py ("inf" where the kernel has no bound).  The
file also stores the SHA-256 of a small `map`, `orient-sweep` and
`coverage` CSV of cuboidal-4bs and planar-2bs run with --threads 1, the
exit code and SHA-256 of the `bounds` JSON of a few poses of the same two
presets, and the NumPy version, machine and NumPy SIMD extensions that
produced it all.  tests/test_reference_numbers.py requires every bit and
byte.

Before it writes, the tool prints per scenario how many poses moved in
any bit of each column (label, path count, PEB, OEB, condition) against
the stored file, how many PEB and OEB values moved in the
`.10g` digits that the CSVs print, and the worst
max(|dPEB|/PEB, |dOEB|/OEB) / condition of the stored and of the new
values against the new long-double ones.  A change that moves bits on
purpose reruns the tool and lists the moves in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import long_double_bounds  # noqa: E402
from thzloc import PRESET_NAMES, PoseDistribution, evaluate_batch, load_config, preset  # noqa: E402
from thzloc.cli import EXIT_OK, main as thzloc_main  # noqa: E402
from thzloc.coverage import sample_poses  # noqa: E402

REFERENCE = ROOT / "tests" / "reference" / "numbers.json"
WIDE = ROOT / "perfbench" / "planar-2bs-wide.yaml"
POSES, POSE_SEED, BEAM_SEED = 200, 7, 11
DIGEST_PRESETS = ("cuboidal-4bs", "planar-2bs")
# 25 map cells, 81 orientation cells and 150 trials per preset: more than
# one index range per process at --threads 3, and over two 64-pose chunks
# for coverage at --threads 1.
COMMANDS = (
    ("map", "--grid=-10,10,5"),
    ("orient-sweep", "--step", "45"),
    ("coverage", "--trials", "150"),
)
# One localizable pose per preset (exit 0), then on planar-2bs a comm_only
# pose with six paths and a no_los pose (exit 3, no paths).
BOUNDS_COMMANDS = (
    ("cuboidal-4bs", "2,-1,1", "10,40,-30"),
    ("cuboidal-4bs", "0,0,0", "0,-90,45"),
    ("planar-2bs", "2,-1,1", "0,-90,45"),
    ("planar-2bs", "2,-1,1", "0,0,0"),
    ("planar-2bs", "2,-1,1", "10,40,-30"),
)


def build() -> dict:
    """What the stored bits depend on besides the source."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def scenarios() -> dict:
    return {**{name: preset(name) for name in PRESET_NAMES}, "planar-2bs-wide": load_config(WIDE)}


def _inputs(config):
    trials = list(range(POSES))
    return config.realize(), sample_poses(PoseDistribution(), POSE_SEED, trials), trials


# The columns of a pose that bit_rows writes.
COLUMNS = ("label", "paths", "PEB", "OEB", "condition")


def bit_rows(config) -> list[list[str]]:
    """Per pose [label, path count, PEB, OEB, condition], floats in hex."""
    scn, poses, trials = _inputs(config)
    table = evaluate_batch(scn, poses, trials, BEAM_SEED)
    columns = (table.peb_m, table.oeb_deg, table.condition_number)
    return [
        [label, str(count), *map(float.hex, values)]
        for label, count, *values in zip(table.classification, table.num_paths.tolist(),
                                         *(c.tolist() for c in columns))
    ]


def long_double_rows(config, bits) -> list[list[str]]:
    """Per pose [PEB, OEB] in long double, "inf" where bits has no PEB."""
    solved = [i for i, row in enumerate(bits) if row[2] != "inf"]
    values = long_double_bounds(*_inputs(config), BEAM_SEED, solved)
    rows = [["inf", "inf"] for _ in bits]
    for i, peb, oeb in zip(solved, *values):
        rows[i] = [np.format_float_scientific(x, unique=True) for x in (peb, oeb)]
    return rows


def worst_error(rows) -> float:
    """Worst max(|dPEB|/PEB, |dOEB|/OEB) / condition of rows' hex floats
    against their long-double columns, over the poses with a bound."""
    worst = 0.0
    for row in rows:
        if "inf" not in (row[2], row[5]):
            peb, oeb, condition = map(float.fromhex, row[2:5])
            exact = [np.longdouble(x) for x in row[5:7]]
            error = max(abs(peb - exact[0]) / exact[0], abs(oeb - exact[1]) / exact[1])
            worst = max(worst, float(error) / condition)
    return worst


def run(argv, out_path) -> tuple[int, str]:
    """Exit code of `thzloc ARGV --out OUT_PATH` in this process and the
    SHA-256 of the file it wrote."""
    code = thzloc_main([*argv, "--out", str(out_path)])
    return code, hashlib.sha256(Path(out_path).read_bytes()).hexdigest()


def _digests() -> tuple[list[dict], list[dict]]:
    """The CSV entries, each run with --threads 1, and the bounds entries."""
    csvs, jsons = [], []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for name in DIGEST_PRESETS:
            for command in COMMANDS:
                argv = [command[0], "--preset", name, *command[1:]]
                code, sha = run([*argv, "--threads", "1"], out)
                if code != EXIT_OK:
                    raise RuntimeError(f"thzloc {' '.join(argv)} exited {code}")
                csvs.append({"argv": argv, "sha256": sha})
        for name, position, orientation in BOUNDS_COMMANDS:
            argv = ["bounds", "--preset", name, f"--position={position}",
                    f"--orientation={orientation}"]
            code, sha = run(argv, out)
            jsons.append({"argv": argv, "exit": code, "sha256": sha})
    return csvs, jsons


def moved_columns(old: list[list[str]], new: list[list[str]]) -> dict[str, int]:
    """Per column of COLUMNS, how many poses' entries differ between the
    old and the new rows."""
    return {name: sum(a[k] != b[k] for a, b in zip(old, new)) for k, name in enumerate(COLUMNS)}


def report(name: str, old: list[list[str]], new: list[list[str]]) -> None:
    """One line on how the new rows of a scenario differ from the old."""
    if len(old) != len(new):
        print(f"{name:16s} poses {len(new)}  no stored rows  worst error/cond {worst_error(new):.2e}")
        return
    moved = "  ".join(f"{column} {count}" for column, count in moved_columns(old, new).items())
    digits = [
        sum(format(float.fromhex(a[k]), ".10g") != format(float.fromhex(b[k]), ".10g")
            for a, b in zip(old, new))
        for k in (2, 3)
    ]
    stored = worst_error([a[:5] + b[5:] for a, b in zip(old, new)])
    print(
        f"{name:16s} poses {len(new)}  moved in bits: {moved}  PEB .10g moved {digits[0]}  "
        f"OEB .10g moved {digits[1]}  worst error/cond: stored {stored:.2e}, "
        f"new {worst_error(new):.2e}"
    )


def main() -> int:
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    bounds = {}
    for name, config in scenarios().items():
        bits = bit_rows(config)
        rows = [a + b for a, b in zip(bits, long_double_rows(config, bits))]
        old = [row.split() for row in stored.get("bounds", {}).get(name, [])]
        report(name, old, rows)
        bounds[name] = [" ".join(row) for row in rows]
    commands, jsons = _digests()
    for kind, entries, key in (("CSV", commands, "commands"),
                               ("bounds JSON", jsons, "bounds_json")):
        moved = [c["argv"] for c in entries if c not in stored.get(key, [])]
        print(f"{kind} digests moved: {len(moved)} of {len(entries)}", *moved, sep="\n  ")
    document = {**build(), "commands": commands, "bounds": bounds, "bounds_json": jsons}
    REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
