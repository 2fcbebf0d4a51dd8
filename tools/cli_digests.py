"""Write the SHA-256 digests of small thzloc CSVs that tier-1 checks.

    python3 tools/cli_digests.py [SRC] [--out PATH]

SRC is a directory that holds a `thzloc` package (default: the `src` of
this checkout).  For each of cuboidal-4bs and planar-2bs the script runs a
small `map`, `orient-sweep` and `coverage` through `thzloc.cli.main` with
--threads 1 and writes the SHA-256 of each CSV, with the NumPy version and
`platform.machine()` that produced them, to PATH (default
tests/reference/cli_digests.json).  tests/test_cli_digests.py reruns every
command with --threads 1 and 3 and requires the stored digest, so a change
that moves one byte of these CSVs fails tier-1.  A change that moves them
on purpose regenerates the file with this script and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference" / "cli_digests.json"
PRESETS = ("cuboidal-4bs", "planar-2bs")
# 25 map cells, 81 orientation cells and 150 trials per preset: more than
# one index range per process at --threads 3, and over two 64-pose chunks
# for coverage at --threads 1.
COMMANDS = (
    ("map", "--grid=-10,10,5"),
    ("orient-sweep", "--step", "45"),
    ("coverage", "--trials", "150"),
)


def digest(argv, out_path) -> str:
    """SHA-256 of the CSV that `thzloc ARGV --out OUT_PATH` writes, run in
    this process with the thzloc that comes first on sys.path."""
    from thzloc.cli import EXIT_OK, main

    code = main([*argv, "--out", str(out_path)])
    if code != EXIT_OK:
        raise RuntimeError(f"thzloc {' '.join(argv)} exited {code}")
    return hashlib.sha256(Path(out_path).read_bytes()).hexdigest()


def reference() -> dict:
    """The digests, NumPy version and machine of the thzloc on sys.path."""
    entries = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in PRESETS:
            for command in COMMANDS:
                argv = [command[0], "--preset", name, *command[1:]]
                sha = digest([*argv, "--threads", "1"], os.path.join(scratch, "out.csv"))
                entries.append({"argv": argv, "sha256": sha})
    return {"numpy": np.__version__, "machine": platform.machine(), "commands": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--out", default=str(REFERENCE))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    document = reference()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(document['commands'])} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
