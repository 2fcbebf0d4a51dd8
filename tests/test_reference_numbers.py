"""The numbers stored in tests/reference/numbers.json, bit for bit.

tools/reference_numbers.py writes the file: per scenario (the six presets
and perfbench/planar-2bs-wide.yaml) 200 poses of label, path count, PEB,
OEB and condition as hex floats with long-double PEB and OEB beside them,
the SHA-256 of six small CLI CSVs, and the exit code and SHA-256 of five
`bounds` JSONs.  The bit and byte checks skip, and say why, where NumPy's
version, the machine or NumPy's SIMD extensions differ from those that
wrote the file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "reference_numbers", ROOT / "tools" / "reference_numbers.py"
)
reference_numbers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_numbers)

STORED = json.loads(reference_numbers.REFERENCE.read_text(encoding="utf-8"))
HERE = reference_numbers.build()
THERE = {key: STORED[key] for key in HERE}
same_build = pytest.mark.skipif(HERE != THERE, reason=f"stored with {THERE}, this run has {HERE}")
SCENARIOS = reference_numbers.scenarios()


@same_build
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bounds_match_the_stored_bits(name):
    stored = [row.split()[:5] for row in STORED["bounds"][name]]
    here = reference_numbers.bit_rows(SCENARIOS[name])
    moved = [trial for trial, (a, b) in enumerate(zip(stored, here)) if a != b]
    assert len(here) == len(stored) == reference_numbers.POSES
    assert not moved, f"{name}: {len(moved)} poses moved, first trial {moved[0]}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stored_bounds_lie_within_roundoff_of_long_double(name):
    rows = [row.split() for row in STORED["bounds"][name]]
    assert sum(row[5] != "inf" for row in rows) > len(rows) // 2
    worst = reference_numbers.worst_error(rows)
    print(f"{name}: worst error / condition against long double {worst:.2e}")
    assert worst <= 1e-14


def test_the_report_counts_moves_per_column():
    old = [["localizable", "9", "0x1.0p+0", "0x1.0p+1", "0x1.0p+3", "1.0", "2.0"],
           ["comm_only", "3", "inf", "inf", "inf", "inf", "inf"]]
    new = [["localizable", "9", "0x1.0p+0", "0x1.0000000000001p+1", "0x1.0p+3", "1.5", "2.0"],
           ["no_los", "0", "inf", "0x1.8p+1", "0x1.0p+3", "inf", "inf"]]
    # The long-double columns beside the bits are not counted.
    assert reference_numbers.moved_columns(old, new) == {
        "label": 1, "paths": 1, "PEB": 0, "OEB": 2, "condition": 1
    }
    assert reference_numbers.moved_columns(old, old) == dict.fromkeys(reference_numbers.COLUMNS, 0)


@same_build
@pytest.mark.parametrize(
    "entry", STORED["commands"], ids=lambda entry: f"{entry['argv'][0]}-{entry['argv'][2]}"
)
def test_cli_csv_bytes_match_the_stored_digest(tmp_path, entry):
    # The digests come from --threads 1; the CSV bytes must not depend on
    # the number of processes.
    for threads in (1, 3):
        argv = [*entry["argv"], "--threads", str(threads)]
        assert reference_numbers.run(argv, tmp_path / "out.csv") == (0, entry["sha256"]), argv


@same_build
@pytest.mark.parametrize(
    "entry", STORED["bounds_json"], ids=lambda entry: " ".join(entry["argv"][2:])
)
def test_bounds_json_bytes_and_exit_code_match_the_stored_digest(tmp_path, entry):
    # bounds starts no process, so one run covers it.
    got = reference_numbers.run(entry["argv"], tmp_path / "out.json")
    assert got == (entry["exit"], entry["sha256"]), entry["argv"]
