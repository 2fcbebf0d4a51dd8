import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)

STORED = json.loads(cli_digests.REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", STORED["commands"], ids=lambda entry: f"{entry['argv'][0]}-{entry['argv'][2]}"
)
def test_cli_csv_bytes_match_the_stored_digest(tmp_path, capsys, entry):
    # The digests come from tools/cli_digests.py with --threads 1; the CSV
    # bytes must not depend on the number of processes.
    here = {"numpy": np.__version__, "machine": platform.machine()}
    stored = {key: STORED[key] for key in here}
    if here != stored:
        pytest.skip(f"digests were stored with {stored}, this run has {here}")
    for threads in (1, 3):
        argv = [*entry["argv"], "--threads", str(threads)]
        assert cli_digests.digest(argv, tmp_path / "out.csv") == entry["sha256"], argv
