import importlib.util
from pathlib import Path

import numpy as np

import thzloc

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bound_drift", ROOT / "tools" / "bound_drift.py")
bound_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bound_drift)


def test_a_tree_against_itself_shows_no_drift(capsys):
    src = str(Path(thzloc.__file__).resolve().parents[1])
    assert bound_drift.main([src, src, "--poses", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(thzloc.PRESET_NAMES) + 1
    for line in lines:
        assert "labels equal  paths equal  worst ratio/cond 0.00e+00" in line
        assert "PEB moved 0/" in line and line.endswith("ok")


def test_drift_beyond_roundoff_fails(tmp_path, capsys):
    bound_drift.dump(str(tmp_path / "run.npz"), 4)
    with np.load(tmp_path / "run.npz") as data:
        old = dict(data)
    assert bound_drift.compare(old, old)
    moved = {**old, "cuboidal-4bs:peb_m": old["cuboidal-4bs:peb_m"] * (1 + 1e-9)}
    labels = old["planar-2bs:classification"].copy()
    labels[0] = "?"
    relabelled = {**old, "planar-2bs:classification": labels}
    assert not bound_drift.compare(old, moved)
    assert not bound_drift.compare(old, relabelled)
    assert capsys.readouterr().out.count("FAIL") == 2
