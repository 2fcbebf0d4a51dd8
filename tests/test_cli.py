import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import thzloc
from thzloc import cli, coverage, crb, preset, serialize_config, validate
from thzloc.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NOT_LOCALIZABLE,
    EXIT_OK,
    EXIT_VALIDATION_FAILED,
    main,
)
from thzloc.scenario import config_to_mapping
from thzloc.validate import run_validation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "thzloc" in capsys.readouterr().out


def test_bounds_localizable_pose(capsys):
    code, out, _ = run(
        capsys, "bounds", "--preset", "cuboidal-2bs",
        "--position", "1,2,0", "--orientation", "0,-90,45",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["classification"] == "localizable"
    assert doc["num_visible_bs"] == 2
    assert doc["peb_m"] > 0
    assert doc["oeb_deg"] > 0
    assert len(doc["paths"]) == doc["num_paths"]
    path = doc["paths"][0]
    assert {"bs", "subarray", "aod_az_deg", "aoa_el_deg", "delay_ns"} <= set(path)


def test_bounds_non_localizable_exit_code(capsys):
    # Planar UE flat on its back sees no ceiling BS.
    code, out, _ = run(
        capsys, "bounds", "--preset", "planar-2bs",
        "--position", "0,0,0", "--orientation", "0,90,0",
    )
    assert code == EXIT_NOT_LOCALIZABLE
    doc = json.loads(out)
    assert doc["classification"] == "no_los"
    assert doc["peb_m"] is None
    assert doc["paths"] == []


def test_bounds_far_pose_inside_the_float_range_is_a_result(capsys):
    # |v|^3 in the state Jacobian overflows past 5.6e102 m, |v|^2 only
    # past 1.3e154 m.
    code, out, _ = run(
        capsys, "bounds", "--preset", "cuboidal-2bs",
        "--position", "1e120,1e120,1", "--orientation", "0,0,0",
    )
    assert code == EXIT_NOT_LOCALIZABLE
    assert json.loads(out)["num_paths"] > 0


def test_bounds_rejects_malformed_pose(capsys):
    code, _, err = run(
        capsys, "bounds", "--preset", "planar-2bs",
        "--position", "1,2", "--orientation", "0,0,0",
    )
    assert code == EXIT_CONFIG_ERROR
    assert "--position" in err


def test_negative_coordinates_parse(capsys):
    code, out, _ = run(
        capsys, "bounds", "--preset", "cuboidal-2bs",
        "--position", "-1,-2,0.5", "--orientation", "0,-90,45",
    )
    assert code in (EXIT_OK, EXIT_NOT_LOCALIZABLE)
    assert json.loads(out)["position_m"] == [-1.0, -2.0, 0.5]


def test_config_file_and_seed_override(tmp_path, capsys):
    from thzloc import preset, serialize_config

    path = tmp_path / "scene.yaml"
    path.write_text(serialize_config(preset("cuboidal-2bs")))
    code, out, _ = run(
        capsys, "bounds", "--config", str(path), "--seed", "7",
        "--position", "1,2,0", "--orientation", "0,-90,45",
    )
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 7


def test_bad_config_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("bs: [")
    code, _, err = run(
        capsys, "bounds", "--config", str(path),
        "--position", "0,0,0", "--orientation", "0,0,0",
    )
    assert code == EXIT_CONFIG_ERROR
    assert err.count("\n") == 1 and err.startswith("thzloc: error: scenario file is not valid YAML")


def _scene_file(path, section, key, value):
    """path holding cuboidal-2bs with one key of a section set to value:
    a file, since ScenarioConfig refuses such a value when it is built."""
    doc = config_to_mapping(preset("cuboidal-2bs"))
    doc[section][key] = value
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


@pytest.mark.parametrize("key, value", [
    ("power_dbm", 1e300), ("noise_psd_dbm_hz", 1e300), ("noise_psd_dbm_hz", -1e300),
    ("noise_figure_db", -1e300), ("carrier_hz", 1e-300), ("bandwidth_hz", 1e300),
    ("bandwidth_hz", 1e-300), ("power_dbm", -1e300),
])
def test_signal_values_out_of_the_float_range_are_config_errors(tmp_path, capsys, key, value):
    # Each overflows a power, the SNR scale, the wavelength or the tone
    # factor, or underflows one to 0; -1e300 dBm would read as comm_only.
    path = _scene_file(tmp_path / "scene.yaml", "signal", key, value)
    code, out, err = run(
        capsys, "bounds", "--config", str(path),
        "--position", "1,1,1", "--orientation", "0,-90,45",
    )
    assert (code, out) == (EXIT_CONFIG_ERROR, "")
    assert err.count("\n") == 1 and err.startswith("thzloc: error: signal ")
    assert key in err and "Traceback" not in err


def _cuboidal_2bs_with(key, value):
    """cuboidal-2bs with bs[0].panel.spacing_wl or a signal key set to value."""
    config = preset("cuboidal-2bs")
    if key == "spacing_wl":
        first = config.bs[0]
        first = dataclasses.replace(first, panel=dataclasses.replace(first.panel, spacing_wl=value))
        return dataclasses.replace(config, bs=(first,) + config.bs[1:])
    return dataclasses.replace(config, signal=dataclasses.replace(config.signal, **{key: value}))


@pytest.mark.parametrize("key, value", [
    ("spacing_wl", 1e300), ("power_dbm", 3000.0), ("carrier_hz", 1e-299),
])
def test_values_that_overflow_the_information_are_config_errors(tmp_path, capsys, key, value):
    # Each passes the parse-time scale checks of the signal, then overflows
    # a path's information, in bs[0]'s steering or in the SNR and path gain
    # scales; no RuntimeWarning (an error in this suite) may escape either.
    path = tmp_path / "scene.yaml"
    path.write_text(serialize_config(_cuboidal_2bs_with(key, value)))
    code, out, err = run(
        capsys, "bounds", "--config", str(path),
        "--position", "1,1,1", "--orientation", "0,-90,45",
    )
    assert (code, out) == (EXIT_CONFIG_ERROR, "")
    assert err.count("\n") == 1 and err.startswith("thzloc: error: ")
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("spacing_wl", 1e300), ("power_dbm", 3000.0)])
def test_validate_fails_the_checks_whose_figures_overflow(tmp_path, capsys, key, value):
    # The path FIMs path_fim_fd compares are not finite here; a NaN error
    # must fail the check, not read as 0, and numpy must not warn.
    path = tmp_path / "scene.yaml"
    path.write_text(serialize_config(_cuboidal_2bs_with(key, value)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "validate", "--config", str(path), "--trials", "2")
    assert code in (EXIT_VALIDATION_FAILED, EXIT_CONFIG_ERROR)
    assert "FAIL path_fim_fd" in out and "PASS path_fim_fd" not in out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_bounds_refuses_a_clock_bias_whose_delays_overflow(tmp_path, capsys):
    path = _scene_file(tmp_path / "scene.yaml", "sim", "clock_bias_s", 1e300)
    code, out, err = run(
        capsys, "bounds", "--config", str(path),
        "--position", "1,1,1", "--orientation", "0,-90,45",
    )
    assert (code, out) == (EXIT_CONFIG_ERROR, "")
    assert err.count("\n") == 1 and err.startswith("thzloc: error: sim.clock_bias_s ")


def test_bounds_writes_no_json_that_strict_readers_refuse(tmp_path, capsys, monkeypatch):
    # A result whose path distance is inf, as the kernel never returns, is
    # an error in the strict JSON: neither stdout nor --out gets a byte.
    def far(config, pose):
        result = coverage.evaluate_pose(config, pose)
        first = dataclasses.replace(result.path_params[0], distance=np.inf)
        return dataclasses.replace(result, path_params=(first,) + result.path_params[1:])

    monkeypatch.setattr(cli, "evaluate_pose", far)
    out = tmp_path / "bounds.json"
    out.write_text("kept\n")
    for target in ("-", str(out)):
        with pytest.raises(ValueError, match="Out of range float values"):
            main(["bounds", "--preset", "cuboidal-2bs", "--out", target,
                  "--position", "1,1,1", "--orientation", "0,-90,45"])
        assert capsys.readouterr().out == ""
    assert out.read_text() == "kept\n"


def test_missing_config_file_exit_code(capsys):
    code, _, err = run(
        capsys, "bounds", "--config", "/nonexistent.yaml",
        "--position", "0,0,0", "--orientation", "0,0,0",
    )
    assert code == EXIT_CONFIG_ERROR
    assert "cannot read" in err


def test_map_csv_structure(capsys):
    code, out, err = run(
        capsys, "map", "--preset", "cuboidal-2bs", "--grid", "-10,10,5",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("# thzloc")
    assert lines[1].startswith("# scenario")
    assert lines[2] == "x_m,y_m,peb_m,oeb_deg,classification,num_paths"
    assert len(lines) == 3 + 25  # 5x5 grid
    first = lines[3].split(",")
    assert first[0] == "-10" and first[1] == "-10"
    assert first[4] == "localizable"
    assert "cells" in err  # run report goes to stderr, not into the CSV


def test_map_grid_ends_inside_the_requested_range(capsys):
    code, out, _ = run(
        capsys, "map", "--preset", "cuboidal-2bs", "--grid=-10,10,3",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3 + 49  # -10, -7, ..., 8 on both axes
    assert lines[-1].split(",")[:2] == ["8", "8"]


def test_orient_sweep_csv_structure(capsys):
    code, out, _ = run(
        capsys, "orient-sweep", "--preset", "planar-2bs", "--step", "120",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[2] == "beta_deg,gamma_deg,peb_m,oeb_deg,classification,num_paths"
    assert len(lines) == 3 + 16  # 0..360 at 120-degree steps, both axes


def test_coverage_csv_structure(capsys):
    code, out, _ = run(
        capsys, "coverage", "--preset", "planar-2bs", "--trials", "25",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[2] == "threshold_m,exceedance"
    assert lines[-1].startswith("# outage_fraction")
    assert lines[-1].endswith("trials 25")
    assert len(lines) == 3 + 60 + 1


def test_coverage_oeb_metric_header(capsys):
    code, out, _ = run(
        capsys, "coverage", "--preset", "planar-2bs", "--trials", "10",
        "--metric", "oeb",
    )
    assert code == EXIT_OK
    assert out.strip().split("\n")[2] == "threshold_deg,exceedance"


def test_output_file_and_rerun_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for target in (out_a, out_b):
        code, stdout, _ = run(
            capsys, "coverage", "--preset", "planar-2bs", "--trials", "30",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert stdout == ""
    assert out_a.read_bytes() == out_b.read_bytes()


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "cuboidal-2bs", "--trials", "5")
    assert code == EXIT_OK
    lines = [line for line in out.strip().split("\n") if line]
    assert lines and all(line.startswith("PASS") for line in lines)


def test_validate_fails_when_the_path_fim_loses_its_delay_scale(capsys, monkeypatch):
    # Dropping 2 pi from the delay factor of the per-path FIM changes every
    # bound; the path_fim_fd line must see it and the command exit 1.
    def tone_gram_without_two_pi(config):
        f_k = config.subcarrier_offsets_hz()
        tones = np.ones((f_k.size, 5), dtype=complex)
        tones[:, 4] = -1j * f_k
        return tones.conj().T @ tones

    monkeypatch.setattr(crb, "_tone_gram", tone_gram_without_two_pi)
    checks = run_validation(preset("cuboidal-2bs"), trials=5)
    verdicts = {name: passed for name, passed, _ in checks}
    assert verdicts.pop("path_fim_fd") is False
    assert all(verdicts.values())
    code, out, _ = run(capsys, "validate", "--preset", "cuboidal-2bs", "--trials", "5")
    assert code == EXIT_VALIDATION_FAILED
    assert "FAIL path_fim_fd" in out


@pytest.mark.parametrize("trials", [0, validate.MAX_TRIALS + 1])
def test_run_validation_refuses_trials_outside_its_bounds(monkeypatch, trials):
    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(validate, "check_state_jacobian", ran)
    with pytest.raises(ValueError, match=f"trials must be from 1 to {validate.MAX_TRIALS}"):
        next(run_validation(preset("cuboidal-2bs"), trials=trials))


@pytest.mark.parametrize("trials", [0, validate.MAX_TRIALS + 1])
def test_run_validation_refuses_bad_trials_when_called(trials):
    # The check comes before any iterator is handed back.
    with pytest.raises(ValueError, match=f"trials must be from 1 to {validate.MAX_TRIALS}"):
        run_validation(preset("cuboidal-2bs"), trials=trials)


def test_config_and_preset_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main([
            "bounds", "--preset", "planar-2bs", "--config", "x.yaml",
            "--position", "0,0,0", "--orientation", "0,0,0",
        ])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bounds", "--preset", "planar-2bs", "--position", "0,0,0", "--orientation", "0,0,0"],
    ["validate", "--preset", "planar-2bs", "--trials", "1"],
], ids=["bounds", "validate"])
def test_threads_is_unknown_to_the_commands_that_start_no_process(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coverage", "--preset", "planar-2bs", "--trials", "5", "--threads", "0"], "--threads"),
        (["coverage", "--preset", "planar-2bs", "--trials", "5", "--threads", "-2"], "--threads"),
        (["coverage", "--preset", "planar-2bs", "--trials", "0"], "--trials"),
        (["orient-sweep", "--preset", "planar-2bs", "--step", "0"], "--step"),
        (["map", "--preset", "planar-2bs", "--grid", "0,1,0"], "--grid"),
        (["validate", "--preset", "planar-2bs", "--trials", "0"], "--trials"),
        (
            ["bounds", "--preset", "planar-2bs", "--seed", "-1",
             "--position", "1,1,1", "--orientation", "0,0,0"],
            "sim.seed",
        ),
        (["map", "--preset", "planar-2bs", "--grid=-inf,10,1"], "--grid"),
        (["map", "--preset", "planar-2bs", "--grid=nan,10,1"], "--grid"),
        (["map", "--preset", "planar-2bs", "--grid", "-inf,10,1"], "--grid"),
        (["map", "--preset", "planar-2bs", "--z", "nan"], "--z"),
        (
            ["bounds", "--preset", "planar-2bs", "--position", "nan,1,1",
             "--orientation", "0,0,0"],
            "--position",
        ),
        (
            ["bounds", "--preset", "planar-2bs", "--position", "1,1,1",
             "--orientation", "nan,0,0"],
            "--orientation",
        ),
        (["orient-sweep", "--preset", "planar-2bs", "--position", "inf,0,0"], "--position"),
        (["orient-sweep", "--preset", "planar-2bs", "--alpha", "inf"], "--alpha"),
        (["orient-sweep", "--preset", "planar-2bs", "--step", "inf"], "--step"),
        # Empty and runaway grids, refused before any cell is allocated.
        (["map", "--preset", "planar-2bs", "--grid", "10,-10,1"], "no cells"),
        (["map", "--preset", "planar-2bs", "--grid", "0,1,1e-9"], "more than 1000000"),
        (["orient-sweep", "--preset", "planar-2bs", "--step", "1e-9"], "more than 1000000"),
        # No pool of 5,000 processes for 10 trials.
        (["coverage", "--preset", "planar-2bs", "--trials", "10", "--threads", "5000"], "--threads"),
        # An --out that cannot be written, refused before the run.
        (
            ["bounds", "--preset", "planar-2bs", "--position", "1,1,1",
             "--orientation", "0,0,0", "--out", "/no/such/dir/x.json"],
            "--out",
        ),
        (["map", "--preset", "planar-2bs", "--out", "/no/such/dir/x.csv"], "--out"),
        (["orient-sweep", "--preset", "planar-2bs", "--out", "."], "--out"),
        (["coverage", "--preset", "planar-2bs", "--out", os.curdir], "--out"),
        (["coverage", "--preset", "planar-2bs", "--out", ""], "--out"),
        # A subarray 0.1 nm from a BS it sees: a degenerate pose, not a crash.
        (
            ["bounds", "--preset", "cuboidal-2bs", "--orientation", "0,0,0",
             "--position", "-10.550000000089444,-10.5,4.999999999955278"],
            "coincide",
        ),
        # Poses so far out that |v|^2 overflows, the second also v.axis.
        (
            ["bounds", "--preset", "cuboidal-2bs", "--orientation", "0,0,0",
             "--position", "1e200,1e200,1"],
            "float range",
        ),
        (
            ["bounds", "--preset", "cuboidal-2bs", "--orientation", "30,30,30",
             "--position=1.7e308,-1.7e308,1"],
            "float range",
        ),
        (["map", "--preset", "cuboidal-2bs", "--grid=0,1e300,1e299"], "float range"),
        # A cell count past the float range.
        (["orient-sweep", "--preset", "planar-2bs", "--step", "1e-300"], "inf cells"),
        # Trial counts just over their bounds, refused before any trial runs.
        (
            ["coverage", "--preset", "planar-2bs", "--trials", str(coverage.MAX_TRIALS + 1)],
            f"at most {coverage.MAX_TRIALS}",
        ),
        (
            ["validate", "--preset", "planar-2bs", "--trials", str(validate.MAX_TRIALS + 1)],
            f"at most {validate.MAX_TRIALS}",
        ),
    ],
)
def test_bad_counts_and_steps_are_config_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG_ERROR
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("thzloc: error:")
    assert flag in err and "Traceback" not in err


def test_refused_out_is_checked_before_the_run_and_keeps_its_file(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("evaluate_pose", "position_field", "orientation_field", "coverage_ccdf"):
        monkeypatch.setattr(cli, name, no_run)
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "dir", tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"):
        (tmp_path / "file").write_text("kept\n")
        for argv in (["coverage", "--trials", "10"], ["map"], ["orient-sweep"]):
            code, _, err = run(capsys, *argv, "--preset", "planar-2bs", "--out", str(out))
            assert code == EXIT_CONFIG_ERROR and err.count("\n") == 1
    # A refusal for another reason leaves an existing --out file as it was.
    code, _, _ = run(capsys, "coverage", "--preset", "planar-2bs", "--trials", "0",
                     "--out", str(tmp_path / "file"))
    assert code == EXIT_CONFIG_ERROR
    assert (tmp_path / "file").read_text() == "kept\n"


def test_cli_import_leaves_out_the_process_pool_and_validation():
    # Only --threads above 1 needs child processes and their pipes, only
    # `validate` the checks and their oracles; each is imported where it is used.
    lazy = ("multiprocessing", "multiprocessing.connection", "thzloc.validate", "thzloc.oracles")
    code = f"import sys, thzloc.cli; print([m for m in {lazy!r} if m in sys.modules])"
    src = str(Path(thzloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["coverage", "--preset", "planar-2bs", "--trials", "100"], ""),
        (["validate", "--preset", "cuboidal-3bs", "--trials", "5"], "1"),
    ],
)
def test_a_reader_that_leaves_early_ends_the_run_quietly(argv, unbuffered):
    # stdout is a pipe whose read end is closed, as in `thzloc ... | head -1`
    # once head has read its line.  The write that fails comes at the final
    # flush when stdout is buffered, and mid-run when it is not.
    src = str(Path(thzloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "thzloc.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == EXIT_OK, done.stderr
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
