"""Command-line front end.

Subcommands:
    bounds        error bounds for one UE pose, JSON
    map           bounds over an x-y position grid, CSV
    orient-sweep  bounds over a beta-gamma orientation grid, CSV
    coverage      Monte-Carlo CCDF of a bound metric, CSV
    validate      run built-in consistency checks

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 requested pose is not localizable.  A reader that closes stdout early
ends the run quietly: with the status of a command that had finished, or
0 for one cut off mid-output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .coverage import (
    MAX_TRIALS, MAX_WORKERS, coverage_ccdf, evaluate_pose, orientation_field, position_field,
)
from .errors import ConfigError, GeometryError
from .geometry import EulerAngles, Pose, euler_to_rotation
from .scenario import (
    PRESET_NAMES,
    ScenarioConfig,
    load_config,
    preset,
    scenario_hash,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NOT_LOCALIZABLE = 3


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    _require(all(map(math.isfinite, values)), f"{what} must be finite, got {text!r}")
    return values


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _require_trials(trials: int, most: int) -> None:
    _require(trials >= 1, f"--trials must be at least 1, got {trials}")
    _require(trials <= most, f"--trials must be at most {most}, got {trials}")


def _load_scenario(args) -> ScenarioConfig:
    threads = getattr(args, "threads", 1)  # only the commands that start processes have it
    _require(
        1 <= threads <= MAX_WORKERS, f"--threads must be from 1 to {MAX_WORKERS}, got {threads}"
    )
    if args.config is not None:
        try:
            config = load_config(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    else:
        config = preset(args.preset)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _add_scenario_flags(parser: argparse.ArgumentParser, threads: bool = False) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="scenario YAML file")
    source.add_argument(
        "--preset", choices=PRESET_NAMES, help="built-in scenario by name"
    )
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    if threads:
        parser.add_argument(
            "--threads", type=int, default=1,
            help="processes for the grid cells or trials, this one included: process k "
            f"of N evaluates indices k, k+N, k+2N, ... (1 to {MAX_WORKERS})",
        )


def _check_out(path: str) -> None:
    """Refuse an --out file that cannot be written, without opening it."""
    folder = os.path.dirname(path) or os.curdir
    target = path if os.path.exists(path) else folder
    writable = os.path.isdir(folder) and os.access(target, os.W_OK)
    ok = path == "-" or writable and os.path.basename(path) and not os.path.isdir(path)
    _require(ok, f"--out {path!r} is not a file that can be written")


def _output(path: str):
    """The --out target: stdout for "-", else the file, closed on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _fmt(value: float) -> str:
    return format(value, ".10g")


def _stamp(config: ScenarioConfig) -> str:
    """'scenario <hash> seed <n>', for a CSV header and the stderr report;
    each command hashes its scenario once."""
    return f"scenario {scenario_hash(config)} seed {config.seed}"


def _write_rows(handle, stamp: str, kind: str, header: str, rows) -> None:
    handle.write(f"# thzloc {__version__} {kind}\n")
    handle.write(f"# {stamp}\n")
    handle.write(header + "\n")
    handle.writelines(",".join(row) + "\n" for row in rows)


def _report(stamp: str, message: str) -> None:
    print(f"thzloc: {stamp}: {message}", file=sys.stderr)


def cmd_bounds(args) -> int:
    config = _load_scenario(args)
    position = _parse_floats(args.position, 3, "--position")
    orientation = _parse_floats(args.orientation, 3, "--orientation")
    pose = Pose(np.array(position), euler_to_rotation(EulerAngles(*orientation)))
    result = evaluate_pose(config, pose)
    payload = {
        "scenario": scenario_hash(config),
        "seed": config.seed,
        "position_m": list(position),
        "orientation_deg": list(orientation),
        "classification": result.classification,
        "num_paths": result.num_paths,
        "num_visible_bs": result.num_visible_bs,
        "condition_number": None
        if not np.isfinite(result.condition_number)
        else result.condition_number,
        "peb_m": result.peb_m if result.localizable else None,
        "oeb_deg": result.oeb_deg if result.localizable else None,
        "paths": [
            {
                "bs": bs,
                "subarray": subarray,
                "aod_az_deg": np.rad2deg(params.aod_az),
                "aod_el_deg": np.rad2deg(params.aod_el),
                "aoa_az_deg": np.rad2deg(params.aoa_az),
                "aoa_el_deg": np.rad2deg(params.aoa_el),
                "delay_ns": params.delay * 1e9,
                "distance_m": params.distance,
            }
            for (bs, subarray), params in zip(result.paths, result.path_params)
        ],
    }
    # Strict JSON, encoded before --out is opened: a value past the float range
    # raises ValueError and writes nothing, where json would write Infinity.
    text = json.dumps(payload, indent=2, allow_nan=False)
    with _output(args.out) as handle:
        handle.write(text + "\n")
    return EXIT_OK if result.localizable else EXIT_NOT_LOCALIZABLE


def _grid_rows(grid):
    first, second = grid.axis_values
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            yield (
                _fmt(a),
                _fmt(b),
                _fmt(grid.peb_m[i, j]),
                _fmt(grid.oeb_deg[i, j]),
                str(grid.classification[i, j]),
                str(int(grid.num_paths[i, j])),
            )


def _write_grid(out: str, config: ScenarioConfig, kind: str, grid, started: float) -> int:
    header = ",".join(grid.axis_names + ("peb_m", "oeb_deg", "classification", "num_paths"))
    stamp = _stamp(config)
    with _output(out) as handle:
        _write_rows(handle, stamp, kind, header, _grid_rows(grid))
    _report(stamp, f"{grid.peb_m.size} cells in {time.monotonic() - started:.1f} s")
    return EXIT_OK


def cmd_map(args) -> int:
    config = _load_scenario(args)
    orientation = EulerAngles(*_parse_floats(args.orientation, 3, "--orientation"))
    grid_spec = _parse_floats(args.grid, 3, "--grid")
    _require(grid_spec[2] > 0, f"--grid step must be positive, got {_fmt(grid_spec[2])}")
    _require(math.isfinite(args.z), f"--z must be finite, got {_fmt(args.z)}")
    started = time.monotonic()
    grid = position_field(
        config, orientation, z_m=args.z, grid=grid_spec, threads=args.threads
    )
    return _write_grid(args.out, config, "map", grid, started)


def cmd_orient_sweep(args) -> int:
    config = _load_scenario(args)
    position = _parse_floats(args.position, 3, "--position")
    _require(
        0 < args.step < math.inf, f"--step must be positive and finite, got {_fmt(args.step)}"
    )
    _require(math.isfinite(args.alpha), f"--alpha must be finite, got {_fmt(args.alpha)}")
    started = time.monotonic()
    grid = orientation_field(
        config, position, step_deg=args.step, alpha_deg=args.alpha, threads=args.threads
    )
    return _write_grid(args.out, config, "orient-sweep", grid, started)


def cmd_coverage(args) -> int:
    config = _load_scenario(args)
    _require_trials(args.trials, MAX_TRIALS)
    started = time.monotonic()
    curve = coverage_ccdf(config, trials=args.trials, metric=args.metric, threads=args.threads)
    unit = "m" if args.metric == "peb" else "deg"
    stamp = _stamp(config)
    with _output(args.out) as handle:
        _write_rows(
            handle,
            stamp,
            f"coverage {args.metric}",
            f"threshold_{unit},exceedance",
            (
                (_fmt(t), _fmt(e))
                for t, e in zip(curve.thresholds, curve.exceedance)
            ),
        )
        handle.write(f"# outage_fraction {_fmt(curve.outage)} trials {curve.trials}\n")
    _report(
        stamp,
        f"{curve.trials} trials in {time.monotonic() - started:.1f} s, "
        f"outage {curve.outage:.4f}",
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    # Imported here, with the oracles it loads, since no other command needs it.
    from . import validate

    config = _load_scenario(args)
    _require_trials(args.trials, validate.MAX_TRIALS)
    failures = 0
    for name, passed, detail in validate.run_validation(config, trials=args.trials):
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzloc",
        description="Position and orientation error bounds for THz localization "
        "with arrays of subarrays.",
    )
    parser.add_argument("--version", action="version", version=f"thzloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="bounds for one UE pose (JSON)")
    _add_scenario_flags(p_bounds)
    p_bounds.add_argument("--position", required=True, metavar="X,Y,Z", help="meters")
    p_bounds.add_argument(
        "--orientation", required=True, metavar="A,B,G", help="Euler angles, degrees"
    )
    p_bounds.add_argument("--out", default="-", metavar="PATH")
    p_bounds.set_defaults(func=cmd_bounds)

    p_map = sub.add_parser("map", help="bounds over an x-y grid (CSV)")
    _add_scenario_flags(p_map, threads=True)
    p_map.add_argument(
        "--orientation", default="0,-90,45", metavar="A,B,G", help="Euler angles, degrees"
    )
    p_map.add_argument(
        "--grid", default="-10,10,1", metavar="MIN,MAX,STEP", help="x and y range, meters"
    )
    p_map.add_argument("--z", type=float, default=0.0, help="UE height, meters")
    p_map.add_argument("--out", default="-", metavar="PATH")
    p_map.set_defaults(func=cmd_map)

    p_sweep = sub.add_parser(
        "orient-sweep", help="bounds over a beta-gamma orientation grid (CSV)"
    )
    _add_scenario_flags(p_sweep, threads=True)
    p_sweep.add_argument("--position", default="0,0,0", metavar="X,Y,Z", help="meters")
    p_sweep.add_argument("--step", type=float, default=5.0, help="angle step, degrees")
    p_sweep.add_argument("--alpha", type=float, default=0.0, help="fixed alpha, degrees")
    p_sweep.add_argument("--out", default="-", metavar="PATH")
    p_sweep.set_defaults(func=cmd_orient_sweep)

    p_cov = sub.add_parser("coverage", help="Monte-Carlo CCDF of a metric (CSV)")
    _add_scenario_flags(p_cov, threads=True)
    p_cov.add_argument("--trials", type=int, default=10000)
    p_cov.add_argument("--metric", choices=("peb", "oeb"), default="peb")
    p_cov.add_argument("--out", default="-", metavar="PATH")
    p_cov.set_defaults(func=cmd_coverage)

    p_val = sub.add_parser("validate", help="run built-in consistency checks")
    _add_scenario_flags(p_val)
    p_val.add_argument(
        "--trials", type=int, default=50, help="random cases per numeric check"
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


# Flags whose values may start with a minus sign ("--grid -10,10,1").  argparse
# would read such a value as an unknown option, so fold it into the flag token.
_COORDINATE_FLAGS = ("--position", "--orientation", "--grid")


def _merge_negative_values(argv: list[str]) -> list[str]:
    merged = []
    for token in argv:
        if merged and merged[-1] in _COORDINATE_FLAGS and re.match(r"-([\d.]|inf)", token, re.I):
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_negative_values(list(argv)))
    status = EXIT_OK
    try:
        _check_out(getattr(args, "out", "-"))
        status = args.func(args)
        sys.stdout.flush()
    except (ConfigError, GeometryError) as exc:
        print(f"thzloc: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:
        # Nothing more can reach the reader.  Point stdout at devnull so
        # that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
