"""Monte-Carlo localization coverage and deterministic field sweeps.

Coverage is the probability that the position (or orientation) error bound
stays below a threshold when the UE pose is drawn at random.  The
complementary empirical CCDF is reported on a fixed log-spaced threshold
grid.  Poses without a computable bound (no visible path, or singular
information) carry bound +inf and accumulate in the curve's floor, the
outage fraction.

Per-trial randomness is counter-based: trial t draws its pose from
(seed, t) and its beamformers from (seed, t, bs, subarray), so any trial
can be recomputed in isolation and adding a BS leaves all other draws
untouched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .crb import BoundResult, evaluate_batch
from .errors import ConfigError
from .geometry import EulerAngles, Pose, euler_to_rotation
from .scenario import Scenario, ScenarioConfig

PEB_THRESHOLDS_M = np.logspace(-3.0, 3.0, 60)
OEB_THRESHOLDS_DEG = np.logspace(-3.0, 2.0, 60)

# Poses per evaluate_batch call; bounds the kernel's per-path arrays.
_POSE_CHUNK = 64
# Contiguous index ranges per worker process, for load balance.
_RANGES_PER_WORKER = 4
# Most cells a position or orientation field may hold; the default 5 deg
# orientation sweep has 5,329.
MAX_FIELD_CELLS = 10**6
# Relative tolerance of a grid's end point.
_AXIS_SLACK = 1e-9


@dataclass(frozen=True)
class PoseDistribution:
    """Independent uniform ranges for position (m) and Euler angles (deg)."""

    x_m: tuple[float, float] = (-10.0, 10.0)
    y_m: tuple[float, float] = (-10.0, 10.0)
    z_m: tuple[float, float] = (0.0, 5.0)
    angles_deg: tuple[float, float] = (0.0, 360.0)


def sample_pose(distribution: PoseDistribution, seed: int, trial: int) -> Pose:
    """Pose of one trial, reproducible from (seed, trial) alone."""
    key = np.random.SeedSequence(seed, spawn_key=(trial,))
    rng = np.random.Generator(np.random.Philox(key))
    x = rng.uniform(*distribution.x_m)
    y = rng.uniform(*distribution.y_m)
    z = rng.uniform(*distribution.z_m)
    angles = EulerAngles(*(rng.uniform(*distribution.angles_deg) for _ in range(3)))
    return Pose(np.array([x, y, z]), euler_to_rotation(angles))


@functools.lru_cache(maxsize=8)
def _realized(config: ScenarioConfig) -> Scenario:
    return config.realize()


def evaluate_pose(
    config: ScenarioConfig, pose: Pose, seed: int | None = None, trial: int = 0
) -> BoundResult:
    """Bounds for one explicit UE pose under a scenario."""
    return evaluate_batch(_realized(config), [pose], [trial], seed)[0]


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical exceedance curve of a bound metric over random poses."""

    metric: str
    thresholds: np.ndarray
    exceedance: np.ndarray
    trials: int
    outage: float

    def __post_init__(self):
        if np.any(np.diff(self.exceedance) > 0.0):
            raise AssertionError("exceedance must be non-increasing")
        if np.any(self.exceedance < 0.0) or np.any(self.exceedance > 1.0):
            raise AssertionError("exceedance must lie in [0, 1]")
        if self.exceedance[-1] < self.outage:
            raise AssertionError("curve floor cannot undercut the outage fraction")


def _evaluate_range(config: ScenarioConfig, poses_of, seed: int, start: int, stop: int):
    """Results of poses_of(i) for i in [start, stop), trial i each, fed to
    the kernel _POSE_CHUNK poses at a time."""
    scn = _realized(config)
    results = []
    for first in range(start, stop, _POSE_CHUNK):
        trials = range(first, min(first + _POSE_CHUNK, stop))
        results += evaluate_batch(scn, [poses_of(t) for t in trials], trials, seed)
    return results


def _run_ranges(worker, count: int, threads: int) -> list:
    """worker(start, stop) over contiguous ranges covering [0, count),
    concatenated in index order; with threads > 1 in worker processes."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1:
        return worker(0, count)
    # Imported here: the process pool takes about 24 ms to import, and a
    # serial run does not need it.
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, -(-count // (threads * _RANGES_PER_WORKER)))
    starts = range(0, count, size)
    stops = [min(start + size, count) for start in starts]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return [item for part in pool.map(worker, starts, stops) for item in part]


def _trial_values(config, distribution, seed, metric, start, stop) -> list[float]:
    poses_of = functools.partial(sample_pose, distribution, seed)
    return [r.metric(metric) for r in _evaluate_range(config, poses_of, seed, start, stop)]


def coverage_ccdf(
    config: ScenarioConfig,
    trials: int,
    metric: str = "peb",
    seed: int | None = None,
    distribution: PoseDistribution | None = None,
    threads: int = 1,
) -> CcdfCurve:
    """Monte-Carlo CCDF of PEB (meters) or OEB (degrees).

    Args:
        config: scenario to evaluate.
        trials: number of random poses.
        metric: 'peb' or 'oeb'; selects the threshold grid as well.
        seed: overrides the scenario seed when given.
        distribution: pose ranges; defaults to x,y in (-10,10), z in (0,5),
            all three Euler angles in (0,360).
        threads: worker processes; results are independent of this value.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    thresholds = PEB_THRESHOLDS_M if metric == "peb" else OEB_THRESHOLDS_DEG
    if metric not in ("peb", "oeb"):
        raise ValueError(f"unknown metric {metric!r}")
    distribution = distribution or PoseDistribution()
    run_seed = config.seed if seed is None else seed
    worker = functools.partial(_trial_values, config, distribution, run_seed, metric)
    values = np.array(_run_ranges(worker, trials, threads))
    exceedance = np.array([np.count_nonzero(values > t) for t in thresholds]) / trials
    outage = float(np.count_nonzero(np.isinf(values))) / trials
    return CcdfCurve(
        metric=metric,
        thresholds=thresholds.copy(),
        exceedance=exceedance,
        trials=trials,
        outage=outage,
    )


@dataclass(frozen=True)
class FieldGrid:
    """Bounds evaluated on a regular 2D grid of poses.

    peb_m and oeb_deg hold NaN wherever the pose is not localizable; the
    classification array carries the label for those cells.
    """

    axis_names: tuple[str, str]
    axis_values: tuple[np.ndarray, np.ndarray]
    peb_m: np.ndarray
    oeb_deg: np.ndarray
    classification: np.ndarray
    num_paths: np.ndarray


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    # One axis of a square field grid, checked before anything is allocated.
    # The last point does not pass stop, up to a relative _AXIS_SLACK that
    # keeps the end point of steps such as 0.1 that binary cannot hold.
    if not step > 0:
        raise ConfigError(f"grid step must be positive, got {step:g}")
    points = np.floor((stop - start) / step * (1.0 + _AXIS_SLACK)) + 1.0
    where = f"grid from {start:g} to {stop:g} in steps of {step:g}"
    if not points >= 1.0:
        raise ConfigError(f"{where} has no cells")
    if points * points > MAX_FIELD_CELLS:
        raise ConfigError(f"{where} has {points * points:.3g} cells, more than {MAX_FIELD_CELLS}")
    return start + step * np.arange(int(points))


def _field_cells(config: ScenarioConfig, poses_of, start: int, stop: int) -> list[tuple]:
    # Each cell gets its own beamformer draw, like one Monte-Carlo trial.
    cells = []
    for result in _evaluate_range(config, poses_of, config.seed, start, stop):
        good = result.localizable
        cells.append((
            result.peb_m if good else np.nan,
            result.oeb_deg if good else np.nan,
            result.classification,
            result.num_paths,
        ))
    return cells


def _assemble_grid(config, axis_names, first, second, poses_of, threads) -> FieldGrid:
    worker = functools.partial(_field_cells, config, poses_of)
    cells = _run_ranges(worker, len(first) * len(second), threads)
    shape = (len(first), len(second))
    peb = np.array([c[0] for c in cells]).reshape(shape)
    oeb = np.array([c[1] for c in cells]).reshape(shape)
    classification = np.array([c[2] for c in cells], dtype=object).reshape(shape)
    num_paths = np.array([c[3] for c in cells]).reshape(shape)
    return FieldGrid(axis_names, (first, second), peb, oeb, classification, num_paths)


def _position_pose(xs, ys, orientation, z_m, index):
    rotation = euler_to_rotation(orientation)
    x = xs[index // len(ys)]
    y = ys[index % len(ys)]
    return Pose(np.array([x, y, z_m]), rotation)


def position_field(
    config: ScenarioConfig,
    orientation: EulerAngles,
    z_m: float = 0.0,
    grid: tuple[float, float, float] = (-10.0, 10.0, 1.0),
    threads: int = 1,
) -> FieldGrid:
    """Bounds over an x-y grid at fixed height and orientation."""
    xs = _axis(*grid)
    ys = xs.copy()
    poses_of = functools.partial(_position_pose, xs, ys, orientation, z_m)
    return _assemble_grid(config, ("x_m", "y_m"), xs, ys, poses_of, threads)


def _orientation_pose(betas, gammas, position, alpha_deg, index):
    beta = betas[index // len(gammas)]
    gamma = gammas[index % len(gammas)]
    return Pose(
        np.asarray(position, dtype=float),
        euler_to_rotation(EulerAngles(alpha_deg, beta, gamma)),
    )


def orientation_field(
    config: ScenarioConfig,
    position,
    step_deg: float = 5.0,
    alpha_deg: float = 0.0,
    threads: int = 1,
) -> FieldGrid:
    """Bounds over a beta-gamma orientation grid at a fixed position."""
    betas = _axis(0.0, 360.0, step_deg)
    gammas = betas.copy()
    poses_of = functools.partial(_orientation_pose, betas, gammas, position, alpha_deg)
    return _assemble_grid(
        config, ("beta_deg", "gamma_deg"), betas, gammas, poses_of, threads
    )
