"""Monte-Carlo localization coverage and deterministic field sweeps.

Coverage is the probability that the position (or orientation) error bound
stays below a threshold when the UE pose is drawn at random.  The
complementary empirical CCDF is reported on a fixed log-spaced threshold
grid.  Poses without a computable bound (no visible path, or singular
information) carry bound +inf and accumulate in the curve's floor, the
outage fraction.  Field grids report bounds of localizable cells only, so
cells that see fewer than two BSs skip the beam layer.

Per-trial randomness is counter-based: trial t draws its pose from the
beam layer's keyed Philox with spawn key (t,) and its beamformers with
(t, bs, subarray), so any trial can be recomputed in isolation and adding
a BS leaves all other draws untouched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import keyed_words, spawn_keys
from .crb import LOCALIZABLE, BoundResult, evaluate_batch
from .errors import ConfigError
from .geometry import EulerAngles, Pose, euler_to_rotation
from .scenario import ScenarioConfig

PEB_THRESHOLDS_M = np.logspace(-3.0, 3.0, 60)
OEB_THRESHOLDS_DEG = np.logspace(-3.0, 2.0, 60)
# Metric name: (BoundTable column, threshold grid).
_METRICS = {"peb": ("peb_m", PEB_THRESHOLDS_M), "oeb": ("oeb_deg", OEB_THRESHOLDS_DEG)}

# Poses per evaluate_batch call; bounds the kernel's per-path arrays.
_POSE_CHUNK = 64
# Most cells a position or orientation field may hold; the default 5 deg
# orientation sweep has 5,329.
MAX_FIELD_CELLS = 10**6
# Most trials of a coverage run: about 15 min in one process on cuboidal-4bs
# at 0.93 ms per trial (2-core x86-64, one OpenBLAS thread).
MAX_TRIALS = 10**6
# Most processes a run may ask for, the calling one included; a run starts
# all its child processes at once.
MAX_WORKERS = 64
# Relative tolerance of a grid's end point.
_AXIS_SLACK = 1e-9


@dataclass(frozen=True)
class PoseDistribution:
    """Independent uniform ranges for position (m) and Euler angles (deg)."""

    x_m: tuple[float, float] = (-10.0, 10.0)
    y_m: tuple[float, float] = (-10.0, 10.0)
    z_m: tuple[float, float] = (0.0, 5.0)
    angles_deg: tuple[float, float] = (0.0, 360.0)

    @functools.cached_property
    def _low_and_span(self) -> np.ndarray:
        low, high = np.array((self.x_m, self.y_m, self.z_m) + (self.angles_deg,) * 3, float).T
        with np.errstate(over="ignore", invalid="ignore"):
            span = high - low
        if not np.isfinite(span).all():
            raise OverflowError(f"pose ranges {self} exceed the float range")
        if np.signbit(span).any():
            raise ValueError(f"pose ranges {self} need low <= high")
        return np.array([[low], [span]])


_POSES = PoseDistribution()


def sample_poses(distribution: PoseDistribution, seed: int, trials) -> list[Pose]:
    """Poses of the given trials: trial t reads six words w of the keyed
    Philox with spawn key (t,), and x, y, z, alpha, beta and gamma are
    low + (high - low) * ((w >> 11) * 2^-53), as Generator.uniform draws
    and refuses them, so each pose depends on (seed, trial) alone.  The
    rotations come from one euler_to_rotation call.  tests/test_coverage.py
    pins the poses against the per-trial SeedSequence and Generator code
    of tests/oracles.py."""
    keys = spawn_keys(seed, trials)
    low, span = distribution._low_and_span
    words = np.array([keyed_words(key, 6) for key in keys.tolist()], dtype=np.uint64).reshape(-1, 6)
    values = low + span * ((words >> np.uint64(11)) * 2.0**-53)
    rotations = euler_to_rotation(EulerAngles(*values.T[3:]))
    return [Pose(position, rotation) for position, rotation in zip(values[:, :3], rotations)]


def sample_pose(distribution: PoseDistribution, seed: int, trial: int) -> Pose:
    """Pose of one trial from the beam layer's keyed Philox, spawn key (trial,)."""
    return sample_poses(distribution, seed, [trial])[0]


def evaluate_pose(
    config: ScenarioConfig, pose: Pose, seed: int | None = None, trial: int = 0
) -> BoundResult:
    """Bounds for one explicit UE pose under a scenario."""
    return evaluate_batch(config.realize(), [pose], [trial], seed).result(0)


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


def _evaluate_share(config, poses_of, seed, columns, share, localizable_only=False):
    """The given BoundTable columns of the poses of the indices in share, a
    range, trial i for index i, by column name; poses_of(indices) builds
    each _POSE_CHUNK's poses, and only these columns outlive its table, so
    no run holds or sends the per-path rows."""
    scn = config.realize()
    out = {}
    for first in range(0, len(share), _POSE_CHUNK):
        trials = share[first : first + _POSE_CHUNK]
        table = evaluate_batch(scn, poses_of(trials), trials, seed, localizable_only=localizable_only)
        for name in columns:
            if name not in out:
                out[name] = np.empty(len(share), dtype=getattr(table, name).dtype)
            out[name][first : first + len(trials)] = getattr(table, name)
    return out


def _send_share(worker, share, connection) -> None:
    # A child process's whole run: its columns, or the exception it raised.
    try:
        result = (True, worker(share))
    except Exception as exc:
        result = (False, exc)
    connection.send(result)
    connection.close()


def _run_shares(worker, count: int, threads: int) -> dict:
    """worker(share) over the indices [0, count), its columns in index
    order.  With N = min(threads, count) > 1, share k is range(k, count, N)
    and its values go to column[k::N]: this process computes share 0, and
    N - 1 child processes send theirs back over pipes.

    A planar sweep's localizable orientations lie in bands, and
    interleaving deals each band out to every process, where contiguous
    ranges gave one process most of the beam work.  The children are
    daemonic multiprocessing processes of the platform's default start
    method, and their columns travel pickled.  On any error, this
    process's share's included, every child is terminated and joined; a
    child that exits without a result is an error naming its exit code.
    """
    if not 1 <= threads <= MAX_WORKERS:
        raise ValueError(f"threads must be from 1 to {MAX_WORKERS}, got {threads}")
    processes = min(threads, count)
    if processes <= 1:
        return worker(range(count))
    # Imported here: a serial run does not need it.
    import multiprocessing

    context = multiprocessing.get_context()
    children = []
    try:
        for k in range(1, processes):
            receive, send = context.Pipe(duplex=False)
            share = range(k, count, processes)
            child = context.Process(target=_send_share, args=(worker, share, send), daemon=True)
            child.start()
            # Only the child holds the send end, so recv sees EOF if it dies.
            send.close()
            children.append((child, receive))
        parts = [worker(range(0, count, processes))]
        for child, receive in children:
            # Read before join: a child blocks in send until its columns are read.
            try:
                ok, result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"child process exited with code {child.exitcode} before sending its columns"
                ) from None
            if not ok:
                raise result
            parts.append(result)
            child.join()
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
            child.join()
    out = {name: np.empty(count, dtype=values.dtype) for name, values in parts[0].items()}
    for k, part in enumerate(parts):
        for name, values in part.items():
            out[name][k::processes] = values
    return out


def coverage_ccdf(
    config: ScenarioConfig,
    trials: int,
    metric: str = "peb",
    seed: int | None = None,
    threads: int = 1,
) -> CcdfCurve:
    """Monte-Carlo CCDF of PEB (meters) or OEB (degrees) over poses drawn
    from the default PoseDistribution().

    Args:
        config: scenario to evaluate.
        trials: number of random poses.
        metric: 'peb' or 'oeb'; selects the threshold grid as well.
        seed: overrides the scenario seed when given.
        threads: processes, the calling one included; results are
            independent of this value.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    column, thresholds = _METRICS[metric]
    run_seed = config.seed if seed is None else seed
    poses_of = functools.partial(sample_poses, _POSES, run_seed)
    worker = functools.partial(_evaluate_share, config, poses_of, run_seed, [column])
    values = _run_shares(worker, trials, threads)[column]
    # values > t just where -values < -t: the sorted negated values left of -t.
    exceedance = np.sort(-values).searchsorted(-thresholds) / trials
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
    classification array carries the label for those cells.  Cells that see
    fewer than two BSs carry no computed bound: they draw no beams.
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
    # A Python float, so a count past the float range is inf without warnings.
    points = float(np.floor((stop - start) / step * (1.0 + _AXIS_SLACK))) + 1.0
    where = f"grid from {start:g} to {stop:g} in steps of {step:g}"
    if not points >= 1.0:
        raise ConfigError(f"{where} has no cells")
    if points * points > MAX_FIELD_CELLS:
        raise ConfigError(f"{where} has {points * points:.3g} cells, more than {MAX_FIELD_CELLS}")
    return start + step * np.arange(int(points))


def _assemble_grid(config, axis_names, first, second, poses_of, threads) -> FieldGrid:
    # Each cell gets its own beamformer draw, like one Monte-Carlo trial;
    # cells that see fewer than two BSs are reported as NaN, so draw none.
    columns = ("peb_m", "oeb_deg", "classification", "num_paths")
    worker = functools.partial(
        _evaluate_share, config, poses_of, config.seed, columns, localizable_only=True
    )
    values = _run_shares(worker, len(first) * len(second), threads)
    peb, oeb, classification, num_paths = (
        values[column].reshape(len(first), len(second)) for column in columns
    )
    outside = classification != LOCALIZABLE
    peb[outside] = oeb[outside] = np.nan
    return FieldGrid(axis_names, (first, second), peb, oeb, classification, num_paths)


def _position_poses(xs, ys, rotation, z_m, cells):
    rows, cols = np.divmod(np.asarray(cells), len(ys))
    return [Pose(np.array([x, y, z_m]), rotation) for x, y in zip(xs[rows], ys[cols])]


def position_field(
    config: ScenarioConfig,
    orientation: EulerAngles,
    z_m: float = 0.0,
    grid: tuple[float, float, float] = (-10.0, 10.0, 1.0),
    threads: int = 1,
) -> FieldGrid:
    """Bounds over an x-y grid at fixed height and orientation, whose
    rotation matrix is built once for all cells."""
    xs = _axis(*grid)
    ys = xs.copy()
    poses_of = functools.partial(_position_poses, xs, ys, euler_to_rotation(orientation), z_m)
    return _assemble_grid(config, ("x_m", "y_m"), xs, ys, poses_of, threads)


def _orientation_poses(betas, gammas, position, alpha_deg, cells):
    rows, cols = np.divmod(np.asarray(cells), len(gammas))
    rotations = euler_to_rotation(EulerAngles(alpha_deg, betas[rows], gammas[cols]))
    return [Pose(position, rotation) for rotation in rotations]


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
    poses_of = functools.partial(_orientation_poses, betas, gammas, position, alpha_deg)
    return _assemble_grid(config, ("beta_deg", "gamma_deg"), betas, gammas, poses_of, threads)
