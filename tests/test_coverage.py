import contextlib
import functools
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from thzloc import (
    EulerAngles,
    PoseDistribution,
    coverage_ccdf,
    evaluate_pose,
    orientation_field,
    position_field,
    preset,
    sample_pose,
)
from thzloc.coverage import (
    MAX_FIELD_CELLS,
    MAX_WORKERS,
    OEB_THRESHOLDS_DEG,
    PEB_THRESHOLDS_M,
    _axis,
    _run_shares,
    sample_poses,
)
from thzloc import coverage, crb
from thzloc.channel import keyed_beam_rows
from thzloc.crb import COMM_ONLY, LOCALIZABLE, NO_LOS
from thzloc.geometry import Pose, euler_to_rotation

from oracles import sample_pose_oracle


def test_sample_pose_is_reproducible_and_in_range():
    dist = PoseDistribution()
    poses = [sample_pose(dist, seed=9, trial=t) for t in range(200)]
    again = [sample_pose(dist, seed=9, trial=t) for t in range(200)]
    for a, b in zip(poses, again):
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.rotation, b.rotation)
    xs = np.array([p.position for p in poses])
    assert xs[:, 0].min() >= -10 and xs[:, 0].max() <= 10
    assert xs[:, 2].min() >= 0 and xs[:, 2].max() <= 5
    assert len({tuple(p.position) for p in poses}) == 200


def test_sample_pose_ignores_trial_order():
    dist = PoseDistribution(x_m=(-1, 1), y_m=(-1, 1), z_m=(0, 1))
    direct = sample_pose(dist, seed=4, trial=17)
    after_others = sample_pose(dist, seed=4, trial=17)
    np.testing.assert_array_equal(direct.position, after_others.position)
    assert not np.array_equal(
        sample_pose(dist, seed=4, trial=0).position,
        sample_pose(dist, seed=4, trial=1).position,
    )


def _assert_same_poses(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.position.view(np.uint64), b.position.view(np.uint64))
        np.testing.assert_array_equal(a.rotation.view(np.uint64), b.rotation.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 5, 2**70 + 3])
def test_sample_poses_match_the_generator_oracle(seed):
    dist = PoseDistribution()
    want = [sample_pose_oracle(dist, seed, t) for t in range(700)]
    _assert_same_poses(sample_poses(dist, seed, range(700)), want)


def test_sample_poses_match_the_oracle_at_trial_word_boundaries():
    trials = [2**32 - 1, 2**32, 2**40, 2**64 + 5]
    for dist in (PoseDistribution(), PoseDistribution((0, 3), (-2, 2), (1, 4), (0, 360))):
        want = [sample_pose_oracle(dist, 7, t) for t in trials]
        _assert_same_poses(sample_poses(dist, 7, trials), want)
        _assert_same_poses([sample_pose(dist, 7, t) for t in trials], want)


def test_a_chunk_gives_the_poses_of_smaller_batches():
    dist = PoseDistribution()
    chunk = sample_poses(dist, 3, range(64))
    for size in (1, 7):
        starts = range(0, 64, size)[::-1]
        parts = {s: sample_poses(dist, 3, range(s, min(s + size, 64))) for s in starts}
        _assert_same_poses([p for s in sorted(parts) for p in parts[s]], chunk)


@pytest.mark.parametrize(
    "dist, seed, trial",
    [
        (PoseDistribution(x_m=(1.0, -1.0)), 1, 0),
        (PoseDistribution(angles_deg=(360, 0)), 1, 0),
        (PoseDistribution(x_m=(0.0, -0.0)), 1, 0),
        (PoseDistribution(z_m=(0.0, math.inf)), 1, 0),
        (PoseDistribution(y_m=(-1e308, 1e308)), 1, 0),
        (PoseDistribution(x_m=(math.nan, 1.0)), 1, 0),
        (PoseDistribution(angles_deg=(0.0, math.nan)), 1, 0),
        (PoseDistribution(), 1, -1),
        (PoseDistribution(), 1, 1.5),
        (PoseDistribution(), -1, 0),
    ],
)
def test_sample_poses_refuse_what_the_oracle_refuses(dist, seed, trial):
    with pytest.raises(Exception) as want:
        sample_pose_oracle(dist, seed, trial)
    assert want.type in (ValueError, OverflowError, TypeError)
    with pytest.raises(want.type):
        sample_poses(dist, seed, [trial])


def test_threshold_grids():
    assert len(PEB_THRESHOLDS_M) == 60
    assert PEB_THRESHOLDS_M[0] == pytest.approx(1e-3)
    assert PEB_THRESHOLDS_M[-1] == pytest.approx(1e3)
    assert OEB_THRESHOLDS_DEG[-1] == pytest.approx(1e2)


def test_coverage_curve_invariants():
    curve = coverage_ccdf(preset("cuboidal-2bs"), trials=60)
    assert curve.trials == 60
    assert curve.metric == "peb"
    assert np.all(np.diff(curve.exceedance) <= 0)
    assert curve.exceedance.min() >= 0 and curve.exceedance.max() <= 1
    assert curve.exceedance[-1] >= curve.outage
    # A cuboidal UE sees every BS from any pose, so nothing is in outage.
    assert curve.outage == 0.0


@pytest.mark.parametrize("metric, column, grid", [
    ("peb", "peb_m", PEB_THRESHOLDS_M), ("oeb", "oeb_deg", OEB_THRESHOLDS_DEG),
])
def test_exceedance_counts_match_the_threshold_loop(monkeypatch, metric, column, grid):
    # The curve counts the values above each threshold as a loop over the
    # thresholds does: outages (inf), values equal to a threshold or one
    # ulp off it, values beyond both ends of the grid, repeats and NaN.
    values = np.concatenate([
        grid[[0, 7, 7, 31, 59]], np.nextafter(grid[[3, 20]], np.inf),
        np.nextafter(grid[[3, 20]], 0.0), [1e-9, 5e3, 0.5, np.inf, np.inf, np.nan],
    ])
    monkeypatch.setattr(coverage, "_run_shares", lambda worker, count, threads: {column: values})
    curve = coverage_ccdf(preset("planar-2bs"), values.size, metric=metric)
    loop = [np.count_nonzero(values > t) for t in grid]
    assert curve.exceedance.tolist() == [count / values.size for count in loop]
    assert curve.outage == 2 / values.size


@pytest.mark.parametrize("run, count, budget", [
    # The metric's 8 B per trial.
    (lambda cfg: coverage_ccdf(cfg, trials=320), 320, 24),
    # PEB, OEB, label and path count: 32 B per cell.
    (lambda cfg: position_field(cfg, EulerAngles(0, -90, 45), grid=(-10.0, 10.0, 1.0)), 21**2, 64),
], ids=["coverage", "field"])
def test_runs_hold_only_the_columns_they_report(monkeypatch, run, count, budget):
    # Until the curve or grid is built, the chunks' results are all that
    # a run holds per trial, and no per-path rows: they take 450-850 B.
    cfg = preset("planar-2bs")
    held = []

    def measured(worker, count, threads):
        columns = _run_shares(worker, count, threads)
        held.append(tracemalloc.get_traced_memory()[0])
        return columns

    run(cfg)  # builds what every run shares: the beam buffers and caches
    monkeypatch.setattr(coverage, "_run_shares", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(cfg)
    finally:
        tracemalloc.stop()
    # 8 KiB for what a run holds whatever its size.
    assert held[0] - before <= budget * count + 8192


def test_coverage_is_reproducible():
    cfg = preset("planar-2bs")
    a = coverage_ccdf(cfg, trials=40)
    b = coverage_ccdf(cfg, trials=40)
    np.testing.assert_array_equal(a.exceedance, b.exceedance)
    assert a.outage == b.outage


def test_coverage_independent_of_worker_count():
    cfg = preset("planar-2bs")
    serial = coverage_ccdf(cfg, trials=30, threads=1)
    parallel = coverage_ccdf(cfg, trials=30, threads=2)
    np.testing.assert_array_equal(serial.exceedance, parallel.exceedance)
    assert serial.outage == parallel.outage


def test_coverage_seed_override():
    cfg = preset("planar-2bs")
    default_seed = coverage_ccdf(cfg, trials=30)
    same = coverage_ccdf(cfg, trials=30, seed=cfg.seed)
    other = coverage_ccdf(cfg, trials=30, seed=cfg.seed + 1)
    np.testing.assert_array_equal(default_seed.exceedance, same.exceedance)
    assert not np.array_equal(default_seed.exceedance, other.exceedance)


def test_coverage_rejects_bad_arguments():
    with pytest.raises(ValueError):
        coverage_ccdf(preset("planar-2bs"), trials=0)
    with pytest.raises(ValueError):
        coverage_ccdf(preset("planar-2bs"), trials=10, metric="sinr")


@pytest.mark.parametrize("threads", [0, -2])
def test_worker_count_must_be_positive(threads):
    cfg = preset("planar-2bs")
    with pytest.raises(ValueError, match="threads"):
        coverage_ccdf(cfg, trials=5, threads=threads)
    with pytest.raises(ValueError, match="threads"):
        position_field(cfg, EulerAngles(0, 0, 0), grid=(0.0, 1.0, 1.0), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=180.0, threads=threads)


class _InProcessContext:
    """Stands in for the multiprocessing context: a Process runs its target
    in this process when started, and a Pipe hands objects over in memory,
    so a test counts the children a run starts without starting any.
    process is the number of the child whose target runs, else 0."""

    def __init__(self):
        self.started = 0
        self.process = 0

    def Pipe(self, duplex=True):
        items = []
        end = SimpleNamespace(send=items.append, recv=lambda: items.pop(0), close=lambda: None)
        return end, end

    def Process(self, target, args, daemon):
        def start():
            self.started += 1
            self.process = self.started
            target(*args)
            self.process = 0

        return SimpleNamespace(
            start=start, is_alive=lambda: False, join=lambda: None, exitcode=0
        )


def test_pool_starts_at_most_one_worker_per_range(monkeypatch):
    context = _InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
    cfg = preset("planar-2bs")
    with pytest.raises(ValueError, match="threads"):
        coverage_ccdf(cfg, trials=10, threads=5000)
    for call in (
        lambda threads: position_field(cfg, EulerAngles(0, 0, 0), grid=(0.0, 1.0, 1.0), threads=threads),
        lambda threads: orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=180.0, threads=threads),
    ):
        with pytest.raises(ValueError, match="threads"):
            call(MAX_WORKERS + 1)
    assert context.started == 0
    # 10 trials make 10 one-trial shares: this process takes the first and
    # 9 children the others.
    curve = coverage_ccdf(cfg, trials=10, threads=MAX_WORKERS)
    assert context.started == 9
    np.testing.assert_array_equal(curve.exceedance, coverage_ccdf(cfg, trials=10).exceedance)
    # Two shares of 80 indices, as the CLI runs a field with --threads 2.
    assert _run_shares(_indices, 80, 2)["index"].tolist() == list(range(80))
    assert context.started == 10


@pytest.mark.parametrize("threads", [2, 4])
def test_shares_hold_even_parts_of_the_beam_work(monkeypatch, threads):
    # The planar array's localizable orientations lie in bands of the
    # sweep, so no process may get most of the paths that draw beams.
    cfg = preset("planar-2bs")
    serial = orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=30.0)
    weight = np.where(serial.classification == LOCALIZABLE, serial.num_paths, 0).ravel()
    context = _InProcessContext()
    evaluated = [[] for _ in range(threads)]

    def recording(scenario, poses, trials, *args, **kwargs):
        evaluated[context.process].extend(trials)
        return crb.evaluate_batch(scenario, poses, trials, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
    monkeypatch.setattr(coverage, "evaluate_batch", recording)
    orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=30.0, threads=threads)
    assert sorted(sum(evaluated, [])) == list(range(weight.size))
    shares = [weight[indices].sum() / weight.sum() for indices in evaluated]
    assert max(shares) <= 1 / threads + 0.05, shares


def _indices(share):
    return {"index": np.asarray(share)}


def _raise_in_child(parent, share):
    if os.getpid() != parent:
        raise LookupError(f"no columns for share {share.start}")
    return _indices(share)


def _exit_in_child(parent, share):
    if os.getpid() != parent:
        os._exit(3)
    return _indices(share)


def _raise_in_caller(parent, share):
    if os.getpid() == parent:
        raise ArithmeticError("the caller's share failed")
    time.sleep(60.0)
    return _indices(share)


@contextlib.contextmanager
def _within(seconds):
    # Fails a hung run instead of hanging the suite.  Not an OSError, which
    # Process.join would swallow while it waits.
    def expire(signum, frame):
        pytest.fail(f"run took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "worker, error, match",
    [
        # 16 indices over 2 processes: the child's share is 1, 3, ..., 15.
        (_raise_in_child, LookupError, "no columns for share 1"),
        (_exit_in_child, RuntimeError, "exited with code 3"),
        (_raise_in_caller, ArithmeticError, "caller's share"),
    ],
    ids=["child-raises", "child-exits", "caller-raises"],
)
def test_a_failed_range_reaches_the_caller_and_leaves_no_child(worker, error, match):
    began = time.monotonic()
    with _within(30), pytest.raises(error, match=match):
        _run_shares(functools.partial(worker, os.getpid()), 16, 2)
    assert multiprocessing.active_children() == []
    # The sleeping child was ended, not waited for.
    assert time.monotonic() - began < 30.0


def test_child_processes_return_ranges_in_index_order():
    with _within(60):
        for threads in (2, 3, 4):
            for count in range(1, 21):
                got = _run_shares(_indices, count, threads)["index"]
                assert got.tolist() == list(range(count)), (count, threads)
        # 2 MiB of columns: each child's 512 KiB outgrows a pipe's buffer,
        # so it blocks in send until the caller reads it.
        count = 2**18
        got = _run_shares(_indices, count, 4)["index"]
    assert np.array_equal(got, np.arange(count))
    assert multiprocessing.active_children() == []


def test_oeb_metric_uses_degree_thresholds():
    curve = coverage_ccdf(preset("cuboidal-2bs"), trials=20, metric="oeb")
    np.testing.assert_array_equal(curve.thresholds, OEB_THRESHOLDS_DEG)


def test_position_field_shape_and_cells():
    cfg = preset("cuboidal-2bs")
    orientation = EulerAngles(0.0, -90.0, 45.0)
    grid = position_field(cfg, orientation, grid=(-2.0, 2.0, 2.0))
    assert grid.axis_names == ("x_m", "y_m")
    np.testing.assert_array_equal(grid.axis_values[0], [-2.0, 0.0, 2.0])
    assert grid.peb_m.shape == (3, 3)
    # Cell (i, j) must equal a direct evaluation at the same pose and trial.
    from thzloc.geometry import Pose, euler_to_rotation

    index = 1 * 3 + 2  # x = 0, y = 2
    pose = Pose(np.array([0.0, 2.0, 0.0]), euler_to_rotation(orientation))
    direct = evaluate_pose(cfg, pose, trial=index)
    assert grid.peb_m[1, 2] == direct.peb_m
    assert grid.classification[1, 2] == direct.classification


def test_position_field_parallel_matches_serial():
    cfg = preset("cuboidal-2bs")
    orientation = EulerAngles(0.0, -90.0, 45.0)
    serial = position_field(cfg, orientation, grid=(-4.0, 4.0, 4.0), threads=1)
    parallel = position_field(cfg, orientation, grid=(-4.0, 4.0, 4.0), threads=2)
    np.testing.assert_array_equal(serial.peb_m, parallel.peb_m)
    np.testing.assert_array_equal(serial.classification, parallel.classification)


def test_orientation_field_covers_full_circle():
    cfg = preset("cuboidal-2bs")
    grid = orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=90.0)
    assert grid.axis_names == ("beta_deg", "gamma_deg")
    np.testing.assert_array_equal(grid.axis_values[0], [0, 90, 180, 270, 360])
    assert grid.peb_m.shape == (5, 5)
    # Everything is localizable for the cuboidal layout.
    assert np.all(grid.classification == LOCALIZABLE)
    assert np.all(np.isfinite(grid.peb_m))


def test_orientation_field_planar_labels():
    cfg = preset("planar-2bs")
    grid = orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=90.0)
    betas = grid.axis_values[0]
    # At beta = 90 every boresight points straight down, away from the
    # ceiling-mounted BS panels.
    row = grid.classification[betas == 90.0][0]
    assert np.all(row == NO_LOS)
    assert np.all(np.isnan(grid.peb_m[betas == 90.0]))
    labels = set(grid.classification.ravel())
    assert NO_LOS in labels and COMM_ONLY in labels


def test_orientation_field_draws_beams_only_for_cells_it_reports(monkeypatch):
    # A field reports NaN for every cell that is not localizable, so cells
    # that see fewer than two BSs draw no beams; the grid is the one that
    # the default kernel's tables give under the same NaN masking.
    cfg = preset("planar-2bs")
    position = (0.0, 0.0, 0.0)
    angles = _axis(0.0, 360.0, 30.0)
    poses_of = functools.partial(coverage._orientation_poses, angles, angles, position, 0.0)
    cells = range(angles.size**2)
    full = crb.evaluate_batch(cfg.realize(), poses_of(cells), cells, cfg.seed)
    drawn = []

    def counting(keys, *shape):
        drawn.append(len(keys))
        return keyed_beam_rows(keys, *shape)

    monkeypatch.setattr(crb, "keyed_beam_rows", counting)
    grid = orientation_field(cfg, position, step_deg=30.0, threads=1)
    multi = full.num_visible_bs >= 2
    assert (full.num_visible_bs == 1).sum() > multi.sum() > 0
    assert sum(drawn) == full.num_paths[multi].sum()
    outside = full.classification != LOCALIZABLE
    for name, column in (("peb_m", full.peb_m), ("oeb_deg", full.oeb_deg)):
        expected = np.where(outside, np.nan, column).reshape(grid.peb_m.shape)
        assert np.array_equal(getattr(grid, name), expected, equal_nan=True), name
    assert grid.classification.ravel().tolist() == full.classification.tolist()
    assert grid.num_paths.ravel().tolist() == full.num_paths.tolist()


_NAN_POSE = Pose(np.array([np.nan, 0.0, 0.0]), np.eye(3))
_ROTATION = euler_to_rotation(EulerAngles(10.0, 40.0, -30.0))


def _batch_of(matrix):
    # One pose at (2, -1, 1), trial 3, whose rotation is the given matrix.
    pose = Pose(np.array([2.0, -1.0, 1.0]), matrix)
    return lambda cfg: crb.evaluate_batch(cfg.realize(), [pose], [3])


_NOT_A_ROTATION = "UE pose 0 .trial 3. has a matrix that is not a rotation"


@pytest.mark.parametrize("call, match", [
    (lambda cfg: evaluate_pose(cfg, _NAN_POSE), "UE pose 0 .trial 0. is not finite"),
    # The first pose that is not finite is named, not the first pose.
    (lambda cfg: crb.evaluate_batch(cfg.realize(), [sample_pose(PoseDistribution(), 1, 5)] * 2
                                    + [_NAN_POSE], [5, 6, 7]), "UE pose 2 .trial 7. is not finite"),
    (lambda cfg: orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=90.0, alpha_deg=np.nan),
     "UE pose 0 .trial 0. is not finite"),
    (lambda cfg: orientation_field(cfg, (np.inf, 0.0, 0.0), step_deg=90.0),
     "UE pose 0 .trial 0. is not finite"),
    (lambda cfg: position_field(cfg, EulerAngles(0, 0, 0), z_m=np.nan, grid=(0.0, 1.0, 1.0)),
     "UE pose 0 .trial 0. is not finite"),
    # An infinite angle makes NaN entries without a RuntimeWarning.
    (lambda cfg: orientation_field(cfg, (0.0, 0.0, 0.0), step_deg=90.0, alpha_deg=np.inf),
     "UE pose 0 .trial 0. is not finite"),
    (lambda cfg: position_field(cfg, EulerAngles(np.inf, 0, 0), grid=(0.0, 1.0, 1.0)),
     "UE pose 0 .trial 0. is not finite"),
    # Matrices that are not rotations, the reflection with R^T R = I included.
    (_batch_of(0.5 * _ROTATION), _NOT_A_ROTATION),
    (_batch_of(_ROTATION @ np.diag([1.0, 1.0, -1.0])), _NOT_A_ROTATION),
    (_batch_of(np.zeros((3, 3))), _NOT_A_ROTATION),
    (_batch_of(2.0 * _ROTATION), _NOT_A_ROTATION),
], ids=["evaluate_pose", "evaluate_batch", "sweep-alpha", "sweep-position", "map-height",
        "sweep-infinite-alpha", "map-infinite-alpha", "half-rotation", "reflection",
        "zero-matrix", "double-rotation"])
def test_a_pose_that_is_not_finite_is_an_input_error(call, match):
    # Not a pose that sees no BS: the kernel refuses it before visibility.
    # A finite pose whose matrix is not a rotation is refused alike.
    with pytest.raises(ValueError, match=match):
        call(preset("planar-2bs"))


def test_grid_axis_stops_at_its_end():
    # A step that does not divide the range stops short of the end point;
    # one that binary cannot hold keeps it.
    np.testing.assert_array_equal(_axis(0.0, 1.0, 0.6), [0.0, 0.6])
    np.testing.assert_array_equal(_axis(-10.0, 10.0, 3.0), np.arange(-10.0, 9.0, 3.0))
    assert len(_axis(0.0, 0.3, 0.1)) == 4
    fine = _axis(-10.0, 10.0, 0.1)
    assert len(fine) == 201 and fine[-1] == pytest.approx(10.0, abs=1e-12)
    np.testing.assert_array_equal(_axis(0.0, 360.0, 30.0), np.arange(0.0, 361.0, 30.0))


def test_field_rejects_bad_grid():
    for grid, match in [
        ((0.0, 1.0, 0.0), "positive"),
        ((10.0, -10.0, 1.0), "no cells"),
        # About 10^18 cells: refused before the axis is allocated.
        ((0.0, 1.0, 1e-9), "more than"),
    ]:
        with pytest.raises(ValueError, match=match):
            position_field(preset("planar-2bs"), EulerAngles(0, 0, 0), grid=grid)
    with pytest.raises(ValueError, match="more than"):
        orientation_field(preset("planar-2bs"), (0.0, 0.0, 0.0), step_deg=1e-9)
    # The limit admits a square grid of exactly MAX_FIELD_CELLS cells.
    side = math.isqrt(MAX_FIELD_CELLS)
    assert len(_axis(0.0, side - 1.0, 1.0)) == side
    with pytest.raises(ValueError, match="more than"):
        _axis(0.0, float(side), 1.0)
