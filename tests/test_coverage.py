import math

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
from thzloc.coverage import MAX_FIELD_CELLS, OEB_THRESHOLDS_DEG, PEB_THRESHOLDS_M, _axis
from thzloc.crb import COMM_ONLY, LOCALIZABLE, NO_LOS


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
