import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzloc import (
    EulerAngles,
    GeometryError,
    PathParams,
    Pose,
    Subarray,
    element_grid,
    euler_to_rotation,
    path_params,
    visible_paths,
)
from thzloc.geometry import rot_x, rot_y, rot_z

from oracles import euler_matrix_oracle, forward_model_oracle

angles = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)


@given(angles, angles, angles)
@settings(max_examples=200, deadline=None)
def test_euler_matrix_matches_oracle(alpha, beta, gamma):
    got = euler_to_rotation(EulerAngles(alpha, beta, gamma))
    want = euler_matrix_oracle(alpha, beta, gamma)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_single_axis_rotations_match_oracle():
    for deg in (-37.0, 0.0, 12.5, 90.0, 180.0, 270.0, 361.0):
        np.testing.assert_allclose(rot_x(deg), euler_matrix_oracle(deg, 0, 0), atol=1e-15)
        np.testing.assert_allclose(rot_y(deg), euler_matrix_oracle(0, deg, 0), atol=1e-15)
        np.testing.assert_allclose(rot_z(deg), euler_matrix_oracle(0, 0, deg), atol=1e-15)


def test_axis_aligned_rotations_are_exact():
    # Multiples of 90 degrees must produce exact 0 and +/-1 entries.
    r = euler_to_rotation(EulerAngles(0.0, -90.0, 45.0))
    assert r[2, 0] == 1.0 and r[2, 1] == 0.0 and r[2, 2] == 0.0
    r90 = euler_to_rotation(EulerAngles(0.0, 0.0, 90.0))
    assert np.array_equal(r90, np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def test_rotation_is_orthonormal():
    r = euler_to_rotation(EulerAngles(33.0, -71.0, 140.0))
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-14
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


def test_element_grid_layout():
    spacing = 0.25
    grid = element_grid(3, 4, spacing)
    assert grid.shape == (12, 3)
    assert np.all(grid[:, 0] == 0.0)  # panel plane is local Y-Z
    np.testing.assert_array_equal(grid.mean(axis=0), np.zeros(3))
    # Row-major order: first element at the (-y, -z) corner, columns step +Y.
    np.testing.assert_allclose(grid[0], [0.0, -1.5 * spacing, -1.0 * spacing])
    np.testing.assert_allclose(grid[1] - grid[0], [0.0, spacing, 0.0])
    np.testing.assert_allclose(grid[-1], [0.0, 1.5 * spacing, 1.0 * spacing])


def test_element_grid_single_element():
    np.testing.assert_array_equal(element_grid(1, 1, 0.1), np.zeros((1, 3)))
    with pytest.raises(GeometryError):
        element_grid(0, 4, 0.1)


def _panel(offset, orientation):
    return Subarray(
        offset=np.asarray(offset, dtype=float),
        rotation=euler_to_rotation(EulerAngles(*orientation)),
        elements=element_grid(2, 2, 1e-3),
    )


def test_visibility_face_to_face():
    bs = Pose(np.array([5.0, 0.0, 0.0]), euler_to_rotation(EulerAngles(0, 0, 180)))
    ue = Pose(np.zeros(3), np.eye(3))
    facing = _panel([0, 0, 0], (0, 0, 0))       # boresight +X, toward the BS
    averted = _panel([0, 0, 0], (0, 0, 180))    # boresight -X, away
    assert visible_paths([bs], ue, [facing, averted]) == [(0, 0)]


def test_visibility_grazing_is_excluded():
    # BS exactly in the subarray plane: inner product is zero on the UE side.
    bs = Pose(np.array([0.0, 5.0, 0.0]), euler_to_rotation(EulerAngles(0, 0, -90)))
    ue = Pose(np.zeros(3), np.eye(3))
    assert visible_paths([bs], ue, [_panel([0, 0, 0], (0, 0, 0))]) == []


def test_visibility_requires_both_ends():
    # UE panel faces the BS but sits behind the BS panel's plane.
    bs = Pose(np.array([5.0, 0.0, 0.0]), np.eye(3))  # BS looks along +X too
    ue = Pose(np.zeros(3), np.eye(3))
    assert visible_paths([bs], ue, [_panel([0, 0, 0], (0, 0, 0))]) == []


def test_overhead_path_parameters():
    # BS 10 m above the origin looking straight down, subarray looking up:
    # all four angles zero, delay is the free-space time of flight.
    bs = Pose(np.array([0.0, 0.0, 10.0]), euler_to_rotation(EulerAngles(0, 90, 0)))
    assert np.array_equal(bs.rotation @ [1.0, 0.0, 0.0], [0.0, 0.0, -1.0])
    ue = Pose(np.zeros(3), np.eye(3))
    up = _panel([0, 0, 0], (0, -90, 0))
    params = path_params(bs, ue, up)
    assert params.aod_az == 0.0
    assert params.aod_el == 0.0
    assert params.aoa_az == 0.0
    assert params.aoa_el == 0.0
    assert params.distance == pytest.approx(10.0, abs=1e-12)
    assert params.delay * 1e9 == pytest.approx(33.3564095198152, abs=1e-9)


def test_path_params_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        bs = Pose(rng.uniform(-10, 10, 3), euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3))))
        ue = Pose(rng.uniform(-10, 10, 3), euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3))))
        sub = _panel(rng.uniform(-0.1, 0.1, 3), tuple(rng.uniform(0, 360, 3)))
        bias = rng.uniform(-1e-6, 1e-6)
        got = path_params(bs, ue, sub, bias)
        want, want_dist = forward_model_oracle(
            bs.position, bs.rotation, ue.position, ue.rotation, sub.offset, sub.rotation, bias
        )
        np.testing.assert_allclose(got.as_array(), want, rtol=1e-12, atol=1e-12)
        assert got.distance == pytest.approx(want_dist, rel=1e-12)


def test_path_params_clock_bias_only_shifts_delay():
    bs = Pose(np.array([3.0, -2.0, 5.0]), euler_to_rotation(EulerAngles(0, 90, 135)))
    ue = Pose(np.array([1.0, 1.0, 0.0]), euler_to_rotation(EulerAngles(10, 20, 30)))
    sub = _panel([0.05, 0, 0], (0, 0, 0))
    base = path_params(bs, ue, sub, 0.0)
    shifted = path_params(bs, ue, sub, 2.5e-9)
    assert shifted.delay - base.delay == pytest.approx(2.5e-9, abs=1e-21)
    assert shifted.aoa_az == base.aoa_az and shifted.aod_el == base.aod_el


def test_path_params_rejects_coincident_points():
    bs = Pose(np.zeros(3), np.eye(3))
    ue = Pose(np.zeros(3), np.eye(3))
    with pytest.raises(GeometryError):
        path_params(bs, ue, _panel([0, 0, 0], (0, 0, 0)))


def test_path_params_as_array_order():
    p = PathParams(0.1, 0.2, 0.3, 0.4, 0.5, 1.0)
    np.testing.assert_array_equal(p.as_array(), [0.1, 0.2, 0.3, 0.4, 0.5])
