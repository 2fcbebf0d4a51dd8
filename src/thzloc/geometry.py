"""Rigid-body geometry for a UE carrying planar subarrays in 3D.

Conventions used throughout the package:

* Rotations are 3x3 orthonormal matrices mapping local coordinates to the
  parent frame.  Euler angles (alpha, beta, gamma) are in degrees and
  compose as R = Rz(gamma) @ Ry(beta) @ Rx(alpha).
* Every antenna panel radiates and receives along its local +X axis; panel
  elements lie in the local Y-Z plane.
* Azimuth/elevation of a unit direction u are az = atan2(u_y, u_x) and
  el = asin(u_z), both in radians internally.
* Delays are in seconds, positions and offsets in meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class EulerAngles:
    """Z-Y-X Euler angles in degrees; each field a number or an array."""

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray


# sin and cos of k quarter turns; k < 0 indexes from the end, as k mod 4.
_QUARTER = np.array([[0.0, 1.0, 0.0, -1.0], [1.0, 0.0, -1.0, 0.0]])
# Rx, Ry, Rz entries as indices 3 k + i: value k of (0, 1, cos, sin, -sin), angle i.
_ENTRY = 3 * np.array([[[1, 0, 0], [0, 2, 4], [0, 3, 2]],
                       [[2, 0, 3], [0, 1, 0], [4, 0, 2]],
                       [[2, 4, 0], [3, 2, 0], [0, 0, 1]]]) + np.arange(3)[:, None, None]


def euler_to_rotation(angles: EulerAngles) -> np.ndarray:
    """Compose rotation matrices from Z-Y-X Euler angles in degrees.

    The fields broadcast together; the result is Rz(gamma) @ Ry(beta) @
    Rx(alpha), (3, 3) for numbers and (..., 3, 3) for arrays, with exact
    sines and cosines at multiples of 90 degrees.
    """
    try:
        deg = np.array((angles.alpha, angles.beta, angles.gamma), dtype=float)
    except ValueError:  # fields of different shapes
        deg = np.array(np.broadcast_arrays(angles.alpha, angles.beta, angles.gamma), dtype=float)
    shape, deg = deg.shape[1:], deg.reshape(3, -1)
    entries = np.zeros((5,) + deg.shape)
    entries[1] = 1.0
    rad = np.deg2rad(deg)
    # An infinite angle gives NaN entries quietly, as a NaN angle does; the
    # kernel refuses the pose as not finite.
    with np.errstate(invalid="ignore"):
        cos, sin = np.cos(rad, out=entries[2]), np.sin(rad, out=entries[3])
        remainder = np.fmod(deg, 90.0)
    if np.count_nonzero(remainder) < remainder.size:
        exact = remainder == 0.0
        # Mod 4 in float first: a quarter-turn count such as 90 * 2^1000 may
        # not fit an int.
        sin[exact], cos[exact] = _QUARTER[:, np.fmod(deg[exact] / 90.0, 4.0).astype(int)]
    np.negative(sin, out=entries[4])
    # matmul forms each product of a stack as it would a lone pair, so a
    # triple gets the same bits alone or in any batch.
    rot = entries.reshape(15, -1).take(_ENTRY, axis=0).transpose(0, 3, 1, 2)
    rx, ry, rz = np.ascontiguousarray(rot)
    return (rz @ ry @ rx).reshape(shape + (3, 3))


@dataclass(frozen=True)
class Pose:
    """Position and orientation of a rigid body in the global frame."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))


def element_grid(rows: int, cols: int, spacing_m: float) -> np.ndarray:
    """Centered element offsets of a rows-by-cols panel in its local frame.

    Elements lie in the local Y-Z plane: columns step along +Y, rows along
    +Z, row-major element order.  The centroid is exactly zero.

    Returns:
        (rows * cols, 3) array of offsets in meters.
    """
    if rows < 1 or cols < 1:
        raise GeometryError(f"panel needs at least one element, got {rows}x{cols}")
    y = (np.arange(cols) - (cols - 1) / 2.0) * spacing_m
    z = (np.arange(rows) - (rows - 1) / 2.0) * spacing_m
    yy, zz = np.meshgrid(y, z)
    offsets = np.zeros((rows * cols, 3))
    offsets[:, 1] = yy.ravel()
    offsets[:, 2] = zz.ravel()
    return offsets


@dataclass(frozen=True)
class Subarray:
    """One planar subarray rigidly mounted on the UE.

    Attributes:
        offset: subarray center in the UE frame, meters.
        rotation: UE-frame-to-subarray mounting rotation R_n.
        elements: element offsets in the subarray frame, meters.
    """

    offset: np.ndarray
    rotation: np.ndarray
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=float))


# Batched layers.  Every function below works on stacks of vectors and
# matrices along leading axes and sums the three coordinates in one fixed
# order, so a path's result is the same bits whatever batch it is
# evaluated in; the per-path public functions are batches of one.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _rotate(rotation: np.ndarray, vector: np.ndarray) -> np.ndarray:
    # rotation @ vector over the leading axes.
    return (
        rotation[..., 0] * vector[..., 0, None]
        + rotation[..., 1] * vector[..., 1, None]
        + rotation[..., 2] * vector[..., 2, None]
    )


def _compose(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    # first @ second over the leading axes.
    return (
        first[..., :, 0, None] * second[..., None, 0, :]
        + first[..., :, 1, None] * second[..., None, 1, :]
        + first[..., :, 2, None] * second[..., None, 2, :]
    )


def stack_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """(positions (K, 3), rotations (K, 3, 3)) of a sequence of poses."""
    return (
        np.array([p.position for p in poses], dtype=float).reshape(-1, 3),
        np.array([p.rotation for p in poses], dtype=float).reshape(-1, 3, 3),
    )


def stack_mounts(subarrays) -> tuple[np.ndarray, np.ndarray]:
    """(offsets (S, 3), mounting rotations (S, 3, 3)) of the subarrays."""
    return (
        np.array([s.offset for s in subarrays], dtype=float).reshape(-1, 3),
        np.array([s.rotation for s in subarrays], dtype=float).reshape(-1, 3, 3),
    )


def subarray_frames(ue, mounts) -> tuple[np.ndarray, np.ndarray]:
    """(centers (K, S, 3), axes (K, S, 3, 3)) of every subarray of every pose.

    ue and mounts are (positions, rotations) stacks from stack_poses and
    stack_mounts.  A subarray's center is p_ue + R_ue d_n and its axes are
    the columns of R_ue R_n; the first is its boresight.
    """
    ue_pos, ue_rot = ue
    offsets, mount_rot = mounts
    centers = ue_pos[:, None] + _rotate(ue_rot[:, None], offsets)
    return centers, _compose(ue_rot[:, None], mount_rot)


def visibility(bs, pose_frames) -> np.ndarray:
    """Line-of-sight mask of shape (poses, BSs, subarrays).

    bs is a (positions, rotations) stack from stack_poses and pose_frames
    comes from subarray_frames.  The test is the one visible_paths
    documents: v = center - p_bs points against the subarray's boresight
    and along the BS panel's.
    """
    bs_pos, bs_rot = bs
    centers, axes = pose_frames
    v = centers[:, None] - bs_pos[None, :, None]
    # Near the float range a sum may overflow to an inf of the right sign;
    # path_geometry then refuses the distance.
    with np.errstate(over="ignore"):
        facing_bs = _dot(v, axes[:, None, :, :, 0]) < 0.0
        facing_ue = _dot(v, bs_rot[None, :, None, :, 0]) > 0.0
    return facing_bs & facing_ue


def visible_paths(
    bs_poses: list[Pose], ue_pose: Pose, subarrays: list[Subarray]
) -> list[tuple[int, int]]:
    """Indices (m, n) of BS/subarray pairs with line-of-sight.

    A pair is visible when each end lies strictly in the open half-space in
    front of the other end's panel.  Grazing incidence (either inner product
    exactly zero) does not count.

    Returns:
        Pairs sorted by BS index then subarray index.
    """
    frames = subarray_frames(stack_poses([ue_pose]), stack_mounts(subarrays))
    mask = visibility(stack_poses(bs_poses), frames)
    return [(int(m), int(n)) for m, n in zip(*np.nonzero(mask[0]))]


@dataclass(frozen=True)
class PathParams:
    """Geometric channel parameters of one BS-to-subarray path.

    Angles in radians: departure azimuth/elevation in the BS frame, arrival
    azimuth/elevation in the subarray frame.  Delay in seconds includes the
    UE clock bias.
    """

    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    delay: float
    distance: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.aod_az, self.aod_el, self.aoa_az, self.aoa_el, self.delay]
        )


@dataclass(frozen=True)
class PathGeometry:
    """Per-path vectors shared by the angle and Jacobian layers.

    Every array has one leading entry per path: the subarray's mounting
    rotation R_n and offset d_n in the UE frame, v = p_ue + R_ue d_n - p_bs
    and |v|, and then, first for the BS and second for the subarray, the
    global axes as columns (frames, (P, 2, 3, 3)) and v resolved on them
    (local, (P, 2, 3)).
    """

    mount_rotation: np.ndarray
    offset: np.ndarray
    v: np.ndarray
    distance: np.ndarray
    frames: np.ndarray
    local: np.ndarray


def path_geometry(bs, mounts, pose_frames, paths) -> PathGeometry:
    """PathGeometry of the paths (poses, bs_index, sub_index).

    bs and mounts are stacks from stack_poses and stack_mounts, pose_frames
    the poses' subarray_frames.

    Raises:
        GeometryError: if a subarray center coincides with its BS, or lies
            so far from it that the distance is not a finite float.
    """
    owners, bs_index, sub_index = paths
    centers, axes = pose_frames
    v = centers[owners, sub_index] - bs[0][bs_index]
    with np.errstate(over="ignore"):
        distance = np.sqrt(_dot(v, v))
    if (distance < 1e-9).any():
        raise GeometryError("BS and subarray positions coincide")
    if not np.isfinite(distance).all():
        raise GeometryError("BS-to-subarray distance exceeds the float range")
    frames = np.empty((v.shape[0], 2, 3, 3))
    frames[:, 0], frames[:, 1] = bs[1][bs_index], axes[owners, sub_index]
    local = _rotate(frames.swapaxes(-1, -2), v[:, None])
    return PathGeometry(mounts[1][sub_index], mounts[0][sub_index], v, distance, frames, local)


def one_path(bs_pose: Pose, ue_pose: Pose, subarray: Subarray) -> PathGeometry:
    """PathGeometry of the single path from a BS to one subarray."""
    mounts = stack_mounts([subarray])
    frames = subarray_frames(stack_poses([ue_pose]), mounts)
    paths = (np.zeros(1, dtype=int),) * 3
    return path_geometry(stack_poses([bs_pose]), mounts, frames, paths)


def _safe_asin(x: np.ndarray) -> np.ndarray:
    # Clamp only roundoff-scale excursions beyond +/-1.
    size = np.abs(x)
    if (size > 1.0 + 1e-12).any():
        raise GeometryError(f"arcsin argument {size.max()!r} out of range")
    return np.arcsin(np.minimum(np.maximum(x, -1.0), 1.0))


# Departure angles resolve v, arrival angles -v.
_TOWARD = np.array([1.0, -1.0])[:, None]


def path_angles(geo: PathGeometry, clock_bias_s: float = 0.0) -> np.ndarray:
    """(paths, 6) rows of PathParams fields, in their declaration order."""
    toward = geo.local * _TOWARD
    dist = geo.distance
    out = np.empty((dist.shape[0], 6))
    out[:, 0:4:2] = np.arctan2(toward[..., 1], toward[..., 0])
    out[:, 1:4:2] = _safe_asin(toward[..., 2] / dist[:, None])
    out[:, 4] = dist / SPEED_OF_LIGHT + clock_bias_s
    out[:, 5] = dist
    return out


def path_params(
    bs_pose: Pose, ue_pose: Pose, subarray: Subarray, clock_bias_s: float = 0.0
) -> PathParams:
    """Angles and delay of the far-field path from a BS to one subarray.

    The connecting vector is v = p_ue + R_ue d_n - p_bs.  Departure angles
    resolve v in the BS frame; arrival angles resolve -v in the subarray
    frame; the delay is |v| / c plus the clock bias.

    Raises:
        GeometryError: if the subarray center coincides with the BS.
    """
    geo = one_path(bs_pose, ue_pose, subarray)
    return PathParams(*path_angles(geo, clock_bias_s)[0].tolist())
