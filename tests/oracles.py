"""Independent reference implementations used only by the tests.

Everything here is written from the definitions with plain Python loops and
the math module, deliberately avoiding the package's own vectorized code, so
that a bug in the package cannot hide by also being present in the oracle.
The derivative oracles live in ``thzloc.oracles``, which imports nothing
from the package, so ``thzloc validate`` can use them too; the ones the
test modules and the benchmark checks use are re-exported here.  Three
pieces build on the package instead.  ``signal_gradient``, the full
(G, K, 5) signal derivative tensor that the kernel's separable per-path
FIM replaced, builds on ``steering_stack`` and is the reference the
separable form is checked against.  The package's former vectorized
13-entry state Jacobian, which the tangent-space one replaced, is kept in
any floating dtype, with a constraint basis and a Gauss-Jordan inverse of
the same dtype, as the extended-precision reference of the bounds that
``long_double_bounds`` rebuilds.
``compose_paths`` is the one per-path composition of the tests: a pose's
bounds, state FIM and CRB from the package's per-path public functions,
with the per-path FIM function as an argument so that the tensor FIM can
stand in for ``path_fim``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from thzloc.channel import BeamformerSet, draw_beamformers, path_gain, steering_stack
from thzloc.crb import (
    BoundResult,
    _beam_fims,
    classify_localizability,
    constrained_crb,
    constraint_basis,
    error_bounds,
    path_fim,
    state_fim,
    state_jacobian,
)
from thzloc.errors import GeometryError
from thzloc.geometry import (
    SPEED_OF_LIGHT,
    EulerAngles,
    PathGeometry,
    PathParams,
    Pose,
    path_angles,
    path_geometry,
    path_params,
    stack_poses,
    subarray_frames,
    visibility,
    visible_paths,
)
from thzloc.oracles import (  # noqa: F401  (re-exported)
    C_LIGHT,
    constraint_jacobian_oracle,
    fim_from_jacobian,
    forward_model_oracle,
    mean_signal_oracle,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)
from thzloc.scenario import SignalConfig


# --- rotations ---------------------------------------------------------------


def rot_x_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(r), -math.sin(r)],
            [0.0, math.sin(r), math.cos(r)],
        ]
    )


def rot_y_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [math.cos(r), 0.0, math.sin(r)],
            [0.0, 1.0, 0.0],
            [-math.sin(r), 0.0, math.cos(r)],
        ]
    )


def rot_z_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [math.cos(r), -math.sin(r), 0.0],
            [math.sin(r), math.cos(r), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def euler_matrix_oracle(alpha, beta, gamma):
    """Z-Y-X composition, all angles in degrees."""
    return rot_z_oracle(gamma) @ rot_y_oracle(beta) @ rot_x_oracle(alpha)


# The package's scalar rotation code before its array form: the bit
# reference for euler_to_rotation, exact at multiples of 90 degrees.


def _sind(deg: float) -> float:
    # Exact at multiples of 90 so axis-aligned presets stay exact.
    if deg % 90.0 == 0.0:
        return float([0.0, 1.0, 0.0, -1.0][int(deg / 90.0) % 4])
    return float(np.sin(np.deg2rad(deg)))


def _cosd(deg: float) -> float:
    if deg % 90.0 == 0.0:
        return float([1.0, 0.0, -1.0, 0.0][int(deg / 90.0) % 4])
    return float(np.cos(np.deg2rad(deg)))


def rot_x(deg: float) -> np.ndarray:
    c, s = _cosd(deg), _sind(deg)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg: float) -> np.ndarray:
    c, s = _cosd(deg), _sind(deg)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg: float) -> np.ndarray:
    c, s = _cosd(deg), _sind(deg)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_rotation_reference(angles: EulerAngles) -> np.ndarray:
    """Compose a rotation matrix from Z-Y-X Euler angles in degrees."""
    return rot_z(angles.gamma) @ rot_y(angles.beta) @ rot_x(angles.alpha)


# --- poses -------------------------------------------------------------------


def sample_pose_oracle(distribution, seed: int, trial: int) -> Pose:
    """Pose of one trial through its own SeedSequence, Philox and
    Generator: the bit reference for coverage.sample_poses."""
    key = np.random.SeedSequence(seed, spawn_key=(trial,))
    rng = np.random.Generator(np.random.Philox(key))
    x = rng.uniform(*distribution.x_m)
    y = rng.uniform(*distribution.y_m)
    z = rng.uniform(*distribution.z_m)
    angles = EulerAngles(*(rng.uniform(*distribution.angles_deg) for _ in range(3)))
    return Pose(np.array([x, y, z]), euler_rotation_reference(angles))


# --- beamformers --------------------------------------------------------------


def beamformers_exp_oracle(seed, bs_index, subarray_index, num_transmissions, n_ue, n_bs, trial=0):
    """(ue, bs) weights of one path through the complex exponential.

    The same keyed stream as draw_beamformers, with each phase drawn as
    uniform(0, 2 pi) and turned into exp(1j * phase): unit-modulus precoder
    entries and a combiner scaled to unit norm.
    """
    key = np.random.SeedSequence(seed, spawn_key=(trial, bs_index, subarray_index))
    rng = np.random.Generator(np.random.Philox(key))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_transmissions, n_ue + n_bs))
    return np.exp(1j * phases[:, :n_ue]) / math.sqrt(n_ue), np.exp(1j * phases[:, n_ue:])


def _steering_columns(elements, az, el, wavelength):
    """Rows [a_n, da_n/daz, da_n/del] of a panel's steering vector."""
    wavenumber = 2.0 * math.pi / wavelength
    u = (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))
    du_az = (-math.cos(el) * math.sin(az), math.cos(el) * math.cos(az), 0.0)
    du_el = (-math.sin(el) * math.cos(az), -math.sin(el) * math.sin(az), math.cos(el))
    rows = []
    for e in elements:
        a = cmath.exp(1j * wavenumber * sum(e[i] * u[i] for i in range(3)))
        rows.append((
            a,
            1j * wavenumber * sum(e[i] * du_az[i] for i in range(3)) * a,
            1j * wavenumber * sum(e[i] * du_el[i] for i in range(3)) * a,
        ))
    return rows


def expected_path_fim_oracle(
    eta, gain, ue_elements, bs_elements, num_transmissions, power_w, noise_variance,
    wavelength, offsets_hz,
):
    """5x5 Fisher information of one path averaged over its random beams.

    With independent uniform phases, E[w w^H] is I for the unit-modulus
    precoder and I / N_ue for the unit-norm combiner, and the two are
    independent, so

        E[FIM] = (2 G P |gain|^2 / sigma^2)
                 Re[(X_ue^H X_ue / N_ue) o (X_bs^H X_bs) o (T^H T)],

    where column i of X_ue (X_bs) is the arrival (departure) steering
    vector, or the angle derivative of it, that the derivative of the
    pilots in parameter i carries, and T holds the (K, 5) subcarrier
    factors: 1 for the angles, -2j pi f_k for the delay.
    """
    aod_az, aod_el, aoa_az, aoa_el, _ = eta
    ue = _steering_columns(ue_elements, aoa_az, aoa_el, wavelength)
    bs = _steering_columns(bs_elements, aod_az, aod_el, wavelength)
    # Parameter order aod_az, aod_el, aoa_az, aoa_el, delay; 0 = a, 1 = d/daz, 2 = d/del.
    ue_column = (0, 0, 1, 2, 0)
    bs_column = (1, 2, 0, 0, 0)
    tones = [[1.0, 1.0, 1.0, 1.0, -2j * math.pi * f] for f in offsets_hz]
    scale = 2.0 * num_transmissions * power_w * abs(gain) ** 2 / noise_variance
    fim = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            gram_ue = sum(r[ue_column[i]].conjugate() * r[ue_column[j]] for r in ue)
            gram_bs = sum(r[bs_column[i]].conjugate() * r[bs_column[j]] for r in bs)
            gram_t = sum(t[i].conjugate() * t[j] for t in tones)
            fim[i, j] = scale * (gram_ue / len(ue) * gram_bs * gram_t).real
    return fim


# --- visibility --------------------------------------------------------------


def _midpoints(lo, hi, cells):
    step = (hi - lo) / cells
    return [lo + (i + 0.5) * step for i in range(cells)]


def no_los_probability_oracle(bs_positions, x_m, y_m, z_m):
    """Probability that a planar UE has no line-of-sight path to any BS.

    The UE position is uniform over the box x_m * y_m * z_m and its Z-Y-X
    Euler angles (alpha, beta, gamma) are independent and uniform over
    [0, 360) deg.  Every planar subarray shares the boresight
    d = R e_x = (cos beta cos gamma, cos beta sin gamma, -sin beta), which
    alpha does not move, and sits at an offset orthogonal to d.  With the
    BS panels facing down from above the box, the BS end of the path to
    the centre subarray is always open, so a BS at q is hidden exactly when
    d . (q - p) <= 0 (strict half-space visibility), and the pose has no
    LOS when that holds for every BS.

    Midpoint quadrature over a 16 x 16 x 8 position grid and a 128 x 128
    (beta, gamma) grid of directions, accurate to about 5e-4.
    """
    angles = np.radians(_midpoints(0.0, 360.0, 128))
    beta, gamma = np.meshgrid(angles, angles, indexing="ij")
    boresights = np.stack(
        [np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma), -np.sin(beta)],
        axis=-1,
    ).reshape(-1, 3)
    cells = (16, 16, 8)
    total = 0.0
    for x in _midpoints(*x_m, cells[0]):
        for y in _midpoints(*y_m, cells[1]):
            for z in _midpoints(*z_m, cells[2]):
                hidden = np.ones(len(boresights), dtype=bool)
                for q in bs_positions:
                    los = np.asarray(q, dtype=float) - (x, y, z)
                    hidden &= boresights @ los <= 0.0
                total += np.count_nonzero(hidden) / len(boresights)
    return total / math.prod(cells)


# --- misc --------------------------------------------------------------------


def spearman_oracle(x, y):
    """Spearman rank correlation without scipy, average ranks for ties."""
    def ranks(values):
        order = np.argsort(values, kind="stable")
        rank = np.empty(len(values))
        sorted_vals = np.asarray(values)[order]
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            rank[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return rank

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return 0.0
    return float(rx @ ry) / denom


# --- the (G, K, 5) signal-gradient tensor -------------------------------------


def signal_gradient(
    params: PathParams,
    gain: complex,
    beams: BeamformerSet,
    bs_elements_m: np.ndarray,
    sub_elements_m: np.ndarray,
    config: SignalConfig,
):
    """Mean signal and its gradient in the five path parameters.

    Args:
        params: path angles and delay.
        gain: complex channel amplitude (known constant).
        beams: beamformer weights for all transmissions.
        bs_elements_m: BS panel element offsets, (N_bs, 3).
        sub_elements_m: subarray element offsets, (N_ue, 3).
        config: waveform parameters.

    Returns:
        (mu, dmu) with mu the noise-free pilots, shape (G, K), and dmu of
        shape (G, K, 5) ordered as ETA_NAMES.
    """
    lam = config.wavelength_m
    steer_bs = steering_stack(bs_elements_m, [params.aod_az], [params.aod_el], lam)[0]
    steer_ue = steering_stack(sub_elements_m, [params.aoa_az], [params.aoa_el], lam)[0]
    a_bs, da_bs_az, da_bs_el = steer_bs.T
    a_ue, da_ue_az, da_ue_el = steer_ue.T

    # Per-transmission scalar couplings, shape (G,).
    g_bs = beams.bs @ a_bs
    g_ue = beams.ue @ a_ue

    f_k = config.subcarrier_offsets_hz()
    tone = np.exp(-2j * np.pi * f_k * params.delay)
    amp = np.sqrt(config.power_w) * gain

    mu = amp * (g_ue * g_bs)[:, None] * tone[None, :]
    dmu = np.empty(mu.shape + (5,), dtype=complex)
    dmu[:, :, 0] = amp * (g_ue * (beams.bs @ da_bs_az))[:, None] * tone[None, :]
    dmu[:, :, 1] = amp * (g_ue * (beams.bs @ da_bs_el))[:, None] * tone[None, :]
    dmu[:, :, 2] = amp * ((beams.ue @ da_ue_az) * g_bs)[:, None] * tone[None, :]
    dmu[:, :, 3] = amp * ((beams.ue @ da_ue_el) * g_bs)[:, None] * tone[None, :]
    dmu[:, :, 4] = mu * (-2j * np.pi * f_k)[None, :]
    return mu, dmu


# --- the 13-entry state Jacobian ----------------------------------------------


def _vec_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # vec(x y^T) with column-major stacking, matching the vec(R) part of
    # the state, over the leading axes.
    outer = y[..., :, None] * x[..., None, :]
    return outer.reshape(outer.shape[:-2] + (9,))


def state_jacobians_13(geo: PathGeometry, dtype) -> np.ndarray:
    """(P, 5, 13) Jacobians of the channel parameters in [p, rho, vec(R)],
    the entries of R differentiated as free variables, computed in dtype.

    The departure angles resolve v on the BS axes b_j, the arrival angles
    -v on the subarray axes a_j; the vec(R) columns are x_j d^T for the
    departure rows and v n_j^T + a_j d^T (n_j the mounting axes) for the
    derivative of v resolved on a_j.
    """
    v, d, distance, frames, local, mount = (
        np.asarray(a, dtype=dtype)
        for a in (geo.v, geo.offset, geo.distance, geo.frames, geo.local, geo.mount_rotation)
    )
    dist = distance[:, None]
    x, y, z = (local[..., j] for j in range(3))
    q = z / dist
    jac = np.zeros((v.shape[0], 5, 13), dtype=dtype)
    den = x * x + y * y
    azimuth = x[..., None] * frames[..., 1] - y[..., None] * frames[..., 0]
    jac[:, 0:4:2, 0:3] = azimuth / den[..., None]
    s = 1 / np.sqrt(1 - q * q)
    jac[:, 1:4:2, 0:3] = s[..., None] * (
        frames[..., 2] / dist[..., None] - z[..., None] * v[:, None] / (dist * dist * dist)[..., None]
    )
    jac[:, 3, 0:3] *= -1
    outer_d = _vec_outer(
        np.concatenate([jac[:, 0:2, 0:3], frames[:, 1].swapaxes(-1, -2), v[:, None]], axis=1),
        d[:, None],
    )
    jac[:, 0:2, 4:] = outer_d[:, 0:2]
    d_a, d_b, d_c = (_vec_outer(v[:, None], mount.swapaxes(-1, -2)) + outer_d[:, 2:5]).swapaxes(0, 1)
    big_a, big_b, big_c = x[:, 1, None], y[:, 1, None], z[:, 1, None]
    jac[:, 2, 4:] = (big_a * d_b - big_b * d_a) / den[:, 1, None]
    outer_vd = outer_d[:, 5]
    jac[:, 3, 4:] = -s[:, 1, None] * (d_c / dist - big_c * (outer_vd / dist) / (dist * dist))
    jac[:, 4, 0:3] = v / (SPEED_OF_LIGHT * dist)
    jac[:, 4, 3] = 1
    jac[:, 4, 4:] = outer_vd / (SPEED_OF_LIGHT * dist)
    return jac


def tangent_basis_reference(rotations: np.ndarray) -> np.ndarray:
    """(B, 13, 7) bases in the dtype of the (B, 3, 3) rotations: the
    identity on [p, rho], and column 4 + k vec(R [e_k]_x) / sqrt(2)."""
    dtype = rotations.dtype
    axes = np.eye(3, dtype=dtype)
    basis = np.zeros((rotations.shape[0], 13, 7), dtype=dtype)
    basis[:, :4, :4] = np.eye(4, dtype=dtype)
    for k in range(3):
        turn = rotations @ np.cross(axes[k], axes).T / np.sqrt(dtype.type(2))
        basis[:, 4:, 4 + k] = turn.swapaxes(-1, -2).reshape(-1, 9)
    return basis


def gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix by Gauss-Jordan elimination with partial
    pivoting, in the matrix's own dtype (np.linalg has no long double)."""
    n = matrix.shape[0]
    work = np.concatenate([matrix, np.eye(n, dtype=matrix.dtype)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        work[[col, pivot]] = work[[pivot, col]]
        work[col] /= work[col, col]
        for row in range(n):
            if row != col:
                work[row] -= work[row, col] * work[col]
    return work[:, n:]


def long_double_bounds(scn, poses, trials, seed, which):
    """Long-double PEB and OEB of poses[i] for each i in which: the
    kernel's geometry and per-path FIMs through the 13-entry Jacobian times
    the tangent basis, summed and inverted by Gauss-Jordan in long double."""
    bs, mounts, ue = scn.bs_stack, scn.mount_stack, stack_poses(poses)
    frames = subarray_frames(ue, mounts)
    paths = np.nonzero(visibility(bs, frames))
    geo = path_geometry(bs, mounts, frames, paths)
    fims = _beam_fims(scn, path_angles(geo, scn.clock_bias_s), paths, trials, seed)
    jac = state_jacobians_13(geo, np.longdouble)
    jac = jac @ tangent_basis_reference(ue[1].astype(np.longdouble))[paths[0]]
    terms = jac.swapaxes(1, 2) @ fims.astype(np.longdouble) @ jac
    peb, oeb = np.empty((2, len(which)), dtype=np.longdouble)
    for j, i in enumerate(which):
        fim = terms[paths[0] == i].sum(axis=0)
        scale = 1 / np.sqrt(fim.diagonal())
        crb = (scale[:, None] * gauss_jordan_inverse(scale[:, None] * fim * scale) * scale).diagonal()
        peb[j] = np.sqrt(crb[:3].sum())
        oeb[j] = np.degrees(np.sqrt(crb[4:].sum()) / np.sqrt(np.longdouble(2)))
    return peb, oeb


# --- the per-path composition -------------------------------------------------


class Composition(NamedTuple):
    result: BoundResult
    fim: np.ndarray | None  # 7x7 state FIM, None without paths or at a branch point
    crb: np.ndarray | None  # 7x7 constrained CRB in [p, rho, omega], None if not invertible


def compose_paths(scn, pose: Pose, seed, trial: int, fim_of=path_fim) -> Composition:
    """A pose's bounds from the per-path public functions, one visible path
    at a time: path_params, state_jacobian, draw_beamformers (with seed, or
    the scenario's seed for None, and trial) and fim_of, then state_fim,
    constrained_crb and error_bounds, whose fim and crb are 7x7 in the
    tangent coordinates [p, rho, omega].

    fim_of(params, gain, beams, bs_elements, sub_elements, signal) gives a
    path's 5x5 FIM; path_fim makes the result the kernel's bit for bit.  A
    path at the arcsin branch point leaves the pose without a bound.
    """
    seed = scn.seed if seed is None else seed
    pairs = visible_paths(scn.bs_poses, pose, scn.subarrays)
    all_params, fims, jacobians = [], [], []
    degenerate = False
    for m, n in pairs:
        sub = scn.subarrays[n]
        params = path_params(scn.bs_poses[m], pose, sub, scn.clock_bias_s)
        all_params.append(params)
        if degenerate:
            continue
        try:
            jacobians.append(state_jacobian(scn.bs_poses[m], pose, sub))
        except GeometryError:
            degenerate = True
            continue
        gain = path_gain(params.distance, scn.signal.wavelength_m)
        beams = draw_beamformers(
            seed, m, n, scn.signal.num_transmissions,
            sub.elements.shape[0], scn.bs_elements[m].shape[0], trial=trial,
        )
        fims.append(fim_of(params, gain, beams, scn.bs_elements[m], sub.elements, scn.signal))
    fim = crb = None
    condition = peb = oeb_deg = math.inf
    if pairs and not degenerate:
        fim = state_fim(fims, jacobians)
        crb, condition = constrained_crb(fim, constraint_basis(pose.rotation))
    if crb is not None:
        peb, _, oeb_deg = error_bounds(crb)
    num_visible_bs = len({m for m, _ in pairs})
    result = BoundResult(
        classification=classify_localizability(num_visible_bs, crb is not None),
        peb_m=peb,
        oeb_deg=oeb_deg,
        num_paths=len(pairs),
        num_visible_bs=num_visible_bs,
        condition_number=condition,
        paths=tuple(pairs),
        path_params=tuple(all_params),
    )
    return Composition(result, fim, crb)
