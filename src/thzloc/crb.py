"""Constrained Cramer-Rao bounds on UE position and orientation.

The estimation state is r = [p (3), rho (1), vec(R) (9)], vec stacking the
columns of the UE rotation matrix; R's orthonormality leaves the 7 tangent
coordinates [p, rho, omega], omega the turns dR = R [omega]_x / sqrt(2).
Information flows per visible path from the five channel parameters
(ETA_NAMES order) through the chain rule into those coordinates (5x7
Jacobians) and is summed over paths into F (7x7).  The kernel ends at the
constrained bound C = F^{-1}; in r it is M C M^T = M (M^T I(r) M)^{-1} M^T
for the information I(r) in r and the orthonormal tangent basis
M = constraint_basis(R).  M keeps C's position block and, its rotation
columns being orthonormal, the rotation block's trace: PEB is the root
trace of C's position block and OEB that of its omega block, which is the
root trace over vec(R), in degrees through |dR|_F = sqrt(2) * angle.
Neither I(r), a 13-entry Jacobian nor M is formed; constraint_basis is
left for thzloc validate, which projects thzloc.oracles' finite-difference
Jacobian in r onto M, and for the benchmark's tracer.  tests/oracles.py
holds the analytic Jacobian in r, the long-double reference of the bounds.

evaluate_batch is the one way into the evaluation kernel.  It composes
four stages over all paths of a batch of poses: _geometry, the _solvable
rule on a selection of paths, _beam_fims and _bound.  A selection of the
paths of the first k BSs gives the k-BS preset's table bit for bit.  The
per-path public functions are batches of one through the same layers, so
composing them gives the kernel's result bit for bit.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import (
    BeamformerSet,
    as_index,
    keyed_beam_rows,
    path_gain,
    spawn_keys,
    steering_stack,
)
from .errors import ConfigError, GeometryError
from .geometry import (
    SPEED_OF_LIGHT,
    PathGeometry,
    PathParams,
    Pose,
    Subarray,
    one_path,
    path_angles,
    path_geometry,
    stack_poses,
    subarray_frames,
    visibility,
)
from .scenario import Scenario, SignalConfig

STATE_DIM = 13
CONSTRAINED_DIM = 7

# Equilibrated condition number beyond which the information matrix is
# treated as singular.
CONDITION_LIMIT = 1e12

LOCALIZABLE = "localizable"
COMM_ONLY = "comm_only"
NO_LOS = "no_los"

_ELEVATION_TOL = 1e-12


def _transpose(stack: np.ndarray) -> np.ndarray:
    return stack.swapaxes(-1, -2)


def _symmetric(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + _transpose(stack))


@functools.lru_cache(maxsize=16)
def _tone_gram(config: SignalConfig) -> np.ndarray:
    # T^H T for the subcarrier factors of the signal derivatives: 1 for the
    # four angles, -2j pi f_k for the delay.  The common tone
    # exp(-2j pi f_k tau) has unit modulus and cancels.  Cached per
    # SignalConfig, so path_fim and the kernel build it once.
    f_k = config.subcarrier_offsets_hz()
    tones = np.ones((f_k.size, 5), dtype=complex)
    tones[:, 4] = -2j * np.pi * f_k
    gram = tones.conj().T @ tones
    gram.flags.writeable = False  # shared by every caller through the cache
    return gram


# Coupling columns (a, da/daz, da/del) of the UE and the BS side whose
# products are the five signal derivatives, in ETA_NAMES order.
_UE_TERMS = np.array([0, 0, 1, 2, 0])
_BS_TERMS = np.array([1, 2, 0, 0, 0])


def path_fims(
    ue_couplings: np.ndarray,
    bs_couplings: np.ndarray,
    gains: np.ndarray,
    config: SignalConfig,
) -> np.ndarray:
    """5x5 Fisher information of many paths, shape (P, 5, 5).

    The derivative of the mean signal in parameter i is separable,
    dmu[g, k, i] = c_i[g] t_i[k], so the information is
    (2 / sigma^2) Re[(C^H C) o (T^H T)] with C the (G, 5) couplings of the
    beams with the steering stacks and T the (K, 5) subcarrier factors.
    """
    c = ue_couplings[..., _UE_TERMS] * bs_couplings[..., _BS_TERMS]
    c *= np.asarray(gains)[:, None, None]
    gram = (_transpose(c.conj()) @ c) * _tone_gram(config)
    return _symmetric((2.0 * config.power_w / config.noise_variance_w) * np.real(gram))


def path_fim(
    params: PathParams,
    gain: complex,
    beams: BeamformerSet,
    bs_elements_m: np.ndarray,
    sub_elements_m: np.ndarray,
    config: SignalConfig,
) -> np.ndarray:
    """5x5 Fisher information of one path's channel parameters."""
    lam = config.wavelength_m
    steer_bs = steering_stack(bs_elements_m, [params.aod_az], [params.aod_el], lam)
    steer_ue = steering_stack(sub_elements_m, [params.aoa_az], [params.aoa_el], lam)
    ue, bs = beams.ue @ steer_ue[0], beams.bs @ steer_bs[0]
    return path_fims(ue[None], bs[None], np.array([gain]), config)[0]


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # a x b over the leading axes into out, one component at a time.
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def state_jacobians(geo: PathGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of many paths' channel parameters in the tangent
    coordinates [p, rho, omega].

    The departure angles resolve v on the BS axes b_j, the arrival angles
    -v on the subarray axes a_j = R n_j; both sides share the azimuth and
    elevation forms, so each is computed for both at once.  The turn
    dR = R [omega]_x / sqrt(2) moves v by R (omega x d) / sqrt(2), so a row
    with position gradient g has the rotation columns R^T g x (-d) / sqrt(2).
    The arrival angles also see their axes turn, which adds
    R^T g x R^T v / sqrt(2), as their gradient through the a_j differs from
    g by a multiple of v; so their lever is R^T v - d in place of -d.

    Returns:
        (jacobians (P, 5, 7), departure (P,), arrival (P,)), the last two
        flagging paths whose departure or arrival elevation sits at the
        arcsin branch point, where the Jacobian is undefined.
    """
    v, d = geo.v, geo.offset
    dist = geo.distance[:, None]
    frames = geo.frames  # (P, side, 3, 3): columns b_j, then a_j
    x, y, z = (geo.local[..., j] for j in range(3))  # (P, side)
    q = z / dist
    branch = 1.0 - np.abs(q) < _ELEVATION_TOL
    jac = np.zeros((v.shape[0], 5, CONSTRAINED_DIM))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dist3 = dist * dist * dist  # inf past 5.6e102 m, where v / dist3 is 0
        # Rows 0 and 2 (azimuths), then rows 1 and 3 (elevations, the
        # arrival one negated since it resolves -v).
        den = x * x + y * y
        azimuth = x[..., None] * frames[..., 1] - y[..., None] * frames[..., 0]
        jac[:, 0:4:2, 0:3] = azimuth / den[..., None]
        s = 1.0 / np.sqrt(1.0 - q * q)
        jac[:, 1:4:2, 0:3] = s[..., None] * (
            frames[..., 2] / dist[..., None] - z[..., None] * v[:, None] / dist3[..., None]
        )
        jac[:, 3, 0:3] *= -1.0
        jac[:, 4, 0:3] = v / (SPEED_OF_LIGHT * dist)

        # R = A R_n^T, and each row's rotation columns are R^T g x lever.
        rotation = frames[:, 1] @ _transpose(geo.mount_rotation)
        lever = np.repeat(d[:, None] * -_HALF_SQRT2, 5, axis=1)
        lever[:, 2:4] += (v[:, None] @ rotation) * _HALF_SQRT2
        _cross(jac[:, :, 0:3] @ rotation, lever, jac[:, :, 4:])
    jac[:, 4, 3] = 1.0
    return jac, branch[:, 0], branch[:, 1]


def state_jacobian(bs_pose: Pose, ue_pose: Pose, subarray: Subarray) -> np.ndarray:
    """Jacobian of one path's channel parameters in the tangent coordinates.

    Rows follow ETA_NAMES; columns are [p, rho, omega], omega the rotation
    dR = R [omega]_x / sqrt(2), so the 13-entry Jacobian in [p, rho,
    vec(R)] times constraint_basis(R) gives the same matrix.

    Raises:
        GeometryError: at |elevation| = 90 deg where azimuth is undefined.
    """
    jac, departure, arrival = state_jacobians(one_path(bs_pose, ue_pose, subarray))
    if departure[0]:
        raise GeometryError("departure elevation at the arcsin branch point")
    if arrival[0]:
        raise GeometryError("arrival elevation at the arcsin branch point")
    return jac[0]


def state_fims(path_fims: np.ndarray, jacobians: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(len(counts), 7, 7) information in the tangent coordinates.

    Path p adds J_p^T F_p J_p, and pose i sums the next counts[i] paths one
    after another (np.add.reduceat would sum them pairwise, np.add.at is slow).
    """
    terms = _transpose(jacobians) @ path_fims @ jacobians
    fim = np.empty((counts.size,) + terms.shape[1:])
    ends = counts.cumsum().tolist()
    for i, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
        np.add.reduce(terms[start:end], axis=0, out=fim[i])
    return _symmetric(fim)


def state_fim(path_fims: list[np.ndarray], jacobians: list[np.ndarray]) -> np.ndarray:
    """7x7 information in the tangent coordinates, summed over paths."""
    if len(path_fims) != len(jacobians):
        raise ValueError(f"{len(path_fims)} path FIMs for {len(jacobians)} Jacobians")
    fims = np.array(path_fims, dtype=float).reshape(-1, 5, 5)
    jacobians = np.array(jacobians, dtype=float).reshape(-1, 5, CONSTRAINED_DIM)
    return state_fims(fims, jacobians, np.array([len(fims)]))[0]


_EYE3 = np.eye(3)
# Largest entry of |R^T R - I| that a UE rotation may have.
_ROTATION_TOL = 1e-6
_HALF_SQRT2 = 1.0 / np.sqrt(2.0)


def constraint_basis(rotation: np.ndarray) -> np.ndarray:
    """Orthonormal (13, 7) basis M of the tangent space of the state in r.

    Position and clock bias are unconstrained; the rotation part spans the
    three infinitesimal rotations of R, each normalized to unit length.
    M satisfies M^T M = I_7 and J_h M = 0 for the Jacobian J_h of the
    orthonormality constraints on R.  The kernel forms none; validate uses it.
    """
    c1, c2, c3 = np.asarray(rotation, dtype=float).T * _HALF_SQRT2  # columns of R
    basis = np.zeros((STATE_DIM, CONSTRAINED_DIM))
    basis[:4, :4] = np.eye(4)
    # vec(R [omega]_x) / sqrt(2) for omega = e_x, e_y, e_z.
    basis[7:10, 4] = c3
    basis[10:13, 4] = -c2
    basis[4:7, 5] = -c3
    basis[10:13, 5] = c1
    basis[4:7, 6] = c2
    basis[7:10, 6] = -c1
    return basis


def _batch_of_one(matrix: np.ndarray, what: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (CONSTRAINED_DIM, CONSTRAINED_DIM):
        raise ValueError(f"{what} must be 7x7 in [p, rho, omega], got shape {matrix.shape}")
    return matrix[None]


def constrained_crbs(fims: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """constrained_crb over a stack of B (7, 7) information matrices.

    Returns:
        (crbs (n, 7, 7) of the n invertible ones in order, invertible
        (B,), conditions (B,)).
    """
    diag = fims.diagonal(axis1=1, axis2=2)
    # Finite and positive, which NaN is not.
    usable = ((diag > 0.0) & (diag < np.inf)).all(axis=1).nonzero()[0]
    scale = 1.0 / np.sqrt(diag[usable])
    balanced = _symmetric(scale[:, :, None] * fims[usable] * scale[:, None, :])
    eigvals, eigvecs = np.linalg.eigh(balanced)
    smallest, largest = eigvals[:, 0], eigvals[:, -1]
    positive = (smallest > 0.0) & np.isfinite(eigvals).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = largest / smallest
    conditions = np.full(fims.shape[0], np.inf)
    conditions[usable[positive]] = ratio[positive]
    keep = positive & (ratio <= CONDITION_LIMIT)
    vals, vecs, scale = eigvals[keep], eigvecs[keep], scale[keep]
    inv_balanced = (vecs / vals[:, None, :]) @ _transpose(vecs)
    inverse = scale[:, :, None] * inv_balanced * scale[:, None, :]
    invertible = np.zeros(fims.shape[0], dtype=bool)
    invertible[usable[keep]] = True
    return _symmetric(inverse), invertible, conditions


def constrained_crb(fim: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Constrained CRB C = F^{-1} of the 7x7 information F in the tangent
    coordinates [p, rho, omega], with a singularity check.

    F mixes units (meters, seconds, dimensionless rotation angles), so the
    condition number is measured after Jacobi equilibration
    D^{-1/2} F D^{-1/2}; that leaves the inverse unchanged while making the
    threshold scale-free.  basis is unused (M C M^T is the same bound in r);
    it stays while the benchmark's tracer passes one, until ROADMAP item
    1(b).

    Returns:
        (crb, condition) with crb None when the information is singular.

    Raises:
        ValueError: if fim is not 7x7.
    """
    crbs, invertible, conditions = constrained_crbs(_batch_of_one(fim, "the information"))
    return (crbs[0] if invertible[0] else None), float(conditions[0])


def error_bounds_stack(crbs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peb_m, oeb_raw, oeb_deg) arrays from a (B, 7, 7) stack of CRBs C:
    the root traces of C's position and omega blocks, and the latter in
    degrees."""
    diag = _transpose(crbs.diagonal(axis1=1, axis2=2))
    oeb_raw = np.sqrt(diag[4] + diag[5] + diag[6])
    return np.sqrt(diag[0] + diag[1] + diag[2]), oeb_raw, np.rad2deg(oeb_raw / np.sqrt(2.0))


def error_bounds(crb: np.ndarray) -> tuple[float, float, float]:
    """(peb_m, oeb_raw, oeb_deg) from a 7x7 constrained CRB in [p, rho, omega].

    Raises:
        ValueError: if crb is not 7x7.
    """
    peb, oeb_raw, oeb_deg = error_bounds_stack(_batch_of_one(crb, "the CRB"))
    return float(peb[0]), float(oeb_raw[0]), float(oeb_deg[0])


def classify_localizability(num_visible_bs: int, invertible: bool) -> str:
    """Label a pose by what the visible geometry supports."""
    if num_visible_bs == 0:
        return NO_LOS
    if num_visible_bs == 1 or not invertible:
        return COMM_ONLY
    return LOCALIZABLE


@dataclass(frozen=True)
class BoundResult:
    """Error bounds and diagnostics for one UE pose.

    peb_m and oeb_deg are +inf when the constrained information matrix is
    singular or no path is visible.  A pose with exactly one visible BS is
    classified comm_only, yet its numeric bounds are reported whenever the
    matrix inverts: such poses are weakly identifiable through subarray
    parallax, and coverage statistics count them at their finite value.
    Field grids report no bound for them and compute none (evaluate_batch's
    localizable_only).  paths and path_params are the pose's rows of the
    BoundTable columns of those names, (bs, subarray) pairs and PathParams
    in visible_paths order, held as tuples so that results compare by value.
    """

    classification: str
    peb_m: float
    oeb_deg: float
    oeb_raw: float
    num_paths: int
    num_visible_bs: int
    condition_number: float
    paths: tuple[tuple[int, int], ...]
    path_params: tuple[PathParams, ...]

    @property
    def localizable(self) -> bool:
        return self.classification == LOCALIZABLE


@dataclass(frozen=True)
class BoundTable:
    """Bounds of a batch of poses as columns named after BoundResult's
    fields, one entry per pose, except paths, (P, 2) rows of (bs, subarray),
    and path_params, (P, 6) rows of PathParams fields, which hold the
    poses' paths in turn, each pose's in visible_paths order.  The
    classification column is an object array of classify_localizability's
    labels.  The kernel builds no object per pose or path; result(i) does,
    for evaluate_pose."""

    classification: np.ndarray
    peb_m: np.ndarray
    oeb_deg: np.ndarray
    oeb_raw: np.ndarray
    condition_number: np.ndarray
    num_paths: np.ndarray
    num_visible_bs: np.ndarray
    paths: np.ndarray
    path_params: np.ndarray

    def result(self, i: int) -> BoundResult:
        """The BoundResult of pose i."""
        start = sum(self.num_paths[:i].tolist())
        rows = slice(start, start + int(self.num_paths[i]))
        return BoundResult(
            classification=self.classification[i],
            peb_m=float(self.peb_m[i]),
            oeb_deg=float(self.oeb_deg[i]),
            oeb_raw=float(self.oeb_raw[i]),
            num_paths=int(self.num_paths[i]),
            num_visible_bs=int(self.num_visible_bs[i]),
            condition_number=float(self.condition_number[i]),
            paths=tuple(map(tuple, self.paths[rows].tolist())),
            path_params=tuple(PathParams(*row) for row in self.path_params[rows].tolist()),
        )


# Paths whose steering stacks, couplings and FIM terms are held at once.
# Measured under tracemalloc on cuboidal-4bs, a 64-pose batch peaks
# 1,427 KiB above its baseline with this block and 16,443 KiB with one
# block of all paths (10 poses: 463 against 2,571 KiB); without it peak
# RSS grew 2.3 MiB over a 10-pose coverage loop and 4.2 MiB over
# fields-cli rounds, and one block per batch ran no faster (0.9998x).
_PATH_BLOCK = 16
# Phases that a group of paths of one panel pair draws at once, or one
# path's if more: three preset paths (50 x 80 phases) in 0.55 MiB of the
# thread's beam scratch, 48 B per phase, or one wide-scenario path
# (50 x 320) in 0.73 MiB.  Measured against this value in
# paired runs, 4,096-phase groups ran fields-cli at 0.916x and
# 49,152-phase groups ran single-pose at 0.981x.
_GROUP_ELEMENTS = 12288


def _beam_fims(scenario: Scenario, params, paths, trials, seed):
    """path_fims of the paths (owners, bs_index, sub_index), each with its
    own keyed beam draw, in path order.

    The paths are sorted stably into runs of one (subarray panel, BS panel)
    pair and their Philox keys derived in one pass.  Each run goes
    _PATH_BLOCK paths at a time: one steering_stack call per side, then
    draws reduced group by group to (G, 3) couplings in this thread's beam
    scratch, so memory does not grow with the batch.  Per group it makes one
    phasor pass, one combiner scaling and one stacked matmul per side; per
    path it pays only the generator's reseat and its raw words.
    """
    signal = scenario.signal
    lam = signal.wavelength_m
    g = signal.num_transmissions
    (bs_panels, bs_of), (ue_panels, ue_of) = scenario.bs_panels, scenario.ue_panels
    pairs = ue_of[paths[2]] * len(bs_panels) + bs_of[paths[1]]
    order = np.argsort(pairs, kind="stable")
    owners, bs_index, sub_index = (index[order] for index in paths)
    # Python ints, which the generator's state setter reads fastest.
    keys = spawn_keys(seed, [trials[o] for o in owners.tolist()], bs_index, sub_index).tolist()
    fims = np.empty((order.size, 5, 5))
    starts = np.unique(pairs[order], return_index=True)[1].tolist()
    for start, stop in zip(starts, starts[1:] + [order.size]):
        ue_panel, bs_panel = ue_panels[ue_of[sub_index[start]]], bs_panels[bs_of[bs_index[start]]]
        shape = ue_panel.shape[0], bs_panel.shape[0]
        # Each block in the fewest near-equal groups of _GROUP_ELEMENTS phases, or of one path.
        held = max(1, _GROUP_ELEMENTS // (g * sum(shape)))
        for first in range(start, stop, _PATH_BLOCK):
            block = order[first : min(first + _PATH_BLOCK, stop)]
            angles = params[block]
            size = block.size
            steer_bs = steering_stack(bs_panel, angles[:, 0], angles[:, 1], lam)
            steer_ue = steering_stack(ue_panel, angles[:, 2], angles[:, 3], lam)
            ue_c, bs_c = np.empty((2, size, g, 3), dtype=complex)
            count = -(-size // held)
            for i in range(count):
                a, b = size * i // count, size * (i + 1) // count
                ue, bs = keyed_beam_rows(keys[first + a : first + b], g, *shape)
                np.matmul(ue, steer_ue[a:b], out=ue_c[a:b])
                np.matmul(bs, steer_bs[a:b], out=bs_c[a:b])
            fims[block] = path_fims(ue_c, bs_c, path_gain(angles[:, 5], lam), signal)
    return fims


# Per-path columns of a batch, each pose's paths in visible_paths order.
_Paths = namedtuple("_Paths", "owners bs subarray params jacobians branch")


def _geometry(scenario: Scenario, ue: tuple[np.ndarray, np.ndarray]) -> _Paths:
    """The paths that the stacked UE poses ue see."""
    bs, mounts = scenario.bs_stack, scenario.mount_stack
    frames = subarray_frames(ue, mounts)
    paths = np.nonzero(visibility(bs, frames))
    geo = path_geometry(bs, mounts, frames, paths)
    jacobians, departure, arrival = state_jacobians(geo)
    return _Paths(*paths, path_angles(geo, scenario.clock_bias_s), jacobians, departure | arrival)


def _solvable(paths: _Paths, shape: tuple[int, int], localizable_only: bool):
    """(solvable, num_visible_bs) per pose of a selection of the paths of
    shape (poses, BSs).  A solvable pose has a path and none at the arcsin
    branch point; with localizable_only it also sees two BSs."""
    seen = np.zeros(shape, dtype=bool)
    seen[paths.owners, paths.bs] = True
    num_visible_bs = seen.sum(axis=1)
    solvable = num_visible_bs > int(localizable_only)
    solvable[paths.owners[paths.branch]] = False
    return solvable, num_visible_bs


def _bound(paths: _Paths, fims, solvable, num_visible_bs) -> BoundTable:
    """The BoundTable of a path selection from its solvable poses' path
    FIMs: state_fims, an overflow check, constrained_crbs and labels."""
    count = solvable.size
    num_paths = np.bincount(paths.owners, minlength=count)
    poses = solvable.nonzero()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        fim = state_fims(fims, paths.jacobians[solvable[paths.owners]], num_paths[poses])
    if not (np.isfinite(fims).all() and np.isfinite(fim).all()):
        raise ConfigError("signal power_dbm, noise_psd_dbm_hz, noise_figure_db, bandwidth_hz or"
                          " carrier_hz, or a panel spacing_wl, out of range: the information"
                          " overflows")
    crbs, invertible, conditions = constrained_crbs(fim)
    peb, oeb_raw, oeb_deg, condition = np.full((4, count), np.inf)
    condition[poses] = conditions
    solved = poses[invertible]
    peb[solved], oeb_raw[solved], oeb_deg[solved] = error_bounds_stack(crbs)
    has_bound = (np.bincount(solved, minlength=count) > 0).tolist()
    labels = map(classify_localizability, num_visible_bs.tolist(), has_bound)
    return BoundTable(np.array(list(labels), dtype=object), peb, oeb_deg, oeb_raw, condition,
                      num_paths, num_visible_bs, np.array([paths.bs, paths.subarray]).T,
                      paths.params)


def evaluate_batch(
    scenario: Scenario, ue_poses: list[Pose], trials: list[int], seed: int | None = None,
    *, localizable_only: bool = False,
) -> BoundTable:
    """Bounds for a batch of UE poses under a realized scenario, as columns.

    Pose i draws its beamformers per (seed, trials[i], bs, subarray), with
    seed the scenario's unless given, so results are reproducible, a pose's
    result is the same bits in any batch, a batch of one included, and
    nested BS sets share their common paths' draws (test_kernel.py's
    test_bs_prefix_selections_match_the_smaller_presets).  Memory grows
    with the paths in the batch, so callers feed many poses in chunks.
    With localizable_only, a pose that sees fewer than two BSs draws no
    beams and gets bound and condition inf; its label and paths are kept.

    Raises:
        TypeError: for a trial or seed that is not an integer, a bool included.
        ValueError: if trials and ue_poses differ in length, for a negative
            trial, whether or not its pose sees a BS, for a pose with a
            position or rotation entry that is not finite, or for a rotation
            R with an entry of R^T R more than 1e-6 from I's or with a
            negative determinant.
        ConfigError: if a path's information or a pose's overflows.
    """
    trials = [as_index(t, "trial") for t in trials]
    if len(trials) != len(ue_poses):
        raise ValueError(f"{len(ue_poses)} UE poses but {len(trials)} trials")
    negative = [i for i, t in enumerate(trials) if t < 0]
    if negative:
        raise ValueError(f"UE pose {negative[0]} has trial {trials[negative[0]]}, below 0")
    ue = stack_poses(ue_poses)
    bad = np.flatnonzero(~np.isfinite(np.hstack([ue[0], ue[1].reshape(-1, 9)])).all(axis=1))
    if bad.size:
        raise ValueError(f"UE pose {bad[0]} (trial {trials[bad[0]]}) is not finite")
    rotations = ue[1]
    skewed = np.abs(_transpose(rotations) @ rotations - _EYE3).max(axis=(1, 2)) > _ROTATION_TOL
    bad = np.flatnonzero(skewed | (np.linalg.det(rotations) < 0.0))
    if bad.size:
        raise ValueError(f"UE pose {bad[0]} (trial {trials[bad[0]]}) has a matrix that is not"
                         " a rotation")
    seed = scenario.seed if seed is None else seed
    paths = _geometry(scenario, ue)
    shape = len(trials), len(scenario.bs_poses)
    solvable, num_visible_bs = _solvable(paths, shape, localizable_only)
    live = solvable[paths.owners]
    # Only overflow makes the information not finite: branch-point paths
    # draw nothing and coincident points raise GeometryError.
    with np.errstate(over="ignore", invalid="ignore"):
        fims = _beam_fims(scenario, paths.params[live], [i[live] for i in paths[:3]], trials, seed)
    return _bound(paths, fims, solvable, num_visible_bs)
