"""Constrained Cramer-Rao bounds on UE position and orientation.

The estimation state is r = [p (3), rho (1), vec(R) (9)] with vec stacking
the columns of the UE rotation matrix, 13 entries total.  The columns of
the constraint basis M span the tangent space of R's orthonormality
constraint: [p, rho] and the turns dR = R [omega]_x / sqrt(2).  Information
flows per visible path from the five channel parameters (ETA_NAMES order)
through the chain rule into those 7 coordinates [p, rho, omega] (5x7
Jacobians) and is summed over paths into F (7x7); the constrained bound is
M F^{-1} M^T, which is M (M^T I(r) M)^{-1} M^T for the information I(r) in r.
PEB is the root-trace of the position block; OEB is the root-trace of the
rotation block, converted to degrees through the small-angle relation
|dR|_F = sqrt(2) * angle.

evaluate_batch(scenario, ue_poses, trials, seed=None) is the one way into
the evaluation kernel: it takes a realized Scenario whole, runs each layer
once over all paths of a batch of poses (visibility, angles, state
Jacobians, beam draws and per-path FIMs, state FIMs, constrained CRBs) and
returns their columns, a BoundTable.  BoundTable.result(i) builds pose i's
BoundResult for coverage.evaluate_pose, a batch of one.  What depends on
the scenario alone (the stacked BS poses and mounts, the element stacks by
panel size) is built once per Scenario and the tone Gram once per
SignalConfig.  The beam layer derives the Philox keys of all paths in one
pass, then takes the paths a block at a time: one steering_stack call per
side and panel size, one fill of the shared, reseated generator per path,
then per group of paths of one shape one phasor pass and one product per
side to the (G, 3) couplings, in the calling thread's buffers.  The
per-path public functions are batches of one through the same layers, and
a pose's result does not depend on the batch it is evaluated in.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .channel import (
    BeamformerSet,
    SignalConfig,
    keyed_beam_rows,
    path_gain,
    spawn_keys,
    steering_stack,
    thread_buffers,
)
from .errors import GeometryError
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
from .scenario import Scenario

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


def state_fims(path_fims: np.ndarray, jacobians: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(len(starts), 7, 7) information in the tangent coordinates.

    Path p adds J_p^T F_p J_p; pose i sums the paths from starts[i] up to
    the next start one after another, so each pose has at least one path.
    (np.add.reduceat would sum them pairwise, np.add.at is slow.)
    """
    terms = _transpose(jacobians) @ path_fims @ jacobians
    fim = np.empty((starts.size,) + terms.shape[1:])
    ends = starts[1:].tolist() + [terms.shape[0]]
    for i, (start, end) in enumerate(zip(starts.tolist(), ends)):
        np.add.reduce(terms[start:end], axis=0, out=fim[i])
    return _symmetric(fim)


def state_fim(path_fims: list[np.ndarray], jacobians: list[np.ndarray]) -> np.ndarray:
    """7x7 information in the tangent coordinates, summed over paths."""
    if len(path_fims) != len(jacobians):
        raise ValueError(f"{len(path_fims)} path FIMs for {len(jacobians)} Jacobians")
    return state_fims(
        np.array(path_fims, dtype=float).reshape(-1, 5, 5),
        np.array(jacobians, dtype=float).reshape(-1, 5, CONSTRAINED_DIM),
        np.zeros(1, dtype=int),
    )[0]


_EYE4 = np.eye(4)
_HALF_SQRT2 = 1.0 / np.sqrt(2.0)


def constraint_bases(rotations: np.ndarray) -> np.ndarray:
    """constraint_basis of each rotation in a (B, 3, 3) stack."""
    c1, c2, c3 = (rotations * _HALF_SQRT2).transpose(2, 0, 1)  # columns of R
    basis = np.zeros((rotations.shape[0], STATE_DIM, CONSTRAINED_DIM))
    basis[:, :4, :4] = _EYE4
    # vec(R [omega]_x) / sqrt(2) for omega = e_x, e_y, e_z.
    basis[:, 7:10, 4] = c3
    basis[:, 10:13, 4] = -c2
    basis[:, 4:7, 5] = -c3
    basis[:, 10:13, 5] = c1
    basis[:, 4:7, 6] = c2
    basis[:, 7:10, 6] = -c1
    return basis


def constraint_basis(rotation: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of the constrained state.

    Position and clock bias are unconstrained; the rotation part spans the
    three infinitesimal rotations of R, each normalized to unit length.
    M satisfies M^T M = I_7 and J_h M = 0 for the Jacobian J_h of the
    orthonormality constraints on R.
    """
    return constraint_bases(np.asarray(rotation, dtype=float)[None])[0]


def constrained_crbs(
    fims: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """constrained_crb over a stack of B (7, 7) information matrices.

    Returns:
        (crbs (n, 13, 13) of the n invertible ones in order, invertible
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
    basis = bases[invertible]
    return _symmetric(basis @ inverse @ _transpose(basis)), invertible, conditions


def constrained_crb(fim: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Constrained CRB M F^{-1} M^T of the 7x7 information F in the
    tangent coordinates, with a singularity check.

    F mixes units (meters, seconds, dimensionless rotation angles), so the
    condition number is measured after Jacobi equilibration
    D^{-1/2} F D^{-1/2}; that leaves the inverse unchanged while making the
    threshold scale-free.

    Returns:
        (crb, condition) with crb None when the information is singular.
    """
    crbs, invertible, conditions = constrained_crbs(
        np.asarray(fim, dtype=float)[None], np.asarray(basis, dtype=float)[None]
    )
    return (crbs[0] if invertible[0] else None), float(conditions[0])


def error_bounds_stack(crbs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peb_m, oeb_raw, oeb_deg) arrays from a (B, 13, 13) stack of CRBs."""
    diag = _transpose(crbs.diagonal(axis1=1, axis2=2))
    position = diag[0] + diag[1] + diag[2]
    rotation = diag[4]
    for i in range(5, STATE_DIM):
        rotation = rotation + diag[i]
    oeb_raw = np.sqrt(rotation)
    return np.sqrt(position), oeb_raw, np.rad2deg(oeb_raw / np.sqrt(2.0))


def error_bounds(crb: np.ndarray) -> tuple[float, float, float]:
    """(peb_m, oeb_raw, oeb_deg) from a 13x13 constrained CRB."""
    peb, oeb_raw, oeb_deg = error_bounds_stack(np.asarray(crb, dtype=float)[None])
    return float(peb[0]), float(oeb_raw[0]), float(oeb_deg[0])


def classify_localizability(num_visible_bs: int, invertible: bool) -> str:
    """Label a pose by what the visible geometry supports."""
    if num_visible_bs == 0:
        return NO_LOS
    if num_visible_bs == 1 or not invertible:
        return COMM_ONLY
    return LOCALIZABLE


@dataclass(frozen=True)
class PathObservation:
    """One visible path and its channel parameters."""

    bs_index: int
    subarray_index: int
    params: PathParams


@dataclass(frozen=True)
class BoundResult:
    """Error bounds and diagnostics for one UE pose.

    peb_m and oeb_deg are +inf when the constrained information matrix is
    singular or no path is visible.  A pose with exactly one visible BS is
    classified comm_only, yet its numeric bounds are reported whenever the
    matrix inverts: such poses are weakly identifiable through subarray
    parallax, and coverage statistics count them at their finite value.
    """

    classification: str
    peb_m: float
    oeb_deg: float
    oeb_raw: float
    num_paths: int
    num_visible_bs: int
    condition_number: float
    paths: tuple[PathObservation, ...]

    @property
    def localizable(self) -> bool:
        return self.classification == LOCALIZABLE


@dataclass(frozen=True)
class BoundTable:
    """Bounds of a batch of poses as columns named after BoundResult's
    fields, one entry per pose, except paths, (P, 2) rows of (bs, subarray),
    and path_params, (P, 6) rows of PathParams fields, which hold the
    poses' paths in turn, each pose's in visible_paths order."""

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
            paths=tuple(
                PathObservation(m, n, PathParams(*row))
                for (m, n), row in zip(self.paths[rows].tolist(), self.path_params[rows].tolist())
            ),
        )


# Paths whose steering stacks, couplings and FIM terms are held at once.
_PATH_BLOCK = 16


def _size_steering(panels: np.ndarray, grouped, az, el, lam) -> list:
    """Steering stacks of paths on the given panels, one steering_stack
    call per panel size; entry p of the list is path p's (N, 3) stack and
    those of its size's later paths.  grouped is the side's panels_by_size."""
    sizes, stacks, slots = grouped
    sizes = sizes[panels]
    steering = [None] * panels.size
    for size in set(sizes.tolist()):
        members = (sizes == size).nonzero()[0]
        elements = stacks[size][slots[panels[members]]]
        rows = steering_stack(elements, az[members], el[members], lam)
        for j, p in enumerate(members.tolist()):
            steering[p] = rows[j:]
    return steering


def _path_groups(shapes: list, g: int):
    """(start, stop, buffers) of runs of paths of one (N_ue, N_bs) shape,
    each run in the fewest near-equal groups that its thread buffers hold."""
    start = 0
    for shape, run in itertools.groupby(shapes):
        size, buffers = len(list(run)), thread_buffers(g, *shape)
        count = -(-size // buffers.paths)
        for i in range(count):
            yield start + size * i // count, start + size * (i + 1) // count, buffers
        start += size


def _beam_fims(scenario: Scenario, params, paths, trials, seed):
    """path_fims of the paths (owners, bs_index, sub_index), each with its
    own keyed beam draw.

    The Philox keys of all paths are derived in one pass.  Paths then go
    _PATH_BLOCK at a time: steering stacks are built per panel size for
    the block's paths, and draws are reduced group by group to (G, 3)
    couplings in this thread's buffers, so memory does not grow with the
    batch and a call allocates no beam buffers once a shape has been seen.
    """
    signal = scenario.signal
    lam = signal.wavelength_m
    g = signal.num_transmissions
    owners, bs_index, sub_index = paths
    keys = spawn_keys(seed, [trials[o] for o in owners.tolist()], bs_index, sub_index)
    fims = [np.zeros((0, 5, 5))]
    for first in range(0, params.shape[0], _PATH_BLOCK):
        block = slice(first, first + _PATH_BLOCK)
        angles = params[block]
        steer_bs = _size_steering(
            bs_index[block], scenario.bs_panels, angles[:, 0], angles[:, 1], lam
        )
        steer_ue = _size_steering(
            sub_index[block], scenario.ue_panels, angles[:, 2], angles[:, 3], lam
        )
        ue_c = np.empty((angles.shape[0], g, 3), dtype=complex)
        bs_c = np.empty((angles.shape[0], g, 3), dtype=complex)
        shapes = [(ue.shape[1], bs.shape[1]) for ue, bs in zip(steer_ue, steer_bs)]
        for start, stop, buffers in _path_groups(shapes, g):
            ue, bs = keyed_beam_rows(keys[first + start : first + stop], buffers)
            np.matmul(ue, steer_ue[start][: stop - start], out=ue_c[start:stop])
            np.matmul(bs, steer_bs[start][: stop - start], out=bs_c[start:stop])
        fims.append(path_fims(ue_c, bs_c, path_gain(angles[:, 5], lam), signal))
    return np.concatenate(fims)


def evaluate_batch(
    scenario: Scenario, ue_poses: list[Pose], trials: list[int], seed: int | None = None
) -> BoundTable:
    """Bounds for a batch of UE poses under a realized scenario, as columns.

    Pose i draws its beamformers per (seed, trials[i], bs, subarray), with
    seed the scenario's unless given, so results are reproducible and
    nested BS sets share their common paths' draws.  A pose's result is the
    same bits in any batch, a batch of one included.  Memory grows with
    the number of paths in the batch, so callers with many poses feed them
    in chunks.

    Raises:
        TypeError: for a trial that is not an integer.
        ValueError: if trials and ue_poses differ in length.
    """
    trials = [operator.index(t) for t in trials]
    if len(trials) != len(ue_poses):
        raise ValueError(f"{len(ue_poses)} UE poses but {len(trials)} trials")
    seed = scenario.seed if seed is None else seed
    bs, mounts = scenario.bs_stack, scenario.mount_stack
    ue = stack_poses(ue_poses)
    count = len(trials)
    frames = subarray_frames(ue, mounts)
    mask = visibility(bs, frames)
    paths = np.nonzero(mask)  # visible_paths order per pose
    owners = paths[0]
    geo = path_geometry(bs, mounts, frames, paths)
    params = path_angles(geo, scenario.clock_bias_s)
    jacobians, departure, arrival = state_jacobians(geo)

    # A path at the arcsin branch point has no Jacobian, so its pose gets
    # no finite bound.
    num_paths = np.bincount(owners, minlength=count)
    solvable = num_paths > 0
    solvable[owners[departure | arrival]] = False
    live = solvable[owners]
    fims = _beam_fims(scenario, params[live], [index[live] for index in paths], trials, seed)
    # Each solvable pose's paths are live, one run of them per pose.
    poses = solvable.nonzero()[0]
    counts = num_paths[poses]
    fim = state_fims(fims, jacobians[live], counts.cumsum() - counts)

    crbs, invertible, conditions = constrained_crbs(fim, constraint_bases(ue[1][poses]))
    peb, oeb_raw, oeb_deg, condition = np.full((4, count), np.inf)
    condition[poses] = conditions
    solved = poses[invertible]
    peb[solved], oeb_raw[solved], oeb_deg[solved] = error_bounds_stack(crbs)

    has_bound = np.zeros(count, dtype=bool)
    has_bound[solved] = True
    num_visible_bs = mask.any(axis=2).sum(axis=1)
    labels = map(classify_localizability, num_visible_bs.tolist(), has_bound.tolist())
    return BoundTable(
        classification=np.array(list(labels), dtype=object), peb_m=peb, oeb_deg=oeb_deg,
        oeb_raw=oeb_raw, condition_number=condition, num_paths=num_paths,
        num_visible_bs=num_visible_bs, paths=np.array(paths[1:]).T, path_params=params,
    )
