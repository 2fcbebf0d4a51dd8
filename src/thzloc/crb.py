"""Constrained Cramer-Rao bounds on UE position and orientation.

The estimation state is r = [p (3), rho (1), vec(R) (9)] with vec stacking
the columns of the UE rotation matrix, 13 entries total.  Information flows
per visible path from the five channel parameters (ETA_NAMES order) through
the chain rule into r-space, is summed over paths, and is then restricted
to the orthonormality constraint manifold of R:

    CRB = M (M^T I(r) M)^{-1} M^T,

where the columns of M span the null space of the constraint Jacobian.
PEB is the root-trace of the position block; OEB is the root-trace of the
rotation block, converted to degrees through the small-angle relation
|dR|_F = sqrt(2) * angle.

evaluate_batch(scenario, ue_poses, trials, seed=None) is the one way into
the evaluation kernel: it takes a realized Scenario whole and runs each
layer once over all paths of a batch of poses (visibility, angles, state
Jacobians, beam draws and per-path FIMs, state FIMs, constrained CRBs).
A single pose is a batch of one (coverage.evaluate_pose).  The beam layer
derives the Philox keys of all paths in one pass, then takes the paths a
block at a time: one steering_stack call per side and panel size, and per
path one fill of the shared, reseated generator, whose phasors and (G, 3)
couplings go into buffers reused from path to path.  The per-path public
functions are batches of one through the same layers, and a pose's result
does not depend on the batch it is evaluated in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channel import (
    BeamBuffers,
    BeamformerSet,
    SignalConfig,
    beam_couplings,
    beam_keys,
    keyed_beams,
    path_gain,
    steering_stack,
)
from .errors import GeometryError
from .geometry import (
    SPEED_OF_LIGHT,
    PathGeometry,
    PathParams,
    Pose,
    Subarray,
    path_angles,
    path_geometry,
    stack_mounts,
    stack_poses,
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


def _tone_gram(config: SignalConfig) -> np.ndarray:
    # T^H T for the subcarrier factors of the signal derivatives: 1 for the
    # four angles, -2j pi f_k for the delay.  The common tone
    # exp(-2j pi f_k tau) has unit modulus and cancels.
    f_k = config.subcarrier_offsets_hz()
    tones = np.ones((f_k.size, 5), dtype=complex)
    tones[:, 4] = -2j * np.pi * f_k
    return tones.conj().T @ tones


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
    beams (beam_couplings) and T the (K, 5) subcarrier factors.
    """
    g_ue, du_az, du_el = (ue_couplings[..., j] for j in range(3))
    g_bs, db_az, db_el = (bs_couplings[..., j] for j in range(3))
    c = np.stack(
        [g_ue * db_az, g_ue * db_el, du_az * g_bs, du_el * g_bs, g_ue * g_bs], axis=-1
    )
    c = c * np.asarray(gains)[:, None, None]
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
    ue, bs = beam_couplings(beams, steer_ue[0], steer_bs[0])
    return path_fims(ue[None], bs[None], np.array([gain]), config)[0]


def _vec_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # vec(x y^T) with column-major stacking, matching the vec(R) part of
    # the state, over the leading axes.
    return (y[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (9,))


def state_jacobians(geo: PathGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of many paths' channel parameters in the 13-entry state.

    Returns:
        (jacobians (P, 5, 13), departure (P,), arrival (P,)), the last two
        flagging paths whose departure or arrival elevation sits at the
        arcsin branch point, where the Jacobian is undefined.
    """
    v, d = geo.v, geo.offset
    dist = geo.distance[:, None]
    b1, b2, b3 = (geo.bs_rotation[..., j] for j in range(3))
    n1, n2, n3 = (geo.mount_rotation[..., j] for j in range(3))
    a1, a2, a3 = (geo.axes[..., j] for j in range(3))
    x1, y1, z1 = (geo.v_bs[:, j, None] for j in range(3))
    big_a, big_b, big_c = (geo.v_sub[:, j, None] for j in range(3))
    departure = 1.0 - np.abs(z1[:, 0] / dist[:, 0]) < _ELEVATION_TOL
    arrival = 1.0 - np.abs(big_c[:, 0] / dist[:, 0]) < _ELEVATION_TOL
    dist3 = dist * dist * dist
    jac = np.zeros((v.shape[0], 5, STATE_DIM))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Departure side: v resolved on the BS axes.
        daz_dv = (x1 * b2 - y1 * b1) / (x1 * x1 + y1 * y1)
        q1 = z1 / dist
        del_dv = (1.0 / np.sqrt(1.0 - q1 * q1)) * (b3 / dist - z1 * v / dist3)
        jac[:, 0, 0:3], jac[:, 0, 4:] = daz_dv, _vec_outer(daz_dv, d)
        jac[:, 1, 0:3], jac[:, 1, 4:] = del_dv, _vec_outer(del_dv, d)

        # Arrival side: -v resolved on the subarray axes, which move with R.
        d_a = _vec_outer(v, n1) + _vec_outer(a1, d)
        d_b = _vec_outer(v, n2) + _vec_outer(a2, d)
        d_c = _vec_outer(v, n3) + _vec_outer(a3, d)
        den = big_a * big_a + big_b * big_b
        jac[:, 2, 0:3] = (big_a * a2 - big_b * a1) / den
        jac[:, 2, 4:] = (big_a * d_b - big_b * d_a) / den
        q2 = big_c / dist
        s2 = 1.0 / np.sqrt(1.0 - q2 * q2)
        outer_vd = _vec_outer(v, d)
        jac[:, 3, 0:3] = -s2 * (a3 / dist - big_c * v / dist3)
        jac[:, 3, 4:] = -s2 * (d_c / dist - big_c * (outer_vd / dist) / (dist * dist))

    # Delay.
    jac[:, 4, 0:3] = v / (SPEED_OF_LIGHT * dist)
    jac[:, 4, 3] = 1.0
    jac[:, 4, 4:] = outer_vd / (SPEED_OF_LIGHT * dist)
    return jac, departure, arrival


def state_jacobian(bs_pose: Pose, ue_pose: Pose, subarray: Subarray) -> np.ndarray:
    """Jacobian of one path's channel parameters in the 13-entry state.

    Rows follow ETA_NAMES; columns are [p, rho, vec(R)].  The entries of R
    are differentiated as free variables; the orthonormality constraint is
    applied later through the null-space basis.

    Raises:
        GeometryError: at |elevation| = 90 deg where azimuth is undefined.
    """
    geo = path_geometry(
        stack_poses([bs_pose]), stack_poses([ue_pose]), stack_mounts([subarray])
    )
    jac, departure, arrival = state_jacobians(geo)
    if departure[0]:
        raise GeometryError("departure elevation at the arcsin branch point")
    if arrival[0]:
        raise GeometryError("arrival elevation at the arcsin branch point")
    return jac[0]


def state_fims(
    path_fims: np.ndarray, jacobians: np.ndarray, owners: np.ndarray, poses: int
) -> np.ndarray:
    """(poses, 13, 13) information in the state.

    Path p adds J_p^T F_p J_p to pose owners[p]; each pose sums its paths
    in the order given, starting from zero.
    """
    fim = np.zeros((poses, STATE_DIM, STATE_DIM))
    np.add.at(fim, owners, _transpose(jacobians) @ path_fims @ jacobians)
    return _symmetric(fim)


def state_fim(path_fims: list[np.ndarray], jacobians: list[np.ndarray]) -> np.ndarray:
    """13x13 information in the state, summed over paths."""
    if len(path_fims) != len(jacobians):
        raise ValueError(f"{len(path_fims)} path FIMs for {len(jacobians)} Jacobians")
    return state_fims(
        np.array(path_fims, dtype=float).reshape(-1, 5, 5),
        np.array(jacobians, dtype=float).reshape(-1, 5, STATE_DIM),
        np.zeros(len(path_fims), dtype=int),
        1,
    )[0]


def constraint_bases(rotations: np.ndarray) -> np.ndarray:
    """constraint_basis of each rotation in a (B, 3, 3) stack."""
    c1, c2, c3 = (rotations[..., j] * (1.0 / np.sqrt(2.0)) for j in range(3))
    basis = np.zeros((rotations.shape[0], STATE_DIM, CONSTRAINED_DIM))
    basis[:, :4, :4] = np.eye(4)
    basis[:, 4:7, 4] = -c3
    basis[:, 10:13, 4] = c1
    basis[:, 7:10, 5] = -c3
    basis[:, 10:13, 5] = c2
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
    """constrained_crb over a stack of B information matrices.

    Returns:
        (crbs (B, 13, 13), invertible (B,), conditions (B,)); crbs holds
        NaN where invertible is False.
    """
    count = fims.shape[0]
    reduced = _symmetric(_transpose(bases) @ fims @ bases)
    diag = np.diagonal(reduced, axis1=1, axis2=2)
    conditions = np.full(count, np.inf)
    crbs = np.full((count, STATE_DIM, STATE_DIM), np.nan)
    usable = np.flatnonzero(np.all(np.isfinite(diag) & (diag > 0.0), axis=1))
    scale = 1.0 / np.sqrt(diag[usable])
    balanced = _symmetric(scale[:, :, None] * reduced[usable] * scale[:, None, :])
    eigvals, eigvecs = np.linalg.eigh(balanced)
    positive = (eigvals[:, 0] > 0.0) & np.all(np.isfinite(eigvals), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eigvals[:, -1] / eigvals[:, 0]
    conditions[usable[positive]] = ratio[positive]
    keep = positive & (ratio <= CONDITION_LIMIT)
    vals, vecs, scale = eigvals[keep], eigvecs[keep], scale[keep]
    inv_balanced = (vecs / vals[:, None, :]) @ _transpose(vecs)
    inv_reduced = scale[:, :, None] * inv_balanced * scale[:, None, :]
    basis = bases[usable[keep]]
    crbs[usable[keep]] = _symmetric(basis @ inv_reduced @ _transpose(basis))
    invertible = np.zeros(count, dtype=bool)
    invertible[usable[keep]] = True
    return crbs, invertible, conditions


def constrained_crb(fim: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Constrained CRB M (M^T I M)^{-1} M^T with a singularity check.

    The 7x7 reduced information mixes units (meters, seconds, dimensionless
    rotation entries), so the condition number is measured after Jacobi
    equilibration D^{-1/2} A D^{-1/2}; that leaves the inverse unchanged
    while making the threshold scale-free.

    Returns:
        (crb, condition) with crb None when the information is singular.
    """
    crbs, invertible, conditions = constrained_crbs(
        np.asarray(fim, dtype=float)[None], np.asarray(basis, dtype=float)[None]
    )
    return (crbs[0] if invertible[0] else None), float(conditions[0])


def error_bounds_stack(crbs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peb_m, oeb_raw, oeb_deg) arrays from a (B, 13, 13) stack of CRBs."""
    diag = np.diagonal(crbs, axis1=1, axis2=2)
    position = diag[:, 0] + diag[:, 1] + diag[:, 2]
    rotation = diag[:, 4]
    for i in range(5, STATE_DIM):
        rotation = rotation + diag[:, i]
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

    def metric(self, name: str) -> float:
        if name == "peb":
            return self.peb_m
        if name == "oeb":
            return self.oeb_deg
        raise ValueError(f"unknown metric {name!r}, expected 'peb' or 'oeb'")


# Paths whose steering stacks, couplings and FIM terms are held at once.
_PATH_BLOCK = 16


def _by_size(elements: list[np.ndarray]):
    """Panels grouped by element count: each panel's count, the stacked
    offsets of each count's panels, and each panel's slot in its stack."""
    sizes = np.array([e.shape[0] for e in elements])
    stacks, slots = {}, np.empty(len(elements), dtype=int)
    for size in set(sizes.tolist()):
        members = np.flatnonzero(sizes == size)
        stacks[size] = np.stack([elements[i] for i in members])
        slots[members] = np.arange(members.size)
    return sizes, stacks, slots


def _size_steering(panels: np.ndarray, grouped, az, el, lam):
    """Steering stacks of paths on the given panels, one steering_stack
    call per panel size; path p's is stacks[sizes[p]][rows[p]]."""
    sizes, stacks, slots = grouped
    sizes = sizes[panels]
    steering, rows = {}, np.empty(panels.size, dtype=int)
    for size in set(sizes.tolist()):
        members = np.flatnonzero(sizes == size)
        elements = stacks[size][slots[panels[members]]]
        steering[size] = steering_stack(elements, az[members], el[members], lam)
        rows[members] = np.arange(members.size)
    return steering, sizes.tolist(), rows.tolist()


def _beam_fims(scenario: Scenario, params, paths, trials, seed):
    """path_fims of the paths (owners, bs_index, sub_index), each with its
    own keyed beam draw.

    The Philox keys of all paths are derived in one pass.  Paths then go
    _PATH_BLOCK at a time: steering stacks are built per panel size for
    the block's paths, and each draw is reduced to its (G, 3) couplings
    right away in buffers reused across paths, so memory does not grow
    with the batch.
    """
    signal = scenario.signal
    lam = signal.wavelength_m
    g = signal.num_transmissions
    owners, bs_index, sub_index = paths
    keys = beam_keys(seed, [trials[o] for o in owners.tolist()], bs_index, sub_index)
    bs_grouped = _by_size(scenario.bs_elements)
    ue_grouped = _by_size([s.elements for s in scenario.subarrays])
    buffers = {}
    fims = [np.zeros((0, 5, 5))]
    for first in range(0, params.shape[0], _PATH_BLOCK):
        block = slice(first, first + _PATH_BLOCK)
        angles = params[block]
        steer_bs, n_bs, row_bs = _size_steering(
            bs_index[block], bs_grouped, angles[:, 0], angles[:, 1], lam
        )
        steer_ue, n_ue, row_ue = _size_steering(
            sub_index[block], ue_grouped, angles[:, 2], angles[:, 3], lam
        )
        ue_c = np.empty((angles.shape[0], g, 3), dtype=complex)
        bs_c = np.empty((angles.shape[0], g, 3), dtype=complex)
        for p, key in enumerate(keys[block]):
            sizes = (n_ue[p], n_bs[p])
            if sizes not in buffers:
                buffers[sizes] = BeamBuffers(g, *sizes)
            beams = keyed_beams(key, buffers[sizes])
            ue_c[p], bs_c[p] = beam_couplings(
                beams, steer_ue[n_ue[p]][row_ue[p]], steer_bs[n_bs[p]][row_bs[p]]
            )
        fims.append(path_fims(ue_c, bs_c, path_gain(angles[:, 5], lam), signal))
    return np.concatenate(fims)


def evaluate_batch(
    scenario: Scenario, ue_poses: list[Pose], trials: list[int], seed: int | None = None
) -> list[BoundResult]:
    """Bounds for a batch of UE poses under a realized scenario.

    Pose i draws its beamformers per (seed, trials[i], bs, subarray), with
    seed the scenario's unless given, so results are reproducible and
    nested BS sets share their common paths' draws.  A pose's result is the
    same bits in any batch, a batch of one included.  Memory grows with
    the number of paths in the batch, so callers with many poses feed them
    in chunks.

    Raises:
        TypeError: for a trial that is not an integer.
    """
    trials = [operator.index(t) for t in trials]
    seed = scenario.seed if seed is None else seed
    ue = stack_poses(ue_poses)
    bs = stack_poses(scenario.bs_poses)
    mounts = stack_mounts(scenario.subarrays)
    count = ue[0].shape[0]
    mask = visibility(bs, ue, mounts)
    owners, bs_index, sub_index = np.nonzero(mask)  # visible_paths order per pose
    geo = path_geometry(
        (bs[0][bs_index], bs[1][bs_index]),
        (ue[0][owners], ue[1][owners]),
        (mounts[0][sub_index], mounts[1][sub_index]),
    )
    params = path_angles(geo, scenario.clock_bias_s)
    jacobians, departure, arrival = state_jacobians(geo)

    # A path at the arcsin branch point has no Jacobian, so its pose gets
    # no finite bound.
    solvable = mask.any(axis=(1, 2))
    solvable[owners[departure | arrival]] = False
    live = solvable[owners]
    fims = _beam_fims(
        scenario, params[live], (owners[live], bs_index[live], sub_index[live]), trials, seed
    )
    fim = state_fims(fims, jacobians[live], owners[live], count)

    poses = np.flatnonzero(solvable)
    crbs, invertible, conditions = constrained_crbs(fim[poses], constraint_bases(ue[1][poses]))
    peb, oeb_raw, oeb_deg = np.full((3, count), np.inf)
    condition = np.full(count, np.inf)
    condition[poses] = conditions
    solved = poses[invertible]
    peb[solved], oeb_raw[solved], oeb_deg[solved] = error_bounds_stack(crbs[invertible])

    has_bound = np.zeros(count, dtype=bool)
    has_bound[solved] = True
    num_visible_bs = mask.any(axis=2).sum(axis=1).tolist()
    ends = np.cumsum(np.bincount(owners, minlength=count)).tolist()
    starts = [0] + ends[:-1]
    observations = [
        PathObservation(m, n, PathParams(*row))
        for m, n, row in zip(bs_index.tolist(), sub_index.tolist(), params.tolist())
    ]
    return [
        BoundResult(
            classification=classify_localizability(num_visible_bs[i], bool(has_bound[i])),
            peb_m=float(peb[i]),
            oeb_deg=float(oeb_deg[i]),
            oeb_raw=float(oeb_raw[i]),
            num_paths=ends[i] - starts[i],
            num_visible_bs=num_visible_bs[i],
            condition_number=float(condition[i]),
            paths=tuple(observations[starts[i] : ends[i]]),
        )
        for i in range(count)
    ]
