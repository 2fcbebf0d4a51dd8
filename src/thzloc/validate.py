"""Numeric checks of the bounds' building blocks, one implementation each.

`thzloc validate` runs them on the scenario it is given; the acceptance
criteria (1, 2 and 4) and unit tests call the same checks at their own
seeds and counts.  Each numeric check takes a count and a numpy Generator
(the power check, the poses to try) and returns its verdict, then its
worst figures.
The derivative references come from thzloc.oracles.  A figure that is not
finite fails its check.  check_path_fim forms path FIMs from the scenario's
waveform and panels outside the kernel's overflow check, so it keeps
numpy's warnings quiet and lets the NaN fail it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channel import as_index, draw_beamformers, path_gain
from .coverage import PoseDistribution, coverage_ccdf, evaluate_pose, sample_pose
from .crb import constraint_basis, path_fim, state_jacobian
from .errors import GeometryError
from .geometry import EulerAngles, Pose, Subarray, element_grid, euler_to_rotation, path_params
from .oracles import (
    constraint_jacobian_oracle,
    fim_from_jacobian,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)
from .scenario import ScenarioConfig, parse_config, serialize_config

# Most cases per numeric check: about 9 min on the presets at 5.6 ms per case
# (2-core x86-64, one OpenBLAS thread).
MAX_TRIALS = 10**5


def _random_rotation(rng) -> np.ndarray:
    return euler_to_rotation(EulerAngles(*rng.uniform(0.0, 360.0, size=3)))


def random_geometry(rng) -> tuple[Pose, Pose, list[Subarray]]:
    """A BS pose, a UE pose and one to three 2x2 subarrays on it, redrawn
    until every path's elevations lie below 85 deg, away from the arcsin
    branch point."""
    limit = np.deg2rad(85.0)
    while True:
        bs = Pose(rng.uniform(-12.0, 12.0, 3) + np.array([0.0, 0.0, 6.0]), _random_rotation(rng))
        ue = Pose(rng.uniform(-8.0, 8.0, 3), _random_rotation(rng))
        subs = [
            Subarray(
                offset=rng.uniform(-0.15, 0.15, 3),
                rotation=_random_rotation(rng),
                elements=element_grid(2, 2, 1e-3),
            )
            for _ in range(rng.integers(1, 4))
        ]
        try:
            all_params = [path_params(bs, ue, sub) for sub in subs]
        except GeometryError:
            continue
        if all(abs(p.aod_el) < limit and abs(p.aoa_el) < limit for p in all_params):
            return bs, ue, subs


def _relative_error(analytic: np.ndarray, numeric: np.ndarray, axis) -> float:
    """Largest error over the slices along axis, each relative to the
    largest magnitude of its numeric slice."""
    scale = np.maximum(np.abs(numeric).max(axis=axis), 1e-30)
    return float(np.max(np.abs(analytic - numeric).max(axis=axis) / scale))


# Column blocks of the tangent coordinates: position, clock bias, rotation.
_STATE_BLOCKS = (slice(0, 3), slice(3, 4), slice(4, 7))


def state_jacobian_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest error of a 5x7 state Jacobian over its (row, column block)
    pieces, each relative to the largest magnitude of its numeric piece.

    Per block, because one row mixes scales: the delay row holds the
    clock-bias entry 1 next to position and rotation entries near 1e-9.
    """
    return float(np.max([
        _relative_error(analytic[:, block], numeric[:, block], axis=1)
        for block in _STATE_BLOCKS
    ]))


def check_state_jacobian(count: int, rng) -> tuple[bool, float, float]:
    """state_jacobian of every path of count random geometries against
    finite differences times the constraint basis.

    Every entry must lie within 1e-6 |x| + 1e-9 times its row's scale, and
    every (row, column block) piece within 1e-5 of its own scale, which a
    row scale of 1 from the clock bias cannot hide.

    Returns:
        (passed, worst error relative to the row scale, worst
        state_jacobian_error).
    """
    passed, worst_row, worst_block = True, 0.0, 0.0
    for _ in range(count):
        bs, ue, subs = random_geometry(rng)
        state = pack_state(ue.position, 0.0, ue.rotation)
        basis = constraint_basis(ue.rotation)
        for sub in subs:
            got = state_jacobian(bs, ue, sub)
            want = state_jacobian_fd(
                bs.position, bs.rotation, state, sub.offset, sub.rotation
            ) @ basis
            # The floor tied to the row scale lets exact zeros pass.
            row_scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1e-12)
            err = np.abs(got - want)
            passed &= bool(np.all(err <= 1e-6 * np.abs(want) + 1e-9 * row_scale))
            worst_row = float(np.maximum(worst_row, np.max(err / row_scale)))
            worst_block = float(np.maximum(worst_block, state_jacobian_error(got, want)))
    return passed and worst_block < 1e-5, worst_row, worst_block


@np.errstate(all="ignore")
def check_path_fim(config: ScenarioConfig, count: int, rng) -> tuple[bool, float]:
    """path_fim of the first path of count random geometries, with the
    scenario's waveform and first panels and four random beams, against
    2 / sigma^2 Re(J^H J) of the finite-difference signal Jacobian.

    Returns:
        (passed, worst error of an entry relative to sqrt(F_ii F_jj)); it
        passes below 1e-5, which bounds the Frobenius error relative to
        the Frobenius norm below sqrt(5) 1e-5.
    """
    scn = config.realize()
    signal, bs_elements = scn.signal, scn.bs_elements[0]
    worst = 0.0
    for _ in range(count):
        bs, ue, subs = random_geometry(rng)
        sub = Subarray(subs[0].offset, subs[0].rotation, scn.subarrays[0].elements)
        params = path_params(bs, ue, sub)
        gain = path_gain(params.distance, signal.wavelength_m)
        beams = draw_beamformers(
            int(rng.integers(1 << 31)), 0, 0, 4,
            sub.elements.shape[0], bs_elements.shape[0],
        )
        fim = path_fim(params, gain, beams, bs_elements, sub.elements, signal)
        numeric = fim_from_jacobian(
            signal_jacobian_fd(
                list(params.as_array()), gain, beams.ue, beams.bs, sub.elements, bs_elements,
                signal.power_w, signal.wavelength_m, signal.subcarrier_offsets_hz(),
            ).reshape(-1, 5),
            signal.noise_variance_w,
        )
        scale = np.sqrt(np.outer(np.diag(numeric), np.diag(numeric)))
        worst = float(np.maximum(worst, np.max(np.abs(fim - numeric) / scale)))
    return worst < 1e-5, worst


def check_constraint_basis(count: int, rng) -> tuple[bool, float, float]:
    """constraint_basis of count random rotations: M^T M = I within 1e-13
    and M in the null space of the constraint Jacobian within 1e-12.

    Returns:
        (passed, worst orthonormality error, worst null-space residual).
    """
    worst_orth, worst_null = 0.0, 0.0
    for _ in range(count):
        rotation = _random_rotation(rng)
        basis = constraint_basis(rotation)
        worst_orth = float(np.maximum(worst_orth, np.max(np.abs(basis.T @ basis - np.eye(7)))))
        jac_h = constraint_jacobian_oracle(pack_state(np.zeros(3), 0.0, rotation))
        worst_null = float(np.maximum(worst_null, np.max(np.abs(jac_h @ basis))))
    return worst_orth < 1e-13 and worst_null < 1e-12, worst_orth, worst_null


def check_power_scaling(config: ScenarioConfig, poses) -> tuple[bool, float, float]:
    """Four times the transmit power at the first localizable pose of
    poses, an iterable of (trial, pose): the PEB must halve and the FIM of
    the pose's first path quadruple, both within 1e-10.

    Returns:
        (passed, PEB ratio, largest FIM error relative to the largest
        entry); the figures are NaN when no pose is localizable.
    """
    louder = dataclasses.replace(
        config.signal, power_dbm=config.signal.power_dbm + 10.0 * np.log10(4.0)
    )
    boosted = dataclasses.replace(config, signal=louder)
    for trial, pose in poses:
        base = evaluate_pose(config, pose, trial=trial)
        if not base.localizable:
            continue
        ratio = evaluate_pose(boosted, pose, trial=trial).peb_m / base.peb_m
        scn, (m, n), params = config.realize(), base.paths[0], base.path_params[0]
        sub, bs_elements = scn.subarrays[n], scn.bs_elements[m]
        gain = path_gain(params.distance, scn.signal.wavelength_m)
        beams = draw_beamformers(
            scn.seed, m, n, scn.signal.num_transmissions,
            sub.elements.shape[0], bs_elements.shape[0], trial=trial,
        )
        fim1, fim4 = (
            path_fim(params, gain, beams, bs_elements, sub.elements, signal)
            for signal in (scn.signal, louder)
        )
        fim_error = float(np.max(np.abs(fim4 - 4.0 * fim1)) / np.max(np.abs(fim1)))
        return abs(ratio - 0.5) < 1e-10 and fim_error < 1e-10, ratio, fim_error
    return False, float("nan"), float("nan")


def check_roundtrip(config: ScenarioConfig) -> tuple[bool, str]:
    ok = parse_config(serialize_config(config)) == config
    return ok, "serialize/parse round-trip" + ("" if ok else " mismatch")


def check_ccdf(config: ScenarioConfig) -> tuple[bool, str]:
    first = coverage_ccdf(config, trials=20)
    second = coverage_ccdf(config, trials=20)
    ok = np.array_equal(first.exceedance, second.exceedance)
    return ok, f"20-trial curve reproducible, outage {first.outage:.2f}"


def run_validation(config: ScenarioConfig, trials: int = 50):
    """All checks, an iterator of (name, passed, detail) triples, from default_rng(0).
    At the call, trials raise TypeError if a bool, ValueError outside 1 to MAX_TRIALS."""
    if not 1 <= as_index(trials, "trial count") <= MAX_TRIALS:
        raise ValueError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    return _checks(config, trials)


def _checks(config: ScenarioConfig, trials: int):
    rng = np.random.default_rng(0)
    ok, row, block = check_state_jacobian(trials, rng)
    yield (
        "state_jacobian_fd", ok,
        f"max relative error {block:.2e} per block, {row:.2e} per row scale, over {trials} geometries",
    )
    count = max(10, trials // 5)
    ok, worst = check_path_fim(config, count, rng)
    yield "path_fim_fd", ok, f"max scaled error {worst:.2e} over {count} configurations"
    ok, orth, null = check_constraint_basis(max(100, trials), rng)
    yield "constraint_basis", ok, f"orthonormality {orth:.2e}, null-space residual {null:.2e}"
    poses = ((t, sample_pose(PoseDistribution(), config.seed, t)) for t in range(200))
    ok, ratio, fim_error = check_power_scaling(config, poses)
    detail = f"PEB ratio under 4x power: {ratio:.12f}, FIM x4 error {fim_error:.2e}"
    yield "power_scaling", ok, "no localizable pose in 200 draws" if np.isnan(ratio) else detail
    yield ("config_roundtrip", *check_roundtrip(config))
    yield ("ccdf_reproducible", *check_ccdf(config))
