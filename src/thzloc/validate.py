"""Built-in consistency checks exposed through the validate command.

These are runtime self-diagnostics: spot checks of the analytic tangent
state Jacobian and of the kernel's per-path FIM against the
finite-difference oracles of thzloc.oracles (the ones the test suite
uses), algebraic identities of the constraint basis, exact scaling laws,
and config round-trips.  They complement the test suite and run against
whatever scenario the user supplies.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channel import draw_beamformers, path_gain
from .coverage import PoseDistribution, coverage_ccdf, evaluate_pose, sample_pose
from .crb import constraint_basis, path_fim, state_jacobian
from .geometry import EulerAngles, Pose, Subarray, euler_to_rotation, path_params
from .oracles import (
    constraint_jacobian_oracle,
    fim_from_jacobian,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)
from .scenario import ScenarioConfig, parse_config, serialize_config


def _random_rotation(rng) -> np.ndarray:
    return euler_to_rotation(EulerAngles(*rng.uniform(0.0, 360.0, size=3)))


def _random_geometry(rng):
    """A generic BS/UE/subarray triple with no extreme elevations."""
    while True:
        bs = Pose(rng.uniform(-15.0, 15.0, 3) + np.array([0.0, 0.0, 8.0]), _random_rotation(rng))
        ue = Pose(rng.uniform(-8.0, 8.0, 3), _random_rotation(rng))
        sub = Subarray(
            offset=rng.uniform(-0.1, 0.1, 3),
            rotation=_random_rotation(rng),
            elements=np.zeros((1, 3)),
        )
        params = path_params(bs, ue, sub)
        if max(abs(params.aod_el), abs(params.aoa_el)) < np.deg2rad(85.0):
            return bs, ue, sub


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
    return max(
        _relative_error(analytic[:, block], numeric[:, block], axis=1)
        for block in _STATE_BLOCKS
    )


def check_state_jacobian(trials: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(trials):
        bs, ue, sub = _random_geometry(rng)
        numeric = state_jacobian_fd(
            bs.position, bs.rotation, pack_state(ue.position, 0.0, ue.rotation),
            sub.offset, sub.rotation,
        ) @ constraint_basis(ue.rotation)
        worst = max(worst, state_jacobian_error(state_jacobian(bs, ue, sub), numeric))
    return worst < 1e-5, f"max relative error {worst:.2e} over {trials} geometries"


def check_path_fim(config: ScenarioConfig, trials: int, rng) -> tuple[bool, str]:
    """The kernel's per-path FIM against 2 / sigma^2 Re(J^H J) of the
    finite-difference signal Jacobian, each entry relative to
    sqrt(F_ii F_jj)."""
    scn = config.realize()
    signal, bs_elements = scn.signal, scn.bs_elements[0]
    worst = 0.0
    for _ in range(trials):
        bs, ue, sub = _random_geometry(rng)
        sub = Subarray(sub.offset, sub.rotation, scn.subarrays[0].elements)
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
        worst = max(worst, float(np.max(np.abs(fim - numeric) / scale)))
    return worst < 1e-5, f"max scaled error {worst:.2e} over {trials} configurations"


def check_constraint_basis(trials: int, rng) -> tuple[bool, str]:
    worst_orth, worst_null = 0.0, 0.0
    for _ in range(trials):
        rot = _random_rotation(rng)
        basis = constraint_basis(rot)
        worst_orth = max(worst_orth, np.max(np.abs(basis.T @ basis - np.eye(7))))
        jac_h = constraint_jacobian_oracle(pack_state(np.zeros(3), 0.0, rot))
        worst_null = max(worst_null, np.max(np.abs(jac_h @ basis)))
    ok = worst_orth < 1e-12 and worst_null < 1e-10
    return ok, f"orthonormality {worst_orth:.2e}, null-space residual {worst_null:.2e}"


def check_power_scaling(config: ScenarioConfig, rng) -> tuple[bool, str]:
    louder = dataclasses.replace(
        config.signal, power_dbm=config.signal.power_dbm + 10.0 * np.log10(4.0)
    )
    boosted = dataclasses.replace(config, signal=louder)
    for trial in range(200):
        pose = sample_pose(PoseDistribution(), config.seed, trial)
        base = evaluate_pose(config, pose, trial=trial)
        if not base.localizable:
            continue
        ref = evaluate_pose(boosted, pose, trial=trial)
        ratio = ref.peb_m / base.peb_m
        ok = abs(ratio - 0.5) < 1e-9
        return ok, f"PEB ratio under 4x power: {ratio:.12f}"
    return False, "no localizable pose found in 200 draws"


def check_roundtrip(config: ScenarioConfig) -> tuple[bool, str]:
    ok = parse_config(serialize_config(config)) == config
    return ok, "serialize/parse round-trip" + ("" if ok else " mismatch")


def check_ccdf(config: ScenarioConfig) -> tuple[bool, str]:
    first = coverage_ccdf(config, trials=20)
    second = coverage_ccdf(config, trials=20)
    ok = np.array_equal(first.exceedance, second.exceedance)
    return ok, f"20-trial curve reproducible, outage {first.outage:.2f}"


def run_validation(config: ScenarioConfig, trials: int = 50, seed: int = 0):
    """Run all checks; yields (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    yield ("state_jacobian_fd", *check_state_jacobian(trials, rng))
    yield ("path_fim_fd", *check_path_fim(config, max(10, trials // 5), rng))
    yield ("constraint_basis", *check_constraint_basis(max(100, trials), rng))
    yield ("power_scaling", *check_power_scaling(config, rng))
    yield ("config_roundtrip", *check_roundtrip(config))
    yield ("ccdf_reproducible", *check_ccdf(config))
