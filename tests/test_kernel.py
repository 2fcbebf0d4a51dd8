"""The batched evaluation kernel against its per-path layers and a reference.

evaluate_batch(scenario, ue_poses, trials, seed=None) is the one way into
the kernel: it takes a realized Scenario, runs every layer once over all
paths of a batch of poses and returns a BoundTable of columns, whose
result(i) is pose i's BoundResult.  evaluate_pose and the per-path public
functions are batches of one through the same layers.  These tests pin
five things: a pose's result does not depend on the batch it is evaluated
in (bit for bit, against the per-path composition too), the table's
columns match the results built from them, the entry's seed and trial
arguments, the beam buffers each thread keeps from call to call, and the
separable per-path FIM's agreement with the full (G, K, 5) signal-gradient
tensor that it replaces.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thzloc import (
    PRESET_NAMES,
    BoundResult,
    EulerAngles,
    GeometryError,
    PathObservation,
    Pose,
    PoseDistribution,
    constrained_crb,
    constraint_basis,
    error_bounds,
    euler_to_rotation,
    evaluate_batch,
    evaluate_pose,
    load_config,
    orientation_field,
    path_fim,
    path_params,
    position_field,
    preset,
    sample_pose,
    state_fim,
    state_jacobian,
    visible_paths,
)
from thzloc.channel import draw_beamformers, path_gain
from thzloc.crb import NO_LOS, classify_localizability

from oracles import signal_gradient

WIDE = Path(__file__).resolve().parents[1] / "perfbench" / "planar-2bs-wide.yaml"
SCENARIOS = {name: preset(name) for name in PRESET_NAMES}
SCENARIOS["planar-2bs-wide"] = load_config(WIDE)


def _branch_point_pose(scn):
    """A pose whose first visible path leaves BS 1 at the arcsin branch
    point: v lies 1e-7 rad off the BS panel's third axis, on the visible
    side of its plane."""
    bs, sub = scn.bs_poses[1], scn.subarrays[2]
    rotation = euler_to_rotation(EulerAngles(0.0, -90.0, 0.0))
    position = bs.position + 3.0 * bs.rotation[:, 2] + 1e-7 * bs.rotation[:, 0]
    return Pose(position - rotation @ sub.offset, rotation)


def _poses(scn, count, seed):
    poses = [sample_pose(PoseDistribution(), seed, t) for t in range(count - 1)]
    return poses + [_branch_point_pose(scn)]


def _results(table):
    return [table.result(i) for i in range(table.peb_m.size)]


def _composed(scn, pose, seed, trial):
    """BoundResult from the per-path public functions, called in the order
    of the benchmark's traced copy of the pipeline."""
    pairs = visible_paths(scn.bs_poses, pose, scn.subarrays)
    observations, fims, jacobians = [], [], []
    degenerate = False
    for m, n in pairs:
        sub = scn.subarrays[n]
        params = path_params(scn.bs_poses[m], pose, sub, scn.clock_bias_s)
        observations.append(PathObservation(m, n, params))
        if degenerate:
            continue
        gain = path_gain(params.distance, scn.signal.wavelength_m)
        beams = draw_beamformers(
            seed, m, n, scn.signal.num_transmissions,
            sub.elements.shape[0], scn.bs_elements[m].shape[0], trial=trial,
        )
        try:
            jacobians.append(state_jacobian(scn.bs_poses[m], pose, sub))
        except GeometryError:
            degenerate = True
            continue
        fims.append(path_fim(params, gain, beams, scn.bs_elements[m], sub.elements, scn.signal))
    crb, condition = None, math.inf
    if pairs and not degenerate:
        crb, condition = constrained_crb(state_fim(fims, jacobians), constraint_basis(pose.rotation))
    peb = oeb_raw = oeb_deg = math.inf
    if crb is not None:
        peb, oeb_raw, oeb_deg = error_bounds(crb)
    num_visible_bs = len({m for m, _ in pairs})
    return BoundResult(
        classification=classify_localizability(num_visible_bs, crb is not None),
        peb_m=peb,
        oeb_deg=oeb_deg,
        oeb_raw=oeb_raw,
        num_paths=len(pairs),
        num_visible_bs=num_visible_bs,
        condition_number=condition,
        paths=tuple(observations),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_results_do_not_depend_on_the_batch(name):
    scn = SCENARIOS[name].realize()
    seed, count = 11, 24
    poses = _poses(scn, count, seed)
    trials = list(range(count))
    whole = _results(evaluate_batch(scn, poses, trials, seed))
    assert not whole[-1].localizable and math.isinf(whole[-1].peb_m)
    assert whole[-1].num_paths == len(whole[-1].paths) > 0
    for size in (1, 7):
        pieces = {}
        backwards = trials[::-1]
        for start in range(0, count, size):
            part = backwards[start : start + size]
            table = evaluate_batch(scn, [poses[t] for t in part], part, seed)
            for t, result in zip(part, _results(table)):
                pieces[t] = result
        assert [pieces[t] for t in trials] == whole, f"batches of {size}"
    composed = [_composed(scn, pose, seed, t) for t, pose in zip(trials, poses)]
    assert composed == whole


def test_seed_defaults_to_the_scenario_seed():
    config = preset("cuboidal-3bs")
    scn = config.realize()
    pose, trial = sample_pose(PoseDistribution(), 5, 0), 4
    result = evaluate_batch(scn, [pose], [trial]).result(0)
    assert result.localizable
    assert result == evaluate_pose(config, pose, trial=trial)
    assert result == evaluate_batch(scn, [pose], [trial], scn.seed).result(0)
    assert scn.seed != 0 and result != evaluate_batch(scn, [pose], [trial], 0).result(0)


def test_trials_must_be_integers():
    config = preset("cuboidal-3bs")
    pose = sample_pose(PoseDistribution(), 5, 0)
    with pytest.raises(TypeError):
        evaluate_pose(config, pose, trial=1.5)
    assert evaluate_pose(config, pose, trial=np.int64(3)) == evaluate_pose(config, pose, trial=3)


def test_trials_and_poses_must_match_in_length():
    scn = preset("cuboidal-3bs").realize()
    poses = [sample_pose(PoseDistribution(), 5, t) for t in range(3)]
    with pytest.raises(ValueError, match="3 UE poses but 5 trials"):
        evaluate_batch(scn, poses, range(5))
    with pytest.raises(ValueError, match="3 UE poses but 2 trials"):
        evaluate_batch(scn, poses, range(2))
    # Also when the pose that lacks a trial has no LOS and draws no beams.
    above = Pose(np.array([0.0, 0.0, 50.0]), np.eye(3))
    assert evaluate_batch(scn, [above], [0]).result(0).classification == NO_LOS
    with pytest.raises(ValueError, match="2 UE poses but 1 trials"):
        evaluate_batch(scn, [poses[0], above], [0])


def test_a_second_call_draws_into_the_same_beam_buffers():
    # One beam buffer set of the wide scenario takes 0.95 MB; a batch of
    # one reuses the set its thread made on the first call.
    scn = SCENARIOS["planar-2bs-wide"].realize()
    pose = sample_pose(PoseDistribution(), 5, 1)
    first = evaluate_batch(scn, [pose], [0]).result(0)
    assert first.num_paths > 0
    tracemalloc.start()
    try:
        evaluate_batch(scn, [pose], [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_threads_evaluating_at_once_match_serial_results():
    # Each thread draws into its own beam buffers.
    scn = SCENARIOS["planar-2bs-wide"].realize()
    poses = [sample_pose(PoseDistribution(), 3, t) for t in range(6)]
    serial = [evaluate_batch(scn, [pose], [t]).result(0) for t, pose in enumerate(poses)]
    assert sum(result.num_paths for result in serial) > 0
    mismatches = []

    def work():
        for t, pose in enumerate(poses):
            if evaluate_batch(scn, [pose], [t]).result(0) != serial[t]:
                mismatches.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def _resized(panels, shapes):
    return tuple(
        dataclasses.replace(item, panel=dataclasses.replace(item.panel, rows=rows, cols=cols))
        for item, (rows, cols) in zip(panels, shapes)
    )


def _mixed_panels():
    # The BS panels have three sizes, two of them equal in count but not in
    # shape (4x4 and 2x8), and the subarrays two sizes.
    config = preset("cuboidal-4bs")
    config = dataclasses.replace(
        config,
        bs=_resized(config.bs, [(4, 4), (8, 8), (2, 8), (6, 6)]),
        subarrays=_resized(config.subarrays, [(4, 4), (2, 2), (4, 4), (2, 4), (2, 2), (4, 4)]),
    )
    scn = config.realize()
    assert [e.shape[0] for e in scn.bs_elements] == [16, 64, 16, 36]
    return scn


def test_mixed_panel_sizes_match_the_per_path_composition():
    # The kernel steers each block's paths once per panel size.
    scn = _mixed_panels()
    seed, count = 13, 40
    poses = _poses(scn, count, seed)
    trials = list(range(count))
    whole = _results(evaluate_batch(scn, poses, trials, seed))
    assert sum(result.localizable for result in whole) > count // 2
    assert [_composed(scn, pose, seed, t) for t, pose in zip(trials, poses)] == whole


def test_table_columns_match_the_results_they_build():
    scn = _mixed_panels()
    seed, count = 13, 40
    table = evaluate_batch(scn, _poses(scn, count, seed), list(range(count)), seed)
    results = _results(table)
    for name in (
        "classification", "peb_m", "oeb_deg", "oeb_raw",
        "condition_number", "num_paths", "num_visible_bs",
    ):
        assert getattr(table, name).tolist() == [getattr(r, name) for r in results], name
    observations = [obs for result in results for obs in result.paths]
    assert len(observations) == table.paths.shape[0] > count
    assert table.paths.tolist() == [[obs.bs_index, obs.subarray_index] for obs in observations]
    assert table.path_params.tolist() == [
        list(dataclasses.astuple(obs.params)) for obs in observations
    ]


@pytest.mark.parametrize(
    "field, kwargs",
    [
        (orientation_field, dict(position=(0.0, 0.0, 0.0), step_deg=45.0)),
        (position_field, dict(orientation=EulerAngles(0.0, -60.0, 45.0), grid=(-10.0, 10.0, 2.5))),
    ],
)
def test_field_workers_match_serial_grid(field, kwargs):
    config = preset("planar-2bs")
    serial = field(config, threads=1, **kwargs)
    pooled = field(config, threads=2, **kwargs)
    assert np.isnan(serial.peb_m).any() and np.isfinite(serial.peb_m).any()
    for key in ("peb_m", "oeb_deg", "num_paths"):
        assert np.array_equal(getattr(serial, key), getattr(pooled, key), equal_nan=True), key
    assert np.array_equal(serial.classification, pooled.classification)


REFERENCE_POSES = 300


def _tensor_fim(scn, params, gain, beams, m, n):
    """2 / sigma^2 Re(J^H J) of the full (G, K, 5) signal gradient."""
    _, dmu = signal_gradient(
        params, gain, beams, scn.bs_elements[m], scn.subarrays[n].elements, scn.signal
    )
    jac = dmu.reshape(-1, 5)
    fim = (2.0 / scn.signal.noise_variance_w) * np.real(jac.conj().T @ jac)
    return 0.5 * (fim + fim.T)


def _reference(scn, pose, seed, trial, fim_errors):
    """(classification, PEB, OEB, condition) from per-path tensor FIMs."""
    pairs = visible_paths(scn.bs_poses, pose, scn.subarrays)
    total = np.zeros((13, 13))
    for m, n in pairs:
        sub = scn.subarrays[n]
        try:
            jac = state_jacobian(scn.bs_poses[m], pose, sub)
        except GeometryError:
            total = None
            break
        params = path_params(scn.bs_poses[m], pose, sub, scn.clock_bias_s)
        gain = path_gain(params.distance, scn.signal.wavelength_m)
        beams = draw_beamformers(
            seed, m, n, scn.signal.num_transmissions,
            sub.elements.shape[0], scn.bs_elements[m].shape[0], trial=trial,
        )
        tensor = _tensor_fim(scn, params, gain, beams, m, n)
        separable = path_fim(params, gain, beams, scn.bs_elements[m], sub.elements, scn.signal)
        fim_errors.append(np.linalg.norm(separable - tensor) / np.linalg.norm(tensor))
        total += jac.T @ tensor @ jac
    crb, condition = None, math.inf
    if pairs and total is not None:
        crb, condition = constrained_crb(total, constraint_basis(pose.rotation))
    peb = oeb = math.inf
    if crb is not None:
        peb, _, oeb = error_bounds(crb)
    label = classify_localizability(len({m for m, _ in pairs}), crb is not None)
    return label, peb, oeb, condition


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_matches_tensor_reference(name):
    scn = SCENARIOS[name].realize()
    seed = 29
    poses = [sample_pose(PoseDistribution(), seed, t) for t in range(REFERENCE_POSES)]
    results = _results(evaluate_batch(scn, poses, list(range(REFERENCE_POSES)), seed))
    fim_errors, worst = [], 0.0
    for trial, (pose, result) in enumerate(zip(poses, results)):
        label, peb, oeb, condition = _reference(scn, pose, seed, trial, fim_errors)
        assert result.classification == label, f"trial {trial}"
        assert math.isfinite(result.peb_m) == math.isfinite(peb), f"trial {trial}"
        if math.isfinite(peb):
            error = max(abs(result.peb_m - peb) / peb, abs(result.oeb_deg - oeb) / oeb)
            worst = max(worst, error / condition)
    assert fim_errors and max(fim_errors) <= 1e-12
    assert worst <= 1e-14
