"""The batched evaluation kernel against its per-path layers and a reference.

evaluate_batch(scenario, ue_poses, trials, seed=None) is the one way into
the kernel: it takes a realized Scenario, runs every layer once over all
paths of a batch of poses and returns a BoundTable of columns, whose
result(i) is pose i's BoundResult.  evaluate_pose and the per-path public
functions are batches of one through the same layers.  These tests pin
five things: a pose's result does not depend on the batch it is evaluated
in (bit for bit, against the per-path composition too, whichever group of
paths its beams are drawn in), the table's columns match the results
built from them, the entry's seed and trial arguments, the beam buffers
each thread keeps from call to call, one set per shape, and the
separable per-path FIM's agreement with the full (G, K, 5) signal-gradient
tensor that it replaces.  Last, the bounds are checked against the
13-entry Jacobian times the constraint basis, all in long double.
"""

import dataclasses
import itertools
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
    PathParams,
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
from thzloc.channel import (
    _GROUP_ELEMENTS,
    _THREAD_BUFFERS,
    draw_beamformers,
    path_gain,
    thread_buffers,
)
from thzloc.coverage import sample_poses
from thzloc.crb import NO_LOS, _PATH_BLOCK, _beam_fims, _path_groups, classify_localizability
from thzloc.geometry import path_angles, path_geometry, stack_poses, subarray_frames, visibility

from oracles import (
    gauss_jordan_inverse,
    signal_gradient,
    state_jacobians_13,
    tangent_basis_reference,
)

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


def _grouped_panels():
    # Five of the six subarrays share a size and one is smaller, and the
    # BS panels have three sizes: a pose's paths to one BS are a run of up
    # to five paths of one shape, then a path of its own.
    config = preset("cuboidal-4bs")
    config = dataclasses.replace(
        config,
        bs=_resized(config.bs, [(4, 4), (8, 8), (2, 8), (6, 6)]),
        subarrays=_resized(config.subarrays, [(4, 4)] * 5 + [(2, 2)]),
    )
    return config.realize()


def _kernel_paths(scn, poses):
    """(paths, params) of the poses, as evaluate_batch finds them."""
    bs, mounts = scn.bs_stack, scn.mount_stack
    frames = subarray_frames(stack_poses(poses), mounts)
    paths = np.nonzero(visibility(bs, frames))
    return paths, path_angles(path_geometry(bs, mounts, frames, paths), scn.clock_bias_s)


def _groups(scn, paths):
    """(shapes in the block, group size, paths its buffers hold, sizes of
    the run's groups) of each group that _beam_fims draws at once."""
    g = scn.signal.num_transmissions
    groups = []
    for first in range(0, paths[0].size, _PATH_BLOCK):
        block = slice(first, first + _PATH_BLOCK)
        shapes = [(scn.subarrays[n].elements.shape[0], scn.bs_elements[m].shape[0])
                  for m, n in zip(paths[1][block].tolist(), paths[2][block].tolist())]
        runs = itertools.groupby(_path_groups(shapes, g), key=lambda group: shapes[group[0]])
        for _, run in runs:
            run = [(stop - start, buffers.paths) for start, stop, buffers in run]
            sizes = [size for size, _ in run]
            groups += [(len(set(shapes)), size, held, sizes) for size, held in run]
    return groups


def test_path_groups_match_the_per_path_draws_bit_for_bit():
    # Each group of paths of one shape is drawn in one phasor pass and one
    # product per side; every path's FIM must still equal that of its own
    # draw_beamformers and path_fim, and every pose's bounds those of the
    # per-path composition and of a batch of one.  37 poses leave 10
    # cuboidal-4bs paths in the last block.
    seed, count = 17, 37
    trials = list(range(count))
    poses = sample_poses(PoseDistribution(), seed, trials)
    groups = []
    for scn in (_grouped_panels(), SCENARIOS["cuboidal-4bs"].realize()):
        paths, params = _kernel_paths(scn, poses)
        groups += _groups(scn, paths)
        fims = _beam_fims(scn, params, paths, trials, seed)
        for p, (owner, m, n) in enumerate(zip(*(index.tolist() for index in paths))):
            sub = scn.subarrays[n]
            beams = draw_beamformers(seed, m, n, scn.signal.num_transmissions,
                                     sub.elements.shape[0], scn.bs_elements[m].shape[0],
                                     trial=trials[owner])
            path = PathParams(*params[p])
            gain = path_gain(path.distance, scn.signal.wavelength_m)
            fim = path_fim(path, gain, beams, scn.bs_elements[m], sub.elements, scn.signal)
            assert np.array_equal(fims[p].view(np.uint64), fim.view(np.uint64)), f"path {p}"
        whole = _results(evaluate_batch(scn, poses, trials, seed))
        assert [_composed(scn, pose, seed, t) for t, pose in zip(trials, poses)] == whole
        alone = [evaluate_batch(scn, [pose], [t], seed).result(0) for t, pose in zip(trials, poses)]
        assert alone == whole
    # Blocks of several shapes, one-path groups, groups in their buffers'
    # leading rows, full groups, and runs split into groups of two sizes.
    assert max(shapes for shapes, _, _, _ in groups) > 2
    assert any(size == 1 for _, size, _, _ in groups)
    assert any(1 < size < held for _, size, held, _ in groups)
    assert any(size == held > 1 for _, size, held, _ in groups)
    assert any(len(set(run)) > 1 and max(run) - min(run) == 1 for _, _, _, run in groups)


def test_a_run_of_one_shape_splits_into_near_equal_groups():
    shapes = [(16, 64)] * 5 + [(4, 64)] + [(16, 64)] * 3 + [(4, 16)] * 9
    groups = [(start, stop, buffers.paths) for start, stop, buffers in _path_groups(shapes, 50)]
    assert groups == [(0, 1, 2), (1, 3, 2), (3, 5, 2), (5, 6, 2), (6, 7, 2), (7, 9, 2),
                      (9, 13, 8), (13, 18, 8)]


def _buffer_shapes(scn, poses):
    # The beam buffer shapes that a fresh thread keeps after one batch.
    shapes = set()

    def work():
        evaluate_batch(scn, poses, list(range(len(poses))), 3)
        shapes.update(_THREAD_BUFFERS.sets)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    return shapes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_thread_keeps_one_beam_buffer_set_per_path_shape(name):
    # A group of fewer paths than its buffers hold draws into their leading
    # rows, so there is one set per (G, N_ue, N_bs) that a path has.
    scn = SCENARIOS[name].realize()
    poses = sample_poses(PoseDistribution(), 3, list(range(30)))
    paths, _ = _kernel_paths(scn, poses)
    g = scn.signal.num_transmissions
    want = {(g, scn.subarrays[n].elements.shape[0], scn.bs_elements[m].shape[0])
            for m, n in zip(paths[1].tolist(), paths[2].tolist())}
    assert _buffer_shapes(scn, poses) == want
    for shape in want:
        buffers = thread_buffers(*shape)
        assert buffers.paths == max(1, _GROUP_ELEMENTS // (g * (shape[1] + shape[2])))
        rows = buffers.rows[buffers.paths]
        assert rows.phasors.shape == (buffers.paths, g, shape[1] + shape[2])
        for k in range(1, buffers.paths):
            assert all(np.shares_memory(a, b) for a, b in zip(buffers.rows[k], rows))


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
    total = np.zeros((7, 7))
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


LONG_DOUBLE_POSES = 200


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than float64 here",
)
@pytest.mark.parametrize("name", ["cuboidal-4bs", "planar-2bs"])
def test_bounds_match_the_long_double_reference(name):
    # The kernel's geometry and per-path FIMs through the 13-entry Jacobian
    # times the tangent basis, summed and inverted by Gauss-Jordan in long
    # double: PEB and OEB lie within 1e-14 x condition of that.
    scn = SCENARIOS[name].realize()
    seed = 31
    trials = list(range(LONG_DOUBLE_POSES))
    poses = sample_poses(PoseDistribution(), seed, trials)
    table = evaluate_batch(scn, poses, trials, seed)
    bs, mounts, ue = scn.bs_stack, scn.mount_stack, stack_poses(poses)
    frames = subarray_frames(ue, mounts)
    paths = np.nonzero(visibility(bs, frames))
    geo = path_geometry(bs, mounts, frames, paths)
    fims = _beam_fims(scn, path_angles(geo, scn.clock_bias_s), paths, trials, seed)
    jac = state_jacobians_13(geo, np.longdouble)
    jac = jac @ tangent_basis_reference(ue[1].astype(np.longdouble))[paths[0]]
    terms = jac.swapaxes(1, 2) @ fims.astype(np.longdouble) @ jac
    solved = np.isfinite(table.peb_m).nonzero()[0]
    assert solved.size > LONG_DOUBLE_POSES // 2
    worst = 0.0
    for i in solved.tolist():
        fim = terms[paths[0] == i].sum(axis=0)
        scale = 1 / np.sqrt(fim.diagonal())
        crb = (scale[:, None] * gauss_jordan_inverse(scale[:, None] * fim * scale) * scale).diagonal()
        peb = np.sqrt(crb[:3].sum())
        oeb = np.degrees(np.sqrt(crb[4:].sum()) / np.sqrt(np.longdouble(2)))
        error = max(abs(table.peb_m[i] - peb) / peb, abs(table.oeb_deg[i] - oeb) / oeb)
        worst = max(worst, float(error) / table.condition_number[i])
    assert worst <= 1e-14
