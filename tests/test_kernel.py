"""The batched evaluation kernel against its per-path layers and a reference.

evaluate_batch(scenario, ue_poses, trials, seed=None) is the one way into
the kernel: it takes a realized Scenario, composes its stages over all
paths of a batch of poses and returns a BoundTable of columns, whose
result(i) is pose i's BoundResult.  evaluate_pose and the per-path public
functions are batches of one through the same layers.  These tests pin
seven things: a pose's result does not depend on the batch it is evaluated
in (bit for bit, against oracles.compose_paths too, whichever group of
paths its beams are drawn in), the beam layer's runs of one panel pair
and their near-equal groups, the table's columns match the results
built from them, the entry's seed and trial arguments (and that
localizable_only changes only the one-BS poses and draws only for the
poses it solves), the stages' BS-prefix selections against the presets
with fewer BSs, the beam scratch each
thread keeps from call to call, sized to its largest group, the memory
that path blocks bound, and the separable per-path FIM's agreement with
the full (G, K, 5) signal-gradient tensor that it replaces.  Last, the
bounds are checked against the 13-entry Jacobian times the constraint
basis, all in long double.
"""

import dataclasses
import importlib.util
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thzloc import (
    PRESET_NAMES,
    EulerAngles,
    GeometryError,
    PathParams,
    Pose,
    PoseDistribution,
    euler_to_rotation,
    evaluate_batch,
    evaluate_pose,
    load_config,
    orientation_field,
    path_fim,
    position_field,
    preset,
    sample_pose,
    state_jacobian,
)
from thzloc import crb
from thzloc.channel import _THREAD, draw_beamformers, keyed_beam_rows, path_gain, spawn_keys
from thzloc.coverage import sample_poses
from thzloc.crb import (
    COMM_ONLY, LOCALIZABLE, NO_LOS, _GROUP_ELEMENTS, _PATH_BLOCK, BoundTable, _beam_fims,
)
from thzloc.geometry import stack_poses

from oracles import compose_paths, long_double_bounds, signal_gradient

ROOT = Path(__file__).resolve().parents[1]
WIDE = ROOT / "perfbench" / "planar-2bs-wide.yaml"
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
    return compose_paths(scn, pose, seed, trial).result


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
    # A bool is an int to Python, but True is no trial number.
    with pytest.raises(TypeError):
        evaluate_pose(config, pose, trial=True)
    with pytest.raises(TypeError):
        evaluate_batch(config.realize(), [pose, pose], [0, True])
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


_ABOVE = Pose(np.array([0.0, 0.0, 100.0]), np.eye(3))  # sees no BS


@pytest.mark.parametrize("call, match", [
    (lambda cfg: evaluate_pose(cfg, _ABOVE, trial=-1), "UE pose 0 has trial -1"),
    # The first negative trial is named, though its pose draws no beams.
    (lambda cfg: evaluate_batch(
        cfg.realize(), [sample_pose(PoseDistribution(), 5, t) for t in range(2)] + [_ABOVE],
        [0, 1, -1], 5,
    ), "UE pose 2 has trial -1"),
], ids=["evaluate_pose", "evaluate_batch"])
def test_a_negative_trial_is_refused_whatever_the_pose_sees(call, match):
    with pytest.raises(ValueError, match=match):
        call(preset("cuboidal-2bs"))


def test_a_second_call_draws_into_the_same_beam_buffers():
    # The wide scenario's beam scratch takes 0.77 MB; a batch of one
    # reuses the scratch its thread made on the first call.
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
    # Each thread draws into its own beam scratch.
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
    # The kernel steers each block of a panel pair's run once per side.
    scn = _mixed_panels()
    seed, count = 13, 40
    poses = _poses(scn, count, seed)
    trials = list(range(count))
    whole = _results(evaluate_batch(scn, poses, trials, seed))
    assert sum(result.localizable for result in whole) > count // 2
    assert [_composed(scn, pose, seed, t) for t, pose in zip(trials, poses)] == whole


def _grouped_panels():
    # Five of the six subarrays share a panel and one is smaller, and the
    # BS panels are four: a pose's paths to one BS fall in up to two runs.
    config = preset("cuboidal-4bs")
    config = dataclasses.replace(
        config,
        bs=_resized(config.bs, [(4, 4), (8, 8), (2, 8), (6, 6)]),
        subarrays=_resized(config.subarrays, [(4, 4)] * 5 + [(2, 2)]),
    )
    return config.realize()


def _kernel_paths(scn, poses):
    """(paths, params) of the poses, as evaluate_batch finds them."""
    paths = crb._geometry(scn, stack_poses(poses))
    return paths[:3], paths.params


def _groups(scn, paths):
    """(paths, (N_ue, N_bs), paths a group holds, sizes of the block's
    groups) of each group of paths that _beam_fims draws at once, in turn:
    the paths sorted stably by (subarray panel, BS panel) pair, each pair's
    run in blocks of _PATH_BLOCK and each block in the fewest near-equal
    groups of _GROUP_ELEMENTS phases, or of one path."""
    g = scn.signal.num_transmissions
    (bs_panels, bs_of), (ue_panels, ue_of) = scn.bs_panels, scn.ue_panels
    pairs = list(zip(ue_of[paths[2]].tolist(), bs_of[paths[1]].tolist()))
    groups = []
    for ue, bs in sorted(set(pairs)):
        run = [p for p, pair in enumerate(pairs) if pair == (ue, bs)]
        shape = ue_panels[ue].shape[0], bs_panels[bs].shape[0]
        held = max(1, _GROUP_ELEMENTS // (g * sum(shape)))
        for first in range(0, len(run), _PATH_BLOCK):
            block = run[first : first + _PATH_BLOCK]
            count = -(-len(block) // held)
            cuts = [len(block) * i // count for i in range(count + 1)]
            sizes = [b - a for a, b in zip(cuts, cuts[1:])]
            groups += [(block[a:b], shape, held, sizes) for a, b in zip(cuts, cuts[1:])]
    return groups


def _drawn(monkeypatch, scn, params, paths, trials, seed):
    """_beam_fims' FIMs and the (keys, (N_ue, N_bs)) of each group it draws."""
    drawn = []

    def record(keys, g, n_ue, n_bs):
        drawn.append((keys, (n_ue, n_bs)))
        return keyed_beam_rows(keys, g, n_ue, n_bs)

    monkeypatch.setattr(crb, "keyed_beam_rows", record)
    fims = _beam_fims(scn, params, paths, trials, seed)
    monkeypatch.undo()
    return fims, drawn


def _group_keys(groups, paths, trials, seed):
    keys = spawn_keys(seed, [trials[o] for o in paths[0].tolist()], paths[1], paths[2]).tolist()
    return [([keys[p] for p in members], shape) for members, shape, _, _ in groups]


def test_path_groups_match_the_per_path_draws_bit_for_bit(monkeypatch):
    # Each group of paths of one panel pair is drawn in one phasor pass and
    # one product per side; every path's FIM must still equal that of its
    # own draw_beamformers and path_fim, and every pose's bounds those of
    # the per-path composition and of a batch of one.  37 poses leave 10
    # cuboidal-4bs paths in the last block.
    seed, count = 17, 37
    trials = list(range(count))
    poses = sample_poses(PoseDistribution(), seed, trials)
    groups = []
    for scn in (_grouped_panels(), SCENARIOS["cuboidal-4bs"].realize()):
        paths, params = _kernel_paths(scn, poses)
        fims, drawn = _drawn(monkeypatch, scn, params, paths, trials, seed)
        expected = _groups(scn, paths)
        assert drawn == _group_keys(expected, paths, trials, seed)
        groups += expected
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
    # One-path groups, groups short of what a group holds, full groups, and
    # blocks split into groups of two sizes.
    assert any(len(members) == 1 for members, _, _, _ in groups)
    assert any(1 < len(members) < held for members, _, held, _ in groups)
    assert any(len(members) == held > 1 for members, _, held, _ in groups)
    assert any(len(set(sizes)) > 1 and max(sizes) - min(sizes) == 1 for *_, sizes in groups)


def test_a_run_of_one_shape_splits_into_near_equal_groups(monkeypatch):
    # Groups hold three paths of 50 x 80 or 50 x 72 phases and twelve of
    # 50 x 20.  Sorted by panel pair, a run of 21 paths is a block of 16 in
    # six groups and one of 5 in two, a run of 13 splits into 6 and 7, and
    # a lone path, first in the batch, is a group of its own.
    scn = _mixed_panels()
    bs_index = np.array([1] + [1, 0] * 13 + [1] * 8)
    sub_index = np.array([3] + [0, 1] * 13 + [0] * 8)
    count = bs_index.size
    paths = (np.arange(count), bs_index, sub_index)
    params = np.tile([0.1, -0.2, 0.3, -0.4, 1e-8, 3.0], (count, 1))
    _, drawn = _drawn(monkeypatch, scn, params, paths, list(range(count)), 7)
    assert [(len(keys), shape) for keys, shape in drawn] == (
        [(size, (16, 64)) for size in [2, 3, 3, 2, 3, 3, 2, 3]]
        + [(6, (4, 16)), (7, (4, 16)), (1, (8, 64))]
    )
    assert drawn == _group_keys(_groups(scn, paths), paths, list(range(count)), 7)


def test_panels_of_one_size_and_two_shapes_are_separate_runs(monkeypatch):
    # The 4x4 and 2x8 BS panels hold 16 elements each; paths from them that
    # alternate in the batch are drawn in a run per panel.
    scn = _mixed_panels()
    panels, index = scn.bs_panels
    assert index.tolist() == [0, 1, 2, 3] and panels[0].shape == panels[2].shape == (16, 3)
    paths = (np.arange(6), np.array([0, 2] * 3), np.zeros(6, dtype=int))
    params = np.tile([0.1, -0.2, 0.3, -0.4, 1e-8, 3.0], (6, 1))
    _, drawn = _drawn(monkeypatch, scn, params, paths, list(range(6)), 7)
    assert drawn == [(spawn_keys(7, [0, 2, 4], [0, 0, 0], [0, 0, 0]).tolist(), (16, 16)),
                     (spawn_keys(7, [1, 3, 5], [2, 2, 2], [0, 0, 0]).tolist(), (16, 16))]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_scenario_has_one_panel_per_side(name):
    # So the sort leaves the paths in order and a block's paths are one run.
    scn = SCENARIOS[name].realize()
    for (panels, index), count in [(scn.bs_panels, len(scn.bs_poses)),
                                   (scn.ue_panels, len(scn.subarrays))]:
        assert len(panels) == 1 and index.tolist() == [0] * count


def _in_fresh_thread(work):
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["mixed-panels"])
def test_a_thread_keeps_one_beam_scratch_of_its_largest_group(name):
    # A thread's draws of every shape share one scratch, 48 B per phase,
    # which grows to the largest group of paths drawn at once (rounded up
    # to whole 64 B lines, which these groups fill).
    scn = _mixed_panels() if name == "mixed-panels" else SCENARIOS[name].realize()
    poses = sample_poses(PoseDistribution(), 3, list(range(30)))
    paths, _ = _kernel_paths(scn, poses)
    g = scn.signal.num_transmissions
    largest = max(g * len(members) * sum(shape) for members, shape, _, _ in _groups(scn, paths))
    kept = []

    def work():
        evaluate_batch(scn, poses, list(range(len(poses))), 3)
        kept.append(_THREAD.scratch.nbytes)

    _in_fresh_thread(work)
    assert kept == [48 * largest]


def test_beam_buffers_stay_within_48_bytes_per_phase():
    # Each phase takes a complex phasor, an index, a theta and a complex
    # table phasor.  Three preset paths of 50 x 80 phases take 576,000 B;
    # one path of the wide scenario, 50 x 320 phases, then takes 768,000 B
    # in place of them, not 1,344,000 B in a second set.  The scratch
    # starts on a 64 B line, so each of its three arrays does.
    shapes = {(scn.signal.num_transmissions, sub.panel.num_elements, bs.panel.num_elements)
              for scn in SCENARIOS.values() for sub in scn.subarrays for bs in scn.bs}
    assert shapes == {(50, 16, 64), (50, 64, 256)}
    keys = spawn_keys(2, [0, 1, 2], [0, 1, 1], [0, 0, 3])
    kept = []

    def work():
        tracemalloc.start()
        try:
            for count, shape in [(3, (50, 16, 64)), (1, (50, 64, 256))]:
                keyed_beam_rows(keys[:count], *shape)
                scratch = _THREAD.scratch
                kept.append((scratch.ctypes.data % 64, scratch.nbytes,
                             tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()

    _in_fresh_thread(work)
    assert [(line, nbytes) for line, nbytes, _ in kept] == [(0, 576_000), (0, 768_000)]
    for _, nbytes, traced in kept:
        assert nbytes <= traced <= nbytes + 8192


def test_path_blocks_keep_a_batch_within_2_mib():
    # _PATH_BLOCK bounds the steering stacks, couplings and FIM terms held
    # at once: this batch peaked 1,427 KiB above its baseline with 16-path
    # blocks and 16,443 KiB with one block of all its paths.
    scn = SCENARIOS["cuboidal-4bs"].realize()
    trials = list(range(64))
    poses = sample_poses(PoseDistribution(), 5, trials)
    evaluate_batch(scn, poses, trials, 5)  # this thread's beam buffers
    tracemalloc.start()
    try:
        table = evaluate_batch(scn, poses, trials, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.paths.shape[0] == 768  # 48 blocks
    assert peak <= 2 * 2**20


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
    pairs = [pair for result in results for pair in result.paths]
    params = [row for result in results for row in result.path_params]
    assert len(pairs) == len(params) == table.paths.shape[0] > count
    assert all(type(index) is int for pair in pairs for index in pair)
    assert table.paths.tolist() == [list(pair) for pair in pairs]
    assert table.path_params.tolist() == [list(dataclasses.astuple(row)) for row in params]


def _orientation_cells():
    """Planar-2bs orientation cells at the origin: most see one BS, some
    none, a few both."""
    angles = np.arange(0.0, 360.0, 30.0)
    betas, gammas = (a.ravel() for a in np.meshgrid(angles, angles, indexing="ij"))
    rotations = euler_to_rotation(EulerAngles(0.0, betas, gammas))
    return [Pose(np.zeros(3), rotation) for rotation in rotations]


def test_localizable_only_skips_just_the_one_bs_poses():
    scn = SCENARIOS["planar-2bs"].realize()
    poses = _orientation_cells()
    trials = list(range(len(poses)))
    full = evaluate_batch(scn, poses, trials, 7)
    only = evaluate_batch(scn, poses, trials, 7, localizable_only=True)
    one_bs = full.num_visible_bs == 1
    assert one_bs.any() and (full.num_visible_bs == 0).any()
    assert (full.classification[~one_bs] == LOCALIZABLE).any()
    assert np.isfinite(full.peb_m[one_bs]).any()
    for name in (
        "classification", "peb_m", "oeb_deg", "oeb_raw",
        "condition_number", "num_paths", "num_visible_bs",
    ):
        a, b = getattr(full, name)[~one_bs], getattr(only, name)[~one_bs]
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        if a.dtype != object:
            assert a.tobytes() == b.tobytes(), name
    for name in ("peb_m", "oeb_deg", "oeb_raw", "condition_number"):
        assert np.isposinf(getattr(only, name)[one_bs]).all(), name
    assert (only.classification[one_bs] == COMM_ONLY).all()
    assert only.num_paths.tolist() == full.num_paths.tolist()
    assert only.num_visible_bs.tolist() == full.num_visible_bs.tolist()
    assert only.paths.tolist() == full.paths.tolist()
    assert only.path_params.tobytes() == full.path_params.tobytes()


def _at_branch_point(scn, pose, m, n):
    try:
        state_jacobian(scn.bs_poses[m], pose, scn.subarrays[n])
    except GeometryError:
        return True
    return False


def test_localizable_only_draws_just_for_the_poses_it_solves(monkeypatch):
    # The beam layer receives the keys of the paths of the poses that see
    # two BSs and have no path at the branch point, in path order, and no
    # other.  The branch-point pose sees both BSs.
    scn = SCENARIOS["planar-2bs"].realize()
    poses = _orientation_cells() + [_branch_point_pose(scn)]
    trials = list(range(len(poses)))
    results = _results(evaluate_batch(scn, poses, trials, 7))
    assert results[-1].num_visible_bs == 2
    expected = []
    for t, (pose, result) in enumerate(zip(poses, results)):
        at_branch = any(_at_branch_point(scn, pose, m, n) for m, n in result.paths)
        assert at_branch == (t == len(poses) - 1)
        if result.num_visible_bs > 1 and not at_branch:
            bs_index, sub_index = zip(*result.paths)
            expected += spawn_keys(7, [t] * len(bs_index), bs_index, sub_index).tolist()
    drawn = []

    def record(keys, g, n_ue, n_bs):
        drawn.extend(keys)
        return keyed_beam_rows(keys, g, n_ue, n_bs)

    monkeypatch.setattr(crb, "keyed_beam_rows", record)
    evaluate_batch(scn, poses, trials, 7, localizable_only=True)
    monkeypatch.undo()
    assert expected and drawn == expected


def _reference_numbers():
    """tools/reference_numbers.py, which holds the stored poses' seeds."""
    spec = importlib.util.spec_from_file_location(
        "reference_numbers", ROOT / "tools" / "reference_numbers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layout", ["cuboidal", "planar"])
def test_bs_prefix_selections_match_the_smaller_presets(layout):
    # The paths of a pose's first k BSs are a prefix of its paths with the
    # draws of the k-BS preset, whose BSs are the first k of the 4-BS one.
    # Through the kernel's stages, that prefix gives every column of the
    # k-BS preset's table bit for bit, on the reference file's poses.
    reference = _reference_numbers()
    scn = SCENARIOS[f"{layout}-4bs"].realize()
    trials = list(range(reference.POSES))
    poses = sample_poses(PoseDistribution(), reference.POSE_SEED, trials)
    ue = stack_poses(poses)
    paths = crb._geometry(scn, ue)
    for k in (2, 3):
        prefix = crb._Paths(*(column[paths.bs < k] for column in paths))
        for only in (False, True):
            solvable, num_visible_bs = crb._solvable(prefix, (len(trials), k), only)
            live = solvable[prefix.owners]
            fims = _beam_fims(scn, prefix.params[live], [i[live] for i in prefix[:3]],
                              trials, reference.BEAM_SEED)
            staged = crb._bound(prefix, fims, solvable, num_visible_bs)
            direct = evaluate_batch(SCENARIOS[f"{layout}-{k}bs"].realize(), poses, trials,
                                    reference.BEAM_SEED, localizable_only=only)
            assert np.isfinite(direct.peb_m).any() and prefix.owners.size < paths.owners.size
            for field in dataclasses.fields(BoundTable):
                a, b = getattr(staged, field.name), getattr(direct, field.name)
                assert a.dtype == b.dtype and a.shape == b.shape, (k, only, field.name)
                assert a.tolist() == b.tolist(), (k, only, field.name)
                if a.dtype != object:
                    assert a.tobytes() == b.tobytes(), (k, only, field.name)


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


def _reference(scn, pose, seed, trial, fim_errors):
    """(classification, PEB, OEB, condition) from per-path tensor FIMs,
    2 / sigma^2 Re(J^H J) of the full (G, K, 5) signal gradient; each
    one's distance from path_fim goes to fim_errors."""
    def tensor_fim(params, gain, beams, bs_elements, sub_elements, signal):
        _, dmu = signal_gradient(params, gain, beams, bs_elements, sub_elements, signal)
        jac = dmu.reshape(-1, 5)
        fim = (2.0 / signal.noise_variance_w) * np.real(jac.conj().T @ jac)
        fim = 0.5 * (fim + fim.T)
        separable = path_fim(params, gain, beams, bs_elements, sub_elements, signal)
        fim_errors.append(np.linalg.norm(separable - fim) / np.linalg.norm(fim))
        return fim

    result = compose_paths(scn, pose, seed, trial, tensor_fim).result
    return result.classification, result.peb_m, result.oeb_deg, result.condition_number


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
    solved = np.isfinite(table.peb_m).nonzero()[0]
    assert solved.size > LONG_DOUBLE_POSES // 2
    peb, oeb = long_double_bounds(scn, poses, trials, seed, solved)
    error = np.maximum(abs(table.peb_m[solved] - peb) / peb, abs(table.oeb_deg[solved] - oeb) / oeb)
    assert (error / table.condition_number[solved]).max() <= 1e-14
