import numpy as np
import pytest

from thzloc import (
    COMM_ONLY,
    LOCALIZABLE,
    NO_LOS,
    EulerAngles,
    Pose,
    PoseDistribution,
    SignalConfig,
    constrained_crb,
    constraint_basis,
    error_bounds,
    euler_to_rotation,
    evaluate_batch,
    evaluate_pose,
    path_fim,
    preset,
    state_fim,
    state_jacobian,
)
from thzloc.channel import draw_beamformers, path_gain
from thzloc.coverage import sample_poses
from thzloc.crb import CONDITION_LIMIT, classify_localizability, state_jacobians
from thzloc.geometry import element_grid, path_params, visible_paths
from thzloc.validate import check_state_jacobian, random_geometry, run_validation, state_jacobian_error

from oracles import compose_paths, expected_path_fim_oracle, pack_state, state_jacobian_fd


def _random_geometry(rng):
    """BS pose, UE pose and the first subarray of random_geometry, with
    that subarray's PathParams."""
    bs, ue, subs = random_geometry(rng)
    return bs, ue, subs[0], path_params(bs, ue, subs[0])


def test_state_jacobian_delay_row_is_exact():
    rng = np.random.default_rng(4)
    bs, ue, sub, params = _random_geometry(rng)
    jac = state_jacobian(bs, ue, sub)
    c = 299792458.0
    v = ue.position + ue.rotation @ sub.offset - bs.position
    np.testing.assert_allclose(jac[4, 0:3], v / (c * params.distance), rtol=1e-12)
    assert jac[4, 3] == 1.0
    np.testing.assert_allclose(
        jac[4, 4:7],
        np.cross(sub.offset, ue.rotation.T @ v) / (c * params.distance * np.sqrt(2.0)),
        rtol=1e-12, atol=1e-20,
    )


def test_validate_state_jacobian_error_sees_every_block():
    # The delay row holds the clock-bias entry 1 next to position and
    # rotation entries near 1e-9; errors in those must still show.
    rng = np.random.default_rng(4)
    bs, ue, sub, _ = _random_geometry(rng)
    jac = state_jacobian(bs, ue, sub)
    state = pack_state(ue.position, 0.0, ue.rotation)
    want = state_jacobian_fd(
        bs.position, bs.rotation, state, sub.offset, sub.rotation
    ) @ constraint_basis(ue.rotation)
    assert state_jacobian_error(jac, want) < 1e-5
    for block in (slice(0, 3), slice(4, 7)):
        corrupted = jac.copy()
        corrupted[4, block] *= 2.0
        assert state_jacobian_error(corrupted, want) > 0.5


def test_the_state_jacobian_check_sees_a_doubled_delay_row_rotation_block(monkeypatch):
    # The delay row's rotation entries lie near 1e-9 in a row whose scale
    # is the clock-bias entry 1, so only the per-block form can see them.
    def doubled(geo):
        jac, departure, arrival = state_jacobians(geo)
        jac[:, 4, 4:] *= 2.0
        return jac, departure, arrival

    assert check_state_jacobian(5, np.random.default_rng(1001))[0]
    monkeypatch.setattr("thzloc.crb.state_jacobians", doubled)
    passed, worst_row, worst_block = check_state_jacobian(5, np.random.default_rng(1001))
    assert not passed and worst_block > 0.5 and worst_row < 1e-6
    name, passed, _ = next(run_validation(preset("cuboidal-2bs"), trials=5))
    assert name == "state_jacobian_fd" and not passed


def _small_fim_case(seed):
    rng = np.random.default_rng(seed)
    cfg = SignalConfig(num_subcarriers=4, num_transmissions=3)
    bs, ue, sub, params = _random_geometry(rng)
    gain = path_gain(params.distance, cfg.wavelength_m)
    bs_elements = element_grid(4, 4, 0.5 * cfg.wavelength_m)
    beams = draw_beamformers(seed, 0, 0, cfg.num_transmissions, sub.elements.shape[0], 16)
    return cfg, bs, ue, sub, params, gain, bs_elements, beams


def test_path_fim_is_symmetric_psd():
    cfg, _, _, sub, params, gain, bs_el, beams = _small_fim_case(2)
    fim = path_fim(params, gain, beams, bs_el, sub.elements, cfg)
    assert fim.shape == (5, 5)
    np.testing.assert_array_equal(fim, fim.T)
    eigvals = np.linalg.eigvalsh(fim)
    assert eigvals.min() >= -1e-9 * eigvals.max()


def test_beam_averaged_path_fim_matches_closed_form():
    # Law of large numbers: the mean FIM of S independent beam draws lies
    # within a few 1/sqrt(S) of the closed-form expectation, in units of
    # sqrt(F_ii F_jj).
    scn = preset("cuboidal-4bs").realize()
    pose = Pose(np.array([2.0, -1.0, 1.0]), euler_to_rotation(EulerAngles(10, 40, -30)))
    m, n = visible_paths(scn.bs_poses, pose, scn.subarrays)[0]
    sub, bs_elements, signal = scn.subarrays[n], scn.bs_elements[m], scn.signal
    params = path_params(scn.bs_poses[m], pose, sub)
    gain = path_gain(params.distance, signal.wavelength_m)
    draws = 400
    mean = np.zeros((5, 5))
    for trial in range(draws):
        beams = draw_beamformers(
            scn.seed, m, n, signal.num_transmissions, sub.elements.shape[0],
            bs_elements.shape[0], trial=trial,
        )
        mean += path_fim(params, gain, beams, bs_elements, sub.elements, signal) / draws
    want = expected_path_fim_oracle(
        list(params.as_array()), gain, sub.elements, bs_elements, signal.num_transmissions,
        signal.power_w, signal.noise_variance_w, signal.wavelength_m,
        signal.subcarrier_offsets_hz(),
    )
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(mean - want) / scale) <= 3.0 / np.sqrt(draws)


def test_state_fim_accumulates_paths():
    rng = np.random.default_rng(31)
    fims, jacs = [], []
    for _ in range(3):
        bs, ue, sub, _ = _random_geometry(rng)
        jacs.append(state_jacobian(bs, ue, sub))
        fims.append(np.eye(5))
    total = state_fim(fims, jacs)
    want = sum(j.T @ j for j in jacs)
    np.testing.assert_allclose(total, want, rtol=1e-12, atol=1e-15)


def _full_scenario_fim(pose):
    scn = preset("cuboidal-3bs").realize()
    return compose_paths(scn, pose, None, 0).fim


def test_constrained_crb_agrees_with_direct_inverse():
    pose = Pose(np.array([2.0, -1.0, 1.0]), euler_to_rotation(EulerAngles(10, 40, -30)))
    fim = _full_scenario_fim(pose)
    basis = constraint_basis(pose.rotation)
    crb, condition = constrained_crb(fim, basis)
    assert crb is not None and np.isfinite(condition)
    direct = np.linalg.inv(fim)
    assert np.linalg.norm(crb - direct) < 1e-8 * np.linalg.norm(direct)


@pytest.mark.parametrize("name", ["cuboidal-4bs", "planar-2bs"])
def test_the_tangent_crb_gives_the_bounds_in_the_rotation_entries(name):
    # README defines oeb_raw as the root trace over the nine rotation-matrix
    # entries, the rotation block of M C M^T in [p, rho, vec(R)].  M's
    # identity block keeps C's position diagonal bit for bit, and its
    # orthonormal rotation columns keep the trace of C's omega block.
    scn = preset(name).realize()
    trials = list(range(64))
    solved = 0
    for pose in sample_poses(PoseDistribution(), 3, trials):
        crb = compose_paths(scn, pose, None, 0).crb
        if crb is None:
            continue
        solved += 1
        basis = constraint_basis(pose.rotation)
        full = (basis @ crb @ basis.T).diagonal()
        assert crb.shape == (7, 7)
        assert full[:3].tolist() == crb.diagonal()[:3].tolist()
        assert full[4:].sum() == pytest.approx(crb.diagonal()[4:].sum(), rel=1e-14, abs=0.0)
    assert solved > len(trials) // 2


@pytest.mark.parametrize("call", [
    lambda: constrained_crb(np.eye(13), constraint_basis(np.eye(3))),
    lambda: error_bounds(np.eye(13)),
], ids=["constrained_crb", "error_bounds"])
def test_crb_inputs_must_be_7x7(call):
    with pytest.raises(ValueError, match=r"7x7.*\(13, 13\)"):
        call()


def test_constrained_crb_scales_inversely_with_information():
    pose = Pose(np.array([0.5, 0.5, 0.0]), euler_to_rotation(EulerAngles(0, -90, 45)))
    fim = _full_scenario_fim(pose)
    basis = constraint_basis(pose.rotation)
    crb, _ = constrained_crb(fim, basis)
    scaled, _ = constrained_crb(4.0 * fim, basis)
    np.testing.assert_allclose(scaled, crb / 4.0, rtol=1e-10, atol=1e-30)
    peb, _, _ = error_bounds(crb)
    peb_scaled, _, _ = error_bounds(scaled)
    assert peb_scaled == pytest.approx(peb / 2.0, rel=1e-10)


def test_constrained_crb_flags_singular_information():
    rng = np.random.default_rng(5)
    r = euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3)))
    basis = constraint_basis(r)
    # Rank-5 information: a single path cannot pin down 7 free parameters.
    jac = rng.standard_normal((5, 7))
    fim = jac.T @ jac
    crb, condition = constrained_crb(fim, basis)
    assert crb is None
    assert condition > 1e12 or np.isinf(condition)


@pytest.mark.parametrize("condition", [2e11, 2e13])
def test_the_condition_cutoff_applies_after_equilibration(condition):
    # Unit diagonal but for x and the clock bias, correlated at r: the
    # eigenvalues are 1 + r, 1 - r and five 1s, so the condition number is
    # (1 + r) / (1 - r).  The clock-bias entry scaled by 1e18 puts the raw
    # matrix far past the cutoff in both cases.
    r = (condition - 1.0) / (condition + 1.0)
    unit = np.eye(7)
    unit[0, 3] = unit[3, 0] = r
    scale = np.array([1.0, 1.0, 1.0, 1e9, 1.0, 1.0, 1.0])
    fim = scale[:, None] * unit * scale
    assert np.linalg.cond(fim) > 1e6 * CONDITION_LIMIT
    crb, got = constrained_crb(fim, constraint_basis(np.eye(3)))
    assert got == pytest.approx(condition, rel=1e-2)
    if condition < CONDITION_LIMIT:
        inverse = 1.0 / (1.0 - r * r)  # of the unit matrix, at [0, 0] and [3, 3]
        assert crb[0, 0] == pytest.approx(inverse, rel=1e-3)
        assert crb[3, 3] == pytest.approx(inverse / 1e18, rel=1e-3)
    else:
        assert crb is None


def test_error_bounds_blocks():
    crb = np.zeros((7, 7))
    crb[0, 0] = crb[1, 1] = crb[2, 2] = 3.0
    crb[4, 4] = 2.0
    peb, oeb_raw, oeb_deg = error_bounds(crb)
    assert peb == pytest.approx(3.0)
    assert oeb_raw == pytest.approx(np.sqrt(2.0))
    assert oeb_deg == pytest.approx(np.degrees(1.0))


def test_classification_labels():
    assert classify_localizability(0, False) == NO_LOS
    assert classify_localizability(1, True) == COMM_ONLY
    assert classify_localizability(1, False) == COMM_ONLY
    assert classify_localizability(2, True) == LOCALIZABLE
    assert classify_localizability(3, False) == COMM_ONLY


def test_evaluate_batch_end_to_end():
    scn = preset("cuboidal-2bs").realize()
    pose = Pose(np.array([1.0, 2.0, 0.0]), euler_to_rotation(EulerAngles(0, -90, 45)))
    result = evaluate_batch(scn, [pose], [0]).result(0)
    assert result.classification == LOCALIZABLE
    assert result.num_visible_bs == 2
    assert np.isfinite(result.peb_m) and result.peb_m > 0
    assert np.isfinite(result.oeb_deg) and result.oeb_deg > 0
    assert result.num_paths == len(result.paths) == len(result.path_params)


def test_results_of_one_pose_compare_and_hash_alike():
    pose = Pose(np.array([2.0, -1.0, 1.0]), euler_to_rotation(EulerAngles(10, 40, -30)))
    first, second = (evaluate_pose(preset("cuboidal-4bs"), pose, trial=3) for _ in range(2))
    assert first.num_paths > 0
    assert first == second and hash(first) == hash(second)
    assert first != evaluate_pose(preset("cuboidal-4bs"), pose, trial=4)


def test_adding_a_base_station_never_hurts():
    pose = Pose(np.array([3.0, -4.0, 1.0]), euler_to_rotation(EulerAngles(20, 10, 75)))
    results = {}
    for name in ("cuboidal-2bs", "cuboidal-3bs", "cuboidal-4bs"):
        results[name] = evaluate_pose(preset(name), pose)
    assert results["cuboidal-3bs"].peb_m <= results["cuboidal-2bs"].peb_m + 1e-12
    assert results["cuboidal-4bs"].peb_m <= results["cuboidal-3bs"].peb_m + 1e-12
