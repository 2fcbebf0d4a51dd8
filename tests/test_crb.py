import numpy as np
import pytest

from thzloc import (
    COMM_ONLY,
    LOCALIZABLE,
    NO_LOS,
    EulerAngles,
    Pose,
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
from thzloc.crb import classify_localizability
from thzloc.geometry import Subarray, element_grid, path_params, visible_paths
from thzloc.validate import state_jacobian_error

from oracles import (
    constraint_jacobian_oracle,
    expected_path_fim_oracle,
    fim_from_jacobian,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)


def _random_geometry(rng, max_elevation_deg=85.0):
    """BS pose, UE pose, subarray with both path elevations bounded away
    from the arcsin branch point."""
    while True:
        bs = Pose(
            rng.uniform(-10, 10, 3) + np.array([0.0, 0.0, 5.0]),
            euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3))),
        )
        ue = Pose(
            rng.uniform(-8, 8, 3),
            euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3))),
        )
        sub = Subarray(
            offset=rng.uniform(-0.1, 0.1, 3),
            rotation=euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3))),
            elements=element_grid(4, 4, 1e-3),
        )
        params = path_params(bs, ue, sub)
        limit = np.deg2rad(max_elevation_deg)
        if abs(params.aod_el) < limit and abs(params.aoa_el) < limit:
            return bs, ue, sub, params


def test_state_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(25):
        bs, ue, sub, _ = _random_geometry(rng)
        got = state_jacobian(bs, ue, sub)
        state = pack_state(ue.position, 0.0, ue.rotation)
        want = state_jacobian_fd(
            bs.position, bs.rotation, state, sub.offset, sub.rotation
        ) @ constraint_basis(ue.rotation)
        for row in range(5):
            scale = max(np.linalg.norm(want[row]), 1e-12)
            assert np.linalg.norm(got[row] - want[row]) < 1e-6 * scale


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


def test_path_fim_matches_oracle_finite_differences():
    cfg, _, _, sub, params, gain, bs_el, beams = _small_fim_case(3)
    got = path_fim(params, gain, beams, bs_el, sub.elements, cfg)
    fd = signal_jacobian_fd(
        list(params.as_array()), gain, beams.ue, beams.bs, sub.elements, bs_el,
        cfg.power_w, cfg.wavelength_m, cfg.subcarrier_offsets_hz(),
    )
    want = fim_from_jacobian(fd.reshape(-1, 5), cfg.noise_variance_w)
    assert np.linalg.norm(got - want) < 1e-4 * np.linalg.norm(want)


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


def test_constraint_basis_identities():
    rng = np.random.default_rng(40)
    for _ in range(100):
        r = euler_to_rotation(EulerAngles(*rng.uniform(0, 360, 3)))
        m = constraint_basis(r)
        assert m.shape == (13, 7)
        np.testing.assert_allclose(m.T @ m, np.eye(7), atol=1e-13)
        jac_h = constraint_jacobian_oracle(pack_state(np.zeros(3), 0.0, r))
        assert np.max(np.abs(jac_h @ m)) < 1e-12


def _full_scenario_fim(pose):
    scn = preset("cuboidal-3bs").realize()
    from thzloc.geometry import visible_paths

    pairs = visible_paths(scn.bs_poses, pose, scn.subarrays)
    fims, jacs = [], []
    for m, n in pairs:
        sub = scn.subarrays[n]
        params = path_params(scn.bs_poses[m], pose, sub)
        gain = path_gain(params.distance, scn.signal.wavelength_m)
        beams = draw_beamformers(
            scn.seed, m, n, scn.signal.num_transmissions,
            sub.elements.shape[0], scn.bs_elements[m].shape[0],
        )
        fims.append(path_fim(params, gain, beams, scn.bs_elements[m], sub.elements, scn.signal))
        jacs.append(state_jacobian(scn.bs_poses[m], pose, sub))
    return state_fim(fims, jacs)


def test_constrained_crb_agrees_with_direct_inverse():
    pose = Pose(np.array([2.0, -1.0, 1.0]), euler_to_rotation(EulerAngles(10, 40, -30)))
    fim = _full_scenario_fim(pose)
    basis = constraint_basis(pose.rotation)
    crb, condition = constrained_crb(fim, basis)
    assert crb is not None and np.isfinite(condition)
    direct = basis @ np.linalg.inv(fim) @ basis.T
    assert np.linalg.norm(crb - direct) < 1e-8 * np.linalg.norm(direct)


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


def test_error_bounds_blocks():
    crb = np.zeros((13, 13))
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
    assert result.num_paths == len(result.paths)


def test_adding_a_base_station_never_hurts():
    pose = Pose(np.array([3.0, -4.0, 1.0]), euler_to_rotation(EulerAngles(20, 10, 75)))
    results = {}
    for name in ("cuboidal-2bs", "cuboidal-3bs", "cuboidal-4bs"):
        results[name] = evaluate_pose(preset(name), pose)
    assert results["cuboidal-3bs"].peb_m <= results["cuboidal-2bs"].peb_m + 1e-12
    assert results["cuboidal-4bs"].peb_m <= results["cuboidal-3bs"].peb_m + 1e-12
