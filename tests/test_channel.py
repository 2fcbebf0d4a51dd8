import numpy as np
import pytest

from thzloc import ETA_NAMES, SignalConfig, draw_beamformers
from thzloc.channel import path_gain, signal_gradient, steering_stack
from thzloc.geometry import PathParams, element_grid

from oracles import mean_signal_oracle, signal_jacobian_fd


def test_eta_order_is_fixed():
    assert ETA_NAMES == ("aod_az", "aod_el", "aoa_az", "aoa_el", "delay")


def test_signal_config_derived_quantities():
    cfg = SignalConfig()
    assert cfg.power_w == pytest.approx(1e-3)
    assert cfg.wavelength_m == pytest.approx(2.1413747e-3, rel=1e-8)
    assert cfg.noise_variance_w == pytest.approx(4.116233473e-11, rel=1e-9)


def test_subcarrier_grid_symmetric():
    cfg = SignalConfig(bandwidth_hz=1e9, num_subcarriers=10)
    f = cfg.subcarrier_offsets_hz()
    np.testing.assert_allclose(f, np.arange(-4.5e8, 5.0e8, 1e8), atol=1e-3)
    assert f.sum() == pytest.approx(0.0, abs=1e-6)
    assert 0.0 not in f  # even count straddles the carrier


def test_path_gain_reference_value():
    lam = 299792458.0 / 140e9
    assert path_gain(10.0, lam) == pytest.approx(1.7040518426e-5, rel=1e-9)
    assert path_gain(20.0, lam) == pytest.approx(path_gain(10.0, lam) / 2.0)


def test_steering_vector_unit_magnitude_and_broadside():
    elements = element_grid(4, 4, 1e-3)
    stack = steering_stack(elements, [0.7, 0.0], [-0.3, 0.0], 2e-3)
    np.testing.assert_allclose(np.abs(stack[0, :, 0]), 1.0, atol=1e-14)
    # Broadside (+X) is normal to the panel plane: zero phase everywhere.
    np.testing.assert_allclose(stack[1, :, 0], 1.0, atol=1e-14)


def test_steering_gradients_match_finite_differences():
    elements = element_grid(3, 5, 1.1e-3)
    lam = 2.1e-3
    az, el = 0.4, -0.6
    h = 1e-7
    a, da_az, da_el = steering_stack(elements, [az], [el], lam)[0].T
    # Rows: the point itself, then az -/+ h, then el -/+ h.
    shifted = steering_stack(
        elements, [az, az - h, az + h, az, az], [el, el, el, el - h, el + h], lam
    )[:, :, 0]
    np.testing.assert_allclose(a, shifted[0], atol=1e-15)
    np.testing.assert_allclose(da_az, (shifted[2] - shifted[1]) / (2 * h), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(da_el, (shifted[4] - shifted[3]) / (2 * h), rtol=1e-6, atol=1e-6)


def test_beamformer_magnitudes_and_determinism():
    beams = draw_beamformers(seed=3, bs_index=1, subarray_index=2, num_transmissions=8, n_ue=16, n_bs=64)
    assert beams.ue.shape == (8, 16) and beams.bs.shape == (8, 64)
    # Unit-norm combiner (unit noise gain), unit-modulus precoder entries.
    np.testing.assert_allclose(np.abs(beams.ue), 1 / 4.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(beams.bs), 1.0, atol=1e-14)
    again = draw_beamformers(seed=3, bs_index=1, subarray_index=2, num_transmissions=8, n_ue=16, n_bs=64)
    np.testing.assert_array_equal(beams.ue, again.ue)
    np.testing.assert_array_equal(beams.bs, again.bs)


def test_beamformer_streams_are_keyed_per_path_and_trial():
    base = dict(seed=3, num_transmissions=4, n_ue=16, n_bs=64)
    b00 = draw_beamformers(bs_index=0, subarray_index=0, **base)
    b01 = draw_beamformers(bs_index=0, subarray_index=1, **base)
    b10 = draw_beamformers(bs_index=1, subarray_index=0, **base)
    t1 = draw_beamformers(bs_index=0, subarray_index=0, trial=1, **base)
    assert not np.array_equal(b00.ue, b01.ue)
    assert not np.array_equal(b00.ue, b10.ue)
    assert not np.array_equal(b00.ue, t1.ue)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    cfg = SignalConfig(num_subcarriers=4, num_transmissions=3)
    bs_elements = element_grid(2, 4, 0.5 * cfg.wavelength_m)
    ue_elements = element_grid(2, 2, 0.5 * cfg.wavelength_m)
    params = PathParams(
        aod_az=rng.uniform(-1.2, 1.2),
        aod_el=rng.uniform(-1.0, 1.0),
        aoa_az=rng.uniform(-1.2, 1.2),
        aoa_el=rng.uniform(-1.0, 1.0),
        delay=rng.uniform(2e-8, 8e-8),
        distance=10.0,
    )
    gain = path_gain(params.distance, cfg.wavelength_m)
    beams = draw_beamformers(seed, 0, 0, cfg.num_transmissions, 4, 8)
    return cfg, bs_elements, ue_elements, params, gain, beams


def test_mean_signal_matches_oracle():
    cfg, bs_el, ue_el, params, gain, beams = _random_case(11)
    got, _ = signal_gradient(params, gain, beams, bs_el, ue_el, cfg)
    want = mean_signal_oracle(
        list(params.as_array()), gain, beams.ue, beams.bs, ue_el, bs_el,
        cfg.power_w, cfg.wavelength_m, cfg.subcarrier_offsets_hz(),
    )
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_signal_gradient_matches_oracle_finite_differences():
    for seed in (5, 6, 7):
        cfg, bs_el, ue_el, params, gain, beams = _random_case(seed)
        _, dmu = signal_gradient(params, gain, beams, bs_el, ue_el, cfg)
        fd = signal_jacobian_fd(
            list(params.as_array()), gain, beams.ue, beams.bs, ue_el, bs_el,
            cfg.power_w, cfg.wavelength_m, cfg.subcarrier_offsets_hz(),
        )
        for idx in range(5):
            scale = np.linalg.norm(fd[:, :, idx])
            err = np.linalg.norm(dmu[:, :, idx] - fd[:, :, idx])
            assert err < 1e-5 * scale, f"component {ETA_NAMES[idx]}: {err / scale:.2e}"

