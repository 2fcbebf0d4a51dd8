import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thzloc import ETA_NAMES, PRESET_NAMES, SignalConfig, draw_beamformers, load_config, preset
from thzloc.channel import (
    _PHASORS,
    _TURN_STEPS,
    BeamBuffers,
    _unit_phasors,
    keyed_beam_rows,
    keyed_words,
    path_gain,
    spawn_keys,
    steering_stack,
)
from thzloc.geometry import PathParams, element_grid

from oracles import (
    beamformers_exp_oracle,
    mean_signal_oracle,
    signal_gradient,
    signal_jacobian_fd,
)

WIDE = Path(__file__).resolve().parents[1] / "perfbench" / "planar-2bs-wide.yaml"
EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(float).nmant


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


def _unit(words):
    """_unit_phasors of a copy of Philox words, with fresh scratch."""
    words = np.array(words, dtype=np.uint64)
    shape = words.shape
    scratch = np.empty(shape, dtype=np.intp), np.empty(shape), np.empty(shape, dtype=complex)
    return _unit_phasors(words, *scratch, np.empty(shape, dtype=complex))


def _phasors(turns):
    """_unit_phasors of uniforms k * 2^-53, through the words k << 11 that
    Generator.random turns into them."""
    return _unit((np.asarray(turns) * 2.0**53).astype(np.uint64) << np.uint64(11))


def _extended_phasors(turns):
    angle = 2 * np.arccos(np.longdouble(-1)) * np.asarray(turns, dtype=np.longdouble)
    return np.cos(angle), np.sin(angle)


@pytest.mark.parametrize("n", [1, 2, 3, 56, 4000])
def test_philox_words_are_the_generator_uniforms(n):
    # keyed_words reads the raw words that Generator.random turns into
    # u = (w >> 11) * 2^-53; a change to either route fails here.
    keys = [*spawn_keys(3, [0, 1, 2**31], [0, 2, 5], [0, 7, 63]), [0, 0], [2**64 - 1] * 2]
    for key in np.array(keys, dtype=np.uint64):
        words = np.random.Philox(key=key).random_raw(n)
        np.testing.assert_array_equal(keyed_words(key, n), words)
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(n)
        got = (words >> np.uint64(11)) * 2.0**-53
        np.testing.assert_array_equal(got.view(np.uint64), uniforms.view(np.uint64))


@pytest.mark.skipif(not EXTENDED, reason="the reference needs an extended long double")
def test_unit_phasors_match_extended_precision_reference():
    # Random words, the first and the last, and at each table step its word
    # and those of the closest uniforms on either side (bit 11 is u's last).
    steps = np.arange(_TURN_STEPS, dtype=np.uint64) << np.uint64(52)
    ulp = np.uint64(2**11)
    random = np.random.default_rng(5).integers(0, 2**64, 10**5, dtype=np.uint64)
    words = np.concatenate([random, np.uint64([0, 2**64 - 1]), steps - ulp, steps, steps + ulp])
    got = _unit(words)
    cos, sin = _extended_phasors((words >> np.uint64(11)).astype(np.longdouble) * 2.0**-53)
    error = np.hypot(got.real - cos, got.imag - sin)
    assert float(error.max()) <= 1.7e-16
    modulus = np.hypot(got.real.astype(np.longdouble), got.imag.astype(np.longdouble))
    assert float(np.abs(modulus - 1).max()) <= 1.7e-16
    np.testing.assert_array_equal(_unit(steps[:: _TURN_STEPS // 4]), [1, 1j, -1, -1j])
    # The table holds each phasor of a whole step correctly rounded: within
    # half an ulp, up to the reference's own error, with exact quarter turns.
    cos, sin = _extended_phasors(np.arange(_TURN_STEPS) / _TURN_STEPS)
    for part, want in ((_PHASORS.real, cos), (_PHASORS.imag, sin)):
        assert np.all(np.abs(part - want) <= 0.5 * np.spacing(np.abs(part)) + 1e-18)
    np.testing.assert_array_equal(_PHASORS[:: _TURN_STEPS // 4], [1, 1j, -1, -1j])


def test_unit_phasors_keep_shape_and_whole_turns():
    turns = np.array([[0.0, 0.25], [0.5, 0.75]])
    np.testing.assert_array_equal(_phasors(turns), [[1, 1j], [-1, -1j]])
    assert _phasors(np.zeros((3, 0))).shape == (3, 0)
    assert draw_beamformers(1, 0, 0, 5, 0, 4).ue.shape == (5, 0)
    for g, n_ue, n_bs in [(5, 0, 0), (0, 4, 4), (0, 0, 0)]:
        beams = draw_beamformers(1, 0, 0, g, n_ue, n_bs)
        assert beams.ue.shape == (g, n_ue) and beams.bs.shape == (g, n_bs)


def test_one_wide_draw_peaks_under_a_mebibyte():
    # 50 transmissions on an 8x8 subarray and a 16x16 panel: the uniforms,
    # the phasors and their temporaries stay under 1 MiB at their peak.
    draw_beamformers(1, 0, 0, 50, 64, 256)
    tracemalloc.start()
    try:
        draw_beamformers(2, 1, 3, 50, 64, 256, trial=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _seed_sequence_key(seed, trial, m, n):
    return np.random.SeedSequence(seed, spawn_key=(trial, m, n)).generate_state(2, np.uint64)


def test_beam_keys_mirror_seed_sequence():
    # 5,000 random keys: five random seeds of up to two words, 1,000 paths
    # each, every spawn entry below 2^32.
    rng = np.random.default_rng(17)
    for seed in rng.integers(0, 2**63, 5).tolist():
        trials, bs_index = rng.integers(0, 2**32, (2, 1000))
        sub_index = rng.integers(0, 64, 1000)
        want = [_seed_sequence_key(seed, *entries) for entries in zip(trials, bs_index, sub_index)]
        np.testing.assert_array_equal(spawn_keys(seed, trials, bs_index, sub_index), want)
        # The pose streams' spawn keys (trial,) go through the same mixing.
        want = [
            np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(2, np.uint64)
            for t in trials[:100].tolist()
        ]
        np.testing.assert_array_equal(spawn_keys(seed, trials[:100]), want)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1, 2**200 + 12345])
def test_beam_keys_take_seeds_of_any_size(seed):
    spawn = [(0, 0, 0), (5, 1, 2), (2**32 - 1, 3, 7)]
    keys = spawn_keys(seed, *zip(*spawn))
    np.testing.assert_array_equal(keys, [_seed_sequence_key(seed, *entries) for entries in spawn])


def _fresh_draw(seed, trial, m, n, g, n_ue, n_bs):
    key = np.random.SeedSequence(seed, spawn_key=(trial, m, n))
    rng = np.random.Generator(np.random.Philox(key))
    phasors = _phasors(rng.random(size=(g, n_ue + n_bs)))
    return phasors[:, :n_ue] / np.sqrt(n_ue), phasors[:, n_ue:]


def test_trial_boundary_between_the_mixing_and_seed_sequence(monkeypatch):
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        # A seed's first use also builds a plain SeedSequence(seed) for its
        # pool; only constructions with a spawn key take a path's key.
        if "spawn_key" in kwargs:
            made.append(kwargs["spawn_key"])
        return seed_sequence(*args, **kwargs)

    for trial, fallbacks in ((2**32 - 1, []), (2**32, [(2**32, 1, 2)])):
        monkeypatch.setattr(np.random, "SeedSequence", counting)
        beams = draw_beamformers(9, 1, 2, 6, 4, 16, trial=trial)
        monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
        assert made == fallbacks
        made.clear()
        ue, bs = _fresh_draw(9, trial, 1, 2, 6, 4, 16)
        np.testing.assert_array_equal(beams.ue, ue)
        np.testing.assert_array_equal(beams.bs, bs)
    # One batch mixes both routes, row by row.
    spawn = [(2**32 - 1, 1, 2), (2**32, 1, 2), (3, 0, 0), (2**70, 2, 1)]
    want = [_seed_sequence_key(9, *entries) for entries in spawn]
    np.testing.assert_array_equal(spawn_keys(9, *zip(*spawn)), want)


@pytest.mark.parametrize(
    "kwargs", [dict(seed=-1), dict(trial=-1), dict(bs_index=-1), dict(trial=-(2**70))]
)
def test_negative_key_entries_raise(kwargs):
    args = dict(seed=1, bs_index=0, subarray_index=0, num_transmissions=2, n_ue=1, n_bs=1)
    with pytest.raises(ValueError):
        draw_beamformers(**{**args, **kwargs})


def test_shared_generator_carries_no_state_between_fills():
    # The combiner's scaling is exact only for N_ue = 4^j; for the others
    # it must still give the bits of NumPy's complex division.
    # A draw of several paths gives each path the bits it has alone.
    keys = spawn_keys(4, [0, 1, 2], [0, 0, 1], [0, 0, 0])
    for n_ue in (4, 2, 3, 5, 16, 64):
        buffers = BeamBuffers(5, n_ue, 8, paths=3)
        for _ in range(3):
            for group in ([0], [1], [2, 0], [0, 1, 2], [1]):
                ue, bs = keyed_beam_rows(keys[group], buffers)
                assert ue.shape == (len(group), 5, n_ue) and bs.shape == (len(group), 5, 8)
                for row, key in enumerate(keys[group]):
                    fresh = np.random.Generator(np.random.Philox(key=key)).random(size=(5, n_ue + 8))
                    phasors = _phasors(fresh)
                    want = phasors[:, :n_ue] / np.sqrt(n_ue)
                    np.testing.assert_array_equal(ue[row].view(np.uint64), want.view(np.uint64))
                    np.testing.assert_array_equal(bs[row], phasors[:, n_ue:])


def test_threads_sharing_the_generator_get_their_own_streams():
    # Reseat and fill happen under one lock, so a thread never fills from
    # a key another thread just set.
    keys = spawn_keys(6, list(range(8)), [0] * 8, [0] * 8)
    fresh = [
        _phasors(np.random.Generator(np.random.Philox(key=key)).random(size=(4, 10)))
        for key in keys
    ]
    mismatches = []

    def work(which):
        buffers = BeamBuffers(4, 2, 8)
        for _ in range(300):
            keyed_beam_rows(keys[which : which + 1], buffers)
            if not np.array_equal(buffers.rows[1].phasors[0], fresh[which]):
                mismatches.append(which)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(which,)) for which in range(len(keys))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def _panel_sizes():
    sizes = set()
    for config in [preset(name) for name in PRESET_NAMES] + [load_config(WIDE)]:
        scn = config.realize()
        sizes |= {
            (sub.elements.shape[0], bs.shape[0])
            for sub in scn.subarrays for bs in scn.bs_elements
        }
    return sorted(sizes)


@pytest.mark.parametrize("n_ue, n_bs", _panel_sizes())
def test_beam_draws_match_the_exponential_of_the_same_stream(n_ue, n_bs):
    # The phasors changed how a uniform draw becomes e^{j phase}, not the
    # keyed streams: every entry stays within roundoff of the old formula.
    for seed, trial, m, n in [(1, 0, 0, 0), (7, 3, 1, 5), (2**31 - 1, 9999, 3, 2)]:
        beams = draw_beamformers(seed, m, n, 50, n_ue, n_bs, trial=trial)
        ue, bs = beamformers_exp_oracle(seed, m, n, 50, n_ue, n_bs, trial=trial)
        assert float(np.abs(beams.ue - ue).max()) <= 1e-15
        assert float(np.abs(beams.bs - bs).max()) <= 1e-15


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

