import dataclasses
import functools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import thzloc
from thzloc import (
    ConfigError,
    PRESET_NAMES,
    PoseDistribution,
    evaluate_pose,
    parse_config,
    preset,
    sample_pose,
    scenario_hash,
    serialize_config,
)
from thzloc.geometry import Pose, stack_poses
from thzloc.channel import SignalConfig
from thzloc.scenario import (
    _READERS,
    MAX_CLOCK_BIAS_S,
    MAX_PAIRS,
    MAX_PATH_PHASES,
    MAX_SUBCARRIERS,
    BaseStationConfig,
    PanelConfig,
    Scenario,
    ScenarioConfig,
    SubarrayConfig,
    config_to_mapping,
    load_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_preset_names_and_sizes():
    assert len(PRESET_NAMES) == 6
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert len(cfg.bs) == int(name.split("-")[1][0])
        assert len(cfg.subarrays) == 6
        for b in cfg.bs:
            assert b.panel.num_elements == 64
        for s in cfg.subarrays:
            assert s.panel.num_elements == 16


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("hexagonal-9bs")


def test_cuboidal_faces_point_outward():
    scn = preset("cuboidal-4bs").realize()
    for sub in scn.subarrays:
        normal = sub.rotation @ np.array([1.0, 0.0, 0.0])
        # Each boresight is exactly a coordinate axis and the face center
        # sits half the cube size along it.
        np.testing.assert_array_equal(np.abs(normal), np.abs(normal).round())
        np.testing.assert_allclose(sub.offset, 0.05 * normal, atol=1e-15)
    normals = {tuple((s.rotation @ [1.0, 0.0, 0.0]).round(9)) for s in scn.subarrays}
    assert len(normals) == 6  # all six axis directions covered


def test_planar_subarrays_share_boresight():
    scn = preset("planar-3bs").realize()
    for sub in scn.subarrays:
        np.testing.assert_array_equal(sub.rotation, np.eye(3))
        assert sub.offset[0] == 0.0  # cross pattern lies in the UE Y-Z plane
    offsets = {tuple(s.offset) for s in scn.subarrays}
    assert len(offsets) == 6


def test_bs_panels_face_downward():
    scn = preset("planar-2bs").realize()
    for pose in scn.bs_poses:
        normal = pose.rotation @ np.array([1.0, 0.0, 0.0])
        assert normal[2] == pytest.approx(-1.0, abs=1e-12)
        assert pose.position[2] == 5.0


def test_element_spacing_follows_carrier():
    cfg = preset("planar-2bs")
    scn = cfg.realize()
    lam = cfg.signal.wavelength_m
    bs_grid = scn.bs_elements[0]
    spacing = bs_grid[1, 1] - bs_grid[0, 1]
    assert spacing == pytest.approx(0.5 * lam, rel=1e-12)


def test_realized_scenario_cannot_change_in_place():
    # The kernel keeps stacks of a scenario's poses and panels, so nothing
    # a realized scenario holds may change under them.
    scn = preset("cuboidal-3bs").realize()
    assert isinstance(scn.bs_poses, tuple)
    assert isinstance(scn.bs_elements, tuple)
    assert isinstance(scn.subarrays, tuple)
    with pytest.raises(TypeError):
        scn.bs_poses[0] = scn.bs_poses[1]
    with pytest.raises(ValueError):
        scn.bs_poses[0].position[0] = 0.0
    with pytest.raises(ValueError):
        scn.bs_elements[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        scn.subarrays[0].elements[0, 0] = 1.0


STACKS = ("bs_stack", "mount_stack", "bs_panels", "ue_panels")


def test_replaced_scenario_gets_fresh_stacks():
    # The stacks are built with the scenario, none on first use, so a
    # replaced scenario holds its own from the start.
    assert not any(isinstance(v, functools.cached_property) for v in vars(Scenario).values())
    scn = preset("cuboidal-3bs").realize()
    positions, _ = scn.bs_stack
    moved_poses = [Pose(p.position + 1.0, p.rotation) for p in scn.bs_poses]
    moved = dataclasses.replace(scn, bs_poses=moved_poses)
    assert all(name in vars(moved) for name in STACKS)
    assert isinstance(moved.bs_poses, tuple)
    assert np.array_equal(moved.bs_stack[0], stack_poses(moved_poses)[0])
    assert np.array_equal(moved.bs_stack[0], positions + 1.0)
    assert np.array_equal(scn.bs_stack[0], positions)
    fewer = dataclasses.replace(scn, bs_elements=scn.bs_elements[:2], bs_poses=scn.bs_poses[:2])
    assert fewer.bs_panels[1].tolist() == [0, 0]
    assert fewer.bs_stack[0].shape == (2, 3)


def test_equal_panels_share_one_index():
    # Each distinct element array is stored once, read-only, and every BS
    # or subarray holds its index into them.
    config = preset("cuboidal-3bs")
    small = dataclasses.replace(config.bs[0].panel, rows=4, cols=4)
    bs = (config.bs[0], dataclasses.replace(config.bs[1], panel=small), config.bs[2])
    subs = tuple(dataclasses.replace(sub, panel=dataclasses.replace(sub.panel, rows=rows))
                 for sub, rows in zip(config.subarrays, [4, 2, 4, 3, 2, 4]))
    scn = dataclasses.replace(config, bs=bs, subarrays=subs).realize()
    for (panels, index), elements in [
        (scn.bs_panels, scn.bs_elements), (scn.ue_panels, [s.elements for s in scn.subarrays]),
    ]:
        assert all(np.array_equal(panels[i], e) for i, e in zip(index.tolist(), elements))
        assert not any(panel.flags.writeable for panel in panels)
    assert scn.bs_panels[1].tolist() == [0, 1, 0] and len(scn.bs_panels[0]) == 2
    assert scn.ue_panels[1].tolist() == [0, 1, 0, 2, 1, 0] and len(scn.ue_panels[0]) == 3


def test_config_hash_is_kept_and_follows_equality():
    # evaluate_pose finds its realized Scenario by the config's hash, which
    # the config keeps once computed: it must follow equality all the same.
    config, again = preset("cuboidal-3bs"), preset("cuboidal-3bs")
    assert config == again and hash(config) == hash(again)
    reseeded = dataclasses.replace(config, seed=config.seed + 1)
    assert reseeded != config and hash(reseeded) != hash(config)
    moved = dataclasses.replace(config, bs=config.bs[::-1])
    assert moved != config and hash(moved) != hash(config)
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and hash(copy) == hash(config)
    # No field holds a string, so another process hashes an equal config
    # alike, whatever its string hash seed.
    code = "import thzloc; print(hash(thzloc.preset('cuboidal-3bs')))"
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": str(Path(thzloc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert int(out.stdout) == hash(config), out.stderr


def test_equal_configs_share_one_realized_scenario():
    config = dataclasses.replace(preset("cuboidal-3bs"), clock_bias_s=1e-9)
    pose = sample_pose(PoseDistribution(), 5, 0)
    before = ScenarioConfig.realize.cache_info()
    first = evaluate_pose(config, pose)
    second = evaluate_pose(dataclasses.replace(preset("cuboidal-3bs"), clock_bias_s=1e-9), pose)
    after = ScenarioConfig.realize.cache_info()
    assert first == second
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    assert config.realize() is config.realize()
    assert config.realize() is pickle.loads(pickle.dumps(config)).realize()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_yaml_round_trip(name):
    cfg = preset(name)
    assert parse_config(serialize_config(cfg)) == cfg
    assert scenario_hash(parse_config(serialize_config(cfg))) == scenario_hash(cfg)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_checked_in_configs_match_presets(name):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    assert cfg == preset(name)


def test_hashes_are_distinct():
    hashes = {scenario_hash(preset(name)) for name in PRESET_NAMES}
    assert len(hashes) == 6


def test_parse_rejects_unknown_top_level_key():
    doc = config_to_mapping(preset("planar-2bs"))
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)


def test_parse_rejects_unknown_nested_key():
    doc = config_to_mapping(preset("planar-2bs"))
    doc["bs"][0]["positon_m"] = doc["bs"][0]["position_m"]  # typo
    with pytest.raises(ConfigError, match="bs\\[0\\]"):
        parse_config(doc)


def test_parse_rejects_missing_sections():
    with pytest.raises(ConfigError):
        parse_config({"ue": {"subarrays": []}})
    with pytest.raises(ConfigError, match="subarrays"):
        parse_config({"bs": config_to_mapping(preset("planar-2bs"))["bs"], "ue": {"subarrays": []}})


def test_parse_rejects_bad_triples():
    for position, match in [
        ([1.0, 2.0], "three numbers"),
        ([0.0, float("inf"), 5.0], "finite"),
        # The preset's bs[1] position: two co-located BSs.
        ([10.5, 10.5, 5.0], "bs\\[1\\].position_m repeats bs\\[0\\]"),
    ]:
        doc = config_to_mapping(preset("planar-2bs"))
        doc["bs"][0]["position_m"] = position
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)


def test_parse_rejects_bad_panel():
    for key, value, match in [
        ("rows", 0, "positive rows"),
        ("rows", 2.7, "rows must be an integer"),
        ("spacing_wl", 0, "spacing_wl must be positive"),
        ("spacing_wl", -0.5, "spacing_wl must be positive"),
    ]:
        doc = config_to_mapping(preset("planar-2bs"))
        doc["bs"][0]["panel"][key] = value
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)


def test_parse_rejects_bad_waveform():
    for key, value, match in [
        ("num_subcarriers", 0, "num_subcarriers"),
        ("power_dbm", float("nan"), "power_dbm must be finite"),
        ("num_transmissions", 2.5, "num_transmissions must be an integer"),
    ]:
        doc = config_to_mapping(preset("planar-2bs"))
        doc["signal"][key] = value
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)


# Each numeric field of a scenario mapping, as (keys into the mapping,
# the field's name in errors).
NUMERIC_FIELDS = [
    (("bs", 0, "position_m", 0), "bs[0].position_m"),
    (("bs", 1, "orientation_deg", 2), "bs[1].orientation_deg"),
    (("bs", 0, "panel", "rows"), "bs[0].panel.rows"),
    (("bs", 0, "panel", "cols"), "bs[0].panel.cols"),
    (("bs", 0, "panel", "spacing_wl"), "bs[0].panel.spacing_wl"),
    (("ue", "subarrays", 0, "offset_m", 1), "ue.subarrays[0].offset_m"),
    (("ue", "subarrays", 2, "orientation_deg", 0), "ue.subarrays[2].orientation_deg"),
    (("ue", "subarrays", 0, "panel", "rows"), "ue.subarrays[0].panel.rows"),
    (("ue", "subarrays", 0, "panel", "spacing_wl"), "ue.subarrays[0].panel.spacing_wl"),
    *((("signal", key), f"signal.{key}") for key in dataclasses.asdict(SignalConfig())),
    (("sim", "seed"), "sim.seed"),
    (("sim", "clock_bias_s"), "sim.clock_bias_s"),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("keys, field", NUMERIC_FIELDS, ids=[f for _, f in NUMERIC_FIELDS])
def test_parse_rejects_booleans_as_numbers(keys, field, value):
    # YAML 1.1 reads on, yes, true, off, no and false as booleans.
    doc = config_to_mapping(preset("planar-2bs"))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    match = f"^{re.escape(field)} must be an? (number|integer), got {value}$"
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


@pytest.mark.parametrize("cls", [BaseStationConfig, SubarrayConfig, PanelConfig, SignalConfig])
def test_every_field_of_a_section_has_a_reader(cls):
    # parse_config reads these sections field by field, with the reader of
    # each field's annotation as written.
    missing = [f"{f.name}: {f.type}" for f in dataclasses.fields(cls) if f.type not in _READERS]
    assert not missing


@pytest.mark.parametrize("keys, message", [
    (("bs", 0, "panel"), "bs[0] is missing 'panel'"),
    (("ue", "subarrays", 0, "offset_m"), "ue.subarrays[0] is missing 'offset_m'"),
    (("bs", 0, "panel", "rows"), "bs[0].panel is missing 'rows'"),
])
def test_parse_names_a_missing_required_key(keys, message):
    doc = config_to_mapping(preset("planar-2bs"))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


@pytest.mark.parametrize("repeated, line", [
    ("  power_dbm: 0.0\n", "  power_dbm: 30.0\n"),
    ("sim:\n", "sim:\n  seed: 2\n"),
], ids=["nested", "top-level"])
def test_parse_refuses_a_repeated_key(repeated, line):
    # YAML keeps the last of two equal keys; here that is the preset's own
    # value, which would parse without a word.
    text = serialize_config(preset("planar-2bs"))
    at = text.index(repeated)
    text = text[:at] + line + text[at:]
    number = text.count("\n", 0, at) + line.count("\n") + 1  # of the later key
    key = repeated.strip().split(":")[0]
    with pytest.raises(ConfigError, match=f"^scenario file repeats the key '{key}' at line {number}$"):
        parse_config(text)


def _phases(g, n_bs):
    return (
        f"signal.num_transmissions x (UE + BS panel elements) is {g} x (16 + {n_bs})"
        f" = {g * (16 + n_bs)} beam phases per path, more than {MAX_PATH_PHASES}"
    )


@pytest.mark.parametrize(
    "keys, largest, message",
    [
        # The preset draws 50 x (16 + 64) phases per path.
        (("signal", "num_transmissions"), MAX_PATH_PHASES // 80,
         _phases(MAX_PATH_PHASES // 80 + 1, 64)),
        (("bs", 1, "panel", "rows"), MAX_PATH_PHASES // 50 - 16,
         _phases(50, MAX_PATH_PHASES // 50 - 15)),
        (("signal", "num_subcarriers"), MAX_SUBCARRIERS,
         f"signal.num_subcarriers is {MAX_SUBCARRIERS + 1}, more than {MAX_SUBCARRIERS}"),
        # Two BSs, so one more subarray is two more pairs.
        (("ue", "subarrays"), MAX_PAIRS // 2,
         f"bs and ue.subarrays make 2 x {MAX_PAIRS // 2 + 1} = {MAX_PAIRS + 2} BS-subarray"
         f" pairs, more than {MAX_PAIRS}"),
    ],
)
def test_parse_bounds_what_a_scenario_allocates(keys, largest, message):
    doc = config_to_mapping(preset("planar-2bs"))
    doc["bs"][1]["panel"]["cols"] = 1
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    entry = parent[keys[-1]]

    def put(value):
        # A list takes that many copies of its first entry.
        parent[keys[-1]] = [entry[0]] * value if isinstance(entry, list) else value

    put(largest)
    parse_config(doc)
    put(largest + 1)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


def test_parse_rejects_negative_seed():
    doc = config_to_mapping(preset("planar-2bs"))
    doc["sim"]["seed"] = -1
    with pytest.raises(ConfigError, match="sim.seed"):
        parse_config(doc)


def test_parse_bounds_the_clock_bias():
    # thzloc bounds writes each delay, bias included, in ns; past this
    # bound that would overflow to inf.
    doc = config_to_mapping(preset("planar-2bs"))
    for bias in (MAX_CLOCK_BIAS_S, -MAX_CLOCK_BIAS_S):
        doc["sim"]["clock_bias_s"] = bias
        assert parse_config(doc).clock_bias_s == bias
    for bias in (1.8e299, -1e300):
        doc["sim"]["clock_bias_s"] = bias
        message = f"sim.clock_bias_s must be within +-{MAX_CLOCK_BIAS_S:g} s, got {bias:g}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)


def test_parse_rejects_invalid_yaml_text():
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("bs: [unclosed")


def test_parse_accepts_defaults_for_optional_sections():
    doc = config_to_mapping(preset("planar-2bs"))
    del doc["signal"]
    del doc["sim"]
    cfg = parse_config(doc)
    assert cfg.seed == 1
    assert cfg.signal.carrier_hz == 140e9


def test_serialized_form_is_plain_yaml():
    text = serialize_config(preset("cuboidal-2bs"))
    doc = yaml.safe_load(text)
    assert set(doc) == {"bs", "ue", "signal", "sim"}
    assert doc["sim"]["seed"] == 1
