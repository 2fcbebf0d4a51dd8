"""Scenario description: BS layout, UE array layout, waveform, run settings.

A scenario file is a single YAML document with four top-level sections::

    bs:                     # list of base stations
    - position_m: [-10.5, -10.5, 5.0]
      orientation_deg: [0.0, 90.0, 45.0]
      panel: {rows: 8, cols: 8, spacing_wl: 0.5}
    ue:
      subarrays:            # rigid arrangement, poses in the UE frame
      - offset_m: [0.05, 0.0, 0.0]
        orientation_deg: [0.0, 0.0, 0.0]
        panel: {rows: 4, cols: 4, spacing_wl: 0.5}
    signal:
      power_dbm: 0.0
      carrier_hz: 1.4e+11
      bandwidth_hz: 1.0e+09
      num_subcarriers: 10
      num_transmissions: 50
      noise_psd_dbm_hz: -173.855
      noise_figure_db: 10.0
    sim:
      seed: 1
      clock_bias_s: 0.0

Keys carry explicit units.  Unknown keys are rejected so typos fail loudly.
The named presets pair two UE layouts (six 4x4 subarrays, either coplanar
or on the faces of a 0.1 m cube) with two, three, or four ceiling-mounted
8x8 BS panels.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .channel import SignalConfig
from .errors import ConfigError
from .geometry import (
    EulerAngles,
    Pose,
    Subarray,
    element_grid,
    euler_to_rotation,
    stack_mounts,
    stack_poses,
)

PRESET_NAMES = (
    "planar-2bs",
    "planar-3bs",
    "planar-4bs",
    "cuboidal-2bs",
    "cuboidal-3bs",
    "cuboidal-4bs",
)

_BS_SITES = (
    ((-10.5, -10.5, 5.0), (0.0, 90.0, 45.0)),
    ((10.5, 10.5, 5.0), (0.0, 90.0, -135.0)),
    ((-10.5, 10.5, 5.0), (0.0, 90.0, -45.0)),
    ((10.5, -10.5, 5.0), (0.0, 90.0, 135.0)),
)

# Subarray centers of the planar UE: the cube faces unfolded into a cross
# in the local Y-Z plane, 0.1 m pitch, boresight along local +X everywhere.
_PLANAR_OFFSETS = (
    (0.0, 0.0, 0.1),
    (0.0, -0.1, 0.0),
    (0.0, 0.0, 0.0),
    (0.0, 0.1, 0.0),
    (0.0, 0.2, 0.0),
    (0.0, 0.0, -0.1),
)

# Face centers of a 0.1 m cube and the mounting rotation that points each
# boresight along the outward normal.
_CUBE_FACES = (
    ((0.05, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((-0.05, 0.0, 0.0), (0.0, 0.0, 180.0)),
    ((0.0, 0.05, 0.0), (0.0, 0.0, 90.0)),
    ((0.0, -0.05, 0.0), (0.0, 0.0, -90.0)),
    ((0.0, 0.0, 0.05), (0.0, -90.0, 0.0)),
    ((0.0, 0.0, -0.05), (0.0, 90.0, 0.0)),
)


@dataclass(frozen=True)
class PanelConfig:
    """Uniform rectangular panel, spacing in carrier wavelengths."""

    rows: int
    cols: int
    spacing_wl: float = 0.5

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class BaseStationConfig:
    position_m: tuple[float, float, float]
    orientation_deg: tuple[float, float, float]
    panel: PanelConfig

    def pose(self) -> Pose:
        return Pose(self.position_m, euler_to_rotation(EulerAngles(*self.orientation_deg)))


@dataclass(frozen=True)
class SubarrayConfig:
    offset_m: tuple[float, float, float]
    orientation_deg: tuple[float, float, float]
    panel: PanelConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative scenario, round-trippable through YAML."""

    bs: tuple[BaseStationConfig, ...]
    subarrays: tuple[SubarrayConfig, ...]
    signal: SignalConfig = field(default_factory=SignalConfig)
    seed: int = 1
    clock_bias_s: float = 0.0

    def realize(self) -> "Scenario":
        """Build the runtime geometry (element grids need the wavelength)."""
        lam = self.signal.wavelength_m
        bs_poses = [b.pose() for b in self.bs]
        bs_elements = [
            element_grid(b.panel.rows, b.panel.cols, b.panel.spacing_wl * lam)
            for b in self.bs
        ]
        subs = [
            Subarray(
                offset=s.offset_m,
                rotation=euler_to_rotation(EulerAngles(*s.orientation_deg)),
                elements=element_grid(s.panel.rows, s.panel.cols, s.panel.spacing_wl * lam),
            )
            for s in self.subarrays
        ]
        # The arrays are the scenario's own, so they are frozen with it.
        _read_only([a for p in bs_poses for a in (p.position, p.rotation)])
        _read_only([a for s in subs for a in (s.offset, s.rotation, s.elements)])
        _read_only(bs_elements)
        return Scenario(
            bs_poses=bs_poses,
            bs_elements=bs_elements,
            subarrays=subs,
            signal=self.signal,
            clock_bias_s=self.clock_bias_s,
            seed=self.seed,
        )


@dataclass(frozen=True)
class Scenario:
    """Realized scenario ready for bound evaluation.

    The stacks below are built on first use and kept, so the evaluation
    kernel pays for them once per scenario.  The BS poses, BS panels and
    subarrays are stored as tuples, so a different scenario comes only
    from dataclasses.replace, which starts without stacks.
    """

    bs_poses: tuple[Pose, ...]
    bs_elements: tuple[np.ndarray, ...]
    subarrays: tuple[Subarray, ...]
    signal: SignalConfig
    clock_bias_s: float
    seed: int

    def __post_init__(self):
        for name in ("bs_poses", "bs_elements", "subarrays"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @functools.cached_property
    def bs_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """stack_poses of the BS poses."""
        return _read_only(stack_poses(self.bs_poses))

    @functools.cached_property
    def mount_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """stack_mounts of the subarrays."""
        return _read_only(stack_mounts(self.subarrays))

    @functools.cached_property
    def bs_panels(self):
        """panels_by_size of the BS panels."""
        return panels_by_size(self.bs_elements)

    @functools.cached_property
    def ue_panels(self):
        """panels_by_size of the subarray panels."""
        return panels_by_size([s.elements for s in self.subarrays])


def _read_only(arrays):
    for array in arrays:  # shared by every evaluation of the scenario
        array.flags.writeable = False
    return arrays


def panels_by_size(elements: list):
    """Panels grouped by element count: each panel's count, the stacked
    offsets of each count's panels and each panel's slot in its stack."""
    sizes = np.array([e.shape[0] for e in elements])
    stacks, slots = {}, np.empty(len(elements), dtype=int)
    for size in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == size)
        stacks[size] = np.stack([elements[i] for i in members])
        slots[members] = np.arange(members.size)
    _read_only([sizes, slots, *stacks.values()])
    return sizes, stacks, slots


def preset(name: str) -> ScenarioConfig:
    """One of the six canonical scenarios, e.g. 'cuboidal-2bs'."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    layout, bs_part = name.split("-")
    num_bs = int(bs_part[0])
    bs_panel = PanelConfig(rows=8, cols=8)
    ue_panel = PanelConfig(rows=4, cols=4)
    stations = tuple(
        BaseStationConfig(position_m=pos, orientation_deg=ori, panel=bs_panel)
        for pos, ori in _BS_SITES[:num_bs]
    )
    if layout == "planar":
        subs = tuple(
            SubarrayConfig(offset_m=off, orientation_deg=(0.0, 0.0, 0.0), panel=ue_panel)
            for off in _PLANAR_OFFSETS
        )
    else:
        subs = tuple(
            SubarrayConfig(offset_m=off, orientation_deg=ori, panel=ue_panel)
            for off, ori in _CUBE_FACES
        )
    return ScenarioConfig(bs=stations, subarrays=subs)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown, key=repr)} in {where}")


def _number(value, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be an integer: {exc}") from exc
    if number != value:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return number


def _triple(value, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a list of three numbers")
    return tuple(_number(x, where) for x in value)


def _panel(section: dict, where: str) -> PanelConfig:
    _require_keys(section, {"rows", "cols", "spacing_wl"}, where)
    try:
        rows = _integer(section["rows"], f"{where}.rows")
        cols = _integer(section["cols"], f"{where}.cols")
    except KeyError as exc:
        raise ConfigError(f"{where} is missing {exc}") from exc
    if rows < 1 or cols < 1:
        raise ConfigError(f"{where} needs positive rows and cols")
    spacing = _number(section.get("spacing_wl", 0.5), f"{where}.spacing_wl")
    if spacing <= 0:
        raise ConfigError(f"{where}.spacing_wl must be positive, got {spacing:g}")
    return PanelConfig(rows=rows, cols=cols, spacing_wl=spacing)


def parse_config(text_or_mapping) -> ScenarioConfig:
    """Parse a scenario from YAML text or an already-loaded mapping.

    Raises:
        ConfigError: on syntax errors, unknown keys, missing sections, or
            out-of-range values.
    """
    if isinstance(text_or_mapping, dict):
        doc = text_or_mapping
    else:
        try:
            doc = yaml.safe_load(text_or_mapping)
        except yaml.YAMLError as exc:
            raise ConfigError(f"scenario file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must contain a mapping at top level")
    _require_keys(doc, {"bs", "ue", "signal", "sim"}, "scenario")

    bs_section = doc.get("bs")
    if not isinstance(bs_section, list) or not bs_section:
        raise ConfigError("'bs' must be a non-empty list")
    stations = []
    for i, entry in enumerate(bs_section):
        where = f"bs[{i}]"
        _require_keys(entry, {"position_m", "orientation_deg", "panel"}, where)
        stations.append(
            BaseStationConfig(
                position_m=_triple(entry.get("position_m"), f"{where}.position_m"),
                orientation_deg=_triple(entry.get("orientation_deg"), f"{where}.orientation_deg"),
                panel=_panel(entry.get("panel", {}), f"{where}.panel"),
            )
        )
        same = [b.position_m for b in stations].index(stations[-1].position_m)
        if same < i:
            raise ConfigError(f"{where}.position_m repeats bs[{same}].position_m")

    ue_section = doc.get("ue", {})
    _require_keys(ue_section, {"subarrays"}, "ue")
    sub_section = ue_section.get("subarrays")
    if not isinstance(sub_section, list) or not sub_section:
        raise ConfigError("'ue.subarrays' must be a non-empty list")
    subs = []
    for i, entry in enumerate(sub_section):
        where = f"ue.subarrays[{i}]"
        _require_keys(entry, {"offset_m", "orientation_deg", "panel"}, where)
        subs.append(
            SubarrayConfig(
                offset_m=_triple(entry.get("offset_m"), f"{where}.offset_m"),
                orientation_deg=_triple(entry.get("orientation_deg"), f"{where}.orientation_deg"),
                panel=_panel(entry.get("panel", {}), f"{where}.panel"),
            )
        )

    signal_section = doc.get("signal", {})
    defaults = dataclasses.asdict(SignalConfig())
    _require_keys(signal_section, set(defaults), "signal")
    signal = SignalConfig(
        **{
            key: (_integer if isinstance(default, int) else _number)(
                signal_section.get(key, default), f"signal.{key}"
            )
            for key, default in defaults.items()
        }
    )
    if signal.carrier_hz <= 0 or signal.bandwidth_hz <= 0:
        raise ConfigError("carrier_hz and bandwidth_hz must be positive")
    if signal.num_subcarriers < 1 or signal.num_transmissions < 1:
        raise ConfigError("num_subcarriers and num_transmissions must be at least 1")

    sim_section = doc.get("sim", {})
    _require_keys(sim_section, {"seed", "clock_bias_s"}, "sim")
    seed = _integer(sim_section.get("seed", 1), "sim.seed")
    if seed < 0:
        raise ConfigError(f"sim.seed must be a non-negative integer, got {seed}")
    return ScenarioConfig(
        bs=tuple(stations),
        subarrays=tuple(subs),
        signal=signal,
        seed=seed,
        clock_bias_s=_number(sim_section.get("clock_bias_s", 0.0), "sim.clock_bias_s"),
    )


def load_config(path) -> ScenarioConfig:
    """Parse a scenario YAML file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_to_mapping(config: ScenarioConfig) -> dict:
    """Plain-dict form of a scenario, inverse of parse_config."""
    # The JSON round trip turns tuples into the lists YAML can represent.
    plain = json.loads(json.dumps(dataclasses.asdict(config)))
    return {
        "bs": plain["bs"],
        "ue": {"subarrays": plain["subarrays"]},
        "signal": plain["signal"],
        "sim": {"seed": plain["seed"], "clock_bias_s": plain["clock_bias_s"]},
    }


def serialize_config(config: ScenarioConfig) -> str:
    """YAML text for a scenario; parse_config(serialize_config(c)) == c."""
    return yaml.safe_dump(config_to_mapping(config), sort_keys=False)


def scenario_hash(config: ScenarioConfig) -> str:
    """Short stable digest identifying a scenario's full content."""
    canonical = json.dumps(config_to_mapping(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
