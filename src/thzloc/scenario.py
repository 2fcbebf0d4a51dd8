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

Keys carry explicit units.  parse_config refuses unknown keys, a key
repeated in one mapping and a missing required key (`bs[0] is missing
'panel'`); an absent optional key takes its field's default.  The rules
on values hold for every ScenarioConfig, however it is built (parsed,
preset, dataclasses.replace or the constructor): one that breaks a rule
raises ConfigError when built, with the text a file gets
(`sim.seed must be a non-negative integer, got -1`).
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
from collections.abc import Hashable
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

# Most beam phases, G (N_ue + N_bs) over the largest panels, that one path
# may draw: the beam scratch takes 48 B per phase, and one cuboidal-4bs pose at
# this bound peaks at 94 MiB under tracemalloc.  The presets draw 4,000
# and the wide benchmark scenario 16,000; panel sizes are bounded with it.
MAX_PATH_PHASES = 10**6
# Most BS-subarray pairs, so paths per pose: the kernel's per-chunk arrays
# grow with them, and `coverage --trials 64` on the cuboidal-4bs BSs with
# 250 subarrays (this bound) peaks at 96 MiB RSS against 40 MiB at the
# preset's 24 pairs.  The presets have 12 to 24.
MAX_PAIRS = 1000
# Most subcarriers K: the (K, 5) subcarrier factors, their conjugate and
# the offsets peak at 17 MB at this bound; the presets have 10.
MAX_SUBCARRIERS = 10**5
# Largest |sim.clock_bias_s|: `thzloc bounds` reports each path delay, bias
# included, in ns, and past about 1.8e299 s that product overflows.
MAX_CLOCK_BIAS_S = 1e299

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

    def __post_init__(self):
        _check(self)  # however the config is built: parsed, preset, replaced

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # The dataclass's own hash, computed once: evaluate_pose looks its
        # realized Scenario up by it on every call.  No field holds a
        # string, so the value is the same in every process.
        return hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))

    @functools.lru_cache(maxsize=8)
    def realize(self) -> "Scenario":
        """The runtime geometry (element grids need the wavelength), built
        once per config value: equal configs share one Scenario."""
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

    Construction builds the stacks the kernel reads, once per scenario:
    bs_stack and mount_stack (stack_poses of the BS poses, stack_mounts of
    the subarrays), bs_panels and ue_panels (the distinct element arrays,
    and each BS's or subarray's index into them).  The poses, panels and
    subarrays are tuples and dataclasses.replace constructs anew, so the
    stacks always match them.
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
        object.__setattr__(self, "bs_stack", _read_only(stack_poses(self.bs_poses)))
        object.__setattr__(self, "mount_stack", _read_only(stack_mounts(self.subarrays)))
        object.__setattr__(self, "bs_panels", _distinct(self.bs_elements))
        object.__setattr__(self, "ue_panels", _distinct([s.elements for s in self.subarrays]))


def _read_only(arrays):
    for array in arrays:  # shared by every evaluation of the scenario
        array.flags.writeable = False
    return arrays


def _distinct(elements: list):
    """The distinct element arrays, equal bytes stored once, read-only, and
    each array's index into them."""
    first = {}
    arrays = [np.array(e, dtype=float) for e in elements]
    index = [first.setdefault((e.shape, e.tobytes()), (len(first), e))[0] for e in arrays]
    return tuple(_read_only([e for _, e in first.values()])), _read_only([np.array(index)])[0]


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


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a key repeated in one mapping, whose last
    value YAML would otherwise keep without a word."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # the base constructor refuses it
            if key in seen:
                line = key_node.start_mark.line + 1
                raise ConfigError(f"scenario file repeats the key {key!r} at line {line}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _number(value, where: str) -> float:
    if isinstance(value, bool):  # YAML reads on, yes, true as booleans
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
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


def _panel(panel, where: str) -> PanelConfig:
    panel = _fields(PanelConfig, panel, where)
    if panel.rows < 1 or panel.cols < 1:
        raise ConfigError(f"{where} needs positive rows and cols")
    if panel.spacing_wl <= 0:
        raise ConfigError(f"{where}.spacing_wl must be positive, got {panel.spacing_wl:g}")
    return panel


# The reader of each field type of the dataclasses a scenario holds, keyed
# by the annotation as written (a string under postponed evaluation).
_READERS = {
    "int": _integer,
    "float": _number,
    "tuple[float, float, float]": _triple,
    "PanelConfig": _panel,
}


def _fields(cls, value, where: str):
    """value, a cls, anew with each field read by the reader of its type."""
    if not isinstance(value, cls):
        raise ConfigError(f"{where} must be a {cls.__name__}, got {type(value).__name__}")
    return cls(**{f.name: _READERS[f.type](getattr(value, f.name), f"{where}.{f.name}")
                  for f in dataclasses.fields(cls)})


def _check(config: ScenarioConfig) -> None:
    """Hold config to every rule of a scenario; store its fields as read."""
    for entries, key in ((config.bs, "bs"), (config.subarrays, "ue.subarrays")):
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ConfigError(f"'{key}' must be a non-empty list")
    stations = []
    for i, entry in enumerate(config.bs):
        stations.append(_fields(BaseStationConfig, entry, f"bs[{i}]"))
        same = [b.position_m for b in stations].index(stations[-1].position_m)
        if same < i:
            raise ConfigError(f"bs[{i}].position_m repeats bs[{same}].position_m")
    subs = [_fields(SubarrayConfig, e, f"ue.subarrays[{i}]") for i, e in enumerate(config.subarrays)]
    if len(stations) * len(subs) > MAX_PAIRS:
        raise ConfigError(
            f"bs and ue.subarrays make {len(stations)} x {len(subs)} ="
            f" {len(stations) * len(subs)} BS-subarray pairs, more than {MAX_PAIRS}"
        )
    signal = _fields(SignalConfig, config.signal, "signal")
    if signal.num_subcarriers < 1 or signal.num_transmissions < 1:
        raise ConfigError("num_subcarriers and num_transmissions must be at least 1")
    if signal.num_subcarriers > MAX_SUBCARRIERS:
        raise ConfigError(
            f"signal.num_subcarriers is {signal.num_subcarriers}, more than {MAX_SUBCARRIERS}"
        )
    # The bound's scales, divisors first: inf or 0 would fail later.  K = 1 has no spread.
    k, noise = signal.num_subcarriers, "noise_psd_dbm_hz, noise_figure_db, bandwidth_hz"
    for keys, scale in (
        ("power_dbm", lambda: signal.power_w), (noise, lambda: signal.noise_variance_w),
        (f"power_dbm, {noise}", lambda: 2.0 * signal.power_w / signal.noise_variance_w),
        ("carrier_hz", lambda: signal.wavelength_m),
        ("bandwidth_hz", lambda: k == 1 or (math.pi * (k - 1) * signal.bandwidth_hz) ** 2 / k),
    ):
        try:
            value = scale()
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ConfigError(f"signal {keys} out of range: a scale of the bound is {value:g}")
    n_ue = max(s.panel.num_elements for s in subs)
    n_bs = max(b.panel.num_elements for b in stations)
    phases = signal.num_transmissions * (n_ue + n_bs)
    if phases > MAX_PATH_PHASES:
        raise ConfigError(
            f"signal.num_transmissions x (UE + BS panel elements) is {signal.num_transmissions}"
            f" x ({n_ue} + {n_bs}) = {phases} beam phases per path, more than {MAX_PATH_PHASES}"
        )
    seed = _integer(config.seed, "sim.seed")
    if seed < 0:
        raise ConfigError(f"sim.seed must be a non-negative integer, got {seed}")
    bias = _number(config.clock_bias_s, "sim.clock_bias_s")
    if not abs(bias) <= MAX_CLOCK_BIAS_S:
        raise ConfigError(f"sim.clock_bias_s must be within +-{MAX_CLOCK_BIAS_S:g} s, got {bias:g}")
    for name, value in dict(bs=tuple(stations), subarrays=tuple(subs), signal=signal,
                            seed=seed, clock_bias_s=bias).items():
        object.__setattr__(config, name, value)


def _section(cls, mapping, where: str):
    """The dataclass cls from a mapping whose keys are its fields, a panel
    from a mapping of its own; an absent key takes the field's default."""
    fields = dataclasses.fields(cls)
    _require_keys(mapping, {f.name for f in fields}, where)
    for f in fields:
        if f.name not in mapping and f.default is dataclasses.MISSING:
            raise ConfigError(f"{where} is missing {f.name!r}")
    if "panel" in mapping:
        mapping = {**mapping, "panel": _section(PanelConfig, mapping["panel"], f"{where}.panel")}
    return cls(**mapping)


def _sections(cls, entries, where: str):
    if not isinstance(entries, list):  # for ScenarioConfig to refuse
        return entries
    return tuple(_section(cls, entry, f"{where}[{i}]") for i, entry in enumerate(entries))


def parse_config(text_or_mapping) -> ScenarioConfig:
    """Parse a scenario from YAML text or an already-loaded mapping: its
    keys here, its values by the rules of every ScenarioConfig when built.

    Raises:
        ConfigError: on syntax errors, repeated, unknown or missing keys,
            or a value that breaks a rule of ScenarioConfig.
    """
    if isinstance(text_or_mapping, dict):
        doc = text_or_mapping
    else:
        try:
            doc = yaml.load(text_or_mapping, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"scenario file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must contain a mapping at top level")
    _require_keys(doc, {"bs", "ue", "signal", "sim"}, "scenario")
    ue, sim = doc.get("ue", {}), doc.get("sim", {})
    _require_keys(ue, {"subarrays"}, "ue")
    _require_keys(sim, {"seed", "clock_bias_s"}, "sim")
    return ScenarioConfig(
        bs=_sections(BaseStationConfig, doc.get("bs"), "bs"),
        subarrays=_sections(SubarrayConfig, ue.get("subarrays"), "ue.subarrays"),
        signal=_section(SignalConfig, doc.get("signal", {}), "signal"),
        **sim,
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
