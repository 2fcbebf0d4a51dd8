"""Cramer-Rao error bounds for THz downlink localization with arrays of subarrays.

A user equipment (UE) carries several planar antenna subarrays in a rigid but
otherwise arbitrary 3D arrangement, and receives known pilots from a handful of
base stations.  This package computes the position and orientation error bounds
(PEB, OEB) attainable from the angle and delay information in those links, with
the UE orientation treated as a constrained unknown on the rotation manifold,
and estimates localizability coverage over random poses by Monte Carlo.
"""

from .channel import ETA_NAMES, SignalConfig, draw_beamformers
from .coverage import (
    PoseDistribution,
    coverage_ccdf,
    evaluate_pose,
    orientation_field,
    position_field,
    sample_pose,
)
from .crb import (
    COMM_ONLY,
    LOCALIZABLE,
    NO_LOS,
    BoundResult,
    constrained_crb,
    constraint_basis,
    error_bounds,
    evaluate_batch,
    path_fim,
    state_fim,
    state_jacobian,
)
from .errors import ConfigError, GeometryError
from .geometry import (
    EulerAngles,
    PathParams,
    Pose,
    Subarray,
    element_grid,
    euler_to_rotation,
    path_params,
    visible_paths,
)
from .scenario import (
    PRESET_NAMES,
    PanelConfig,
    load_config,
    parse_config,
    preset,
    scenario_hash,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "COMM_ONLY",
    "ConfigError",
    "ETA_NAMES",
    "EulerAngles",
    "GeometryError",
    "LOCALIZABLE",
    "NO_LOS",
    "PanelConfig",
    "PathParams",
    "Pose",
    "PoseDistribution",
    "PRESET_NAMES",
    "SignalConfig",
    "Subarray",
    "constrained_crb",
    "constraint_basis",
    "coverage_ccdf",
    "draw_beamformers",
    "element_grid",
    "error_bounds",
    "euler_to_rotation",
    "evaluate_batch",
    "evaluate_pose",
    "load_config",
    "orientation_field",
    "parse_config",
    "path_fim",
    "path_params",
    "position_field",
    "preset",
    "sample_pose",
    "scenario_hash",
    "serialize_config",
    "state_fim",
    "state_jacobian",
    "visible_paths",
    "__version__",
]
