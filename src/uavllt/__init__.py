"""Link-lifetime prediction and mobility simulation for UAV ad hoc networks.

The package predicts how long the radio link between two smoothly flying
UAVs will last, validates the prediction against a brute-force oracle,
simulates a fleet exchanging Hello beacons under smooth-turn mobility, and
selects longest-lasting routes by the max-min lifetime rule.
"""

from .config import ConfigError, ScenarioConfig, load_config
from .kinematics import (
    CurveTrajectory,
    DegenerateFix,
    Direction,
    Position,
    StraightTrajectory,
    Trajectory,
    initial_phase,
    planar_distance,
    position_at,
    re_anchor,
    velocity_heading,
)
from .llt import (
    CaseGeometry,
    LinkNotUp,
    LltResult,
    RangeLostInRounding,
    SquaredDistance,
    case_geometry,
    compute_llt,
    find_real_roots,
    select_root,
    squared_link_distance,
    trust_window,
)
from .mobility import (
    Arena,
    ResampleExhausted,
    SmoothTurnConfig,
    SmoothTurnFleet,
    UavState,
    next_trajectory,
    sample_wait_time,
    tangent_trajectory,
)
from .netsim import (
    HelloMessage,
    LinkGraph,
    LinkRecord,
    ScriptedChanges,
    Simulator,
    SmoothTurnChanges,
    recompute_llt,
    run_simulation,
)
from .oracle import TooLarge, brute_force_llt, enumerate_best_route
from .routing import NodeUnknown, Route, max_min_route

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "CaseGeometry",
    "ConfigError",
    "CurveTrajectory",
    "DegenerateFix",
    "Direction",
    "HelloMessage",
    "LinkGraph",
    "LinkNotUp",
    "LinkRecord",
    "LltResult",
    "NodeUnknown",
    "Position",
    "RangeLostInRounding",
    "ResampleExhausted",
    "Route",
    "ScenarioConfig",
    "ScriptedChanges",
    "Simulator",
    "SmoothTurnChanges",
    "SmoothTurnConfig",
    "SmoothTurnFleet",
    "SquaredDistance",
    "StraightTrajectory",
    "TooLarge",
    "Trajectory",
    "UavState",
    "brute_force_llt",
    "case_geometry",
    "compute_llt",
    "enumerate_best_route",
    "find_real_roots",
    "initial_phase",
    "load_config",
    "max_min_route",
    "next_trajectory",
    "planar_distance",
    "position_at",
    "re_anchor",
    "recompute_llt",
    "run_simulation",
    "sample_wait_time",
    "select_root",
    "squared_link_distance",
    "tangent_trajectory",
    "trust_window",
    "velocity_heading",
]
