"""Trajectory primitives for smoothly flying UAVs.

A UAV moves either on a circular arc around a fixed center or along a
straight ray, always at a fixed altitude. Both motions are parameterized
so that the position at any time offset from the trajectory's anchor
instant (its *epoch*) is available in closed form. :func:`planar_xy` is
the one definition of that arithmetic, in plain floats: :func:`position_at`,
the simulator's geometry and a straight flyer's :func:`re_anchor` all take
their coordinates from it.

Angles are handled quadrant-aware throughout (two-argument arctangent),
so vertical headings and points in any quadrant are unambiguous.
All types are immutable values; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

TWO_PI = 2.0 * math.pi


class Direction(IntEnum):
    """Turning sense of a circular trajectory; the value is the sign of omega."""

    CLOCKWISE = -1
    COUNTER_CLOCKWISE = 1

    @property
    def label(self) -> str:
        return "CW" if self is Direction.CLOCKWISE else "CCW"


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]. Values already in range pass through bit-exact."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


def wrap_heading(angle: float) -> float:
    """Wrap an angle to [0, 2*pi). Values already in range pass through bit-exact."""
    if 0.0 <= angle < TWO_PI:
        return angle
    wrapped = angle % TWO_PI
    if wrapped >= TWO_PI:  # guards the float edge case just below 0
        wrapped -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class Position:
    """A point in 3D space; z is the (fixed) flight altitude."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError(f"position coordinates must be finite, got {self!r}")


def planar_distance(a: Position, b: Position) -> float:
    """Euclidean distance ignoring altitude."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class CurveTrajectory:
    """Circular motion: center, radius, tangential speed, turning sense.

    ``initial_phase`` is the polar angle of the UAV about the center at the
    epoch, wrapped to (-pi, pi]. ``omega``, the signed angular velocity in
    rad/s, is ``speed * direction / radius``; it is computed once at
    construction and is not a field, so it takes no part in equality,
    hashing or the repr.
    """

    center_x: float
    center_y: float
    radius: float
    speed: float
    direction: Direction
    initial_phase: float
    altitude: float
    epoch: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise ValueError(f"curve speed must be positive and finite, got {self.speed}")
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(self, "initial_phase", wrap_angle(self.initial_phase))
        # planar_xy reads it at every point.
        object.__setattr__(self, "omega", self.speed * float(self.direction) / self.radius)

    @property
    def movement_state(self) -> str:
        return self.direction.label


@dataclass(frozen=True)
class StraightTrajectory:
    """Straight motion from an origin at a heading in [0, 2*pi) off the x-axis.

    Headings are stored instead of slopes: a slope cannot distinguish a
    heading from its opposite and is singular for vertical motion.
    """

    origin_x: float
    origin_y: float
    heading: float
    speed: float
    altitude: float
    epoch: float = 0.0

    def __post_init__(self):
        if not (self.speed >= 0.0 and math.isfinite(self.speed)):
            raise ValueError(f"straight speed must be >= 0 and finite, got {self.speed}")
        object.__setattr__(self, "heading", wrap_heading(self.heading))

    @property
    def movement_state(self) -> str:
        return "STRAIGHT"


Trajectory = CurveTrajectory | StraightTrajectory


def planar_xy(traj: Trajectory, t: float) -> tuple[float, float]:
    """Planar ``(x, y)`` ``t`` seconds after the trajectory's epoch.

    Curve:    (cx + R*cos(phase + omega*t), cy + R*sin(phase + omega*t))
    Straight: (x0 + v*t*cos(heading),       y0 + v*t*sin(heading))
    """
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * t
        return (traj.center_x + traj.radius * math.cos(phi),
                traj.center_y + traj.radius * math.sin(phi))
    return (traj.origin_x + traj.speed * t * math.cos(traj.heading),
            traj.origin_y + traj.speed * t * math.sin(traj.heading))


def position_at(traj: Trajectory, t: float) -> Position:
    """Exact position ``t`` seconds after the trajectory's epoch, at its altitude."""
    return Position(*planar_xy(traj, t), traj.altitude)


def planar_positions_at(traj: Trajectory, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized planar twin of :func:`planar_xy`; it multiplies in another
    order, so its coordinates may differ from the scalar ones in the last bits."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * ts
        return (traj.center_x + traj.radius * np.cos(phi),
                traj.center_y + traj.radius * np.sin(phi))
    return (traj.origin_x + traj.speed * np.cos(traj.heading) * ts,
            traj.origin_y + traj.speed * np.sin(traj.heading) * ts)


def velocity_heading(traj: Trajectory, t: float = 0.0) -> float:
    """Direction of travel at offset ``t``, in [0, 2*pi).

    For a curve the velocity is tangent to the circle, a quarter turn from
    the radial phase in the turning sense. Straight motion keeps its heading.
    """
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * t
        return wrap_heading(phi + float(traj.direction) * (math.pi / 2.0))
    return traj.heading


def re_anchor(traj: Trajectory, epoch: float) -> Trajectory:
    """Equivalent trajectory re-anchored at a new absolute epoch.

    The flight path is unchanged; only the parameter origin moves, so
    positions satisfy ``position_at(re_anchor(T, e), t) == position_at(T, (e - T.epoch) + t)``.
    """
    dt = epoch - traj.epoch
    if dt == 0.0:
        return traj
    # Built directly: dataclasses.replace costs several times more, and the
    # solver re-anchors both UAVs at every trust window.
    if isinstance(traj, CurveTrajectory):
        return CurveTrajectory(traj.center_x, traj.center_y, traj.radius, traj.speed,
                               traj.direction, wrap_angle(traj.initial_phase + traj.omega * dt),
                               traj.altitude, epoch)
    x, y = planar_xy(traj, dt)
    return StraightTrajectory(x, y, traj.heading, traj.speed, traj.altitude, epoch)

