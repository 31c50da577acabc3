"""Trajectory primitives for smoothly flying UAVs.

A UAV moves either on a circular arc around a fixed center or along a
straight ray, always at a fixed altitude. Both motions are parameterized
so that the position at any time offset from the trajectory's anchor
instant (its *epoch*) is available in closed form. The module also
recovers trajectory parameters from three consecutive GPS fixes, which is
what a node does when a neighbor's beacon carries raw locations instead
of explicit curve parameters.

Angles are handled quadrant-aware throughout (two-argument arctangent),
so vertical headings and points in any quadrant are unambiguous.
All types are immutable values; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

TWO_PI = 2.0 * math.pi


class DegenerateFix(ValueError):
    """GPS fixes (or a center/point pair) too degenerate to define a trajectory."""


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
    epoch, wrapped to (-pi, pi]. The signed angular velocity is
    ``speed * direction / radius``.
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

    @property
    def omega(self) -> float:
        """Signed angular velocity in rad/s."""
        return self.speed * float(self.direction) / self.radius

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


def position_at(traj: Trajectory, t: float) -> Position:
    """Exact position ``t`` seconds after the trajectory's epoch.

    Curve:    (cx + R*cos(phase + omega*t), cy + R*sin(phase + omega*t), z)
    Straight: (x0 + v*t*cos(heading),       y0 + v*t*sin(heading),       z)
    """
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * t
        return Position(
            traj.center_x + traj.radius * math.cos(phi),
            traj.center_y + traj.radius * math.sin(phi),
            traj.altitude,
        )
    return Position(
        traj.origin_x + traj.speed * t * math.cos(traj.heading),
        traj.origin_y + traj.speed * t * math.sin(traj.heading),
        traj.altitude,
    )


def planar_positions_at(traj: Trajectory, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized planar twin of :func:`position_at` for an array of offsets."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * ts
        return (traj.center_x + traj.radius * np.cos(phi),
                traj.center_y + traj.radius * np.sin(phi))
    return (traj.origin_x + traj.speed * np.cos(traj.heading) * ts,
            traj.origin_y + traj.speed * np.sin(traj.heading) * ts)


class TrajectoryTable:
    """A fleet's current trajectories as float64 rows, evaluated all at once.

    Row ``i`` holds ``(epoch, cx, cy, R, phase, omega)`` for a curve and
    ``(epoch, x0, y0, v, cos(heading), sin(heading))`` for a straight
    flight. :meth:`positions_at` repeats :func:`position_at`'s operations
    in its order, so wherever numpy's ``cos``/``sin`` round as ``math``'s
    do, the coordinates are bit-identical to the scalar path.
    (:func:`planar_positions_at` multiplies in another order and is not.)
    """

    def __init__(self, trajectories):
        self.params = np.empty((len(trajectories), 6))
        self.curve = np.zeros(len(trajectories), dtype=bool)
        for i, traj in enumerate(trajectories):
            self.set(i, traj)

    def set(self, i: int, traj: Trajectory) -> None:
        """Make ``traj`` row ``i``'s trajectory."""
        if isinstance(traj, CurveTrajectory):
            self.params[i] = (traj.epoch, traj.center_x, traj.center_y, traj.radius,
                              traj.initial_phase, traj.omega)
            self.curve[i] = True
        else:
            self.params[i] = (traj.epoch, traj.origin_x, traj.origin_y, traj.speed,
                              math.cos(traj.heading), math.sin(traj.heading))
            self.curve[i] = False

    def positions_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Planar coordinates at absolute ``times``: two (times, rows) arrays."""
        epoch, ax, ay, scale, p, q = self.params.T
        tau = np.asarray(times, dtype=float)[:, None] - epoch
        phi = p + q * tau
        travelled = scale * tau
        x = np.where(self.curve, ax + scale * np.cos(phi), ax + travelled * p)
        y = np.where(self.curve, ay + scale * np.sin(phi), ay + travelled * q)
        return x, y


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
    if isinstance(traj, CurveTrajectory):
        return replace(traj, initial_phase=wrap_angle(traj.initial_phase + traj.omega * dt),
                       epoch=epoch)
    return replace(
        traj,
        origin_x=traj.origin_x + traj.speed * dt * math.cos(traj.heading),
        origin_y=traj.origin_y + traj.speed * dt * math.sin(traj.heading),
        epoch=epoch,
    )


def initial_phase(center_x: float, center_y: float, p: Position) -> float:
    """Quadrant-aware polar angle of ``p`` about a circle center, in (-pi, pi].

    A plain ratio arctangent would collapse opposite quadrants onto each
    other; the two-argument form keeps, e.g., (-1, 0) at pi rather than 0.
    """
    dx = p.x - center_x
    dy = p.y - center_y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateFix("point coincides with the circle center")
    return math.atan2(dy, dx)


# Three fixes are treated as collinear when the triangle they span is tiny
# relative to their spread; the threshold is scale invariant.
COLLINEAR_AREA_RTOL = 1e-6


def infer_trajectory(
    p0: Position, p1: Position, p2: Position, interval: float, *, epoch: float = 0.0
) -> tuple[Trajectory, float]:
    """Recover the trajectory and speed from three consecutive GPS fixes.

    The fixes are assumed equally spaced ``interval`` seconds apart, newest
    last. Collinear fixes yield a straight trajectory anchored at ``p2``
    with the heading of the last displacement and speed ``|p1 p2| / interval``.
    Otherwise the three points fix a circle (circumcenter/circumradius); the
    turning sense comes from the sign of the chord cross product and the
    speed from the angular displacement over the last interval.

    Returns ``(trajectory, speed)``; the speed is also stored on the
    trajectory. Raises :class:`DegenerateFix` for coincident fixes or a
    non-positive interval.
    """
    if not (interval > 0.0 and math.isfinite(interval)):
        raise DegenerateFix(f"interval must be positive, got {interval}")
    d01 = planar_distance(p0, p1)
    d12 = planar_distance(p1, p2)
    d02 = planar_distance(p0, p2)
    if min(d01, d12, d02) == 0.0:
        raise DegenerateFix("GPS fixes must be pairwise distinct")

    ux, uy = p1.x - p0.x, p1.y - p0.y
    vx, vy = p2.x - p1.x, p2.y - p1.y
    cross = ux * vy - uy * vx
    area = 0.5 * abs(cross)
    dmax = max(d01, d12, d02)

    if area < COLLINEAR_AREA_RTOL * dmax * dmax:
        heading = math.atan2(vy, vx)
        speed = d12 / interval
        traj = StraightTrajectory(p2.x, p2.y, heading, speed, p2.z, epoch=epoch)
        return traj, speed

    ax, ay = p0.x, p0.y
    bx, by = p1.x, p1.y
    cx, cy = p2.x, p2.y
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise DegenerateFix("fixes are collinear; no circumcircle exists")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ccx = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    ccy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    radius = math.hypot(cx - ccx, cy - ccy)

    direction = Direction.COUNTER_CLOCKWISE if cross > 0.0 else Direction.CLOCKWISE
    phase2 = math.atan2(cy - ccy, cx - ccx)
    phase1 = math.atan2(by - ccy, bx - ccx)
    dphase = wrap_angle(phase2 - phase1)
    speed = radius * abs(dphase) / interval
    traj = CurveTrajectory(ccx, ccy, radius, speed, direction, phase2, p2.z, epoch=epoch)
    return traj, speed
