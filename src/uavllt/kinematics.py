"""Trajectory primitives for smoothly flying UAVs.

A UAV moves either on a circular arc around a fixed center or along a
straight ray, always at a fixed altitude. Both motions are parameterized
so that the position at any time offset from the trajectory's anchor
instant (its *epoch*) is available in closed form. :func:`planar_xy` is
the one definition of that arithmetic, in plain floats: :func:`position_at`,
the simulator's geometry and a straight flyer's :func:`re_anchor` all take
their coordinates from it.

:func:`contact_span` is the one kinetic certificate on those coordinates
(Basch, Guibas & Hershberger 1999): planar separation changes by at most the
sum of both UAVs' speeds per second, so a computed separation certifies how
long the pair stays on its side of the range. The simulator's contact
certificates and the solver's no-break steps both rest on it.

Angles are handled quadrant-aware throughout (two-argument arctangent),
so vertical headings and points in any quadrant are unambiguous.
All types are immutable values; every function here is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import IntEnum

TWO_PI = 2.0 * math.pi
# A certificate's allowance for rounding, relative to the size of the
# coordinates, their travel and the range (see contact_span).
_CERT_ROUNDING = 64.0 * sys.float_info.epsilon


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
    A curve's phase moves on by ``omega * dt`` and is wrapped; a straight
    flyer's origin moves to its :func:`planar_xy` point. The result equals,
    bit for bit, the trajectory the validating constructor builds from
    those fields, but ``traj`` is already validated, so the copy skips
    ``__post_init__`` and keeps its ``omega``: the solver re-anchors both
    UAVs at every trust window. ``dt == 0`` returns ``traj`` itself.
    """
    dt = epoch - traj.epoch
    if dt == 0.0:
        return traj
    moved = object.__new__(type(traj))
    if isinstance(traj, CurveTrajectory):
        moved.__dict__.update(traj.__dict__, epoch=epoch,
                              initial_phase=wrap_angle(traj.initial_phase + traj.omega * dt))
    else:
        x, y = planar_xy(traj, dt)
        moved.__dict__.update(traj.__dict__, origin_x=x, origin_y=y, epoch=epoch)
    return moved


def speed_and_size(traj: Trajectory, until: float) -> tuple[float, float]:
    """Planar speed of ``traj``, and the size of the terms :func:`planar_xy`
    computes its coordinates from at any time in ``[0, until]``: the scale
    of their rounding. A curve flyer's speed is ``R * |omega|``, the rate
    :func:`planar_xy` moves it at."""
    if isinstance(traj, CurveTrajectory):
        speed = traj.radius * abs(traj.omega)
        base = abs(traj.center_x) + abs(traj.center_y) + 6.0 * traj.radius
    else:
        speed = traj.speed
        base = abs(traj.origin_x) + abs(traj.origin_y)
    return speed, base + 3.0 * speed * (until + abs(traj.epoch))


def contact_span(separation: float, tx_range: float, motion_a: tuple[float, float],
                 motion_b: tuple[float, float]) -> float:
    """Time, from an instant ``t``, for which a UAV pair stays on the side of
    ``tx_range`` that ``separation``, computed at ``t`` from :func:`planar_xy`
    and :func:`math.hypot`, is on: at most ``tx_range`` (in range) or beyond
    it. ``motion_a`` and ``motion_b`` are the UAVs' :func:`speed_and_size`
    up to the last instant the span may reach. ``inf`` when both UAVs are
    parked, as their positions never change; negative when the separation is
    within the allowance of the range.

    The true separation changes by at most ``v_a + v_b`` per second, so it
    cannot cross ``r`` before ``t + |separation - r| / (v_a + v_b)``. The
    slack subtracted from ``|separation - r|`` covers the rounding between
    true and computed values, at ``t`` and at a later instant whose computed
    separation is near ``r``:
    - the coordinates, by a few eps of the size of their terms
      (``size_a``, ``size_b``, which include all travel up to the
      ``until`` they were taken for, and so also ``v_a + v_b`` times the
      rounding of ``t``);
    - their difference and :func:`math.hypot`, by a few eps of
      ``separation`` at ``t`` and of ``r`` later;
    - the speeds and the quotient, by a few eps of the travel the bound
      spans, at most ``separation + r``.
    Every coordinate has ``|x| + |y|`` at most its trajectory's size, so
    ``separation`` is at most ``size_a + size_b`` and needs no term of its
    own: 64 eps times ``size_a + size_b + 8r`` covers each of these many
    times over. So within the span neither the true separation nor any
    separation computed from the coordinates crosses ``tx_range``.
    """
    (speed_a, size_a), (speed_b, size_b) = motion_a, motion_b
    closing = speed_a + speed_b
    if closing > 0.0:
        slack = _CERT_ROUNDING * (size_a + size_b + 8.0 * tx_range)
        return (abs(separation - tx_range) - slack) / closing
    return math.inf
