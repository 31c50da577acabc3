"""Smooth-Turn mobility: random circling with tangent-matched transitions.

Each UAV picks a turn center and radius (or a straight leg), flies it for a
random Wait Time, then picks again. New segments start at the exact current
position with the exact current heading, so position and heading are
continuous across changes. Reversing the turning sense directly is not
allowed; a straight leg must sit between a clockwise and a
counter-clockwise segment.

Boundaries use a buffer model: candidate segments are rejected unless
their whole look-ahead path stays inside the arena and their end pose
still admits a minimum-radius loiter circle that fits inside the arena
(so a compliant choice provably exists at the next change too). After too
many rejections the UAV simply engages that loiter circle.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .kinematics import (
    CurveTrajectory,
    Direction,
    StraightTrajectory,
    Trajectory,
    position_at,
    velocity_heading,
    wrap_heading,
)


class ResampleExhausted(RuntimeError):
    """No boundary-compliant trajectory found; the arena is misconfigured."""


@dataclass(frozen=True)
class Arena:
    """Rectangular flight area with a buffer strip along the walls."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    buffer_width: float

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max, self.buffer_width)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"arena bounds and buffer_width must be finite, got {bounds}")
        if self.buffer_width <= 0.0:
            raise ValueError(f"buffer_width must be positive, got {self.buffer_width}")
        if (self.x_max - self.x_min <= 2.0 * self.buffer_width
                or self.y_max - self.y_min <= 2.0 * self.buffer_width):
            raise ValueError("arena has no interior once the buffer strip is removed")

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        return (self.x_min + margin <= x <= self.x_max - margin
                and self.y_min + margin <= y <= self.y_max - margin)

    def circle_fits(self, cx: float, cy: float, radius: float) -> bool:
        return self.contains(cx, cy, radius)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class SmoothTurnConfig:
    """Sampling ranges for turn radii, speeds and Wait Times (all uniform)."""

    radius_min: float = 100.0
    radius_max: float = 1000.0
    speed_min: float = 20.0
    speed_max: float = 60.0
    wait_min: float = 5.0
    wait_max: float = 30.0

    def __post_init__(self):
        for lo, hi, name in ((self.radius_min, self.radius_max, "radius"),
                             (self.speed_min, self.speed_max, "speed"),
                             (self.wait_min, self.wait_max, "wait")):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} range [{lo}, {hi}] must be finite")
            if not (0.0 < lo <= hi):
                raise ValueError(f"{name} range [{lo}, {hi}] must be positive and ordered")


DEFAULT_CONFIG = SmoothTurnConfig()
# Candidate segments drawn at a change before falling back to a loiter circle.
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class UavState:
    """A UAV's identity and current flight segment."""

    id: int | str
    trajectory: Trajectory
    next_change_at: float

    @property
    def movement_state(self) -> str:
        return self.trajectory.movement_state


def sample_wait_time(rng: np.random.Generator, config: SmoothTurnConfig = DEFAULT_CONFIG) -> float:
    return float(rng.uniform(config.wait_min, config.wait_max))


# ---------------------------------------------------------------------------
# Tangent-matched segment construction
# ---------------------------------------------------------------------------


def make_turn(x: float, y: float, heading: float, radius: float, speed: float,
              direction: Direction, altitude: float, epoch: float) -> CurveTrajectory:
    """Turn whose circle is tangent to the current velocity at (x, y).

    The center sits a radius away, perpendicular to the heading, on the
    left for counter-clockwise and on the right for clockwise.
    """
    side = heading + float(direction) * (math.pi / 2.0)
    cx = x + radius * math.cos(side)
    cy = y + radius * math.sin(side)
    phase = math.atan2(y - cy, x - cx)
    return CurveTrajectory(cx, cy, radius, speed, direction, phase, altitude, epoch=epoch)


def tangent_trajectory(traj: Trajectory, at: float, kind: str, *, radius: float | None = None,
                       speed: float | None = None) -> Trajectory:
    """New segment of the given kind starting on ``traj`` at absolute time ``at``.

    ``kind`` is one of "STRAIGHT", "CW", "CCW". Position and heading carry
    over exactly, so the flight path stays C1 smooth.
    """
    t = at - traj.epoch
    pos = position_at(traj, t)
    heading = velocity_heading(traj, t)
    v = traj.speed if speed is None else speed
    if kind == "STRAIGHT":
        return StraightTrajectory(pos.x, pos.y, heading, v, traj.altitude, epoch=at)
    direction = Direction.CLOCKWISE if kind == "CW" else Direction.COUNTER_CLOCKWISE
    if radius is None:
        raise ValueError("turn segments need a radius")
    return make_turn(pos.x, pos.y, heading, radius, v, direction, traj.altitude, epoch=at)


# ---------------------------------------------------------------------------
# Containment and recoverability
# ---------------------------------------------------------------------------


def _path_bbox(traj: Trajectory, duration: float) -> tuple[float, float, float, float]:
    """Exact axis-aligned bounds of the path over [0, duration]."""
    if isinstance(traj, StraightTrajectory):
        p0 = position_at(traj, 0.0)
        p1 = position_at(traj, duration)
        return (min(p0.x, p1.x), max(p0.x, p1.x), min(p0.y, p1.y), max(p0.y, p1.y))
    omega = traj.omega
    phi0 = traj.initial_phase
    phi1 = phi0 + omega * duration
    lo, hi = (phi0, phi1) if phi0 <= phi1 else (phi1, phi0)
    r = traj.radius
    cx, cy = traj.center_x, traj.center_y
    if hi - lo >= 2.0 * math.pi:
        return (cx - r, cx + r, cy - r, cy + r)
    xs = [cx + r * math.cos(lo), cx + r * math.cos(hi)]
    ys = [cy + r * math.sin(lo), cy + r * math.sin(hi)]
    # Arc extremes occur where the swept angle crosses a multiple of pi/2.
    k = math.ceil(lo / (math.pi / 2.0))
    angle = k * (math.pi / 2.0)
    while angle <= hi:
        xs.append(cx + r * math.cos(angle))
        ys.append(cy + r * math.sin(angle))
        angle += math.pi / 2.0
    return (min(xs), max(xs), min(ys), max(ys))


def path_stays_inside(arena: Arena, traj: Trajectory, duration: float) -> bool:
    x_lo, x_hi, y_lo, y_hi = _path_bbox(traj, duration)
    return (arena.x_min <= x_lo and x_hi <= arena.x_max
            and arena.y_min <= y_lo and y_hi <= arena.y_max)


def _loiter_sides(traj: Trajectory) -> tuple[Direction, ...]:
    """Turn senses reachable right after flying ``traj``."""
    if isinstance(traj, CurveTrajectory):
        return (traj.direction,)
    return (Direction.COUNTER_CLOCKWISE, Direction.CLOCKWISE)


def _fitting_loiter(arena: Arena, x: float, y: float, heading: float,
                    sides: tuple[Direction, ...], radius: float) -> Direction | None:
    """A turn sense whose minimum-radius circle at this pose fits the arena.

    When both fit, prefer the one curling toward the arena center. A pose
    admitting such a circle can hold it forever, so it can always comply
    with the buffer rule at every future change.
    """
    cx0, cy0 = arena.center
    best = None
    best_dist = math.inf
    for direction in sides:
        side = heading + float(direction) * (math.pi / 2.0)
        cx = x + radius * math.cos(side)
        cy = y + radius * math.sin(side)
        if arena.circle_fits(cx, cy, radius):
            dist = math.hypot(cx - cx0, cy - cy0)
            if dist < best_dist:
                best = direction
                best_dist = dist
    return best


def _end_pose_recoverable(arena: Arena, traj: Trajectory, duration: float,
                          min_radius: float) -> bool:
    pos = position_at(traj, duration)
    heading = velocity_heading(traj, duration)
    return _fitting_loiter(arena, pos.x, pos.y, heading, _loiter_sides(traj),
                           min_radius) is not None


# ---------------------------------------------------------------------------
# Trajectory changes
# ---------------------------------------------------------------------------

_KIND_ORDER = ("STRAIGHT", "CW", "CCW")


def _allowed_kinds(traj: Trajectory) -> tuple[str, ...]:
    """Movement states reachable from the current one.

    Opposite turn senses never follow each other directly; a straight leg
    (lasting a full Wait Time draw) must come in between.
    """
    state = traj.movement_state
    if state == "STRAIGHT":
        return _KIND_ORDER
    return ("STRAIGHT", state)


def next_trajectory(state: UavState, arena: Arena, rng: np.random.Generator,
                    now: float, config: SmoothTurnConfig = DEFAULT_CONFIG) -> UavState:
    """Sample the UAV's next flight segment at a change instant.

    The new segment starts at the exact current position and heading.
    Candidates are drawn until one keeps its whole Wait-Time path inside
    the arena and ends in a recoverable pose; after ``MAX_ATTEMPTS``
    failures the UAV falls back to the tightest inward loiter circle at the
    minimum radius. Raises :class:`ResampleExhausted` when even that circle
    does not fit (an arena/radius mismatch).
    """
    traj = state.trajectory
    elapsed = now - traj.epoch
    pos = position_at(traj, elapsed)
    heading = velocity_heading(traj, elapsed)
    if not arena.contains(pos.x, pos.y):
        raise ResampleExhausted(
            f"uav {state.id} is outside the arena at ({pos.x:.1f}, {pos.y:.1f})"
        )
    kinds = _allowed_kinds(traj)

    for _ in range(MAX_ATTEMPTS):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        wait = sample_wait_time(rng, config)
        radius = (None if kind == "STRAIGHT"
                  else float(rng.uniform(config.radius_min, config.radius_max)))
        candidate = tangent_trajectory(traj, now, kind, radius=radius)
        if (path_stays_inside(arena, candidate, wait)
                and _end_pose_recoverable(arena, candidate, wait, config.radius_min)):
            return replace(state, trajectory=candidate, next_change_at=now + wait)

    # Forced fallback: hold the minimum-radius circle that fits.
    wait = sample_wait_time(rng, config)
    direction = _fitting_loiter(arena, pos.x, pos.y, heading, _loiter_sides(traj),
                                config.radius_min)
    if direction is None:
        raise ResampleExhausted(
            f"uav {state.id} cannot fit a radius-{config.radius_min:.0f} loiter "
            f"circle at ({pos.x:.1f}, {pos.y:.1f}); arena too tight for the config"
        )
    loiter = tangent_trajectory(traj, now, direction.label, radius=config.radius_min)
    return replace(state, trajectory=loiter, next_change_at=now + wait)


def spawn_margin(arena: Arena, config: SmoothTurnConfig) -> float:
    """How far from the walls UAVs spawn: clear of the buffer strip and of
    a minimum-radius circle. Raises :class:`ValueError` when the arena
    leaves no room inside that margin."""
    margin = max(arena.buffer_width, 2.0 * config.radius_min)
    if (arena.x_max - arena.x_min <= 2.0 * margin
            or arena.y_max - arena.y_min <= 2.0 * margin):
        raise ValueError(f"arena too small to spawn UAVs {margin:g} m clear of its walls, "
                         "max(buffer_width, 2 * radius_min)")
    return margin


def initial_state(uid, arena: Arena, rng: np.random.Generator,
                  config: SmoothTurnConfig = DEFAULT_CONFIG, *, altitude: float) -> UavState:
    """Spawn a UAV at a random interior pose at t = 0 and sample its first segment."""
    margin = spawn_margin(arena, config)
    x = float(rng.uniform(arena.x_min + margin, arena.x_max - margin))
    y = float(rng.uniform(arena.y_min + margin, arena.y_max - margin))
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    speed = float(rng.uniform(config.speed_min, config.speed_max))
    seed_traj = StraightTrajectory(x, y, wrap_heading(heading), speed, altitude, epoch=0.0)
    return next_trajectory(UavState(uid, seed_traj, next_change_at=0.0), arena, rng, 0.0, config)


class SmoothTurnFleet:
    """A set of independently moving UAVs with per-UAV random streams.

    Stream seeding uses (seed, uav index), so traces are reproducible
    regardless of the order in which UAVs are advanced. UAV ``i`` starts at
    t = 0 and flies at altitude 150 + 10 * i m.
    """

    def __init__(self, count: int, arena: Arena, config: SmoothTurnConfig, seed: int):
        if count < 1:
            raise ValueError("need at least one UAV")
        self.arena = arena
        self.config = config
        self._rngs = [np.random.default_rng([seed, i]) for i in range(count)]
        self.states = [
            initial_state(i, arena, self._rngs[i], config, altitude=150.0 + 10.0 * i)
            for i in range(count)
        ]

    def advance(self, index: int, now: float) -> UavState:
        """Apply a trajectory change for one UAV and return its new state."""
        new_state = next_trajectory(self.states[index], self.arena,
                                    self._rngs[index], now, self.config)
        self.states[index] = new_state
        return new_state


# ---------------------------------------------------------------------------
# Trace output
# ---------------------------------------------------------------------------

TRACE_HEADER = ["time_s", "uav_id", "x_m", "y_m", "z_m", "state",
                "cx_m", "cy_m", "r_m", "heading_rad", "speed_mps"]


def segment_at(segments: list[Trajectory], t: float) -> Trajectory:
    """The segment of a UAV's history (in order of change) in force at
    instant ``t``: the last whose ``epoch``, the instant of the change that
    made it, is at or before ``t``, or the first when ``t`` precedes every
    change. A segment that starts at ``t`` is in force at ``t``."""
    return segments[bisect_right(segments, t, 1, key=attrgetter("epoch")) - 1]


def trace_row(t: float, uid, traj: Trajectory) -> list[str]:
    """One CSV row of the trajectory trace; inapplicable fields stay empty."""
    pos = position_at(traj, t - traj.epoch)
    if isinstance(traj, CurveTrajectory):
        cx, cy, r = repr(traj.center_x), repr(traj.center_y), repr(traj.radius)
        heading = ""
    else:
        cx = cy = r = ""
        heading = repr(traj.heading)
    return [repr(float(t)), str(uid), repr(pos.x), repr(pos.y), repr(pos.z),
            traj.movement_state, cx, cy, r, heading, repr(traj.speed)]


def trace_rows(segments_by_uid: dict, times) -> list[list[str]]:
    """Trace rows of a fleet at each of ``times``, one per UAV in the order
    of ``segments_by_uid`` (uid -> segment history), each from the segment
    in force at that instant (:func:`segment_at`)."""
    return [trace_row(t, uid, segment_at(segments, t))
            for t in times for uid, segments in segments_by_uid.items()]


def write_trace_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(rows)


def generate_trace(count: int, arena: Arena, config: SmoothTurnConfig, duration: float,
                   seed: int, sample_dt: float = 1.0):
    """Standalone mobility run: returns (trace rows, per-UAV segment lists).

    Each UAV draws from its own random stream, so each is flown to
    ``duration`` on its own, then the fleet is sampled every ``sample_dt``
    seconds from those histories by :func:`trace_rows`, the rule the
    network simulator's trace uses: a sample on a change instant reports
    the segment that starts there. ``duration`` and ``sample_dt`` must be
    positive and finite; :class:`ValueError` otherwise.
    """
    for name, value in (("duration", duration), ("sample_dt", sample_dt)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    fleet = SmoothTurnFleet(count, arena, config, seed)
    segments = []
    for i, state in enumerate(fleet.states):
        history = [state.trajectory]
        while state.next_change_at <= duration:
            state = fleet.advance(i, state.next_change_at)
            history.append(state.trajectory)
        segments.append(history)
    times = [k * sample_dt for k in range(int(math.floor(duration / sample_dt)) + 1)]
    return trace_rows(dict(enumerate(segments)), times), segments
