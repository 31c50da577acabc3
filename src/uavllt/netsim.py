"""Discrete-event simulation of Hello beaconing and link-lifetime tracking.

Every UAV periodically broadcasts a Hello message carrying its trajectory
parameters (delivery is instantaneous and lossless to any neighbor within
transmission range; the channel itself is not modeled). A link is
established the first time a pair completes a Hello exchange in both
directions, at which point its lifetime is predicted analytically. The
prediction is refreshed whenever either endpoint changes trajectory, never
averaged with history. Ground-truth terminations are detected by sampling
live-link separations on a fine grid and bisecting the crossing, so the
simulator can score its own predictions.

Nothing moves a trajectory or brings a link up between two queued events,
so the ground-truth check scans every grid tick up to the next event as
one block: the fleet's positions at all those ticks come from one
:class:`~uavllt.kinematics.TrajectoryTable` evaluation, and the live-link
separations form one (ticks x links) array. A Hello finds its neighbours
from one row of distances the same way. The table repeats
:func:`~uavllt.kinematics.position_at`'s arithmetic in its order and the
distances are taken with :func:`math.hypot`, so every separation, and with
it every output, is bit-identical to checking one tick and one pair at a
time. Termination bisection and the change handler's range test stay on
the scalar path.

Many blocks need no geometry at all. Planar separation grows by at most
the sum of both UAVs' speeds per second, so a link evaluated at tick t
with separation d stays in range until ``t + (r - d - allowance) / (v_a +
v_b)``, or forever when both UAVs are parked: a kinetic certificate
(Basch, Guibas & Hershberger 1999). The allowance, 64 eps times the size
of the coordinates, the travel and the range, covers the rounding of the
coordinates and of :func:`math.hypot`, so the bound holds for the
separations the check computes. A block evaluates only the links whose
certificate falls at or before its last tick, and each of them over all
its ticks; a block with none makes no geometry call. Certificates are set
from the block's last tick, expire when a link comes up or either endpoint
changes trajectory (a scripted change may even teleport a UAV) and are
dropped at termination. The links skipped could not have left range on any
tick of the block, so every output stays bit-identical.

Each UAV has exactly one trajectory change queued at a time: the change
driver returns the new state together with the instant of the next
change. Every Hello interval, starting at t = 0, the simulator appends one
trace row per UAV and a topology snapshot. Event log entries are plain
dicts (serialized as JSON lines); topology snapshots are edge lists whose
weights are the remaining predicted lifetimes at the snapshot instant.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

import numpy as np

from .config import ScenarioConfig
from .kinematics import (
    CurveTrajectory,
    Direction,
    Position,
    StraightTrajectory,
    Trajectory,
    TrajectoryTable,
    initial_phase,
    position_at,
    re_anchor,
)
from .llt import DEFAULT_HORIZON, LinkNotUp, LltResult, compute_llt
from .mobility import SmoothTurnFleet, UavState, trace_row

DT_CHECK = 0.01          # ground-truth sampling resolution, seconds
BREAK_REFINE_TOL = 1e-6  # bisection width for termination instants, seconds
# A half-completed Hello handshake goes stale after this many intervals.
HANDSHAKE_FRESHNESS = 2.0
# Most check ticks one block scan covers; bounds its (ticks x links) arrays.
_CHECK_BLOCK = 256
# A link certificate's allowance for rounding, relative to the size of the
# coordinates, the travel and the range that make up a computed separation.
_CERT_ROUNDING = 64.0 * sys.float_info.epsilon

_PRIORITY_CHANGE = 0
_PRIORITY_HELLO = 1
_PRIORITY_CHECK = 2
_PRIORITY_SAMPLE = 3


@dataclass(frozen=True)
class HelloMessage:
    """Periodic trajectory advertisement broadcast to 1-hop neighbors."""

    sender: int | str
    timestamp: float
    position: Position
    movement_state: str
    center: tuple[float, float] | None
    radius: float | None
    heading: float | None
    speed: float
    sequence: int

    def __post_init__(self):
        turning = self.movement_state in ("CW", "CCW")
        if turning and (self.center is None or self.radius is None or self.heading is not None):
            raise ValueError("turn messages carry center and radius, no heading")
        if not turning and (self.heading is None or self.center is not None or self.radius is not None):
            raise ValueError("straight messages carry a heading, no center or radius")

    @classmethod
    def from_state(cls, state: UavState, timestamp: float, sequence: int) -> "HelloMessage":
        traj = state.trajectory
        pos = position_at(traj, timestamp - traj.epoch)
        if isinstance(traj, CurveTrajectory):
            return cls(state.id, timestamp, pos, traj.movement_state,
                       (traj.center_x, traj.center_y), traj.radius, None,
                       traj.speed, sequence)
        return cls(state.id, timestamp, pos, "STRAIGHT", None, None,
                   traj.heading, traj.speed, sequence)

    def trajectory(self) -> Trajectory:
        """Reconstruct the sender's trajectory, anchored at the send instant."""
        if self.movement_state == "STRAIGHT":
            return StraightTrajectory(self.position.x, self.position.y, self.heading,
                                      self.speed, self.position.z, epoch=self.timestamp)
        direction = Direction.CLOCKWISE if self.movement_state == "CW" else Direction.COUNTER_CLOCKWISE
        cx, cy = self.center
        phase = initial_phase(cx, cy, self.position)
        return CurveTrajectory(cx, cy, self.radius, self.speed, direction, phase,
                               self.position.z, epoch=self.timestamp)


@dataclass
class LinkRecord:
    """One life of a link, from establishment to (possibly) termination."""

    endpoints: tuple
    established_at: float
    estimate_history: list[tuple[float, LltResult]] = field(default_factory=list)
    terminated_at: float | None = None

    @property
    def current_result(self) -> LltResult:
        return self.estimate_history[-1][1]

    @property
    def predicted_termination(self) -> float:
        at, result = self.estimate_history[-1]
        return math.inf if result.horizon_capped else at + result.llt

    def remaining_at(self, t: float) -> float:
        pred = self.predicted_termination
        return math.inf if math.isinf(pred) else max(0.0, pred - t)


@dataclass(frozen=True)
class LinkGraph:
    """Topology snapshot; edge weights are remaining predicted lifetimes."""

    snapshot_time: float
    nodes: frozenset
    edges: dict

    @classmethod
    def from_edges(cls, edge_list, snapshot_time: float = 0.0,
                   nodes=None) -> "LinkGraph":
        """Graph of ``(a, b, weight)`` edges, each stored under its ordered pair.

        Node ids must all share one type, ints as the simulator numbers its
        UAVs or strs as a snapshot CSV is read, since pairs are ordered by
        comparing ids. Raises :class:`TypeError` for a mix.
        """
        edge_list = list(edge_list)
        seen = {node for a, b, _ in edge_list for node in (a, b)}
        if nodes is not None:
            seen.update(nodes)
        kinds = sorted({type(node).__name__ for node in seen})
        if len(kinds) > 1:
            raise TypeError(f"node ids must all share one type, got {', '.join(kinds)}")
        edges = {}
        for a, b, weight in edge_list:
            edges[(a, b) if a <= b else (b, a)] = float(weight)
        return cls(snapshot_time, frozenset(seen), edges)


def _speed_and_size(traj: Trajectory, until: float) -> tuple[float, float]:
    """Planar speed of ``traj``, and the size of the terms
    :class:`~uavllt.kinematics.TrajectoryTable` computes its coordinates from
    at any time in ``[0, until]``: the scale of their rounding."""
    if isinstance(traj, CurveTrajectory):
        speed = traj.radius * abs(traj.omega)  # the table's R * |omega|
        base = abs(traj.center_x) + abs(traj.center_y) + 6.0 * traj.radius
    else:
        speed = traj.speed
        base = abs(traj.origin_x) + abs(traj.origin_y)
    return speed, base + 3.0 * speed * (until + abs(traj.epoch))


def recompute_llt(link: LinkRecord, states_now: dict, now: float, tx_range: float,
                  horizon: float = DEFAULT_HORIZON) -> LinkRecord:
    """Append a fresh estimate anchored at ``now``; replaces, never averages.

    Raises :class:`LinkNotUp` when the pair is already out of range (the
    link should be terminated instead of re-estimated).
    """
    a, b = link.endpoints
    traj_a = re_anchor(states_now[a].trajectory, now)
    traj_b = re_anchor(states_now[b].trajectory, now)
    result = compute_llt(traj_a, traj_b, tx_range, horizon)
    link.estimate_history.append((now, result))
    return link


@dataclass
class SimulationResult:
    events: list
    links: list
    snapshots: list
    trace_rows: list
    duration: float

    def summary(self) -> dict:
        terminated = [l for l in self.links if l.terminated_at is not None]
        errors = [abs(l.predicted_termination - l.terminated_at)
                  for l in terminated if math.isfinite(l.predicted_termination)]
        return {
            "links_established": len(self.links),
            "links_terminated": len(terminated),
            "llt_recomputes": sum(len(l.estimate_history) - 1 for l in self.links),
            "mean_abs_prediction_error_s": (sum(errors) / len(errors)) if errors else None,
        }


class ScriptedChanges:
    """Pre-planned trajectory changes: uav id -> sorted [(time, builder)].

    Each builder is called as ``builder(state, now)`` and returns the new
    :class:`~uavllt.kinematics.Trajectory` anchored at ``now``.
    """

    def __init__(self, schedule: dict):
        self._schedule = {uid: sorted(items, key=lambda item: item[0])
                          for uid, items in schedule.items()}
        self._cursor = {uid: 0 for uid in self._schedule}

    def __call__(self, state: UavState, now: float) -> UavState:
        items = self._schedule[state.id]
        cursor = self._cursor[state.id]
        _, builder = items[cursor]
        cursor += 1
        self._cursor[state.id] = cursor
        next_at = items[cursor][0] if cursor < len(items) else math.inf
        return replace(state, trajectory=builder(state, now), next_change_at=next_at)


class SmoothTurnChanges:
    """Adapter driving trajectory changes from a mobility fleet."""

    def __init__(self, fleet: SmoothTurnFleet):
        self._fleet = fleet
        self._index = {state.id: i for i, state in enumerate(fleet.states)}

    def __call__(self, state: UavState, now: float) -> UavState:
        return self._fleet.advance(self._index[state.id], now)


class Simulator:
    """Deterministic single-threaded event loop over a fixed UAV fleet."""

    def __init__(self, states, change_driver, *, tx_range: float, duration: float,
                 hello_interval: float = 1.0, dt_check: float = DT_CHECK,
                 horizon: float = DEFAULT_HORIZON, stop_after_first_termination: bool = False):
        for name, value in (("tx_range", tx_range), ("duration", duration),
                            ("hello_interval", hello_interval), ("dt_check", dt_check)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self.states: dict = {s.id: s for s in states}
        self.order = [s.id for s in states]
        self.driver = change_driver
        self.tx_range = tx_range
        self.duration = duration
        self.hello_interval = hello_interval
        self.dt_check = dt_check
        self.horizon = horizon
        self.stop_after_first_termination = stop_after_first_termination

        self.events: list = []
        self.snapshots: list = []
        self.trace_rows: list = []
        self.live: dict = {}
        # pair -> earliest instant its separation could exceed tx_range, in live order
        self._due: dict = {}
        self.records: list = []
        self._segments = {uid: [self.states[uid].trajectory] for uid in self.order}
        self._segment_epochs = {uid: [self.states[uid].trajectory.epoch] for uid in self.order}
        self._index = {uid: i for i, uid in enumerate(self.order)}
        self._table = TrajectoryTable([self.states[uid].trajectory for uid in self.order])
        terms = [_speed_and_size(self.states[uid].trajectory, duration) for uid in self.order]
        self._speed = [speed for speed, _ in terms]
        self._size = [size for _, size in terms]
        self._heard: dict = {}  # (listener, sender) -> when last heard
        self._hello_seq = {uid: 0 for uid in self.order}
        self._changed_since_hello: set = set()
        self._last_check = 0.0
        self._heap: list = []
        self._seq = 0
        self._stop = False

    # -- scheduling --------------------------------------------------------

    def _push(self, t: float, priority: int, kind: str, payload=None):
        heappush(self._heap, (t, priority, self._seq, kind, payload))
        self._seq += 1

    # -- geometry ----------------------------------------------------------

    def _position(self, uid, t: float) -> Position:
        epochs = self._segment_epochs[uid]
        idx = bisect_right(epochs, t) - 1
        if idx < 0:
            idx = 0
        seg = self._segments[uid][idx]
        return position_at(seg, t - seg.epoch)

    def _separation(self, a, b, t: float) -> float:
        pa = self._position(a, t)
        pb = self._position(b, t)
        return math.hypot(pa.x - pb.x, pa.y - pb.y)

    # -- event handlers ----------------------------------------------------

    def _handle_hello(self, t: float, uid) -> None:
        seq = self._hello_seq[uid]
        self._hello_seq[uid] = seq + 1
        self.events.append({"t": t, "event": "hello", "uav": uid, "seq": seq})
        fresh = HANDSHAKE_FRESHNESS * self.hello_interval
        x, y = self._table.positions_at([t])
        i = self._index[uid]
        distances = map(math.hypot, (x[0, i] - x[0]).tolist(), (y[0, i] - y[0]).tolist())
        for vid, distance in zip(self.order, distances):
            if vid == uid or distance > self.tx_range:
                continue
            self._heard[(vid, uid)] = t
            pair = (uid, vid) if uid <= vid else (vid, uid)
            heard_at = self._heard.get((uid, vid))
            if pair not in self.live and heard_at is not None and t - heard_at <= fresh:
                self._establish(pair, t)
        if uid in self._changed_since_hello:
            self._changed_since_hello.discard(uid)
            # Neighbors only now learn the new trajectory; log what their
            # estimate would be, for comparison with the change-instant one.
            msg = HelloMessage.from_state(self.states[uid], t, seq)
            for pair, link in self.live.items():
                if uid in pair:
                    other = pair[0] if pair[1] == uid else pair[1]
                    try:
                        result = compute_llt(msg.trajectory(),
                                             re_anchor(self.states[other].trajectory, t),
                                             self.tx_range, self.horizon)
                    except LinkNotUp:
                        continue
                    self.events.append(self._estimate_event(t, pair, result, basis="hello"))
        nxt = t + self.hello_interval
        if nxt <= self.duration:
            self._push(nxt, _PRIORITY_HELLO, "hello", uid)

    def _establish(self, pair, t: float) -> None:
        link = LinkRecord(endpoints=pair, established_at=t)
        recompute_llt(link, self.states, t, self.tx_range, self.horizon)
        self.live[pair] = link
        self._due[pair] = -math.inf
        self.records.append(link)
        result = link.current_result
        self.events.append({
            "t": t, "event": "link_up", "a": pair[0], "b": pair[1],
            "llt": None if result.horizon_capped else result.llt,
            "case": result.case_used, "horizon_capped": result.horizon_capped,
        })

    def _estimate_event(self, t: float, pair, result: LltResult, basis: str) -> dict:
        return {
            "t": t, "event": "llt_recompute", "a": pair[0], "b": pair[1],
            "llt": None if result.horizon_capped else result.llt,
            "case": result.case_used, "horizon_capped": result.horizon_capped,
            "basis": basis,
        }

    def _handle_change(self, t: float, uid) -> None:
        new_state = self.driver(self.states[uid], t)
        self.states[uid] = new_state
        traj = new_state.trajectory
        self._segments[uid].append(traj)
        self._segment_epochs[uid].append(traj.epoch)
        i = self._index[uid]
        self._table.set(i, traj)
        self._speed[i], self._size[i] = _speed_and_size(traj, self.duration)
        self._changed_since_hello.add(uid)
        event = {"t": t, "event": "traj_change", "uav": uid, "state": traj.movement_state,
                 "speed": traj.speed}
        if isinstance(traj, CurveTrajectory):
            event.update({"cx": traj.center_x, "cy": traj.center_y, "r": traj.radius,
                          "heading": None})
        else:
            event.update({"cx": None, "cy": None, "r": None, "heading": traj.heading})
        self.events.append(event)

        for pair in [p for p in self.live if uid in p]:
            link = self.live[pair]
            if self._separation(pair[0], pair[1], t) > self.tx_range:
                # Already out of range: the break happened since the last
                # look; terminate instead of re-estimating.
                self._terminate(pair, max(self._last_check, link.established_at), t)
                continue
            self._due[pair] = -math.inf
            recompute_llt(link, self.states, t, self.tx_range, self.horizon)
            self.events.append(self._estimate_event(t, pair, link.current_result,
                                                    basis="change"))
        if math.isfinite(new_state.next_change_at) and new_state.next_change_at <= self.duration:
            self._push(new_state.next_change_at, _PRIORITY_CHANGE, "change", uid)

    def _handle_check(self, t: float) -> None:
        # No trajectory changes and no link comes up before the next queued
        # event, so every check tick that would pop before it is scanned here
        # as one block, with the tick times the one-by-one chain would make.
        ticks = [t]
        nxt = t + self.dt_check
        top = self._heap[0][:2] if self._heap else (math.inf, 0)
        while nxt <= self.duration and (nxt, _PRIORITY_CHECK) < top and len(ticks) < _CHECK_BLOCK:
            ticks.append(nxt)
            nxt += self.dt_check
        # Only links whose certificate has run out by the last tick can have
        # left range on a tick of this block.
        last = ticks[-1]
        pairs = [pair for pair, due in self._due.items() if due <= last]
        if pairs:
            x, y = self._table.positions_at(ticks)
            a = [self._index[pair[0]] for pair in pairs]
            b = [self._index[pair[1]] for pair in pairs]
            dx = (x[:, a] - x[:, b]).ravel().tolist()
            dy = (y[:, a] - y[:, b]).ravel().tolist()
            distances = np.fromiter(map(math.hypot, dx, dy), float, len(dx))
            distances = distances.reshape(len(ticks), len(pairs))
            self._certify(pairs, a, b, last, distances[-1].tolist())
            out = distances > self.tx_range
            # Terminate in tick order, then in live order, as tick-by-tick checks would.
            for k in np.flatnonzero(out.any(axis=1)).tolist():
                lo = ticks[k - 1] if k else self._last_check
                for j in np.flatnonzero(out[k]).tolist():
                    link = self.live.get(pairs[j])
                    if link is not None:
                        self._terminate(pairs[j], max(lo, link.established_at), ticks[k])
                if self._stop:
                    break
        self._last_check = ticks[-1]
        if nxt <= self.duration and not self._stop:
            self._push(nxt, _PRIORITY_CHECK, "check", None)

    def _certify(self, pairs, a, b, t: float, separations) -> None:
        """Certify each pair in range until its separation at ``t`` could have
        grown past ``tx_range`` at the sum of its UAVs' speeds."""
        r = self.tx_range
        speed, size = self._speed, self._size
        for pair, i, j, d in zip(pairs, a, b, separations):
            closing = speed[i] + speed[j]
            if closing > 0.0:
                # The range term covers the separation, the travel the
                # certificate spans and the rounding of the speeds.
                slack = _CERT_ROUNDING * (size[i] + size[j] + 8.0 * r)
                self._due[pair] = t + (r - d - slack) / closing
            else:
                self._due[pair] = math.inf  # both parked: positions never change

    def _terminate(self, pair, lo: float, hi: float) -> None:
        link = self.live.pop(pair)
        del self._due[pair]
        a, b = pair

        def out_of_range(tau: float) -> bool:
            return self._separation(a, b, tau) > self.tx_range

        while hi - lo > BREAK_REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if out_of_range(mid):
                hi = mid
            else:
                lo = mid
        t_break = 0.5 * (lo + hi)
        link.terminated_at = t_break
        predicted = link.predicted_termination
        self.events.append({
            "t": t_break, "event": "link_down", "a": a, "b": b,
            "established_at": link.established_at,
            "lifetime": t_break - link.established_at,
            "predicted_termination": None if math.isinf(predicted) else predicted,
            "prediction_abs_error": None if math.isinf(predicted) else abs(predicted - t_break),
        })
        if self.stop_after_first_termination:
            self._stop = True

    def _handle_sample(self, t: float) -> None:
        for uid in self.order:
            self.trace_rows.append(trace_row(t, self.states[uid]))
        edges = {pair: link.remaining_at(t) for pair, link in self.live.items()}
        self.snapshots.append(LinkGraph(t, frozenset(self.order), edges))
        nxt = t + self.hello_interval
        if nxt <= self.duration and not self._stop:
            self._push(nxt, _PRIORITY_SAMPLE, "sample", None)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        n = len(self.order)
        for i, uid in enumerate(self.order):
            self._push(self.hello_interval * i / n, _PRIORITY_HELLO, "hello", uid)
            t_change = self.states[uid].next_change_at
            if math.isfinite(t_change) and t_change <= self.duration:
                self._push(t_change, _PRIORITY_CHANGE, "change", uid)
        self._push(self.dt_check, _PRIORITY_CHECK, "check", None)
        self._push(0.0, _PRIORITY_SAMPLE, "sample", None)

        while self._heap and not self._stop:
            t, _, _, kind, payload = heappop(self._heap)
            if t > self.duration:
                break
            if kind == "change":
                self._handle_change(t, payload)
            elif kind == "hello":
                self._handle_hello(t, payload)
            elif kind == "check":
                self._handle_check(t)
            else:
                self._handle_sample(t)
        return SimulationResult(self.events, self.records, self.snapshots,
                                self.trace_rows, self.duration)


def run_simulation(config: ScenarioConfig) -> SimulationResult:
    """Full smooth-turn network run driven by a scenario configuration."""
    fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(),
                            config.seed)
    sim = Simulator(fleet.states, SmoothTurnChanges(fleet),
                    tx_range=config.transmission_range, duration=config.duration,
                    hello_interval=config.hello_interval, horizon=config.horizon)
    return sim.run()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = ["t_s", "node_a", "node_b", "llt_s"]


def write_events_jsonl(path, events) -> None:
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")


def write_snapshots_csv(path, snapshots) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNAPSHOT_HEADER)
        for snap in snapshots:
            for pair in sorted(snap.edges):
                weight = snap.edges[pair]
                text = "inf" if math.isinf(weight) else repr(weight)
                writer.writerow([repr(snap.snapshot_time), pair[0], pair[1], text])


def read_snapshot_csv(path, at: float | None = None) -> LinkGraph:
    """Load one topology snapshot from an edge-list CSV.

    Files may hold many snapshot times; ``at`` picks one (default: the
    latest). Node ids are kept as strings.
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row == SNAPSHOT_HEADER:
                continue
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {row!r}")
            t_text, a, b, llt_text = row
            try:
                t = float(t_text)
                weight = math.inf if llt_text.strip().lower() == "inf" else float(llt_text)
            except ValueError as exc:
                raise ValueError(f"bad snapshot row {row!r}") from exc
            rows.append((t, a.strip(), b.strip(), weight))
    if not rows:
        raise ValueError(f"no snapshot rows in {path}")
    pick = max(r[0] for r in rows) if at is None else at
    selected = [(a, b, w) for t, a, b, w in rows if t == pick]
    if not selected:
        raise ValueError(f"no snapshot at t={pick}")
    return LinkGraph.from_edges(selected, snapshot_time=pick)
