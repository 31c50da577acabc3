"""Discrete-event simulation of Hello beaconing and link-lifetime tracking.

Every UAV periodically broadcasts a Hello message carrying its trajectory
parameters (delivery is instantaneous and lossless to any neighbor within
transmission range; the channel itself is not modeled). A link is
established the first time a pair completes a Hello exchange in both
directions, at which point its lifetime is predicted analytically. The
prediction is refreshed at the instant either endpoint changes trajectory,
never averaged with history. A neighbor would learn the new trajectory
only at the changed UAV's next Hello; both instants are in the event log,
so that lag can be scored without solving again. Ground-truth
terminations are detected by sampling live-link separations on a fine
grid and bisecting the crossing, so the simulator can score its own
predictions.

Most geometry is skipped. Planar separation changes by at most the sum
of both UAVs' speeds per second, so a pair with separation d at instant t
stays on its side of the range r (d <= r or d > r) until ``t + (|d - r| -
allowance) / (v_a + v_b)``, or for good when both UAVs are parked: a
kinetic certificate (Basch, Guibas & Hershberger 1999). Each UAV pair
carries one, its contact certificate, with the pair's in-range flag; it
expires when either UAV changes trajectory (a scripted change may even
teleport a UAV). The allowance covers the rounding of
:func:`~uavllt.kinematics.planar_xy`, the arithmetic of
:func:`~uavllt.kinematics.position_at`, and of :func:`math.hypot`, from
which the Hello and the check take every separation (bisection and the
change handler call :func:`position_at`). A Hello reuses the flag of each
pair whose certificate holds, and computes and certifies the others,
taking its own UAV's coordinates once and only if some pair needs them.

The check ticks are ``dt_check`` summed up to the duration. Each live link
waits in a due queue at the instant its certificate runs out, from its
link-up or a change that re-estimates it; one check event is queued at
the first tick at or after the earliest. It evaluates the due links only,
in live order, ends each one beyond range (bisected from the tick before)
and certifies the others from its tick; a link whose certificate a Hello
renewed waits again until the new expiry. No link is skipped on a tick
where its certificate does not hold it in range, so every output is
bit-identical to checking every link on every tick.

Each UAV has exactly one trajectory change queued at a time: the change
driver returns the new state, anchored at the change instant, together
with the instant of the next change. Every Hello interval, starting at
t = 0, the simulator takes a topology snapshot. The trace is built after
the run from each UAV's segment history, one row per UAV at every
snapshot instant, by :func:`~uavllt.mobility.generate_trace`'s rule: a
sample on a change instant reports the segment that starts there. Event
log entries are plain dicts (serialized as JSON lines); topology
snapshots are edge lists whose weights are the remaining predicted
lifetimes at the snapshot instant.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

from .config import ScenarioConfig
from .kinematics import (
    CurveTrajectory,
    Position,
    Trajectory,
    planar_xy,
    position_at,
    re_anchor,
)
from .llt import DEFAULT_HORIZON, LltResult, compute_llt
from . import mobility
from .mobility import SmoothTurnFleet, UavState, segment_at, trace_row  # noqa: F401 (re-export)

DT_CHECK = 0.01          # ground-truth sampling resolution, seconds
BREAK_REFINE_TOL = 1e-6  # bisection width for termination instants, seconds
# A half-completed Hello handshake goes stale after this many intervals.
HANDSHAKE_FRESHNESS = 2.0
# A certificate's allowance for rounding, relative to the size of the
# coordinates, their travel and the range.
_CERT_ROUNDING = 64.0 * sys.float_info.epsilon

# Event kinds: the order in which events at one instant are handled, and the
# index of each kind's handler in Simulator.run.
_CHANGE, _HELLO, _CHECK, _SAMPLE = range(4)


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
        comparing ids. Raises :class:`TypeError` for a mix. A weight is a
        remaining lifetime: raises :class:`ValueError` for one that is
        ``nan`` or negative, which would corrupt max-min routing; ``inf``
        is an unbounded lifetime.
        """
        edge_list = list(edge_list)
        seen = {node for a, b, _ in edge_list for node in (a, b)}
        if nodes is not None:
            seen.update(nodes)
        _check_one_id_type(seen)
        edges = {}
        for a, b, weight in edge_list:
            llt = float(weight)
            if not llt >= 0.0:
                raise ValueError(f"edge ({a!r}, {b!r}) has weight {weight!r}; "
                                 "a lifetime must be at least 0 or inf")
            edges[(a, b) if a <= b else (b, a)] = llt
        return cls(snapshot_time, frozenset(seen), edges)


def _check_one_id_type(ids) -> None:
    """Raise :class:`TypeError` unless all ``ids`` share one type, so any two
    of them can be ordered into a pair."""
    kinds = sorted({type(uid).__name__ for uid in ids})
    if len(kinds) > 1:
        raise TypeError(f"node ids must all share one type, got {', '.join(kinds)}")


def _speed_and_size(traj: Trajectory, until: float) -> tuple[float, float]:
    """Planar speed of ``traj``, and the size of the terms
    :func:`~uavllt.kinematics.planar_xy` computes its coordinates from at any
    time in ``[0, until]``: the scale of their rounding."""
    if isinstance(traj, CurveTrajectory):
        speed = traj.radius * abs(traj.omega)  # the rate planar_xy moves at
        base = abs(traj.center_x) + abs(traj.center_y) + 6.0 * traj.radius
    else:
        speed = traj.speed
        base = abs(traj.origin_x) + abs(traj.origin_y)
    return speed, base + 3.0 * speed * (until + abs(traj.epoch))


def recompute_llt(link: LinkRecord, states_now: dict, now: float, tx_range: float,
                  horizon: float = DEFAULT_HORIZON) -> LinkRecord:
    """Append a fresh estimate anchored at ``now``; replaces, never averages.

    Raises :class:`~uavllt.llt.LinkNotUp` when the pair is already out of
    range (the link should be terminated instead of re-estimated).
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
    segments: dict  # uid -> its trajectories in order of change, in fleet order
    duration: float

    @property
    def trace_rows(self) -> list:
        """One trace row per UAV at every snapshot instant."""
        return mobility.trace_rows(self.segments, [s.snapshot_time for s in self.snapshots])

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

    Each builder is called as ``builder(state, now)`` and must return the
    new :class:`~uavllt.kinematics.Trajectory` anchored at ``now`` (its
    ``epoch`` is ``now``); the simulator raises :class:`ValueError` for any
    other epoch. A state's ``next_change_at`` must be the time of its UAV's
    next scheduled item; a change at any other instant raises
    :class:`ValueError`.
    """

    def __init__(self, schedule: dict):
        self._schedule = {uid: sorted(items, key=lambda item: item[0])
                          for uid, items in schedule.items()}
        self._cursor = {uid: 0 for uid in self._schedule}

    def __call__(self, state: UavState, now: float) -> UavState:
        items = self._schedule.get(state.id, [])
        cursor = self._cursor.get(state.id, 0)
        if cursor == len(items) or items[cursor][0] != now:
            raise ValueError(
                f"UAV {state.id!r} changes at t={now!r}, which is not the next item of its "
                f"schedule {[at for at, _ in items]!r} ({cursor} applied)")
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
                 horizon: float = DEFAULT_HORIZON):
        for name, value in (("tx_range", tx_range), ("duration", duration),
                            ("hello_interval", hello_interval), ("dt_check", dt_check),
                            ("horizon", horizon)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self.order = [s.id for s in states]
        _check_one_id_type(self.order)
        self.states: dict = {s.id: s for s in states}
        repeated = [uid for uid in self.states if self.order.count(uid) > 1]
        if repeated:
            raise ValueError(f"UAV ids must be unique, repeated: {repeated}")
        self.driver = change_driver
        self.tx_range = tx_range
        self.duration = duration
        self.hello_interval = hello_interval
        self.dt_check = dt_check
        self.horizon = horizon

        self.events: list = []
        self.snapshots: list = []
        self.live: dict = {}  # pair -> index of its live link in records
        self.records: list = []
        self._segments = {uid: [self.states[uid].trajectory] for uid in self.order}
        # uid -> (speed, size) of its current trajectory, for certificates
        self._motion = {uid: _speed_and_size(self.states[uid].trajectory, duration)
                        for uid in self.order}
        # uid -> {other uid -> (instant the pair's in-range flag could first
        # change, in range)}, held under both uids; the Hello and the check share it
        self._contact = {uid: {} for uid in self.order}
        self._heard: dict = {}  # (listener, sender) -> when last heard
        self._hello_seq = {uid: 0 for uid in self.order}
        self._due: list = []  # (instant its certificate runs out, k, pair) per live link
        self._ticks = [0.0]  # then every check tick: the chain of sums of dt_check
        while self._ticks[-1] + dt_check <= duration:
            self._ticks.append(self._ticks[-1] + dt_check)
        self._next_check = len(self._ticks)  # index in _ticks of the queued check
        self._heap: list = []
        self._seq = 0

    # -- scheduling --------------------------------------------------------

    def _push(self, t: float, kind: int, payload=None) -> None:
        """Queue an event, unless it falls past the end of the run."""
        if t <= self.duration:
            heappush(self._heap, (t, kind, self._seq, payload))
            self._seq += 1

    # -- geometry ----------------------------------------------------------

    def _position(self, uid, t: float) -> Position:
        seg = segment_at(self._segments[uid], t)
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
        contacts = self._contact[uid]
        x = None  # this UAV's coordinates, computed only if some pair needs them
        for vid in self.order:
            if vid == uid:
                continue
            contact = contacts.get(vid)
            if contact is None or t >= contact[0]:
                if x is None:
                    here = self.states[uid].trajectory
                    x, y = planar_xy(here, t - here.epoch)
                there = self.states[vid].trajectory
                vx, vy = planar_xy(there, t - there.epoch)
                distance = math.hypot(x - vx, y - vy)
                contact = contacts[vid] = self._contact[vid][uid] = (
                    self._contact_until(uid, vid, t, distance), distance <= self.tx_range)
            if not contact[1]:
                continue
            self._heard[(vid, uid)] = t
            pair = (uid, vid) if uid <= vid else (vid, uid)
            heard_at = self._heard.get((uid, vid))
            if pair not in self.live and heard_at is not None and t - heard_at <= fresh:
                self._establish(pair, t)
        self._push(t + self.hello_interval, _HELLO, uid)

    def _establish(self, pair, t: float) -> None:
        link = LinkRecord(endpoints=pair, established_at=t)
        recompute_llt(link, self.states, t, self.tx_range, self.horizon)
        k = self.live[pair] = len(self.records)
        self.records.append(link)
        self._log_estimate(t, "link_up", pair, link.current_result)
        self._watch(k, pair, t)

    def _log_estimate(self, t: float, kind: str, pair, result: LltResult) -> None:
        self.events.append({
            "t": t, "event": kind, "a": pair[0], "b": pair[1],
            "llt": None if result.horizon_capped else result.llt,
            "case": result.case_used, "horizon_capped": result.horizon_capped,
        })

    def _handle_change(self, t: float, uid) -> None:
        new_state = self.driver(self.states[uid], t)
        traj = new_state.trajectory
        if traj.epoch != t:
            raise ValueError(f"UAV {uid!r} changes at t={t!r} to a trajectory with epoch "
                             f"{traj.epoch!r}; a change must be anchored at its instant")
        self.states[uid] = new_state
        self._segments[uid].append(traj)
        self._motion[uid] = _speed_and_size(traj, self.duration)
        # A scripted change may even teleport the UAV.
        contacts = self._contact[uid]
        for vid in contacts:
            del self._contact[vid][uid]
        contacts.clear()
        event = {"t": t, "event": "traj_change", "uav": uid, "state": traj.movement_state,
                 "speed": traj.speed}
        if isinstance(traj, CurveTrajectory):
            event.update({"cx": traj.center_x, "cy": traj.center_y, "r": traj.radius,
                          "heading": None})
        else:
            event.update({"cx": None, "cy": None, "r": None, "heading": traj.heading})
        self.events.append(event)

        for pair, k in [item for item in self.live.items() if uid in item[0]]:
            if self._separation(pair[0], pair[1], t) > self.tx_range:
                # Already out of range: the break happened since the last
                # tick; terminate instead of re-estimating.
                self._terminate(pair, t)
                continue
            link = recompute_llt(self.records[k], self.states, t, self.tx_range, self.horizon)
            self._log_estimate(t, "llt_recompute", pair, link.current_result)
            self._watch(k, pair, t)
        self._push(new_state.next_change_at, _CHANGE, uid)

    def _tick_before(self, t: float) -> float:
        """The last check tick before ``t``, or 0.0 if there is none."""
        return self._ticks[bisect_left(self._ticks, t, 1) - 1]

    def _watch(self, k: int, pair, t: float) -> None:
        """Queue live link ``k`` at the instant its contact certificate runs out,
        but not before ``t``, and wake the check at the first tick from then on."""
        cert = self._contact[pair[0]].get(pair[1])
        due = t if cert is None else max(cert[0], t)
        heappush(self._due, (due, k, pair))
        self._wake(bisect_left(self._ticks, due, 1))

    def _wake(self, i: int) -> None:
        """Queue the check at tick ``i`` if it comes before the queued one."""
        if i < self._next_check:
            self._next_check = i
            self._push(self._ticks[i], _CHECK, i)

    def _handle_check(self, t: float, i: int) -> None:
        if i != self._next_check:
            return  # an earlier wake-up replaced this check
        ticks, due, contact, records = self._ticks, self._due, self._contact, self.records
        popped = {}
        while due and due[0][0] <= t:
            _, k, pair = heappop(due)
            popped[k] = pair
        # In live order, as checking every link on every tick would end them.
        for k, (a, b) in sorted(popped.items()):
            if records[k].terminated_at is not None:
                continue
            cert = contact[a].get(b)
            if cert is None or t >= cert[0] or not cert[1]:
                traj_a, traj_b = self.states[a].trajectory, self.states[b].trajectory
                xa, ya = planar_xy(traj_a, t - traj_a.epoch)
                xb, yb = planar_xy(traj_b, t - traj_b.epoch)
                d = math.hypot(xa - xb, ya - yb)
                if d > self.tx_range:
                    self._terminate((a, b), t)
                    continue
                cert = contact[a][b] = contact[b][a] = (self._contact_until(a, b, t, d), True)
            heappush(due, (cert[0], k, (a, b)))
        self._next_check = len(ticks)
        if due:
            self._wake(max(bisect_left(ticks, due[0][0], 1), i + 1))

    def _contact_until(self, a, b, t: float, separation: float) -> float:
        """Instant before which the computed separation of UAVs ``a`` and
        ``b`` stays on the side of ``tx_range`` that ``separation``, computed
        at ``t``, is on: at most ``tx_range`` (in range) or beyond it.
        ``inf`` when both UAVs are parked, as their positions never change.

        The true separation changes by at most ``v_a + v_b`` per second, so
        it cannot cross ``r`` before ``t + |separation - r| / (v_a + v_b)``.
        The slack subtracted from ``|separation - r|`` covers the rounding
        between true and computed values, at ``t`` and at a later instant
        whose computed separation is near ``r``:
        - the coordinates, by a few eps of the size of their terms
          (``size_a``, ``size_b``, which include all travel up to the end of
          the run, and so also ``v_a + v_b`` times the rounding of ``t``);
        - their difference and :func:`math.hypot`, by a few eps of
          ``separation`` at ``t`` and of ``r`` later;
        - the speeds and the quotient, by a few eps of the travel the bound
          spans, at most ``separation + r``.
        Every coordinate has ``|x| + |y|`` at most its trajectory's size, so
        ``separation`` is at most ``size_a + size_b`` and needs no term of
        its own: 64 eps times ``size_a + size_b + 8r`` covers each of these
        many times over, so every separation computed before the bound is on
        the same side of ``tx_range`` as ``separation``.
        """
        r = self.tx_range
        (speed_a, size_a), (speed_b, size_b) = self._motion[a], self._motion[b]
        closing = speed_a + speed_b
        if closing > 0.0:
            slack = _CERT_ROUNDING * (size_a + size_b + 8.0 * r)
            return t + (abs(separation - r) - slack) / closing
        return math.inf

    def _terminate(self, pair, t: float) -> None:
        """End ``pair``'s live link, found out of range at ``t``: bisect the
        break since the last check tick before ``t`` or since its link-up."""
        link = self.records[self.live.pop(pair)]
        a, b = pair
        lo, hi = max(self._tick_before(t), link.established_at), t
        while hi - lo > BREAK_REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if self._separation(a, b, mid) > self.tx_range:
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

    def _handle_sample(self, t: float, _payload) -> None:
        edges = {pair: self.records[k].remaining_at(t) for pair, k in self.live.items()}
        self.snapshots.append(LinkGraph(t, frozenset(self.order), edges))
        self._push(t + self.hello_interval, _SAMPLE)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        n = len(self.order)
        for i, uid in enumerate(self.order):
            self._push(self.hello_interval * i / n, _HELLO, uid)
            self._push(self.states[uid].next_change_at, _CHANGE, uid)
        self._push(0.0, _SAMPLE)

        handlers = (self._handle_change, self._handle_hello, self._handle_check,
                    self._handle_sample)
        while self._heap:
            t, kind, _, payload = heappop(self._heap)
            handlers[kind](t, payload)
        return SimulationResult(self.events, self.records, self.snapshots,
                                self._segments, self.duration)


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
    latest). Node ids are kept as strings. Raises :class:`ValueError` for a
    row that is not four fields, whose ``t_s`` is not finite or whose
    ``llt_s`` is not a number, and, through :meth:`LinkGraph.from_edges`,
    for a picked row whose ``llt_s`` is neither ``inf`` nor at least 0.
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
                float(llt_text)  # a number; LinkGraph.from_edges checks its range
            except ValueError as exc:
                raise ValueError(f"bad snapshot row {row!r}") from exc
            if not math.isfinite(t):
                raise ValueError(f"bad snapshot row {row!r}: t_s must be finite")
            rows.append((t, a.strip(), b.strip(), llt_text.strip()))
    if not rows:
        raise ValueError(f"no snapshot rows in {path}")
    pick = max(r[0] for r in rows) if at is None else at
    selected = [(a, b, w) for t, a, b, w in rows if t == pick]
    if not selected:
        raise ValueError(f"no snapshot at t={pick}")
    return LinkGraph.from_edges(selected, snapshot_time=pick)
