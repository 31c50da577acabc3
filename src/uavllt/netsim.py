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
kinetic certificate (Basch, Guibas & Hershberger 1999), which
:func:`~uavllt.kinematics.contact_span` computes and proves. Each UAV pair
carries one, its contact certificate, with the pair's in-range flag; it
expires when either UAV changes trajectory (a scripted change may even
teleport a UAV). The allowance covers the rounding of
:func:`~uavllt.kinematics.planar_xy` and of :func:`math.hypot`, from which
every separation is taken in plain floats: the Hello's and the check's,
and those of the change handler and the bisection, which take each UAV's
segment from :func:`~uavllt.mobility.segment_at`. A Hello reuses the flag
of each pair whose certificate holds, and computes and certifies the
others, taking its own UAV's coordinates once and only if some pair needs
them.

Every periodic instant is computed as ``k`` times its interval, never
summed: check tick ``k`` is at ``k * dt_check``, Hello ``k`` of the
``i``-th of ``n`` UAVs at ``hello_interval * i / n + k * hello_interval``
and snapshot ``k`` at ``k * hello_interval``, each up to and including the
duration. Each live link's next check is an ordinary event, queued at
the first tick at or after the instant its certificate runs out, from its
link-up or a change that re-estimates it (:func:`tick_at_or_after`). The
checks of one tick pop in live order; each ends its link beyond range
(bisected from the tick before) or certifies it from its tick and queues
the link's next check, and a link whose certificate a Hello renewed waits
again until the new expiry. No link is skipped on a tick where its
certificate does not hold it in range, so every output is bit-identical
to checking every link on every tick.

Each UAV has exactly one trajectory change queued at a time: the change
driver returns the new state, anchored at the change instant, together
with the instant of the next change, which must be later than the change
(``inf`` for none): an instant that is not, or a NaN, raises
:class:`ValueError` where it enters, since the run would queue it again
forever or drop it. At each snapshot instant the
simulator takes a topology snapshot. The trace is built after
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
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

from .config import ScenarioConfig
from .kinematics import CurveTrajectory, contact_span, planar_xy, re_anchor, speed_and_size
from .kinematics import position_at  # noqa: F401 (re-export)
from .llt import DEFAULT_HORIZON, LltResult, compute_llt
from . import mobility
from .mobility import SmoothTurnFleet, UavState, segment_at, trace_row  # noqa: F401 (re-export)

DT_CHECK = 0.01          # ground-truth sampling resolution, seconds
BREAK_REFINE_TOL = 1e-6  # bisection width for termination instants, seconds
# A half-completed Hello handshake goes stale after this many intervals.
HANDSHAKE_FRESHNESS = 2.0

# Event kinds: the order in which events at one instant are handled, and the
# index of each kind's handler in Simulator.run.
_CHANGE, _HELLO, _CHECK, _SAMPLE = range(4)


def tick_at_or_after(t: float, dt: float, end: float = math.inf):
    """Index ``k >= 1`` of the first tick ``k * dt`` at or after the instant
    ``t``, or ``inf`` when that tick falls past ``end``; ``t`` or ``end``
    must be finite.

    ``ceil(t / dt)`` alone can be off by one, since the quotient and the
    tick round apart: at ``t = 3 * 0.1`` it gives 4. The index is settled
    against the ticks ``k * dt`` themselves.
    """
    if t > end:
        return math.inf
    k = max(1, math.ceil(t / dt))
    while k > 1 and (k - 1) * dt >= t:
        k -= 1
    while k * dt < t:
        k += 1
    return k if k * dt <= end else math.inf


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
        is an unbounded lifetime. Also raises :class:`ValueError` for a
        self-loop and for a pair given twice, in either orientation, since
        one lifetime would silently replace the other.
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
            if a == b:
                raise ValueError(f"edge ({a!r}, {b!r}) is a self-loop")
            pair = (a, b) if a < b else (b, a)
            if pair in edges:
                raise ValueError(f"edge ({a!r}, {b!r}) repeats the pair {pair!r}")
            edges[pair] = llt
        return cls(snapshot_time, frozenset(seen), edges)


def _check_one_id_type(ids) -> None:
    """Raise :class:`TypeError` unless all ``ids`` share one type, so any two
    of them can be ordered into a pair."""
    kinds = sorted({type(uid).__name__ for uid in ids})
    if len(kinds) > 1:
        raise TypeError(f"node ids must all share one type, got {', '.join(kinds)}")


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
    :class:`ValueError`, and so does a schedule with two items at one instant.
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
        for state in self.states.values():
            if not state.next_change_at >= 0.0:
                raise ValueError(f"UAV {state.id!r} has its first change at "
                                 f"t={state.next_change_at!r}; it must be at or after 0")
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
        self._motion = {uid: speed_and_size(self.states[uid].trajectory, duration)
                        for uid in self.order}
        # uid -> {other uid -> (instant the pair's in-range flag could first
        # change, in range)}, held under both uids; the Hello and the check share it
        self._contact = {uid: {} for uid in self.order}
        self._heard: dict = {}  # (listener, sender) -> when last heard
        n = len(self.order)
        self._hello_offset = {uid: hello_interval * i / n for i, uid in enumerate(self.order)}
        self._checked = None  # payload of the check evaluated last
        self._heap: list = []
        self._seq = 0

    # -- scheduling --------------------------------------------------------

    def _push(self, t: float, kind: int, payload=None) -> None:
        """Queue an event, unless it falls past the end of the run."""
        if t <= self.duration:
            heappush(self._heap, (t, kind, self._seq, payload))
            self._seq += 1

    # -- geometry ----------------------------------------------------------

    def _separation(self, a, b, t: float) -> float:
        seg_a = segment_at(self._segments[a], t)
        seg_b = segment_at(self._segments[b], t)
        xa, ya = planar_xy(seg_a, t - seg_a.epoch)
        xb, yb = planar_xy(seg_b, t - seg_b.epoch)
        return math.hypot(xa - xb, ya - yb)

    # -- event handlers ----------------------------------------------------

    def _handle_hello(self, t: float, payload) -> None:
        uid, seq = payload
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
        self._push_hello(uid, seq + 1)

    def _push_hello(self, uid, seq: int) -> None:
        self._push(self._hello_offset[uid] + seq * self.hello_interval, _HELLO, (uid, seq))

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
        if not new_state.next_change_at > t:
            raise ValueError(f"UAV {uid!r} changes at t={t!r} and schedules its next change at "
                             f"t={new_state.next_change_at!r}; it must be later")
        self.states[uid] = new_state
        self._segments[uid].append(traj)
        self._motion[uid] = speed_and_size(traj, self.duration)
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
        return (tick_at_or_after(t, self.dt_check) - 1) * self.dt_check

    def _watch(self, k: int, pair, t: float) -> None:
        """Queue live link ``k``'s check at the first tick at or after both
        ``t`` and the instant its contact certificate runs out, unless that
        tick is past the end of the run. The key orders one tick's checks by
        ``k``, their live order, as checking every link on every tick would
        end them, and pops a link's repeats together."""
        cert = self._contact[pair[0]].get(pair[1])
        due = t if cert is None else max(cert[0], t)
        i = tick_at_or_after(due, self.dt_check, self.duration)
        if i < math.inf:
            heappush(self._heap, (i * self.dt_check, _CHECK, k, (i, k, pair)))

    def _handle_check(self, t: float, payload) -> None:
        """Evaluate live link ``k`` at check tick ``i``: end it beyond range,
        or certify it from this tick, and queue its next check."""
        i, k, (a, b) = payload
        if payload == self._checked or self.records[k].terminated_at is not None:
            return
        self._checked = payload
        contact = self._contact
        cert = contact[a].get(b)
        if cert is None or t >= cert[0] or not cert[1]:
            traj_a, traj_b = self.states[a].trajectory, self.states[b].trajectory
            xa, ya = planar_xy(traj_a, t - traj_a.epoch)
            xb, yb = planar_xy(traj_b, t - traj_b.epoch)
            d = math.hypot(xa - xb, ya - yb)
            if d > self.tx_range:
                self._terminate((a, b), t)
                return
            contact[a][b] = contact[b][a] = (self._contact_until(a, b, t, d), True)
        # A certificate that runs out on this tick waits for the next.
        self._watch(k, (a, b), (i + 1) * self.dt_check)

    def _contact_until(self, a, b, t: float, separation: float) -> float:
        """Instant before which the computed separation of UAVs ``a`` and
        ``b`` stays on the side of ``tx_range`` that ``separation``, computed
        at ``t``, is on: :func:`~uavllt.kinematics.contact_span` on the
        UAVs' speeds and sizes up to the end of the run. ``inf`` when both
        UAVs are parked."""
        return t + contact_span(separation, self.tx_range, self._motion[a], self._motion[b])

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

    def _handle_sample(self, t: float, k: int) -> None:
        edges = {pair: self.records[i].remaining_at(t) for pair, i in self.live.items()}
        self.snapshots.append(LinkGraph(t, frozenset(self.order), edges))
        self._push((k + 1) * self.hello_interval, _SAMPLE, k + 1)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        for uid in self.order:
            self._push_hello(uid, 0)
            self._push(self.states[uid].next_change_at, _CHANGE, uid)
        self._push(0.0, _SAMPLE, 0)

        handlers = (self._handle_change, self._handle_hello, self._handle_check,
                    self._handle_sample)
        while self._heap:
            t, kind, _, payload = heappop(self._heap)
            handlers[kind](t, payload)
        return SimulationResult(self.events, self.records, self.snapshots,
                                self._segments, self.duration)


def run_simulation(config: ScenarioConfig) -> SimulationResult:
    """Full smooth-turn network run driven by a scenario configuration.
    Raises :class:`ValueError` for waits that :func:`mobility.check_changes`
    refuses."""
    mobility.check_changes(config.uav_count, config.smooth_turn(), config.duration)
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
    for a picked row whose ``llt_s`` is neither ``inf`` nor at least 0,
    that repeats a pair or that is a self-loop.
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
