import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavllt import netsim
from uavllt.config import ScenarioConfig, load_config
from uavllt.kinematics import (
    CurveTrajectory,
    Direction,
    StraightTrajectory,
    planar_xy,
    position_at,
)
from uavllt.llt import LinkNotUp
from uavllt.mobility import SmoothTurnFleet, UavState, tangent_trajectory
from uavllt.netsim import (
    _CHECK,
    _HELLO,
    HANDSHAKE_FRESHNESS,
    LinkGraph,
    LinkRecord,
    ScriptedChanges,
    SmoothTurnChanges,
    Simulator,
    _speed_and_size,
    recompute_llt,
    run_simulation,
)

from test_kinematics import random_trajectory

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CCW = Direction.COUNTER_CLOCKWISE
CW = Direction.CLOCKWISE


def make_state(uid, traj, next_change_at=math.inf):
    return UavState(uid, traj, next_change_at)


def turn_builder(kind, radius=None):
    def build(state, now):
        return tangent_trajectory(state.trajectory, now, kind, radius=radius)
    return build


class TestRecomputeLlt:
    def test_shifts_by_elapsed_time_when_nothing_changed(self):
        a = make_state("a", StraightTrajectory(0, 0, 0, 10, 100, epoch=0.0))
        b = make_state("b", StraightTrajectory(50, 0, 0, 20, 110, epoch=0.0))
        states = {"a": a, "b": b}
        link = LinkRecord(("a", "b"), established_at=0.0)
        recompute_llt(link, states, 0.0, 100.0)
        recompute_llt(link, states, 2.0, 100.0)
        first = link.estimate_history[0][1]
        second = link.estimate_history[1][1]
        assert first.llt == pytest.approx(5.0, abs=1e-9)
        assert second.llt == pytest.approx(first.llt - 2.0, abs=1e-9)
        # the predicted absolute break time is unchanged
        assert 0.0 + first.llt == pytest.approx(2.0 + second.llt, abs=1e-9)

    def test_raises_when_out_of_range(self):
        a = make_state("a", StraightTrajectory(0, 0, 0, 10, 100, epoch=0.0))
        b = make_state("b", StraightTrajectory(50, 0, 0, 20, 110, epoch=0.0))
        link = LinkRecord(("a", "b"), established_at=0.0)
        with pytest.raises(LinkNotUp):
            recompute_llt(link, {"a": a, "b": b}, 20.0, 100.0)

    def test_case_redispatch_after_change(self):
        a = make_state("a", CurveTrajectory(0, 0, 200, 30, CCW, 0.0, 100, epoch=0.0))
        b = make_state("b", CurveTrajectory(450, 0, 200, 30, CW, math.pi, 110, epoch=0.0))
        states = {"a": a, "b": b}
        link = LinkRecord(("a", "b"), established_at=0.0)
        recompute_llt(link, states, 0.0, 600.0)
        assert link.current_result.case_used == "A"
        states["a"] = make_state("a", tangent_trajectory(a.trajectory, 1.0, "STRAIGHT"))
        recompute_llt(link, states, 1.0, 600.0)
        assert link.current_result.case_used == "B"


class TestSimulator:
    def test_rigid_pair_one_establishment_no_termination(self):
        a = make_state("a", CurveTrajectory(0, 0, 100, 20, CCW, 0.0, 100, epoch=0.0))
        b = make_state("b", CurveTrajectory(0, 0, 100, 20, CCW, 1.0, 110, epoch=0.0))
        sim = Simulator([a, b], ScriptedChanges({}), tx_range=150.0, duration=30.0)
        result = sim.run()
        kinds = [e["event"] for e in result.events]
        assert kinds.count("link_up") == 1
        assert kinds.count("link_down") == 0
        assert result.links[0].current_result.horizon_capped
        # snapshot edges report the unbounded estimate as inf
        assert math.isinf(result.snapshots[-1].edges[("a", "b")])

    def test_case_c_termination_near_five_seconds(self):
        a = make_state("a", StraightTrajectory(0, 0, 0, 10, 100, epoch=0.0))
        b = make_state("b", StraightTrajectory(50, 0, 0, 20, 110, epoch=0.0))
        sim = Simulator([a, b], ScriptedChanges({}), tx_range=100.0, duration=20.0)
        result = sim.run()
        downs = [e for e in result.events if e["event"] == "link_down"]
        assert len(downs) == 1
        assert downs[0]["t"] == pytest.approx(5.0, abs=0.02)
        assert downs[0]["prediction_abs_error"] <= 0.02

    def test_two_changes_three_estimates_accurate_final_prediction(self):
        a0 = CurveTrajectory(0, 0, 300, 40, CCW, 0.0, 100, epoch=0.0)
        b0 = StraightTrajectory(500, 100, math.pi / 2, 30, 110, epoch=0.0)
        a = make_state("a", a0, next_change_at=6.0)
        b = make_state("b", b0, next_change_at=11.0)
        script = ScriptedChanges({
            "a": [(6.0, turn_builder("STRAIGHT"))],
            "b": [(11.0, turn_builder("CW", radius=400.0))],
        })
        sim = Simulator([a, b], script, tx_range=600.0, duration=120.0)
        result = sim.run()
        link = result.links[0]
        assert link.terminated_at is not None
        assert len(link.estimate_history) == 3
        changes = [e for e in result.events if e["event"] == "traj_change"]
        assert len(changes) == 2
        last_at, last_result = link.estimate_history[-1]
        remaining = link.terminated_at - last_at
        tol = max(2 * sim.dt_check, 1e-3 * remaining)
        assert abs(link.predicted_termination - link.terminated_at) <= tol

    def test_recompute_logged_at_every_change_touching_live_links(self):
        a0 = CurveTrajectory(0, 0, 300, 40, CCW, 0.0, 100, epoch=0.0)
        b0 = CurveTrajectory(400, 0, 250, 35, CW, math.pi, 110, epoch=0.0)
        a = make_state("a", a0, next_change_at=4.0)
        b = make_state("b", b0, next_change_at=9.0)
        script = ScriptedChanges({
            "a": [(4.0, turn_builder("CCW", radius=350.0))],
            "b": [(9.0, turn_builder("STRAIGHT"))],
        })
        sim = Simulator([a, b], script, tx_range=900.0, duration=60.0)
        result = sim.run()
        link = result.links[0]
        change_times = [e["t"] for e in result.events if e["event"] == "traj_change"
                        and link.established_at <= e["t"] <= (link.terminated_at or 60.0)]
        recompute_times = [e["t"] for e in result.events if e["event"] == "llt_recompute"]
        assert change_times and change_times == recompute_times
        history_times = [t for t, _ in link.estimate_history]
        assert history_times == [link.established_at] + change_times

    def test_recompute_events_match_link_records(self):
        # Every re-estimate a link record keeps is logged once, and nothing
        # else is logged as one.
        result = run_simulation(load_config(DEMOS / "scenario_small.cfg"))
        logged = sum(e["event"] == "llt_recompute" for e in result.events)
        assert result.summary()["llt_recomputes"] == logged > 0

    def test_determinism(self):
        def build():
            a = make_state("a", CurveTrajectory(0, 0, 300, 40, CCW, 0.0, 100, epoch=0.0),
                           next_change_at=5.0)
            b = make_state("b", StraightTrajectory(400, 50, 2.0, 30, 110, epoch=0.0))
            script = ScriptedChanges({"a": [(5.0, turn_builder("CW", radius=200.0))]})
            return Simulator([a, b], script, tx_range=700.0, duration=40.0)

        r1 = build().run()
        r2 = build().run()
        assert r1.events == r2.events
        assert r1.trace_rows == r2.trace_rows

    def test_reestablishment_after_break_gets_a_new_record(self):
        # Head-on pass: in range, out of range, back in range is impossible
        # for straight lines, so use circling UAVs that meet twice.
        a = make_state("a", CurveTrajectory(0, 0, 300, 47.1, CCW, 0.0, 100, epoch=0.0))
        b = make_state("b", CurveTrajectory(650, 0, 300, 47.1, CW, math.pi, 110, epoch=0.0))
        sim = Simulator([a, b], ScriptedChanges({}), tx_range=400.0, duration=45.0)
        result = sim.run()
        ups = [e for e in result.events if e["event"] == "link_up"]
        downs = [e for e in result.events if e["event"] == "link_down"]
        assert len(ups) >= 2
        assert len(result.links) == len(ups)
        assert len(downs) >= 1


def parked(uid, x=0.0):
    return make_state(uid, StraightTrajectory(x, 0.0, 0.0, 0.0, 100.0))


def flying(uid, x, heading, speed):
    return make_state(uid, StraightTrajectory(x, 0.0, heading, speed, 100.0))


def link_downs(result):
    return [e for e in result.events if e["event"] == "link_down"]


def jump_back(state, now):
    return StraightTrajectory(5.0, 0.0, 0.0, 0.0, 100.0, epoch=now)


def launch_east(state, now):
    return StraightTrajectory(5.0, 0.0, 0.0, 40.0, 100.0, epoch=now)


REFERENCE_FLEET = dict(x_max=3000.0, y_max=3000.0, buffer_width=400.0, uav_count=8,
                       transmission_range=900.0, horizon=600.0)
REFERENCE_CONFIGS = {
    # Turns every 1-4 s: certificates rarely outlive a change.
    "": ScenarioConfig(**REFERENCE_FLEET, wait_min=1.0, wait_max=4.0, duration=20.0),
    # Turns every 30-90 s: certificates outlive many ticks.
    "steady": ScenarioConfig(**REFERENCE_FLEET, wait_min=30.0, wait_max=90.0, duration=60.0),
    # Hellos 10 s apart: the check wakes on its own between them.
    "sparse": ScenarioConfig(**REFERENCE_FLEET, hello_interval=10.0, duration=120.0),
}


def reference_runs():
    for name, config in REFERENCE_CONFIGS.items():
        for seed in (3, 4, 5):
            run_id = "-".join(filter(None, (name, str(seed))))
            yield pytest.param(replace(config, seed=seed), id=run_id)


class TickByTickSimulator(Simulator):
    """Reference geometry: every Hello and every check tick takes its
    separations one pair at a time from the scalar ``_separation``. It runs
    its own chain of check ticks and ignores the due queue's wake-ups."""

    def run(self):
        self._last_check = 0.0
        self._push(self.dt_check, _CHECK)
        return super().run()

    def _watch(self, k, pair, t):
        pass

    def _tick_before(self, t):
        return self._last_check

    def _handle_hello(self, t, uid):
        seq = self._hello_seq[uid]
        self._hello_seq[uid] = seq + 1
        self.events.append({"t": t, "event": "hello", "uav": uid, "seq": seq})
        for vid in self.order:
            if vid == uid or self._separation(uid, vid, t) > self.tx_range:
                continue
            self._heard[(vid, uid)] = t
            pair = (uid, vid) if uid <= vid else (vid, uid)
            heard_at = self._heard.get((uid, vid))
            if (pair not in self.live and heard_at is not None
                    and t - heard_at <= HANDSHAKE_FRESHNESS * self.hello_interval):
                self._establish(pair, t)
        self._push(t + self.hello_interval, _HELLO, uid)

    def _handle_check(self, t, _payload):
        for pair in list(self.live):
            if self._separation(pair[0], pair[1], t) > self.tx_range:
                self._terminate(pair, t)
        self._last_check = t
        self._push(t + self.dt_check, _CHECK)


def assert_matches_reference(build):
    """Run ``build(Simulator)`` and ``build(TickByTickSimulator)``; their
    events and snapshots must agree. Returns the reference run."""
    fast = build(Simulator).run()
    reference = build(TickByTickSimulator).run()
    assert fast.events == reference.events
    assert [(s.snapshot_time, s.edges) for s in fast.snapshots] == \
        [(s.snapshot_time, s.edges) for s in reference.snapshots]
    return reference


class TestScriptedChanges:
    @pytest.mark.parametrize("schedule, match", [
        # Used to apply the 5 s change silently at 3 s.
        ({"b": [(5.0, jump_back)]}, r"'b' changes at t=3\.0, .* schedule \[5\.0\] \(0 applied\)"),
        # Used to raise a bare KeyError mid-run.
        ({}, r"'b' changes at t=3\.0, .* schedule \[\] \(0 applied\)"),
    ], ids=["other_instant", "unscheduled"])
    def test_scripted_change_off_schedule_rejected(self, schedule, match):
        b = flying("b", 0.0, 0.0, 10.0)
        sim = Simulator([parked("a"), replace(b, next_change_at=3.0)], ScriptedChanges(schedule),
                        tx_range=100.0, duration=10.0)
        with pytest.raises(ValueError, match=match):
            sim.run()

    def test_unanchored_change_rejected(self):
        # Positions and trace rows take each change's segment from its epoch.
        def unanchored(state, now):
            return StraightTrajectory(5.0, 0.0, 0.0, 0.0, 100.0, epoch=0.0)

        b = replace(flying("b", 0.0, 0.0, 10.0), next_change_at=3.0)
        sim = Simulator([parked("a"), b], ScriptedChanges({"b": [(3.0, unanchored)]}),
                        tx_range=100.0, duration=10.0)
        with pytest.raises(ValueError, match=r"UAV 'b' changes at t=3\.0 to a trajectory "
                                             r"with epoch 0\.0"):
            sim.run()


class TestCheckBlockScan:
    def test_simultaneous_breaks_logged_in_live_order(self):
        # "a" is parked between "c" and "b", which fly off in opposite
        # directions at equal speed: both links break on the same tick.
        # Hello order a, c, b brings (a, c) up before (a, b).
        states = [parked("a"), flying("c", -60.5, math.pi, 7.0), flying("b", 60.5, 0.0, 7.0)]
        sim = Simulator(states, ScriptedChanges({}), tx_range=100.0, duration=20.0)
        result = sim.run()
        assert list(sim.live) == []
        downs = link_downs(result)
        assert [(e["a"], e["b"]) for e in downs] == [("a", "c"), ("a", "b")]
        assert downs[0]["t"] == downs[1]["t"] == pytest.approx(39.5 / 7.0, abs=1e-5)

    @pytest.mark.parametrize("tx_range, in_snapshot", [(29.5, False), (30.5, True)])
    def test_break_on_a_sample_tick_precedes_the_snapshot(self, tx_range, in_snapshot):
        # Ticks of 1/8 s land exactly on the 1 s samples. A break detected on
        # the 3 s tick is gone from the 3 s snapshot; one detected on the
        # next tick is still in it.
        sim = Simulator([parked("a"), flying("b", 0.0, 0.0, 10.0)], ScriptedChanges({}),
                        tx_range=tx_range, duration=6.0, dt_check=0.125)
        result = sim.run()
        (down,) = link_downs(result)
        assert down["t"] == pytest.approx(tx_range / 10.0, abs=1e-5)
        at = {snap.snapshot_time: snap.edges for snap in result.snapshots}
        assert ("a", "b") in at[2.0]
        assert (("a", "b") in at[3.0]) is in_snapshot
        assert ("a", "b") not in at[4.0]

    def test_change_on_a_tick_applies_before_that_tick_is_scanned(self):
        # "b" leaves range at 2.95 s, between ticks; the 3 s change (same
        # instant as a tick) puts it back beside "a", so no tick sees a break.
        b = make_state("b", StraightTrajectory(0.0, 0.0, 0.0, 10.0, 100.0), next_change_at=3.0)
        sim = Simulator([parked("a"), b], ScriptedChanges({"b": [(3.0, jump_back)]}),
                        tx_range=29.5, duration=6.0, dt_check=0.125)
        result = sim.run()
        assert link_downs(result) == []
        assert ("a", "b") in result.snapshots[-1].edges
        # Its change event and its trace rows from 3 s on report the parked speed.
        (change,) = [e for e in result.events if e["event"] == "traj_change"]
        assert change["speed"] == 0.0
        speeds = [float(row[-1]) for row in result.trace_rows if row[1] == "b"]
        assert speeds == [10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0]

    def test_change_after_an_unseen_break_terminates_instead_of_re_estimating(self):
        # "b" leaves range at 2.95 s, between the 2.875 s and 3 s ticks, and
        # turns back where it is at 2.97 s. The change finds the link already
        # out of range: it ends it, bisected since the last tick, with no
        # re-estimate, and a's 3 s Hello brings it back up.
        def turn_back(state, now):
            traj = state.trajectory
            pos = position_at(traj, now - traj.epoch)
            return StraightTrajectory(pos.x, pos.y, traj.heading + math.pi, traj.speed, 100.0,
                                      epoch=now)

        b = make_state("b", StraightTrajectory(0.0, 0.0, 0.0, 10.0, 100.0), next_change_at=2.97)
        sim = Simulator([parked("a"), b], ScriptedChanges({"b": [(2.97, turn_back)]}),
                        tx_range=29.5, duration=6.0, dt_check=0.125)
        result = sim.run()
        (down,) = link_downs(result)
        assert 2.875 < down["t"] < 2.97
        assert down["t"] == pytest.approx(2.95, abs=1e-6)
        assert not [e for e in result.events if e["event"] == "llt_recompute"]
        ups = [e["t"] for e in result.events if e["event"] == "link_up"]
        assert ups == [0.5, 3.0]

    def test_break_on_the_last_tick_before_duration(self):
        duration = 20.0
        ticks = [0.01]
        while ticks[-1] + 0.01 <= duration:
            ticks.append(ticks[-1] + 0.01)
        crossing = 0.5 * (ticks[-2] + ticks[-1])
        sim = Simulator([parked("a"), flying("b", 0.0, 0.0, 10.0)], ScriptedChanges({}),
                        tx_range=10.0 * crossing, duration=duration)
        (down,) = link_downs(sim.run())
        assert ticks[-2] < down["t"] <= ticks[-1]
        assert down["t"] == pytest.approx(crossing, abs=1e-5)

    def test_nothing_past_the_end_of_the_run_is_handled(self):
        # In a 1 s run, Hellos 2 s apart start at 0, 2/3 and 4/3 s, the first
        # check is at 1.5 s and "c" is scheduled to change at 1 s and 1.5 s.
        # The change exactly at the end is applied; the Hello at 4/3 s, the
        # check, the change at 1.5 s and the sample at 2 s are not.
        c = replace(parked("c", 20.0), next_change_at=1.0)
        sim = Simulator([parked("a"), parked("b", 50.0), c],
                        ScriptedChanges({"c": [(1.0, jump_back), (1.5, jump_back)]}),
                        tx_range=100.0, duration=1.0, hello_interval=2.0, dt_check=1.5)
        result = sim.run()
        assert [(e["t"], e["event"], e.get("uav"), e.get("a"), e.get("b"))
                for e in result.events] == [
            (0.0, "hello", "a", None, None),
            (2.0 / 3.0, "hello", "b", None, None),
            (2.0 / 3.0, "link_up", None, "a", "b"),
            (1.0, "traj_change", "c", None, None),
        ]
        assert [s.snapshot_time for s in result.snapshots] == [0.0]
        assert [traj.epoch for traj in result.segments["c"]] == [0.0, 1.0]
        assert sim.states["c"].next_change_at == 1.5

    @pytest.mark.parametrize("config", list(reference_runs()))
    def test_matches_tick_by_tick_reference(self, config):
        def build(cls):
            fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(),
                                    config.seed)
            return cls(fleet.states, SmoothTurnChanges(fleet),
                       tx_range=config.transmission_range, duration=config.duration,
                       hello_interval=config.hello_interval, horizon=config.horizon)

        reference = assert_matches_reference(build)
        assert link_downs(reference), "scenario produced no terminations to compare"

    def test_head_on_pair_at_top_speed(self):
        # They start 1 m inside range and close at 120 m/s; after they pass,
        # the separation grows at exactly the speed sum the certificates use.
        states = [flying("a", 0.0, 0.0, 60.0), flying("b", 599.0, math.pi, 60.0)]
        reference = assert_matches_reference(
            lambda cls: cls(states, ScriptedChanges({}), tx_range=600.0, duration=12.0))
        (down,) = link_downs(reference)
        assert down["t"] == pytest.approx((599.0 + 600.0) / 120.0, abs=1e-5)

    @pytest.mark.parametrize("launch_at", [2.0, 2.004])
    def test_parked_pair_launched_at_top_speed(self, launch_at):
        # Parked, the pair holds an infinite certificate; the change that
        # launches both apart 1 m inside range must end it.
        def launch(heading):
            def build(state, now):
                pos = position_at(state.trajectory, now - state.trajectory.epoch)
                return StraightTrajectory(pos.x, pos.y, heading, 60.0, 100.0, epoch=now)
            return build

        schedule = {"a": [(launch_at, launch(math.pi))], "b": [(launch_at, launch(0.0))]}
        states = [make_state("a", StraightTrajectory(0.0, 0.0, 0.0, 0.0, 100.0), launch_at),
                  make_state("b", StraightTrajectory(599.0, 0.0, 0.0, 0.0, 100.0), launch_at)]
        reference = assert_matches_reference(
            lambda cls: cls(states, ScriptedChanges(schedule), tx_range=600.0, duration=4.0))
        (down,) = link_downs(reference)
        assert down["t"] == pytest.approx(launch_at + 1.0 / 120.0, abs=1e-5)

    def test_teleport_matches_tick_by_tick_reference(self):
        b = make_state("b", StraightTrajectory(0.0, 0.0, 0.0, 10.0, 100.0), next_change_at=3.0)
        schedule = {"b": [(3.0, jump_back), (4.5, launch_east)]}
        reference = assert_matches_reference(
            lambda cls: cls([parked("a"), b], ScriptedChanges(schedule), tx_range=29.5,
                            duration=8.0, dt_check=0.125))
        (down,) = link_downs(reference)
        assert down["t"] == pytest.approx(4.5 + 24.5 / 40.0, abs=1e-5)

    @pytest.mark.parametrize("b, schedule, settings, up_at", [
        # Far and parked beside a parked "a": out of range for good, until
        # the 3 s change teleports it 5 m from "a". Both Hellos after it
        # must hear each other.
        (make_state("b", StraightTrajectory(5000.0, 0.0, 0.0, 0.0, 100.0), 3.0),
         {"b": [(3.0, jump_back)]}, {}, 3.5),
        # Flying west at 10 m/s, "b" is exactly 100 m from "a" at a's 1 s
        # Hello, which counts as in range, so b's 1.5 s Hello brings the
        # link up.
        (flying("b", 110.0, math.pi, 10.0), {}, {}, 1.5),
        # The link breaks at 2.95 s, between ticks of 1/8 s. a's 3 s Hello
        # certifies the pair out of range before the 3 s tick is scanned,
        # and that tick must still evaluate the link: an unexpired
        # certificate skips a link only while it holds in range.
        (flying("b", 0.0, 0.0, 10.0), {}, dict(tx_range=29.5, dt_check=0.125), 0.5),
    ], ids=["teleport", "on_the_circle", "hello_sees_the_break_first"])
    def test_contact_certificates_match_reference(self, b, schedule, settings, up_at):
        reference = assert_matches_reference(
            lambda cls: cls([parked("a"), b], ScriptedChanges(schedule),
                            **{"tx_range": 100.0, "duration": 6.0, **settings}))
        (up,) = [e for e in reference.events if e["event"] == "link_up"]
        assert up["t"] == up_at

    def test_range_within_rounding_of_the_separation(self):
        # Two UAVs 10 km from the origin fly straight apart at 120 m/s. The
        # link comes up with b's Hello at 0.5 s. Ranges within rounding of
        # the separation at the last tick before 1.5 s put the break on
        # either side of that tick.
        ticks = [0.01]
        while ticks[-1] < 1.5:
            ticks.append(ticks[-1] + 0.01)
        last = ticks[-2]
        heading = 0.3
        gap = 600.0 - 120.0 * last
        a = StraightTrajectory(1e4, 1e4, heading + math.pi, 60.0, 100.0)
        b = StraightTrajectory(1e4 + gap * math.cos(heading), 1e4 + gap * math.sin(heading),
                               heading, 60.0, 100.0)
        pa, pb = position_at(a, last), position_at(b, last)
        tx_range = math.hypot(pa.x - pb.x, pa.y - pb.y)
        for _ in range(32):
            tx_range = math.nextafter(tx_range, 0.0)
        breaks = set()
        for _ in range(64):
            reference = assert_matches_reference(
                lambda cls: cls([make_state("a", a), make_state("b", b)], ScriptedChanges({}),
                                tx_range=tx_range, duration=2.0))
            (down,) = link_downs(reference)
            breaks.add(down["t"] <= last)
            tx_range = math.nextafter(tx_range, math.inf)
        assert breaks == {True, False}

    @pytest.mark.parametrize("heading", [0.3, 1.1, 2.0])
    def test_range_within_rounding_of_a_hello_separation(self, heading):
        # Two UAVs 10 km from the origin fly straight apart at 120 m/s. a's
        # Hello at 0 s hears b 500 m away and certifies the pair in range;
        # b's Hello at 0.5 s must hear a exactly when its own computed
        # separation is within range, which a contact certificate without
        # its rounding allowance can get wrong for ranges within rounding of
        # that separation.
        a = StraightTrajectory(1e4, 1e4, heading + math.pi, 60.0, 100.0)
        b = StraightTrajectory(1e4 + 500.0 * math.cos(heading), 1e4 + 500.0 * math.sin(heading),
                               heading, 60.0, 100.0)
        pa, pb = position_at(a, 0.5), position_at(b, 0.5)
        tx_range = math.hypot(pa.x - pb.x, pa.y - pb.y)
        for _ in range(32):
            tx_range = math.nextafter(tx_range, 0.0)
        ups = set()
        for _ in range(64):
            reference = assert_matches_reference(
                lambda cls: cls([make_state("a", a), make_state("b", b)], ScriptedChanges({}),
                                tx_range=tx_range, duration=1.0))
            ups.add(any(e["event"] == "link_up" for e in reference.events))
            tx_range = math.nextafter(tx_range, math.inf)
        assert ups == {True, False}

    def test_parked_pair_needs_no_geometry(self, monkeypatch):
        # An in-range parked pair's contact certificate is set for good at
        # the first Hello, before the link comes up, so the 121 Hellos take
        # one point per UAV in all and over 60 s (6,000 ticks) the check
        # never evaluates a position.
        sim = Simulator([parked("a"), parked("b", 50.0)], ScriptedChanges({}),
                        tx_range=100.0, duration=60.0)
        calls = 0
        planar_xy = netsim.planar_xy

        def counting_planar_xy(traj, t):
            nonlocal calls
            calls += 1
            return planar_xy(traj, t)

        monkeypatch.setattr(netsim, "planar_xy", counting_planar_xy)
        checks_with_geometry = check_calls = 0
        handle_check = sim._handle_check

        def counting_handle_check(t, payload):
            nonlocal checks_with_geometry, check_calls
            before = calls
            handle_check(t, payload)
            checks_with_geometry += calls > before
            check_calls += calls - before

        sim._handle_check = counting_handle_check
        result = sim.run()
        kinds = [e["event"] for e in result.events]
        assert kinds.count("link_up") == 1
        assert ("a", "b") in result.snapshots[-1].edges
        assert checks_with_geometry == 0
        assert calls - check_calls == 2

    @pytest.mark.parametrize("ids, xs, error, match", [
        (["a", "a", "b"], [0.0, 5000.0, 50.0], ValueError, r"unique, repeated: \['a'\]"),
        ([1, "b"], [0.0, 50.0], TypeError, "node ids must all share one type, got int, str"),
    ])
    def test_rejects_repeated_or_mixed_ids(self, ids, xs, error, match):
        # A repeated id would merge two UAVs into one, and ids that cannot
        # be ordered fail at the first in-range Hello, so both are refused
        # before any run.
        states = [parked(uid, x) for uid, x in zip(ids, xs)]
        with pytest.raises(error, match=match):
            Simulator(states, ScriptedChanges({}), tx_range=100.0, duration=10.0)

    @pytest.mark.parametrize("name", ["tx_range", "duration", "hello_interval", "dt_check",
                                      "horizon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_settings(self, name, value):
        kwargs = {"tx_range": 100.0, "duration": 10.0, name: value}
        with pytest.raises(ValueError, match=name):
            Simulator([parked("a"), parked("b", 50.0)], ScriptedChanges({}), **kwargs)


class TestDueQueue:
    """The check wakes only where a live link's contact certificate runs out
    or a change re-estimated it; each wake-up schedule below must give the
    tick-by-tick reference's events."""

    def test_link_up_exactly_at_range_wakes_no_earlier_tick(self):
        # "b" jumps at 0.4 s to a slow approach that puts it exactly at range
        # at its 0.5 s Hello, which brings the link up. The fresh certificate
        # runs out at about 0.345 s, before the Hello and before the 0.45 s
        # tick, when "b" was beyond range: the check must wake at 0.6 s, not
        # on a tick that has passed.
        def approach(state, now):
            return StraightTrajectory(5100.0, 0.0, math.pi, 1e-9, 100.0, epoch=now)

        b = make_state("b", StraightTrajectory(5050.0, 0.0, 0.0, 0.0, 100.0), next_change_at=0.4)
        x_b, _ = planar_xy(approach(b, 0.4), 0.1)
        reference = assert_matches_reference(
            lambda cls: cls([parked("a", 5000.0), b], ScriptedChanges({"b": [(0.4, approach)]}),
                            tx_range=x_b - 5000.0, duration=2.0, dt_check=0.15))
        (up,) = [e for e in reference.events if e["event"] == "link_up"]
        assert up["t"] == 0.5
        assert link_downs(reference) == []

    def test_change_on_a_tick_finds_the_link_out_of_range(self):
        # "b" leaves range at 2.95 s and turns back where it is at 3 s, the
        # instant of a tick. The change ends the link, bisected from the
        # 2.875 s tick, the last one before it.
        def turn_back(state, now):
            return StraightTrajectory(30.0, 0.0, math.pi, 10.0, 100.0, epoch=now)

        b = make_state("b", StraightTrajectory(0.0, 0.0, 0.0, 10.0, 100.0), next_change_at=3.0)
        reference = assert_matches_reference(
            lambda cls: cls([parked("a"), b], ScriptedChanges({"b": [(3.0, turn_back)]}),
                            tx_range=29.5, duration=6.0, dt_check=0.125))
        down = link_downs(reference)[0]
        assert down["t"] == pytest.approx(2.95, abs=1e-6)

    def test_hello_between_ticks_sees_the_break_first(self):
        # The link breaks at 3.26 s. b's Hello at 3 1/3 s, between the 3.25
        # and 3.375 s ticks, certifies the pair out of range until after
        # 3.375 s; that tick must still find the break.
        states = [parked("a"), flying("b", 0.0, 0.0, 10.0), parked("c", 5000.0)]
        reference = assert_matches_reference(
            lambda cls: cls(states, ScriptedChanges({}), tx_range=32.6, duration=6.0,
                            dt_check=0.125))
        (down,) = link_downs(reference)
        assert down["t"] == pytest.approx(3.26, abs=1e-6)

    @pytest.mark.parametrize("heading", [0.3, 1.1, 2.7])
    def test_range_within_rounding_of_a_due_tick_separation(self, heading):
        # Two UAVs 10 km from the origin fly straight apart at 120 m/s, 600 m
        # apart at the first tick from 1.6 s. The certificate that brings
        # the link up at b's 0.5 s Hello runs out near that tick. Ranges
        # within rounding of the separation computed there are where a
        # certificate without its rounding allowance would wake the check a
        # tick after the link is already out of range.
        ticks = [0.01]
        while ticks[-1] < 1.6:
            ticks.append(ticks[-1] + 0.01)
        gap = 600.0 - 120.0 * ticks[-1]
        a = StraightTrajectory(1e4, 1e4, heading + math.pi, 60.0, 100.0)
        b = StraightTrajectory(1e4 + gap * math.cos(heading), 1e4 + gap * math.sin(heading),
                               heading, 60.0, 100.0)
        pa, pb = position_at(a, ticks[-1]), position_at(b, ticks[-1])
        tx_range = math.hypot(pa.x - pb.x, pa.y - pb.y)
        for _ in range(40):
            tx_range = math.nextafter(tx_range, 0.0)
        breaks = set()
        for _ in range(80):
            reference = assert_matches_reference(
                lambda cls: cls([make_state("a", a), make_state("b", b)], ScriptedChanges({}),
                                tx_range=tx_range, duration=2.1))
            (down,) = link_downs(reference)
            breaks.add(down["t"] <= ticks[-1])
            tx_range = math.nextafter(tx_range, math.inf)
        assert breaks == {True, False}

    @pytest.mark.parametrize("dt_check", [0.125, 0.15], ids=["on_a_tick", "between_ticks"])
    def test_link_up_breaks_before_the_next_tick(self, dt_check):
        # b's 0.5 s Hello, on a tick of 1/8 s or between ticks of 0.15 s,
        # brings the link up 5 m inside range; it breaks at 0.55 s, before
        # the next tick, and is bisected from the link-up.
        reference = assert_matches_reference(
            lambda cls: cls([parked("a"), flying("b", 0.0, 0.0, 10.0)], ScriptedChanges({}),
                            tx_range=5.5, duration=2.0, dt_check=dt_check))
        (up,) = [e for e in reference.events if e["event"] == "link_up"]
        (down,) = link_downs(reference)
        assert up["t"] == 0.5
        assert down["t"] == pytest.approx(0.55, abs=1e-6)

    def test_pass_between_two_ticks_bisects_from_the_link_up(self):
        # "b" passes "a" at 100 m/s, in range only from 0.23 to 0.28 s,
        # between the 0.15 and 0.3 s ticks. Hellos 0.02 s apart per UAV bring
        # the link up at 0.24 s; bisected from the 0.15 s tick instead, the
        # break would land where the pair had not yet come into range.
        b = make_state("b", StraightTrajectory(-25.5, math.sqrt(93.75), 0.0, 100.0, 100.0))
        reference = assert_matches_reference(
            lambda cls: cls([parked("a"), b], ScriptedChanges({}), tx_range=10.0, duration=1.0,
                            hello_interval=0.02, dt_check=0.15))
        (up,) = [e for e in reference.events if e["event"] == "link_up"]
        (down,) = link_downs(reference)
        assert up["t"] == pytest.approx(0.24)
        assert down["t"] == pytest.approx(0.28, abs=1e-6)

    def test_breaks_on_one_tick_logged_in_live_order_whatever_their_due(self):
        # (a, c) comes up at 1/3 s and (a, b) at 2/3 s. b leaves range at
        # 5.63 s and c at 5.7 s, so (a, b) is due first, but both breaks are
        # found on the 5.75 s tick and logged in live order. (b, c) comes up
        # and breaks too.
        states = [parked("a"), flying("c", -60.1, math.pi, 7.0), flying("b", 21.18, 0.0, 14.0)]
        reference = assert_matches_reference(
            lambda cls: cls(states, ScriptedChanges({}), tx_range=100.0, duration=8.0,
                            dt_check=0.125))
        downs = [e for e in link_downs(reference) if e["a"] == "a"]
        assert [(e["b"], e["t"]) for e in downs] == [("c", pytest.approx(5.7, abs=1e-5)),
                                                      ("b", pytest.approx(5.63, abs=1e-5))]


class TestSpeedAndSize:
    @pytest.mark.parametrize("seed", range(5))
    def test_coordinates_within_size(self, seed):
        # _contact_until's slack has no separation term: every coordinate
        # has |x| + |y| at most its trajectory's size up to the end of the
        # run, so a separation is at most the two sizes' sum.
        rng = np.random.default_rng([71, seed])
        until = 600.0
        times = np.linspace(0.0, until, 601).tolist()
        for _ in range(40):
            traj = replace(random_trajectory(rng), epoch=float(rng.uniform(1.0, 100.0)))
            _, size = _speed_and_size(traj, until)
            for t in times:
                x, y = planar_xy(traj, t - traj.epoch)
                assert abs(x) + abs(y) <= size, (traj, t)


class TestPredictionValidity:
    def test_final_estimates_predict_terminations_in_a_full_run(self):
        # The last estimate of every terminated link was made at the final
        # trajectory change (or establishment); nothing changes afterwards,
        # so it must predict the logged termination.
        config = ScenarioConfig(x_max=3500.0, y_max=3500.0, buffer_width=400.0,
                                uav_count=6, transmission_range=1200.0,
                                duration=40.0, seed=13, horizon=600.0)
        result = run_simulation(config)
        terminated = [l for l in result.links if l.terminated_at is not None]
        assert terminated, "run produced no terminations to score"
        for link in terminated:
            est_at, est = link.estimate_history[-1]
            assert not est.horizon_capped, f"{link.endpoints}: capped estimate yet link broke"
            remaining = link.terminated_at - est_at
            tol = max(2 * 0.01, 1e-3 * remaining)
            assert abs(link.predicted_termination - link.terminated_at) <= tol


class TestLinkGraphSnapshot:
    def test_edges_normalized_and_nodes_tracked(self):
        g = LinkGraph.from_edges([("b", "a", 3.0)], nodes=["c"])
        assert ("a", "b") in g.edges
        assert g.nodes == frozenset(["a", "b", "c"])

    @pytest.mark.parametrize("edges, nodes", [
        ([(1, "b", 3.0)], None),
        ([(2, 1, 3.0)], ["c"]),
    ])
    def test_mixed_id_types_rejected(self, edges, nodes):
        with pytest.raises(TypeError, match="node ids must all share one type, got int, str"):
            LinkGraph.from_edges(edges, nodes=nodes)

    @pytest.mark.parametrize("weight", [math.nan, -7.5])
    def test_nan_or_negative_weight_rejected(self, weight):
        # A nan edge used to leave 0-3-2 (bottleneck 2.0) unreachable, and a
        # -7.5 edge used to become the route's bottleneck.
        edges = [("0", "1", weight), ("1", "2", 3.0), ("0", "3", 4.0), ("3", "2", 2.0)]
        with pytest.raises(ValueError, match=rf"edge \('0', '1'\) has weight {weight!r}"):
            LinkGraph.from_edges(edges)
