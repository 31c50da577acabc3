import math

import numpy as np
import pytest

from uavllt.config import ScenarioConfig
from uavllt.kinematics import (
    CurveTrajectory,
    Direction,
    Position,
    StraightTrajectory,
    re_anchor,
)
from uavllt.llt import LinkNotUp, compute_llt
from uavllt.mobility import SmoothTurnFleet, UavState, tangent_trajectory
from uavllt.netsim import (
    _PRIORITY_CHECK,
    HelloMessage,
    LinkGraph,
    LinkRecord,
    ScriptedChanges,
    SmoothTurnChanges,
    Simulator,
    recompute_llt,
)

CCW = Direction.COUNTER_CLOCKWISE
CW = Direction.CLOCKWISE


def make_state(uid, traj, next_change_at=math.inf):
    return UavState(uid, traj, traj.speed, traj.altitude, next_change_at)


def turn_builder(kind, radius=None):
    def build(state, now):
        return tangent_trajectory(state.trajectory, now, kind, radius=radius)
    return build


class TestHelloMessage:
    def test_curve_round_trip(self):
        traj = CurveTrajectory(100, 200, 300, 40, CW, 0.5, 150, epoch=0.0)
        state = make_state("u", traj)
        msg = HelloMessage.from_state(state, 7.0, 3)
        assert msg.movement_state == "CW"
        assert msg.center == (100, 200) and msg.radius == 300
        assert msg.heading is None
        rebuilt = msg.trajectory()
        assert rebuilt.epoch == 7.0
        for t in (0.0, 3.0, 11.0):
            a = rebuilt
            b = re_anchor(traj, 7.0)
            pa = (a.center_x + a.radius * math.cos(a.initial_phase + a.omega * t),
                  a.center_y + a.radius * math.sin(a.initial_phase + a.omega * t))
            pb = (b.center_x + b.radius * math.cos(b.initial_phase + b.omega * t),
                  b.center_y + b.radius * math.sin(b.initial_phase + b.omega * t))
            assert pa == pytest.approx(pb, abs=1e-9)

    def test_straight_fields(self):
        traj = StraightTrajectory(0, 0, 1.0, 30, 120, epoch=0.0)
        msg = HelloMessage.from_state(make_state("u", traj), 2.0, 0)
        assert msg.movement_state == "STRAIGHT"
        assert msg.center is None and msg.radius is None
        assert msg.heading == 1.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HelloMessage("u", 0.0, Position(0, 0, 0), "CW", None, None, None, 10.0, 0)
        with pytest.raises(ValueError):
            HelloMessage("u", 0.0, Position(0, 0, 0), "STRAIGHT", (0, 0), 5.0, 0.0, 10.0, 0)


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
        recompute_times = [e["t"] for e in result.events
                           if e["event"] == "llt_recompute" and e["basis"] == "change"]
        assert change_times and change_times == recompute_times
        history_times = [t for t, _ in link.estimate_history]
        assert history_times == [link.established_at] + change_times

    def test_hello_delayed_estimate_also_logged(self):
        a0 = CurveTrajectory(0, 0, 300, 40, CCW, 0.0, 100, epoch=0.0)
        b0 = StraightTrajectory(300, 0, 1.0, 25, 110, epoch=0.0)
        a = make_state("a", a0, next_change_at=3.25)
        script = ScriptedChanges({"a": [(3.25, turn_builder("STRAIGHT"))]})
        sim = Simulator([a, make_state("b", b0)], script, tx_range=800.0, duration=30.0)
        result = sim.run()
        hello_based = [e for e in result.events
                       if e["event"] == "llt_recompute" and e["basis"] == "hello"]
        assert len(hello_based) == 1
        assert hello_based[0]["t"] == pytest.approx(4.0)  # a's next beacon

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


class TickByTickSimulator(Simulator):
    """Reference ground-truth check: one tick, one scalar separation at a time."""

    def _handle_check(self, t):
        for pair in list(self.live):
            link = self.live[pair]
            if self._separation(pair[0], pair[1], t) > self.tx_range:
                self._terminate(pair, max(self._last_check, link.established_at), t)
        self._last_check = t
        nxt = t + self.dt_check
        if nxt <= self.duration and not self._stop:
            self._push(nxt, _PRIORITY_CHECK, "check", None)


class TestCheckBlockScan:
    @pytest.mark.parametrize("stop", [False, True])
    def test_simultaneous_breaks_logged_in_live_order(self, stop):
        # "a" is parked between "c" and "b", which fly off in opposite
        # directions at equal speed: both links break on the same tick.
        # Hello order a, c, b brings (a, c) up before (a, b).
        states = [parked("a"), flying("c", -60.5, math.pi, 7.0), flying("b", 60.5, 0.0, 7.0)]
        sim = Simulator(states, ScriptedChanges({}), tx_range=100.0, duration=20.0,
                        stop_after_first_termination=stop)
        result = sim.run()
        assert list(sim.live) == []
        downs = link_downs(result)
        assert [(e["a"], e["b"]) for e in downs] == [("a", "c"), ("a", "b")]
        assert downs[0]["t"] == downs[1]["t"] == pytest.approx(39.5 / 7.0, abs=1e-5)
        if stop:
            assert result.events[-2:] == downs
            assert result.snapshots[-1].snapshot_time < downs[0]["t"]

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
        def jump_back(state, now):
            return StraightTrajectory(5.0, 0.0, 0.0, 0.0, 100.0, epoch=now)

        b = make_state("b", StraightTrajectory(0.0, 0.0, 0.0, 10.0, 100.0), next_change_at=3.0)
        sim = Simulator([parked("a"), b], ScriptedChanges({"b": [(3.0, jump_back)]}),
                        tx_range=29.5, duration=6.0, dt_check=0.125)
        result = sim.run()
        assert link_downs(result) == []
        assert ("a", "b") in result.snapshots[-1].edges

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

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("stop", [False, True])
    def test_matches_tick_by_tick_reference(self, seed, stop):
        config = ScenarioConfig(x_max=3000.0, y_max=3000.0, buffer_width=400.0, uav_count=8,
                                wait_min=1.0, wait_max=4.0, transmission_range=900.0,
                                duration=20.0, seed=seed, horizon=600.0)
        runs = []
        for cls in (Simulator, TickByTickSimulator):
            fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(),
                                    config.seed)
            sim = cls(fleet.states, SmoothTurnChanges(fleet), tx_range=config.transmission_range,
                      duration=config.duration, horizon=config.horizon,
                      stop_after_first_termination=stop)
            runs.append(sim.run())
        fast, reference = runs
        assert link_downs(reference), "scenario produced no terminations to compare"
        assert fast.events == reference.events
        assert [(s.snapshot_time, s.edges) for s in fast.snapshots] == \
            [(s.snapshot_time, s.edges) for s in reference.snapshots]

    @pytest.mark.parametrize("name", ["tx_range", "duration", "hello_interval", "dt_check",
                                      "sample_interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_settings(self, name, value):
        kwargs = {"tx_range": 100.0, "duration": 10.0, name: value}
        with pytest.raises(ValueError, match=name):
            Simulator([parked("a"), parked("b", 50.0)], ScriptedChanges({}), **kwargs)


class TestPredictionValidity:
    def test_final_estimates_predict_terminations_in_a_full_run(self):
        # The last estimate of every terminated link was made at the final
        # trajectory change (or establishment); nothing changes afterwards,
        # so it must predict the logged termination.
        from uavllt.config import ScenarioConfig
        from uavllt.netsim import run_simulation

        config = ScenarioConfig(x_max=3500.0, y_max=3500.0, buffer_width=400.0,
                                uav_count=6, transmission_range=1200.0,
                                duration=40.0, seed=13, horizon=600.0)
        result = run_simulation(config)
        terminated = [l for l in result.links if l.terminated_at is not None]
        assert terminated, "run produced no terminations to score"
        for link in terminated:
            est_at, est = link.estimate_history[-1]
            assert est.bounded, f"{link.endpoints}: capped estimate yet link broke"
            remaining = link.terminated_at - est_at
            tol = max(2 * 0.01, 1e-3 * remaining)
            assert abs(link.predicted_termination - link.terminated_at) <= tol


class TestLinkGraphSnapshot:
    def test_edges_normalized_and_nodes_tracked(self):
        g = LinkGraph.from_edges([("b", "a", 3.0)], nodes=["c"])
        assert ("a", "b") in g.edges
        assert g.nodes == frozenset(["a", "b", "c"])
