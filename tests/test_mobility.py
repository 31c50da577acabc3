import math

import numpy as np
import pytest

from uavllt.kinematics import (
    CurveTrajectory,
    StraightTrajectory,
    position_at,
    velocity_heading,
)
from uavllt.mobility import (
    MAX_CHANGES,
    Arena,
    ResampleExhausted,
    SmoothTurnConfig,
    SmoothTurnFleet,
    UavState,
    check_changes,
    generate_trace,
    next_trajectory,
    sample_wait_time,
)

from model_sampler import planar_positions_at

ARENA = Arena(0.0, 5000.0, 0.0, 5000.0, 500.0)


def heading_gap(h1, h2):
    return abs(math.remainder(h1 - h2, 2 * math.pi))


def run_segments(count, duration, seed, arena=ARENA, config=SmoothTurnConfig()):
    _, segments = generate_trace(count, arena, config, duration, seed, sample_dt=duration)
    return segments


class TestSampleWaitTime:
    def test_degenerate_interval(self):
        cfg = SmoothTurnConfig(wait_min=10.0, wait_max=10.0)
        rng = np.random.default_rng(0)
        assert sample_wait_time(rng, cfg) == 10.0

    def test_mean_of_many_draws(self):
        cfg = SmoothTurnConfig(wait_min=5.0, wait_max=30.0)
        rng = np.random.default_rng(1)
        draws = [sample_wait_time(rng, cfg) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(17.5, rel=0.02)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            SmoothTurnConfig(wait_min=30.0, wait_max=5.0)

    @pytest.mark.parametrize("field", ["radius_min", "radius_max", "speed_min", "speed_max",
                                       "wait_min", "wait_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SmoothTurnConfig(**{field: value})


class TestArena:
    def test_buffer_must_leave_interior(self):
        with pytest.raises(ValueError):
            Arena(0, 100, 0, 100, 60.0)

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, index, value):
        bounds = [0.0, 5000.0, 0.0, 5000.0, 500.0]
        bounds[index] = value
        with pytest.raises(ValueError, match="finite"):
            Arena(*bounds)


class TestTransitions:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_direct_reversal(self, seed):
        for segs in run_segments(4, 400.0, seed):
            states = [s.movement_state for s in segs]
            for a, b in zip(states, states[1:]):
                assert {a, b} != {"CW", "CCW"}, states

    def test_turning_uav_cannot_pick_the_opposite_sense(self):
        # From a clockwise segment only CW and STRAIGHT are ever sampled.
        cfg = SmoothTurnConfig()
        rng = np.random.default_rng(9)
        traj = CurveTrajectory(2500, 2500, 300, 40, -1, 0.0, 120, epoch=0.0)
        state = UavState(0, traj, next_change_at=10.0)
        for _ in range(40):
            new = next_trajectory(state, ARENA, rng, 10.0, cfg)
            assert new.movement_state in ("CW", "STRAIGHT")


class TestContinuity:
    @pytest.mark.parametrize("seed", range(5))
    def test_position_and_heading_continuous(self, seed):
        for segs in run_segments(4, 400.0, seed):
            for prev, nxt in zip(segs, segs[1:]):
                dt = nxt.epoch - prev.epoch
                p_end = position_at(prev, dt)
                p_start = position_at(nxt, 0.0)
                assert math.hypot(p_end.x - p_start.x, p_end.y - p_start.y) <= 1e-6
                assert heading_gap(velocity_heading(prev, dt),
                                   velocity_heading(nxt, 0.0)) <= 1e-6


class TestContainment:
    @pytest.mark.parametrize("seed", range(4))
    def test_never_leaves_arena(self, seed):
        duration = 400.0
        for segs in run_segments(5, duration, seed):
            for i, seg in enumerate(segs):
                end = segs[i + 1].epoch if i + 1 < len(segs) else duration
                if end <= seg.epoch:
                    continue
                ts = np.linspace(0.0, end - seg.epoch, 400)
                xs, ys = planar_positions_at(seg, ts)
                assert xs.min() >= ARENA.x_min and xs.max() <= ARENA.x_max
                assert ys.min() >= ARENA.y_min and ys.max() <= ARENA.y_max

    def test_tight_arena_still_contained(self):
        arena = Arena(0.0, 1600.0, 0.0, 1600.0, 250.0)
        cfg = SmoothTurnConfig(radius_min=80.0, radius_max=300.0,
                               speed_min=30.0, speed_max=60.0)
        _, segments = generate_trace(4, arena, cfg, 600.0, seed=21, sample_dt=600.0)
        for segs in segments:
            for i, seg in enumerate(segs):
                end = segs[i + 1].epoch if i + 1 < len(segs) else 600.0
                if end <= seg.epoch:
                    continue
                ts = np.linspace(0.0, end - seg.epoch, 600)
                xs, ys = planar_positions_at(seg, ts)
                assert xs.min() >= 0.0 and xs.max() <= 1600.0
                assert ys.min() >= 0.0 and ys.max() <= 1600.0


class TestDeterminism:
    def test_identical_seed_identical_segments(self):
        a = run_segments(6, 300.0, seed=123)
        b = run_segments(6, 300.0, seed=123)
        assert a == b

    def test_different_seed_differs(self):
        a = run_segments(3, 120.0, seed=1)
        b = run_segments(3, 120.0, seed=2)
        assert a != b


class TestBufferEncounters:
    def test_ten_thousand_in_buffer_decisions_stay_inside(self):
        # Hammer the change sampler from poses inside the buffer strip,
        # many heading outward; every accepted segment must keep its whole
        # Wait-Time path inside the arena.
        arena = Arena(0.0, 3000.0, 0.0, 3000.0, 400.0)
        cfg = SmoothTurnConfig(radius_min=80.0, radius_max=400.0, wait_min=5.0,
                               wait_max=20.0)
        rng = np.random.default_rng(777)
        encounters = 0
        while encounters < 10_000:
            x = float(rng.uniform(0.0, 3000.0))
            y = float(rng.uniform(0.0, 3000.0))
            if not (arena.contains(x, y) and not arena.contains(x, y, arena.buffer_width)):
                continue
            heading = float(rng.uniform(0, 2 * math.pi))
            traj = StraightTrajectory(x, y, heading, 40.0, 120.0, epoch=0.0)
            state = UavState(0, traj, next_change_at=0.0)
            try:
                new = next_trajectory(state, arena, rng, 0.0, cfg)
            except ResampleExhausted:
                continue  # pose with no fitting loiter circle; unreachable in runs
            wait = new.next_change_at
            ts = np.linspace(0.0, wait, 300)
            xs, ys = planar_positions_at(new.trajectory, ts)
            assert xs.min() >= 0.0 and xs.max() <= 3000.0
            assert ys.min() >= 0.0 and ys.max() <= 3000.0
            encounters += 1


class TestResampleExhausted:
    def test_pinned_against_wall(self):
        # Heading straight at the wall from 2 m away: no minimum-radius
        # circle fits, every candidate exits, so the change must fail.
        arena = Arena(0.0, 500.0, 0.0, 500.0, 1.0)
        cfg = SmoothTurnConfig(radius_min=100.0, radius_max=200.0)
        traj = StraightTrajectory(498.0, 250.0, 0.0, 40.0, 100.0, epoch=0.0)
        state = UavState(0, traj, next_change_at=0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ResampleExhausted):
            next_trajectory(state, arena, rng, 0.0, cfg)


class TestFleet:
    def test_unique_altitudes(self):
        fleet = SmoothTurnFleet(8, ARENA, SmoothTurnConfig(), seed=5)
        altitudes = [s.trajectory.altitude for s in fleet.states]
        assert altitudes == [150.0 + 10.0 * i for i in range(8)]

    def test_speeds_within_configured_range(self):
        cfg = SmoothTurnConfig(speed_min=25.0, speed_max=55.0)
        fleet = SmoothTurnFleet(8, ARENA, cfg, seed=6)
        for s in fleet.states:
            assert 25.0 <= s.trajectory.speed <= 55.0


class TestGenerateTraceInputs:
    # An infinite duration used to loop forever, a zero sample_dt to divide
    # by zero, and a negative value of either to return an empty trace.
    @pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0, -10.0])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            generate_trace(2, ARENA, SmoothTurnConfig(), duration, seed=1)

    @pytest.mark.parametrize("sample_dt", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_sample_dt_rejected(self, sample_dt):
        with pytest.raises(ValueError, match="sample_dt must be positive and finite"):
            generate_trace(2, ARENA, SmoothTurnConfig(), 60.0, seed=1, sample_dt=sample_dt)

    @pytest.mark.parametrize("wait, match", [
        # Past about 1e-4 s a change at t + 1e-20 rounds back to t: the
        # run used to queue the same change without end.
        (1e-20, r"wait_min 1e-20 s does not advance the clock by the end of a 5\.0 s run"),
        # Each wait advances the clock, but 1.5e13 changes would take days.
        (1e-12, r"refusing up to 1\.5e\+13 trajectory changes of 3 UAVs"),
    ], ids=["stuck_clock", "too_many_changes"])
    def test_waits_that_could_hang_the_run_rejected(self, wait, match, monkeypatch):
        # The fleet gives up after 1,000 changes, so a run that starts
        # fails here instead of hanging.
        calls = []
        advance = SmoothTurnFleet.advance

        def bounded(self, index, now):
            calls.append(now)
            if len(calls) > 1000:
                raise RuntimeError(f"still changing trajectories at t={now!r}")
            return advance(self, index, now)

        monkeypatch.setattr(SmoothTurnFleet, "advance", bounded)
        config = SmoothTurnConfig(wait_min=wait, wait_max=wait)
        with pytest.raises(ValueError, match=match):
            generate_trace(3, ARENA, config, 5.0, seed=1)
        assert not calls

    def test_change_bound_is_inclusive(self):
        config = SmoothTurnConfig(wait_min=1.0, wait_max=2.0)
        check_changes(1, config, float(MAX_CHANGES))
        with pytest.raises(ValueError, match="refusing up to 2e\\+08 trajectory changes"):
            check_changes(2, config, float(MAX_CHANGES))
