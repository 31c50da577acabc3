import math
from dataclasses import replace

import numpy as np
import pytest

from uavllt.kinematics import (
    CurveTrajectory,
    DegenerateFix,
    Direction,
    Position,
    StraightTrajectory,
    infer_trajectory,
    initial_phase,
    planar_distance,
    planar_positions_at,
    position_at,
    TrajectoryTable,
    re_anchor,
    velocity_heading,
)


def random_trajectory(rng, altitude=120.0):
    if rng.integers(0, 2):
        radius = rng.uniform(100, 1000)
        speed = rng.uniform(20, 60)
        return CurveTrajectory(
            rng.uniform(-2000, 2000), rng.uniform(-2000, 2000), radius, speed,
            Direction.COUNTER_CLOCKWISE if rng.integers(0, 2) else Direction.CLOCKWISE,
            rng.uniform(-math.pi, math.pi), altitude)
    return StraightTrajectory(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                              rng.uniform(0, 2 * math.pi), rng.uniform(20, 60), altitude)


class TestPositionAt:
    def test_quarter_turn(self):
        # omega = +pi/2 rad/s on a 100 m circle
        traj = CurveTrajectory(0, 0, 100, 100 * math.pi / 2,
                               Direction.COUNTER_CLOCKWISE, 0.0, 50.0)
        pos = position_at(traj, 1.0)
        assert pos.x == pytest.approx(0.0, abs=1e-9)
        assert pos.y == pytest.approx(100.0)
        assert pos.z == 50.0

    def test_straight(self):
        traj = StraightTrajectory(0, 0, 0.0, 10.0, 25.0)
        pos = position_at(traj, 3.0)
        assert (pos.x, pos.y, pos.z) == (30.0, 0.0, 25.0)

    def test_anchor_at_zero(self):
        curve = CurveTrajectory(5, -3, 80, 30, Direction.CLOCKWISE, 0.7, 10.0)
        pos = position_at(curve, 0.0)
        assert pos.x == pytest.approx(5 + 80 * math.cos(0.7))
        assert pos.y == pytest.approx(-3 + 80 * math.sin(0.7))
        straight = StraightTrajectory(-4, 9, 1.2, 15, 20.0)
        pos = position_at(straight, 0.0)
        assert (pos.x, pos.y) == (-4, 9)

    @pytest.mark.parametrize("seed", range(20))
    def test_curve_stays_on_circle(self, seed):
        rng = np.random.default_rng(seed)
        traj = CurveTrajectory(rng.uniform(-100, 100), rng.uniform(-100, 100),
                               rng.uniform(10, 500), rng.uniform(5, 50),
                               Direction.CLOCKWISE, rng.uniform(-3, 3), 100.0)
        for t in rng.uniform(0, 1000, 25):
            pos = position_at(traj, t)
            r = math.hypot(pos.x - traj.center_x, pos.y - traj.center_y)
            assert r == pytest.approx(traj.radius, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_straight_distance_is_speed_times_time(self, seed):
        rng = np.random.default_rng(seed)
        traj = StraightTrajectory(rng.uniform(-100, 100), rng.uniform(-100, 100),
                                  rng.uniform(0, 2 * math.pi), rng.uniform(1, 60), 0.0)
        p0 = position_at(traj, 0.0)
        for t in rng.uniform(0, 500, 20):
            assert planar_distance(p0, position_at(traj, t)) == pytest.approx(
                traj.speed * t, rel=1e-12, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            traj = random_trajectory(rng)
            ts = rng.uniform(0, 200, 50)
            xs, ys = planar_positions_at(traj, ts)
            for t, x, y in zip(ts, xs, ys):
                pos = position_at(traj, t)
                assert pos.x == pytest.approx(x, abs=1e-9)
                assert pos.y == pytest.approx(y, abs=1e-9)


class TestTrajectoryTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_position_at(self, seed):
        rng = np.random.default_rng(seed)
        trajs = [replace(random_trajectory(rng), epoch=rng.uniform(0, 50)) for _ in range(40)]
        trajs.append(StraightTrajectory(10.0, -20.0, 2.5, 0.0, 100.0, epoch=7.0))
        table = TrajectoryTable(trajs)
        # Times before each epoch (tau < 0) are included on purpose.
        times = rng.uniform(-20, 400, 200)
        xs, ys = table.positions_at(times)
        for j, traj in enumerate(trajs):
            for k, t in enumerate(times):
                pos = position_at(traj, t - traj.epoch)
                assert (xs[k, j], ys[k, j]) == (pos.x, pos.y)

    def test_set_replaces_one_row(self):
        curve = CurveTrajectory(0, 0, 100, 20, Direction.CLOCKWISE, 0.5, 50.0, epoch=1.0)
        straight = StraightTrajectory(3, 4, 1.0, 30, 50.0, epoch=2.0)
        table = TrajectoryTable([curve, curve])
        table.set(1, straight)
        xs, ys = table.positions_at([5.0])
        for j, traj in enumerate((curve, straight)):
            pos = position_at(traj, 5.0 - traj.epoch)
            assert (xs[0, j], ys[0, j]) == (pos.x, pos.y)


class TestInitialPhase:
    def test_east(self):
        assert initial_phase(0, 0, Position(1, 0, 0)) == 0.0

    def test_south(self):
        assert initial_phase(0, 0, Position(0, -1, 0)) == pytest.approx(-math.pi / 2)

    def test_west_is_pi_not_zero(self):
        # The naive ratio arctangent would return 0 here.
        assert initial_phase(0, 0, Position(-1, 0, 0)) == pytest.approx(math.pi)

    def test_center_degenerate(self):
        with pytest.raises(DegenerateFix):
            initial_phase(2.0, 3.0, Position(2.0, 3.0, 50.0))


class TestInferTrajectory:
    def test_symmetric_circle(self):
        traj, speed = infer_trajectory(Position(100, 0, 10), Position(0, 100, 10),
                                       Position(-100, 0, 10), 1.0)
        assert isinstance(traj, CurveTrajectory)
        assert traj.center_x == pytest.approx(0.0, abs=1e-9)
        assert traj.center_y == pytest.approx(0.0, abs=1e-9)
        assert traj.radius == pytest.approx(100.0)
        assert traj.direction is Direction.COUNTER_CLOCKWISE

    def test_collinear(self):
        traj, speed = infer_trajectory(Position(0, 0, 0), Position(10, 0, 0),
                                       Position(20, 0, 0), 1.0)
        assert isinstance(traj, StraightTrajectory)
        assert traj.heading == 0.0
        assert speed == pytest.approx(10.0)

    def test_recovers_generating_circle(self):
        # Fixes sampled from a parametric circle; parameters must come back.
        source = CurveTrajectory(37.0, -12.0, 55.0, 20.0,
                                 Direction.COUNTER_CLOCKWISE, 0.4, 80.0)
        h = 0.9
        fixes = [position_at(source, k * h) for k in range(3)]
        traj, speed = infer_trajectory(*fixes, h)
        assert isinstance(traj, CurveTrajectory)
        assert traj.center_x == pytest.approx(37.0, rel=1e-9, abs=1e-7)
        assert traj.center_y == pytest.approx(-12.0, rel=1e-9, abs=1e-7)
        assert traj.radius == pytest.approx(55.0, rel=1e-9)
        assert speed == pytest.approx(20.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trip(self, seed):
        rng = np.random.default_rng([17, seed])
        traj = random_trajectory(rng)
        if isinstance(traj, CurveTrajectory):
            h = rng.uniform(0.05, 0.9) * (math.pi / 2) / abs(traj.omega)
        else:
            h = rng.uniform(0.1, 10.0)
        fixes = [position_at(traj, k * h) for k in range(3)]
        recovered, speed = infer_trajectory(*fixes, h)
        assert type(recovered) is type(traj)
        assert speed == pytest.approx(traj.speed, rel=1e-6)
        if isinstance(traj, CurveTrajectory):
            assert recovered.center_x == pytest.approx(traj.center_x, rel=1e-6, abs=1e-4)
            assert recovered.center_y == pytest.approx(traj.center_y, rel=1e-6, abs=1e-4)
            assert recovered.radius == pytest.approx(traj.radius, rel=1e-6)
            assert recovered.direction is traj.direction
        else:
            assert recovered.heading == pytest.approx(traj.heading, rel=1e-6, abs=1e-9)

    def test_coincident_fixes_rejected(self):
        p = Position(1, 2, 3)
        with pytest.raises(DegenerateFix):
            infer_trajectory(p, p, Position(4, 5, 3), 1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(DegenerateFix):
            infer_trajectory(Position(0, 0, 0), Position(1, 0, 0), Position(2, 0, 0), 0.0)


class TestReAnchor:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_path(self, seed):
        rng = np.random.default_rng([23, seed])
        traj = random_trajectory(rng)
        shift = rng.uniform(0, 50)
        moved = re_anchor(traj, traj.epoch + shift)
        assert moved.epoch == traj.epoch + shift
        for t in rng.uniform(0, 100, 10):
            a = position_at(traj, shift + t)
            b = position_at(moved, t)
            assert planar_distance(a, b) == pytest.approx(0.0, abs=1e-6)


class TestVelocityHeading:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numeric_derivative(self, seed):
        rng = np.random.default_rng([29, seed])
        traj = random_trajectory(rng)
        t = rng.uniform(0, 100)
        eps = 1e-6
        p0 = position_at(traj, t - eps)
        p1 = position_at(traj, t + eps)
        numeric = math.atan2(p1.y - p0.y, p1.x - p0.x) % (2 * math.pi)
        assert velocity_heading(traj, t) == pytest.approx(numeric, abs=1e-5)


class TestValidation:
    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError):
            Position(math.nan, 0, 0)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            CurveTrajectory(0, 0, 0.0, 10, Direction.CLOCKWISE, 0, 0)

    def test_heading_wrapped(self):
        traj = StraightTrajectory(0, 0, 2 * math.pi + 0.5, 10, 0)
        assert traj.heading == pytest.approx(0.5)

    def test_phase_wrapped(self):
        traj = CurveTrajectory(0, 0, 10, 10, Direction.CLOCKWISE, 3 * math.pi, 0)
        assert traj.initial_phase == pytest.approx(math.pi)
