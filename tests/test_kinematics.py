import math
from dataclasses import fields, replace

import numpy as np
import pytest

from uavllt.kinematics import (
    CurveTrajectory,
    Direction,
    Position,
    StraightTrajectory,
    contact_span,
    planar_distance,
    planar_xy,
    position_at,
    re_anchor,
    speed_and_size,
    velocity_heading,
)

from model_sampler import planar_positions_at


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


class TestPlanarXy:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_position_at(self, seed):
        rng = np.random.default_rng(seed)
        trajs = [replace(random_trajectory(rng), epoch=rng.uniform(0, 50)) for _ in range(40)]
        trajs.append(StraightTrajectory(10.0, -20.0, 2.5, 0.0, 100.0, epoch=7.0))
        # Times before each epoch (tau < 0) are included on purpose.
        times = rng.uniform(-20, 400, 200)
        for traj in trajs:
            for t in times:
                tau = t - traj.epoch
                pos = position_at(traj, tau)
                assert planar_xy(traj, tau) == (pos.x, pos.y) == closed_form(traj, tau)


def closed_form(traj, tau):
    """The position formulas, written out in the operation order the golden
    digests were recorded with."""
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * tau
        return (traj.center_x + traj.radius * math.cos(phi),
                traj.center_y + traj.radius * math.sin(phi))
    return (traj.origin_x + traj.speed * tau * math.cos(traj.heading),
            traj.origin_y + traj.speed * tau * math.sin(traj.heading))


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


def bits(traj) -> dict:
    """Every attribute of ``traj``, ``omega`` too, with floats as their exact hex."""
    return {name: value.hex() if isinstance(value, float) else (type(value), value)
            for name, value in vars(traj).items()}


class TestReAnchorConstruction:
    """re_anchor copies a validated trajectory without running __post_init__;
    the copy must be the one the validating constructor builds."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_validating_constructor(self, seed):
        rng = np.random.default_rng([37, seed])
        wrapped = {1: 0, -1: 0}
        for _ in range(60):
            traj = replace(random_trajectory(rng), epoch=float(rng.uniform(-500, 500)))
            epoch = traj.epoch + float(rng.uniform(-300, 300))
            dt = epoch - traj.epoch
            moved = re_anchor(traj, epoch)
            if isinstance(traj, CurveTrajectory):
                phase = traj.initial_phase + traj.omega * dt
                if abs(phase) > math.pi:
                    wrapped[1 if phase > 0 else -1] += 1
                built = CurveTrajectory(traj.center_x, traj.center_y, traj.radius, traj.speed,
                                        traj.direction, phase, traj.altitude, epoch)
                assert type(moved.direction) is Direction
            else:
                built = StraightTrajectory(*planar_xy(traj, dt), traj.heading, traj.speed,
                                           traj.altitude, epoch)
            assert type(moved) is type(built)
            assert bits(moved) == bits(built)
            assert moved == built and hash(moved) == hash(built)
            assert repr(moved) == repr(built)
        assert min(wrapped.values()) > 0  # phases wrapped past both +pi and -pi

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_shift_returns_the_trajectory(self, seed):
        rng = np.random.default_rng([41, seed])
        for _ in range(10):
            traj = replace(random_trajectory(rng), epoch=float(rng.uniform(-50, 50)))
            assert re_anchor(traj, traj.epoch) is traj


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


class TestOmega:
    @pytest.mark.parametrize("seed", range(5))
    def test_stored_omega_is_the_quotient(self, seed):
        # Stored once at construction, it must equal the quotient a property
        # would compute, bit for bit, on every way a curve is built.
        rng = np.random.default_rng(seed)
        traj = CurveTrajectory(0.0, 0.0, rng.uniform(1, 1000), rng.uniform(0.1, 60),
                               Direction(int(rng.choice([-1, 1]))), rng.uniform(-4, 4), 100.0)
        for curve in (traj, re_anchor(traj, rng.uniform(-50, 50)),
                      replace(traj, radius=rng.uniform(1, 1000), speed=rng.uniform(0.1, 60))):
            assert curve.omega == curve.speed * float(curve.direction) / curve.radius

    def test_not_a_field(self):
        a = CurveTrajectory(0, 0, 100, 10, Direction.CLOCKWISE, 0.5, 100)
        b = CurveTrajectory(0, 0, 100, 10, Direction.CLOCKWISE, 0.5, 100)
        assert [f.name for f in fields(a)] == ["center_x", "center_y", "radius", "speed",
                                               "direction", "initial_phase", "altitude",
                                               "epoch"]
        assert "omega" not in repr(a)
        assert a == b and hash(a) == hash(b)


class TestContactSpan:
    """Two straight flyers on one line, parting or closing at the full
    ``v_a + v_b``: the one motion for which the certificate is tight, so
    only its slack keeps the separation computed at the span's end on the
    side of the range it started on."""

    @staticmethod
    def collinear_pair(rng, separation, sign):
        """Straight flyers ``separation`` apart on a random line in a 2e7 m
        box, heading apart (``sign`` 1) or towards each other (-1)."""
        heading = rng.uniform(0.0, 2.0 * math.pi)
        x, y = rng.uniform(-1e7, 1e7, size=2)
        a = StraightTrajectory(x, y, heading + (math.pi if sign > 0 else 0.0),
                               rng.uniform(10.0, 60.0), 100.0)
        b = StraightTrajectory(x + separation * math.cos(heading),
                               y + separation * math.sin(heading),
                               heading + (0.0 if sign > 0 else math.pi),
                               rng.uniform(10.0, 60.0), 100.0)
        return a, b

    @staticmethod
    def separation(a, b, t):
        (xa, ya), (xb, yb) = planar_xy(a, t), planar_xy(b, t)
        return math.hypot(xa - xb, ya - yb)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_full_closing_speed_keeps_its_side(self, sign):
        # Parting from within the range (1) or closing from beyond it (-1).
        rng = np.random.default_rng([131, sign + 1])
        for _ in range(200):
            tx = rng.uniform(100.0, 5000.0)
            share = rng.uniform(0.2, 0.95)
            a, b = self.collinear_pair(rng, tx * share if sign > 0 else tx / share, sign)
            d = self.separation(a, b, 0.0)
            span = contact_span(d, tx, speed_and_size(a, 1e3), speed_and_size(b, 1e3))
            assert 0.0 < span < 1e3
            for t in (0.5 * span, span):
                assert (self.separation(a, b, t) <= tx) == (sign > 0), (a, b, tx, t)

    def test_curve_speed_and_parked_pairs(self):
        # A curve flyer moves at R|omega|; a parked pair never changes side.
        c = CurveTrajectory(0.0, 0.0, 200.0, 40.0, Direction.COUNTER_CLOCKWISE, 0.0, 100.0)
        parked = StraightTrajectory(800.0, 0.0, 1.0, 0.0, 100.0)
        motion_c, motion_parked = speed_and_size(c, 10.0), speed_and_size(parked, 10.0)
        assert motion_c[0] == c.radius * abs(c.omega)
        assert contact_span(600.0, 950.0, motion_parked, motion_parked) == math.inf
        assert 0.0 < contact_span(600.0, 950.0, motion_c, motion_parked) < 350.0 / motion_c[0]
