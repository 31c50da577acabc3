import math

import numpy as np
import pytest

from uavllt import oracle
from uavllt.kinematics import CurveTrajectory, Direction, StraightTrajectory
from uavllt.llt import LinkNotUp, compute_llt
from uavllt.netsim import LinkGraph
from uavllt.oracle import MAX_STEPS, TooLarge, brute_force_llt, enumerate_best_route
from uavllt.validate import sample_instance

from model_sampler import planar_positions_at


class TestBruteForceLlt:
    def test_case_c_example(self):
        a = StraightTrajectory(0, 0, 0.0, 10.0, 100)
        b = StraightTrajectory(50, 0, 0.0, 20.0, 110)
        assert brute_force_llt(a, b, 100.0) == pytest.approx(5.0, abs=1e-6)

    def test_rigid_rotation_unbounded(self):
        a = CurveTrajectory(0, 0, 100, 20, Direction.COUNTER_CLOCKWISE, 0.0, 100)
        b = CurveTrajectory(0, 0, 100, 20, Direction.COUNTER_CLOCKWISE, 1.0, 110)
        assert math.isinf(brute_force_llt(a, b, 150.0, horizon=60.0))

    def test_concentric_matches_closed_form(self):
        a = CurveTrajectory(0, 0, 100, 10.0, Direction.COUNTER_CLOCKWISE, 0.0, 100)
        b = CurveTrajectory(0, 0, 150, 15.0, Direction.CLOCKWISE, 0.0, 110)
        closed = math.acos((100**2 + 150**2 - 120**2) / (2 * 100 * 150)) / 0.2
        assert brute_force_llt(a, b, 120.0) == pytest.approx(closed, abs=1e-6)

    def test_break_past_the_horizon_in_the_last_grid_step(self):
        # The pair breaks at 1.0007 s, between the horizon and the next
        # multiple of dt: the walk's last sample is the horizon itself, so
        # it reports a break only when the horizon is past it.
        a = StraightTrajectory(0, 0, 0, 10, 150)
        b = StraightTrajectory(0, 0, 0, 0, 160)
        assert brute_force_llt(a, b, 10.007, dt=1e-3, horizon=1.0008) == pytest.approx(
            1.0007, abs=1e-6)
        assert math.isinf(brute_force_llt(a, b, 10.007, dt=1e-3, horizon=1.0005))
        assert compute_llt(a, b, 10.007, 1.0005).horizon_capped

    def test_link_not_up(self):
        a = StraightTrajectory(0, 0, 0, 10, 0)
        b = StraightTrajectory(1000, 0, 0, 10, 0)
        with pytest.raises(LinkNotUp):
            brute_force_llt(a, b, 100.0)

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_grid_independence(self, case):
        # Halving the minimum step must not move the answer beyond the
        # bisection width.
        rng = np.random.default_rng([61, ord(case)])
        for _ in range(5):
            traj_a, traj_b, tx = sample_instance(case, rng)
            coarse = brute_force_llt(traj_a, traj_b, tx, dt=1e-3, horizon=120.0)
            fine = brute_force_llt(traj_a, traj_b, tx, dt=5e-4, horizon=120.0)
            if math.isfinite(coarse) and math.isfinite(fine):
                assert abs(coarse - fine) <= 2e-6
            else:
                assert math.isinf(coarse) == math.isinf(fine)

    @pytest.mark.parametrize("dt, horizon", [(1e-12, 300.0), (5e-324, 1.0), (1e-3, 1.1e5)])
    def test_grid_too_fine_rejected(self, dt, horizon):
        # 3e14 steps of 1e-12 s once ran for hours; 5e-324 s makes the step
        # count infinite.
        a = StraightTrajectory(0, 0, 0, 10, 0)
        with pytest.raises(TooLarge, match="refusing .* minimum steps"):
            brute_force_llt(a, a, 100.0, dt=dt, horizon=horizon)

    def test_grid_of_max_steps_accepted(self):
        # horizon / dt is exactly MAX_STEPS, and one ulp more is refused. The
        # pair breaks at 1 ms, a few minimum steps in.
        a = StraightTrajectory(0, 0, 0, 0, 100)
        b = StraightTrajectory(5, 0, 0, 5000, 110)
        dt = 2.0 ** -20
        horizon = MAX_STEPS * dt
        assert horizon / dt == MAX_STEPS
        assert brute_force_llt(a, b, 10.0, dt=dt, horizon=horizon) == pytest.approx(1e-3, abs=2e-6)
        with pytest.raises(TooLarge):
            brute_force_llt(a, b, 10.0, dt=dt, horizon=math.nextafter(horizon, math.inf))

    def test_bad_dt_rejected(self):
        a = StraightTrajectory(0, 0, 0, 10, 0)
        with pytest.raises(ValueError):
            brute_force_llt(a, a, 100.0, dt=0.0)

    @pytest.mark.parametrize("name", ["tx_range", "dt", "horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_settings_rejected(self, name, value):
        a = StraightTrajectory(0, 0, 0, 10, 0)
        kwargs = {"tx_range": 100.0, name: value}
        label = "transmission range" if name == "tx_range" else name
        with pytest.raises(ValueError, match=f"{label} must be positive and finite"):
            brute_force_llt(a, a, **kwargs)


class TestStandingOracle:
    def test_parked_pair_in_range_takes_one_separation(self, monkeypatch):
        calls = []
        real = oracle.planar_xy
        monkeypatch.setattr(oracle, "planar_xy", lambda traj, t: calls.append(t) or real(traj, t))
        a = StraightTrajectory(0, 0, 0, 0.0, 100)
        b = StraightTrajectory(30, 40, 1.0, 0.0, 110)
        assert math.isinf(brute_force_llt(a, b, 100.0, horizon=3600.0))
        assert calls == [0.0, 0.0]  # one separation: both flyers at t = 0

    def test_excursion_of_one_and_a_half_steps_found(self):
        # Counter-rotating concentric circles are R1 + R2 apart once, at the
        # relative phase pi; a range just under that leaves them out of
        # range for 1.5 dt only.
        dt = 1e-3
        r1, r2, rel_rate = 100.0, 150.0, 0.2
        half_angle = 0.75 * dt * rel_rate
        tx = (r1 + r2) - half_angle**2 * r1 * r2 / (2.0 * (r1 + r2))
        a = CurveTrajectory(0, 0, r1, 10.0, Direction.COUNTER_CLOCKWISE, 0.0, 100)
        b = CurveTrajectory(0, 0, r2, 15.0, Direction.CLOCKWISE, 0.0, 110)
        exit_ = math.acos((r1**2 + r2**2 - tx**2) / (2 * r1 * r2)) / rel_rate
        assert (math.pi / rel_rate - exit_) / dt == pytest.approx(0.75, rel=1e-6)
        assert brute_force_llt(a, b, tx, dt=dt, horizon=60.0) == pytest.approx(exit_, abs=2e-6)

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_agrees_with_a_dense_grid(self, case):
        # A grid ten times finer than the minimum step, on the vectorised
        # positions, refined by bisection on the same.
        dt, horizon = 1e-3, 300.0
        rng = np.random.default_rng([29, ord(case)])
        bounded = 0
        for _ in range(5):
            traj_a, traj_b, tx = sample_instance(case, rng)
            stepped = brute_force_llt(traj_a, traj_b, tx, dt=dt, horizon=horizon)
            dense = dense_grid_llt(traj_a, traj_b, tx, dt / 10, horizon)
            assert math.isinf(stepped) == math.isinf(dense)
            if math.isfinite(dense):
                assert abs(stepped - dense) <= 2e-6
                bounded += 1
        assert bounded >= 1


def dense_grid_llt(traj_a, traj_b, tx, step, horizon):
    def beyond(ts):
        xa, ya = planar_positions_at(traj_a, ts)
        xb, yb = planar_positions_at(traj_b, ts)
        return np.hypot(xa - xb, ya - yb) > tx

    ts = np.linspace(0.0, horizon, round(horizon / step) + 1)
    out = beyond(ts)
    if not out.any():
        return math.inf
    j = int(np.argmax(out))
    lo, hi = ts[j - 1], ts[j]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if beyond(np.array([mid]))[0] else (mid, hi)
    return 0.5 * (lo + hi)


class TestEnumerateBestRoute:
    def test_single_edge(self):
        g = LinkGraph.from_edges([("s", "d", 7.0)])
        route = enumerate_best_route(g, "s", "d")
        assert route.nodes == ("s", "d")
        assert route.bottleneck_llt == 7.0

    def test_triangle(self):
        g = LinkGraph.from_edges([("s", "t", 5.0), ("s", "a", 10.0), ("a", "t", 8.0)])
        route = enumerate_best_route(g, "s", "t")
        assert route.nodes == ("s", "a", "t")
        assert route.bottleneck_llt == 8.0

    def test_unreachable(self):
        g = LinkGraph.from_edges([("a", "b", 1.0)], nodes=["a", "b", "c"])
        assert enumerate_best_route(g, "a", "c") is None

    def test_too_large_guard(self):
        edges = [(i, i + 1, 1.0) for i in range(13)]
        g = LinkGraph.from_edges(edges)
        with pytest.raises(TooLarge):
            enumerate_best_route(g, 0, 13)
