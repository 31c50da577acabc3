import math

import numpy as np
import pytest

from uavllt.kinematics import CurveTrajectory, Direction, StraightTrajectory
from uavllt.llt import LinkNotUp
from uavllt.netsim import LinkGraph
from uavllt.oracle import TooLarge, brute_force_llt, enumerate_best_route
from uavllt.validate import sample_instance


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

    def test_link_not_up(self):
        a = StraightTrajectory(0, 0, 0, 10, 0)
        b = StraightTrajectory(1000, 0, 0, 10, 0)
        with pytest.raises(LinkNotUp):
            brute_force_llt(a, b, 100.0)

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_grid_independence(self, case):
        # Halving dt must not move the answer beyond the bisection width.
        rng = np.random.default_rng([61, ord(case)])
        for _ in range(5):
            traj_a, traj_b, tx = sample_instance(case, rng)
            coarse = brute_force_llt(traj_a, traj_b, tx, dt=1e-3, horizon=120.0)
            fine = brute_force_llt(traj_a, traj_b, tx, dt=5e-4, horizon=120.0)
            if math.isfinite(coarse) and math.isfinite(fine):
                assert abs(coarse - fine) <= 2e-6
            else:
                assert math.isinf(coarse) == math.isinf(fine)

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
