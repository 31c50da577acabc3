import math

import numpy as np
import pytest

from uavllt.kinematics import (
    CurveTrajectory,
    Direction,
    StraightTrajectory,
    planar_positions_at,
    position_at,
)
from scipy.optimize import brentq, minimize_scalar

from uavllt import llt
from uavllt.llt import (
    DEFAULT_TAYLOR_DEGREE,
    TRUST_RADIUS_FACTOR,
    LinkNotUp,
    Polynomial,
    SquaredDistance,
    ZeroPolynomial,
    case_geometry,
    classify_case,
    compute_llt,
    find_real_roots,
    planar_separation,
    probe_reach,
    select_root,
    squared_link_distance,
    taylor_link_polynomial,
    trust_window,
)
from uavllt.oracle import brute_force_llt
from uavllt.validate import SPEED_RANGE, SWEEP_HORIZON, sample_instance

CCW = Direction.COUNTER_CLOCKWISE
CW = Direction.CLOCKWISE


def curve(cx, cy, r, v, direction, theta, z=100.0):
    return CurveTrajectory(cx, cy, r, v, direction, theta, z)


def straight(x, y, heading, v, z=100.0):
    return StraightTrajectory(x, y, heading, v, z)


def direct_squared_separation(traj_a, traj_b, ts):
    xa, ya = planar_positions_at(traj_a, ts)
    xb, yb = planar_positions_at(traj_b, ts)
    return (xa - xb) ** 2 + (ya - yb) ** 2


class TestClassifyCase:
    def test_cases(self):
        c = curve(0, 0, 100, 20, CCW, 0)
        s = straight(0, 0, 0, 20)
        assert classify_case(c, c) == "A"
        assert classify_case(s, c) == "B"
        assert classify_case(c, s) == "B"
        assert classify_case(s, s) == "C"


class TestCaseGeometry:
    def test_zero_gaps_take_positive_sign(self):
        g = case_geometry(0.0, -5.0)
        assert g.sign1 == 1.0 and g.sign2 == -1.0
        assert g.alpha == pytest.approx(math.pi / 2)
        g = case_geometry(3.0, 0.0)
        assert g.sign2 == 1.0 and g.alpha == 0.0


class TestSquaredLinkDistance:
    def test_rigid_rotation_is_constant(self):
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 100, 20, CCW, 1.0)
        model = squared_link_distance(a, b)
        ts = np.linspace(0, 500, 200)
        values = model(ts)
        assert np.allclose(values, values[0], rtol=1e-12)

    def test_case_c_receding_pair(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        model = squared_link_distance(a, b)
        for t in (0.0, 1.0, 2.5, 7.0):
            assert model(t) == pytest.approx((50 + 10 * t) ** 2, rel=1e-12)

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_positions(self, case, seed):
        rng = np.random.default_rng([31, seed])
        traj_a, traj_b, _ = sample_instance(case, rng)
        model = squared_link_distance(traj_a, traj_b)
        ts = rng.uniform(0, 100, 100)
        direct = direct_squared_separation(traj_a, traj_b, ts)
        rel = np.abs(model(ts) - direct) / np.maximum(direct, 1e-30)
        assert rel.max() <= 1e-9

    def test_value_at_zero_is_anchor_separation(self):
        rng = np.random.default_rng(37)
        for case in ("A", "B", "C"):
            traj_a, traj_b, _ = sample_instance(case, rng)
            pa = position_at(traj_a, 0.0)
            pb = position_at(traj_b, 0.0)
            d2 = (pa.x - pb.x) ** 2 + (pa.y - pb.y) ** 2
            assert squared_link_distance(traj_a, traj_b)(0.0) == pytest.approx(d2, rel=1e-12)


class TestSignAlphaEquivalence:
    """The gap/sign/alpha formulation must equal the direct expansion."""

    @pytest.mark.parametrize("sx,sy", [(1, 1), (1, -1), (-1, 1), (-1, -1),
                                       (0, 1), (0, -1), (1, 0), (-1, 0), (0, 0)])
    def test_all_offset_quadrants(self, sx, sy):
        a = curve(500.0 * sx, 400.0 * sy, 300, 30, CCW, 0.7)
        b = curve(0.0, 0.0, 200, 45, CW, -1.9)
        model = squared_link_distance(a, b)
        ts = np.linspace(0, 120, 100)
        direct = direct_squared_separation(a, b, ts)
        rel = np.abs(model(ts) - direct) / np.maximum(direct, 1e-30)
        assert rel.max() <= 1e-9


class TestTaylorPolynomial:
    def test_case_c_exact_quadratic(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        poly = taylor_link_polynomial(a, b, 12)
        assert poly.degree == 2
        assert poly.coefficients == pytest.approx((2500.0, 1000.0, 100.0))

    def test_equal_rate_concentric_collapses_to_constant(self):
        # Same center, same angular velocity: relative phase is frozen.
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 150, 30, CCW, 1.0)
        poly = taylor_link_polynomial(a, b, 12)
        assert poly.degree == 0
        assert poly.coefficients[0] == pytest.approx(
            100**2 + 150**2 - 2 * 100 * 150 * math.cos(1.0))

    def test_degree_below_two_rejected(self):
        a = straight(0, 0, 0, 10)
        with pytest.raises(ValueError):
            taylor_link_polynomial(a, a, 1)

    @pytest.mark.parametrize("case", ["A", "B"])
    @pytest.mark.parametrize("seed", range(15))
    def test_accurate_inside_trust_window(self, case, seed):
        rng = np.random.default_rng([41, seed])
        traj_a, traj_b, _ = sample_instance(case, rng)
        model = squared_link_distance(traj_a, traj_b)
        window = trust_window(model, 12)
        poly = model.taylor(12)
        ts = np.linspace(0, window, 400)
        exact = model(ts)
        rel = np.abs(poly(ts) - exact) / np.maximum(np.abs(exact), 1e-30)
        assert rel.max() <= 1e-6


class TestFindRealRoots:
    def test_simple_quadratic(self):
        roots = find_real_roots(Polynomial.from_coefficients([-4.0, 0.0, 1.0]))
        assert roots == pytest.approx([-2.0, 2.0])

    def test_constant_has_no_roots(self):
        assert find_real_roots(Polynomial.from_coefficients([5.0])) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            find_real_roots(Polynomial.from_coefficients([0.0, 0.0]))

    def test_complex_pairs_excluded(self):
        # t^2 + 1: no real roots
        assert find_real_roots(Polynomial.from_coefficients([1.0, 0.0, 1.0])) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_recovers_known_roots(self, seed):
        rng = np.random.default_rng([43, seed])
        n = int(rng.integers(2, 8))
        known = np.sort(rng.uniform(-10, 10, n))
        coeffs = np.array([1.0])
        for r in known:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        found = find_real_roots(Polynomial.from_coefficients(coeffs))
        assert len(found) == n
        assert found == pytest.approx(list(known), abs=1e-6)


class TestSelectRoot:
    def test_smallest_valid_positive_root(self):
        exact = lambda t: 100.0 + (t - 2.0) * 10.0  # crosses 100 upward at t=2
        pick = select_root([-3.0, 2.0, 7.0], exact, 10.0, trust_radius=20.0)
        assert pick == pytest.approx(2.0, abs=1e-9)

    def test_all_negative_gives_none(self):
        exact = lambda t: 100.0 + t
        assert select_root([-5.0, -1.0], exact, 10.0, trust_radius=20.0) is None

    def test_roots_beyond_trust_radius_filtered(self):
        exact = lambda t: 100.0 + (t - 15.0) * 10.0  # crossing at 15
        assert select_root([15.0], exact, 10.0, trust_radius=5.0) is None
        assert select_root([15.0], exact, 10.0, trust_radius=20.0) == pytest.approx(15.0)

    def test_downward_crossing_skipped(self):
        # Separation dips back inside range at t=3 then leaves again at t=8;
        # the entering-range crossing must be skipped for the later break.
        def exact(t):
            return 100.0 + 5.0 * (t - 3.0) * (t - 8.0) * (0.1 if t < 5.5 else 1.0)
        pick = select_root([3.0, 8.0], exact, 10.0, trust_radius=20.0)
        assert pick == pytest.approx(8.0, abs=1e-6)


class TestComputeLlt:
    def test_case_c_example(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        result = compute_llt(a, b, 100.0)
        assert result.case_used == "C"
        assert result.bounded
        assert result.llt == pytest.approx(5.0, abs=1e-9)
        assert result.residual <= 1e-6

    def test_rigid_rotation_unbounded(self):
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 100, 20, CCW, 1.0)
        result = compute_llt(a, b, 150.0, horizon=500.0)
        assert result.horizon_capped
        assert result.llt == 500.0
        assert result.root is None

    def test_concentric_counter_rotating(self):
        # Closed form: break when cos((w1-w2) t) falls to
        # (R1^2 + R2^2 - range^2) / (2 R1 R2).
        a = curve(0, 0, 100, 10.0, CCW, 0.0)   # omega +0.1
        b = curve(0, 0, 150, 15.0, CW, 0.0)    # omega -0.1
        expected = math.acos((100**2 + 150**2 - 120**2) / (2 * 100 * 150)) / 0.2
        result = compute_llt(a, b, 120.0)
        assert result.bounded
        assert result.llt == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(4.6156, abs=1e-3)
        oracle = brute_force_llt(a, b, 120.0)
        assert abs(result.llt - oracle) <= 2e-3

    def test_link_not_up(self):
        a = straight(0, 0, 0, 10)
        b = straight(500, 0, 0, 10)
        with pytest.raises(LinkNotUp):
            compute_llt(a, b, 100.0)

    def test_break_in_a_later_trust_window(self):
        # Slow beat: equal speeds, slightly different radii, opposite turns
        # around nearby centers; the break lands beyond the first window.
        a = curve(0, 0, 400, 20, CCW, 0.0)
        b = curve(150, 0, 420, 20, CW, 0.0)
        result = compute_llt(a, b, 800.0, horizon=600.0)
        oracle = brute_force_llt(a, b, 800.0, horizon=600.0)
        window = trust_window(squared_link_distance(a, b))
        assert result.bounded and math.isfinite(oracle)
        assert result.llt > window
        assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)

    def test_bounded_residual_within_one_percent_of_range(self):
        rng = np.random.default_rng(47)
        for case in ("A", "B", "C"):
            for _ in range(20):
                traj_a, traj_b, tx = sample_instance(case, rng)
                result = compute_llt(traj_a, traj_b, tx, horizon=150.0)
                if result.bounded:
                    assert result.residual <= 0.01 * tx

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_symmetry_exact(self, case):
        rng = np.random.default_rng([53, ord(case)])
        for _ in range(15):
            traj_a, traj_b, tx = sample_instance(case, rng)
            assert compute_llt(traj_a, traj_b, tx, horizon=200.0) == \
                compute_llt(traj_b, traj_a, tx, horizon=200.0)

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_oracle_agreement_quick(self, case):
        rng = np.random.default_rng([59, ord(case)])
        for _ in range(25):
            traj_a, traj_b, tx = sample_instance(case, rng)
            result = compute_llt(traj_a, traj_b, tx, horizon=150.0)
            oracle = brute_force_llt(traj_a, traj_b, tx, dt=1e-3, horizon=150.0)
            if result.bounded and math.isfinite(oracle):
                assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)

    def test_planar_separation_helper(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        assert planar_separation(a, b) == pytest.approx(50.0)
        assert planar_separation(a, b, at=5.0) == pytest.approx(100.0)
        late = StraightTrajectory(50, 0, 0.0, 20.0, 100.0, epoch=2.0)
        # mismatched epochs measure at the later anchor by default
        assert planar_separation(a, late) == pytest.approx(30.0)

    def test_flyby_first_break_is_after_the_dip(self):
        # Closing then receding pair: the separation dips, so the only
        # positive crossing is the break on the way out.
        a = straight(0, 0, 0.0, 30.0)
        b = straight(80, 0, math.pi, 20.0)  # head-on
        result = compute_llt(a, b, 100.0)
        oracle = brute_force_llt(a, b, 100.0)
        assert result.bounded
        assert abs(result.llt - oracle) <= 1e-3
        # they meet first, so the break is well after the approach
        assert result.llt * 50.0 > 80.0


def solve_recording_windows(monkeypatch, traj_a, traj_b, tx, horizon):
    """compute_llt's result and its windows as (model, W, skipped) triples."""
    windows, skipped = [], []
    real_window, real_stays_below = llt.trust_window, SquaredDistance.stays_below

    def window_of(model, *args, **kwargs):
        windows.append((model, real_window(model, *args, **kwargs)))
        return windows[-1][1]

    def stays_below(self, *args):
        skipped.append(real_stays_below(self, *args))
        return skipped[-1]

    with monkeypatch.context() as m:
        m.setattr(llt, "trust_window", window_of)
        m.setattr(SquaredDistance, "stays_below", stays_below)
        result = compute_llt(traj_a, traj_b, tx, horizon)
    assert len(windows) == len(skipped)
    return result, [(model, w, skip) for (model, w), skip in zip(windows, skipped)]


def assert_skips_sound(windows, tx):
    """Every skipped window stays in range over all that select_root probes,
    and the full root pipeline would have found no break in it either."""
    r2 = tx * tx
    for model, window, skipped in windows:
        if not skipped:
            continue
        trust_radius = window * TRUST_RADIUS_FACTOR
        reach = probe_reach(trust_radius)
        ts = np.append(np.arange(0.0, reach, 1e-3), reach)
        assert np.max(model(ts)) < r2
        roots = find_real_roots(model.taylor(DEFAULT_TAYLOR_DEGREE).minus_constant(r2))
        assert select_root(roots, model, tx, trust_radius) is None
        assert model(window) <= r2


def assert_matches_oracle(result, traj_a, traj_b, tx, horizon):
    oracle = brute_force_llt(traj_a, traj_b, tx, dt=1e-3, horizon=horizon)
    assert result.bounded == math.isfinite(oracle)
    if result.bounded:
        assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)


class TestWindowSkip:
    """A trust window is skipped only when no break can lie in it."""

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_skipped_windows_hold_no_break(self, monkeypatch, case):
        rng = np.random.default_rng([61, ord(case)])
        n_skipped = 0
        for _ in range(25):
            traj_a, traj_b, tx = sample_instance(case, rng)
            _, windows = solve_recording_windows(monkeypatch, traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            n_skipped += sum(skip for _, _, skip in windows)
        assert n_skipped >= 10

    def test_break_just_past_a_skipped_window(self, monkeypatch):
        # Nearly co-located UAVs flying apart at full speed: the separation
        # grows almost as fast as the skip test assumes, and the first window
        # is tiny because the separation starts near zero. The range is set
        # so the break falls 1 % past everything the first window probes.
        c = curve(0.0, -500.0, 500.0, 60.0, CCW, math.pi / 2)  # at (0, 0), heading -x
        s = straight(1e-3, 0.0, 0.0, 60.0)                      # heading +x
        model = squared_link_distance(c, s)
        reach = probe_reach(trust_window(model, cap=SWEEP_HORIZON) * TRUST_RADIUS_FACTOR)
        t_break = 1.01 * reach
        assert np.all(np.diff(model(np.linspace(0.0, t_break, 10_001))) > 0.0)
        tx = math.sqrt(model(t_break))
        result, windows = solve_recording_windows(monkeypatch, c, s, tx, SWEEP_HORIZON)
        assert windows[0][2], "the first window was not skipped"
        assert_skips_sound(windows, tx)
        assert result.bounded
        assert result.llt == pytest.approx(t_break, abs=1e-9)
        assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_head_on_at_maximum_speed(self, monkeypatch, kind):
        v = SPEED_RANGE[1]
        a = curve(0.0, -300.0, 300.0, v, CW, math.pi / 2)  # at (0, 0), heading +x
        if kind == "A":
            b = curve(900.0, -800.0, 800.0, v, CCW, math.pi / 2)  # at (900, 0), heading -x
        else:
            b = straight(900.0, 0.0, math.pi, v)
        n_skipped = 0
        for tx in (950.0, 1400.0, 2500.0):
            result, windows = solve_recording_windows(monkeypatch, a, b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, a, b, tx, SWEEP_HORIZON)
            n_skipped += sum(skip for _, _, skip in windows)
        assert n_skipped >= 5

    def test_straight_flyer_at_zero_speed(self, monkeypatch):
        # Only the circling UAV moves: the separation stays in [600, 1000].
        c = curve(0.0, 0.0, 200.0, 40.0, CCW, 0.0)
        s = straight(800.0, 0.0, 1.0, 0.0)
        for tx in (700.0, 950.0, 1000.0 * (1.0 + 1e-9), 1200.0):
            result, windows = solve_recording_windows(monkeypatch, c, s, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)
        assert windows[0][2], "an out-of-reach range skipped no window"
        assert result.horizon_capped

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_start_on_the_range_circle(self, monkeypatch, case):
        rng = np.random.default_rng([67, ord(case)])
        for _ in range(10):
            traj_a, traj_b, _ = sample_instance(case, rng)
            tx = planar_separation(traj_a, traj_b) * (1.0 + 1e-9)
            result, windows = solve_recording_windows(monkeypatch, traj_a, traj_b, tx,
                                                      SWEEP_HORIZON)
            assert not windows[0][2]
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, traj_a, traj_b, tx, SWEEP_HORIZON)


def first_local_max(traj_a, traj_b, horizon):
    """(time, separation) of the separation's first local maximum, from
    positions alone, or None if it only falls or only rises."""
    ts = np.arange(0.0, horizon, 0.01)
    d2 = direct_squared_separation(traj_a, traj_b, ts)
    peaks = np.nonzero((d2[1:-1] > d2[:-2]) & (d2[1:-1] >= d2[2:]))[0]
    if not peaks.size:
        return None
    k = peaks[0] + 1
    best = minimize_scalar(lambda t: -direct_squared_separation(traj_a, traj_b, t),
                           bounds=(ts[k - 1], ts[k + 1]), method="bounded",
                           options={"xatol": 1e-10})
    return best.x, math.sqrt(-best.fun)


class TestGrazingCrossing:
    """Range just below the first local maximum: a brief, shallow excursion."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_first_crossing_found(self, case, eps):
        rng = np.random.default_rng([71, ord(case)])
        probed = 0
        while probed < 8:
            traj_a, traj_b, _ = sample_instance(case, rng)
            peak = first_local_max(traj_a, traj_b, SWEEP_HORIZON)
            if peak is None:
                continue
            t_peak, d_peak = peak
            tx = (1.0 - eps) * d_peak
            if planar_separation(traj_a, traj_b) >= tx:
                continue
            # The separation rises monotonically into the peak, so the last
            # sample below the range before it brackets the only crossing.
            ts = np.arange(0.0, t_peak, 0.01)
            below = ts[direct_squared_separation(traj_a, traj_b, ts) < tx * tx]
            t_cross = brentq(lambda t: math.sqrt(direct_squared_separation(traj_a, traj_b, t))
                             - tx, below[-1], t_peak, xtol=1e-13)
            result = compute_llt(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert result.bounded
            assert result.llt == pytest.approx(t_cross, abs=1e-6)
            probed += 1
