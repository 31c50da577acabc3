import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from uavllt.kinematics import (
    CurveTrajectory,
    Direction,
    StraightTrajectory,
    planar_distance,
    position_at,
    re_anchor,
)
from scipy.optimize import brentq, minimize_scalar

from uavllt import llt
from uavllt.llt import (
    DEFAULT_HORIZON,
    TAYLOR_DEGREE,
    LinkNotUp,
    LltResult,
    RangeLostInRounding,
    compute_llt,
    find_real_roots,
    select_root,
    squared_link_distance,
    trust_window,
)
from uavllt.oracle import BISECTION_TOL, brute_force_llt
from uavllt.validate import (
    SPEED_RANGE,
    SWEEP_DT,
    SWEEP_HORIZON,
    InstanceOutcome,
    SweepReport,
    sample_instance,
)

from model_sampler import planar_positions_at, sample

CCW = Direction.COUNTER_CLOCKWISE
CW = Direction.CLOCKWISE


def curve(cx, cy, r, v, direction, theta, z=100.0):
    return CurveTrajectory(cx, cy, r, v, direction, theta, z)


def straight(x, y, heading, v, z=100.0):
    return StraightTrajectory(x, y, heading, v, z)


def initial_separation(traj_a, traj_b):
    return planar_distance(position_at(traj_a, 0.0), position_at(traj_b, 0.0))


def direct_squared_separation(traj_a, traj_b, ts):
    xa, ya = planar_positions_at(traj_a, ts)
    xb, yb = planar_positions_at(traj_b, ts)
    return (xa - xb) ** 2 + (ya - yb) ** 2


class TestClassifyCase:
    def test_cases(self):
        c = curve(0, 0, 100, 20, CCW, 0)
        s = straight(0, 0, 0, 20)
        assert compute_llt(c, c, 500.0).case_used == "A"
        assert compute_llt(s, c, 500.0).case_used == "B"
        assert compute_llt(c, s, 500.0).case_used == "B"
        assert compute_llt(s, s, 500.0).case_used == "C"


class TestCaseGeometry:
    def test_zero_gaps_take_positive_sign(self):
        a, b, sign1, sign2, alpha = llt._gap_parts(0.0, -5.0)
        assert (a, b, sign1, sign2) == (0.0, 5.0, 1.0, -1.0)
        assert alpha == pytest.approx(math.pi / 2)
        a, b, sign1, sign2, alpha = llt._gap_parts(3.0, 0.0)
        assert (a, b, sign2, alpha) == (3.0, 0.0, 1.0, 0.0)


class TestSquaredLinkDistance:
    def test_rigid_rotation_is_constant(self):
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 100, 20, CCW, 1.0)
        model = squared_link_distance(a, b)
        ts = np.linspace(0, 500, 200)
        values = sample(model, ts)
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
        rel = np.abs(sample(model, ts) - direct) / np.maximum(direct, 1e-30)
        assert rel.max() <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_sampler(self, seed):
        rng = np.random.default_rng([43, seed])
        for case in ("A", "B", "C"):
            for _ in range(10):
                traj_a, traj_b, _ = sample_instance(case, rng)
                model = squared_link_distance(traj_a, traj_b)
                times = rng.uniform(0, SWEEP_HORIZON, 50)
                values = sample(model, times)
                for k, t in enumerate(times):
                    assert values[k] == model(float(t))

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
        rel = np.abs(sample(model, ts) - direct) / np.maximum(direct, 1e-30)
        assert rel.max() <= 1e-9


class TestTaylorPolynomial:
    def test_case_c_exact_quadratic(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        coeffs = squared_link_distance(a, b).taylor()
        assert coeffs[:3] == pytest.approx((2500.0, 1000.0, 100.0))
        assert not any(coeffs[3:])

    def test_equal_rate_concentric_collapses_to_constant(self):
        # Same center, same angular velocity: relative phase is frozen.
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 150, 30, CCW, 1.0)
        coeffs = squared_link_distance(a, b).taylor()
        assert coeffs[0] == pytest.approx(100**2 + 150**2 - 2 * 100 * 150 * math.cos(1.0))
        assert not any(coeffs[1:])

    @staticmethod
    def worst_relative_error(model, samples):
        window, _, _ = trust_window(model)
        ts = np.linspace(0, window, samples)
        exact = sample(model, ts)
        rel = np.abs(npoly.polyval(ts, model.taylor()) - exact) / np.maximum(np.abs(exact), 1e-30)
        return rel.max()

    @staticmethod
    def assert_form_of_window(model):
        """trust_window's Bernstein form is the expansion's on its [0, W],
        and with its margin it encloses the exact model there."""
        window, bernstein, margin = trust_window(model)
        coeffs = model.taylor()
        assert bernstein[0] == coeffs[0]
        # The value at W, to 1e-12 of the size of its terms: near a close
        # pass they cancel to a separation many orders below them.
        size = npoly.polyval(window, np.abs(coeffs))
        assert abs(bernstein[-1] - npoly.polyval(window, coeffs)) <= 1e-12 * size
        exact = sample(model, np.linspace(0.0, window, 2001))
        assert min(bernstein) - margin <= exact.min()
        assert exact.max() <= max(bernstein) + margin

    @pytest.mark.parametrize("case", ["A", "B"])
    @pytest.mark.parametrize("seed", range(15))
    def test_accurate_inside_trust_window(self, case, seed):
        rng = np.random.default_rng([41, seed])
        traj_a, traj_b, _ = sample_instance(case, rng)
        model = squared_link_distance(traj_a, traj_b)
        assert self.worst_relative_error(model, 400) <= 1e-6
        self.assert_form_of_window(model)

    @pytest.mark.parametrize("miss", [0.5, 5.0])
    def test_accurate_inside_trust_window_near_collision(self, miss):
        # A straight flyer crosses a 500 m, 40 m/s orbit inward and passes
        # ``miss`` metres from the orbiting UAV, at instants spread over the
        # first quarter period and off any dyadic grid: the separation dips
        # far below its size elsewhere in the window, and a window sized
        # from sampled separations can step over the dip.
        orbit = curve(0.0, 0.0, 500.0, 40.0, CCW, 0.0)
        quarter = (math.pi / 2.0) / orbit.omega
        for k in range(37):
            t_meet = quarter * (k + 0.3) / 37
            theta = orbit.omega * t_meet
            heading = theta + math.pi
            # Offset across the relative velocity: the closest approach.
            rel_vx = 40.0 * math.cos(heading) + 40.0 * math.sin(theta)
            rel_vy = 40.0 * math.sin(heading) - 40.0 * math.cos(theta)
            norm = math.hypot(rel_vx, rel_vy)
            x = 500.0 * math.cos(theta) - miss * rel_vy / norm
            y = 500.0 * math.sin(theta) + miss * rel_vx / norm
            flyer = straight(x - 40.0 * t_meet * math.cos(heading),
                             y - 40.0 * t_meet * math.sin(heading), heading, 40.0)
            model = squared_link_distance(orbit, flyer)
            assert model(t_meet) == pytest.approx(miss * miss, rel=0.01)
            assert self.worst_relative_error(model, 200_001) <= 1e-6, k
            self.assert_form_of_window(model)


def unit_bernstein(coeffs):
    """Bernstein coefficients on [0, 1] of ascending power coefficients."""
    padded = np.zeros(TAYLOR_DEGREE + 1)
    padded[:len(coeffs)] = coeffs
    return (llt._BERNSTEIN @ padded).tolist()


def holds(piece, u):
    lo, hi = piece
    return lo <= u <= hi


class TestFindRealRoots:
    """Bernstein subdivision of polynomials on a unit window."""

    def test_simple_quadratic(self):
        # u^2 - 1/4: one root, at 1/2, in the single piece [0, 1].
        pieces = find_real_roots(unit_bernstein([-0.25, 0.0, 1.0]), 0.0, 1.0)
        assert pieces == [(0.0, 1.0)]

    def test_constant_has_no_roots(self):
        # An all-negative polynomial: every piece is dropped, unless the
        # margin lifts it to zero.
        assert find_real_roots(unit_bernstein([-5.0]), 0.0, 1.0) == []
        assert find_real_roots(unit_bernstein([-5.0]), 4.9, 1.0) == []
        assert find_real_roots(unit_bernstein([-5.0]), 5.0, 1.0) == [(0.0, 1.0)]

    def test_complex_pairs_excluded(self):
        # -((u - 1/2)^2 + 1e-4): negative, but a complex root pair near the
        # interval makes the coefficients change sign until splits drop it.
        bernstein = unit_bernstein([-0.2501, 1.0, -1.0])
        assert max(bernstein) > 0.0
        assert find_real_roots(bernstein, 0.0, 1.0) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_recovers_known_roots(self, seed):
        # Roots drawn in [-10, 10], mapped onto [0, 1] by t = 20 u - 10.
        rng = np.random.default_rng([43, seed])
        n = int(rng.integers(2, 8))
        known = (np.sort(rng.uniform(-10, 10, n)) + 10.0) / 20.0
        coeffs = np.array([1.0])
        for u in known:
            coeffs = np.convolve(coeffs, [-u, 1.0])
        pieces = find_real_roots(unit_bernstein(coeffs), 0.0, 1.0)
        assert all(a[1] <= b[0] for a, b in zip(pieces, pieces[1:]))
        for u in known:
            assert sum(holds(piece, u) for piece in pieces) == 1
        for lo, hi in pieces:
            inside = sum(holds((lo, hi), u) for u in known)
            assert inside <= 1
            ends = npoly.polyval(np.array([lo, hi]), coeffs)
            assert (ends[0] * ends[1] < 0.0) == (inside == 1)

    def test_root_at_the_first_split(self):
        # (u - 1/2)((u - 1/4)^2 + 1e-4): the first split lands on the root,
        # which both halves then share as an end. The split rounds the
        # root's value to -9e-18, so a margin for rounding keeps the left half.
        coeffs = np.convolve([-0.5, 1.0], [0.0626, -0.5, 1.0])
        margin = 64.0 * np.finfo(float).eps * np.abs(coeffs).sum()
        pieces = find_real_roots(unit_bernstein(coeffs), margin, 1.0)
        at_root = [piece for piece in pieces if holds(piece, 0.5)]
        assert len(at_root) == 2 and at_root[0][1] == 0.5 == at_root[1][0]
        exact = lambda t: 1.0 + npoly.polyval(t, coeffs)
        assert select_root(pieces, exact, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_double_root_stops_at_the_depth_floor(self):
        # -(3u - 1)^2 in the Bernstein basis of degree 2 touches zero at 1/3
        # without crossing: the piece around 1/3 keeps the signs (-, +, -)
        # down to brentq's resolution, and no break is found there.
        pieces = find_real_roots([-1.0, 2.0, -4.0], 0.0, 1.0)
        assert 0 < len(pieces) <= 2
        for lo, hi in pieces:
            assert hi - lo <= llt._ROOT_XTOL + llt._ROOT_RTOL * hi
            assert lo - 1e-12 <= 1.0 / 3.0 <= hi + 1e-12
        exact = lambda t: 1.0 - (3.0 * t - 1.0) ** 2
        assert select_root(pieces, exact, 1.0) is None


class TestSelectRoot:
    def test_smallest_valid_positive_root(self):
        exact = lambda t: 100.0 + (t - 2.0) * 10.0  # crosses 100 upward at t=2
        pick = select_root([(0.0, 1.0), (1.0, 5.0), (6.0, 9.0)], exact, 10.0)
        assert pick == pytest.approx(2.0, abs=1e-9)

    def test_all_negative_gives_none(self):
        # Every piece stays below the range; each shared end is evaluated once.
        seen = []

        def exact(t):
            seen.append(t)
            return 50.0 + t

        assert select_root([(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)], exact, 10.0) is None
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_roots_beyond_trust_radius_filtered(self):
        # The windows tile the horizon: a crossing past the last piece
        # belongs to the next window.
        exact = lambda t: 100.0 + (t - 15.0) * 10.0  # crossing at 15
        assert select_root([(0.0, 10.0)], exact, 10.0) is None
        assert select_root([(0.0, 10.0), (10.0, 20.0)], exact, 10.0) == pytest.approx(15.0)

    def test_downward_crossing_skipped(self):
        # Separation dips back inside range at t=3 then leaves again at t=8;
        # the entering-range crossing must be skipped for the later break.
        exact = lambda t: 100.0 + 5.0 * (t - 3.0) * (t - 8.0)
        pick = select_root([(1.0, 5.0), (5.0, 10.0)], exact, 10.0)
        assert pick == pytest.approx(8.0, abs=1e-9)

    def test_start_above_range_breaks_at_once(self):
        exact = lambda t: 100.0 + 1e-9 - t
        assert select_root([(0.0, 1.0)], exact, 10.0) == 0.0
        assert select_root([(0.5, 1.0)], exact, 10.0) is None

    def test_break_on_a_shared_end(self):
        # The separation reaches the range exactly at the end two pieces
        # share, exceeds it just after and falls back within the next one.
        exact = lambda t: 100.0 - (t - 1.0) * (t - 1.5)
        assert select_root([(0.0, 1.0), (1.0, 2.0)], exact, 10.0) == 1.0

    def test_crossing_off_the_range_circle_is_returned(self):
        # select_root only brackets and refines, to Brent's tolerance: the
        # walk judges the pick.
        exact = lambda t: 0.0 if t < 1.0 else 1e6
        pick = select_root([(0.0, 2.0)], exact, 10.0)
        assert pick == pytest.approx(1.0, abs=llt._ROOT_XTOL + llt._ROOT_RTOL)


def traced(f, seen):
    """``f``, appending every point it is evaluated at to ``seen``."""
    def g(t):
        seen.append(t)
        return f(t)
    return g


def port(f, lo, hi, maxiter=100):
    """``llt._brentq`` on ``[lo, hi]`` with the end values it takes from its
    caller evaluated here, first, as scipy evaluates them."""
    return llt._brentq(f, lo, hi, f(lo), f(hi), llt._ROOT_XTOL, llt._ROOT_RTOL, maxiter)


class TestBrentq:
    """``llt._brentq`` against ``scipy.optimize.brentq``, whose iterates it
    must repeat bit for bit: the golden digests rest on them."""

    @staticmethod
    def solver_brackets():
        """Every bracket ``(f, lo, hi, f(lo), f(hi))`` select_root hands to
        _brentq on seeded case A/B/C pairs at horizons 300 and 3600 s."""
        brackets = []
        solve = llt._brentq

        def record(f, lo, hi, f_lo, f_hi, xtol, rtol, maxiter=100):
            brackets.append((f, lo, hi, f_lo, f_hi))
            return solve(f, lo, hi, f_lo, f_hi, xtol, rtol, maxiter)

        rng = np.random.default_rng(41)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(llt, "_brentq", record)
            for _ in range(400):
                for case in ("A", "B", "C"):
                    traj_a, traj_b, tx = sample_instance(case, rng)
                    for horizon in (300.0, 3600.0):
                        compute_llt(traj_a, traj_b, tx, horizon)
        return brackets

    def test_iterates_bit_identical_to_scipy_on_solver_brackets(self):
        brackets = self.solver_brackets()
        assert len(brackets) >= 1000
        for f, lo, hi, f_lo, f_hi in brackets:
            # The end values select_root passes in are f's own, bit for bit.
            assert (f_lo, f_hi) == (f(lo), f(hi))
            ours, theirs = [], []
            root = port(traced(f, ours), lo, hi)
            reference = brentq(traced(f, theirs), lo, hi, xtol=llt._ROOT_XTOL, rtol=llt._ROOT_RTOL)
            assert (root, ours) == (reference, theirs), f"bracket [{lo!r}, {hi!r}]"

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda t: -1.0 if t < 0.3 else 1.0, 0.0, 1.0),  # ties |f(a)| = |f(b)|, bisects
        (lambda t: math.tanh(t - 1.234), -100.0, 100.0),  # flat ends
        (lambda t: math.cos(t) - t, 0.0, 1.0),
        (lambda t: (t - 0.7) ** 5, 0.0, 1.0),  # hits the iteration cap
    ])
    def test_iterates_bit_identical_to_scipy_on_hand_made_brackets(self, f, lo, hi):
        def outcome(solve, seen):
            try:
                return solve(traced(f, seen))
            except RuntimeError:
                return RuntimeError

        ours, theirs = [], []
        root = outcome(lambda g: port(g, lo, hi), ours)
        reference = outcome(lambda g: brentq(g, lo, hi, xtol=llt._ROOT_XTOL, rtol=llt._ROOT_RTOL),
                            theirs)
        assert (root, ours) == (reference, theirs)

    @pytest.mark.parametrize("lo, hi", [(1.0, 3.0), (-1.0, 1.0)])
    def test_end_on_the_root_is_returned(self, lo, hi):
        assert port(lambda t: t - 1.0, lo, hi) == 1.0

    def test_ends_of_the_same_sign_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            port(lambda t: t * t + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f", [
        lambda t: math.nan if t == 1.0 else t - 0.5,  # at an end
        lambda t: t - 0.5 if t in (0.0, 1.0) else math.nan,  # at the first iterate
    ])
    def test_nan_value_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, xtol=llt._ROOT_XTOL, rtol=llt._ROOT_RTOL)
        with pytest.raises(ValueError, match="NaN"):
            port(f, 0.0, 1.0)

    def test_iteration_cap_raises(self):
        f = lambda t: math.tanh(t - 1.234)
        assert port(f, -100.0, 100.0) == pytest.approx(1.234)
        with pytest.raises(RuntimeError):
            brentq(f, -100.0, 100.0, xtol=llt._ROOT_XTOL, rtol=llt._ROOT_RTOL, maxiter=2)
        with pytest.raises(RuntimeError):
            port(f, -100.0, 100.0, maxiter=2)


class CountedTerms(tuple):
    """A model's terms that count how often they are walked: once per exact
    evaluation of the model."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestExactEvaluator:
    """Each searched window has one exact evaluator, which the link-up
    check, Brent and the residual share, and no point is evaluated twice."""

    @staticmethod
    def counted_evaluations(monkeypatch):
        """From now on, the instants of every exact evaluation, one list per
        model, that is per window, however many evaluators it builds. It
        counts the walks of the model's terms, so a remembered point is not
        an evaluation. Clearing it starts a new count."""
        evaluations = {}  # id(model) -> (model, instants); the model stays alive
        build = llt.SquaredDistance.evaluator

        def counted(model):
            terms = CountedTerms(model.terms)
            exact = build(llt.SquaredDistance(model.quadratic, terms))
            _, points = evaluations.setdefault(id(model), (model, []))

            def evaluate(t):
                walks = terms.walks
                value = exact(t)
                if terms.walks > walks:
                    points.append(t)
                return value

            return evaluate

        monkeypatch.setattr(llt.SquaredDistance, "evaluator", counted)
        return evaluations

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_left_to_right_sum_of_the_terms(self, case):
        rng = np.random.default_rng([17, ord(case)])
        for _ in range(20):
            model = squared_link_distance(*sample_instance(case, rng)[:2])
            exact = model.evaluator()
            for t in (0.0, 1e-9, 0.37, 12.5, 3600.0):
                q0, q1, q2 = model.quadratic
                expected = q0 + t * (q1 + t * q2)
                for amplitude, phase, rate, t_power in model.terms:
                    expected += amplitude * math.cos(phase + rate * t) * t ** t_power
                assert exact(t) == expected == model(t)

    def test_remembers_its_last_two_points(self, monkeypatch):
        evaluations = self.counted_evaluations(monkeypatch)
        model = squared_link_distance(curve(0, 0, 300, 40, CCW, 0.0), straight(350, 0, 1.0, 50))
        exact = model.evaluator()
        values = [exact(t) for t in (1.0, 2.0, 1.0, 2.0, 2.0, 3.0, 1.0, 3.0)]
        assert [points for _, points in evaluations.values()] == [[1.0, 2.0, 3.0, 1.0]]
        assert values == [model(t) for t in (1.0, 2.0, 1.0, 2.0, 2.0, 3.0, 1.0, 3.0)]

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_no_point_evaluated_twice_in_a_call(self, case, monkeypatch):
        # Before the shared evaluator, a first window from 0 evaluated the
        # link-up check's point again, and the residual Brent's root: 1,828
        # of 14,359 evaluations on 1,000 seed-5 pairs per case at 300 s.
        evaluations = self.counted_evaluations(monkeypatch)
        rng = np.random.default_rng([29, ord(case)])
        total = bounded = 0
        for _ in range(300):
            traj_a, traj_b, tx = sample_instance(case, rng)
            for horizon in (300.0, 3600.0):
                evaluations.clear()
                result = compute_llt(traj_a, traj_b, tx, horizon)
                bounded += not result.horizon_capped
                for _, points in evaluations.values():
                    assert len(set(points)) == len(points), (traj_a, traj_b, tx, horizon)
                    total += len(points)
        assert bounded >= 300 and total >= 2000


class TestComputeLlt:
    def test_case_c_example(self):
        a = straight(0, 0, 0.0, 10.0)
        b = straight(50, 0, 0.0, 20.0)
        result = compute_llt(a, b, 100.0)
        assert result.case_used == "C"
        assert not result.horizon_capped
        assert result.llt == pytest.approx(5.0, abs=1e-9)
        assert result.residual <= 1e-6

    def test_case_c_identical_velocities_capped(self):
        # Equal headings and speeds: the separation is constant, and the
        # quadratic's q1 and q2 are both exactly 0.
        a = straight(0.0, 0.0, 0.7, 30.0)
        b = straight(40.0, -30.0, 0.7, 30.0)
        model = squared_link_distance(a, b)
        assert model.quadratic[1:] == (0.0, 0.0)
        result = compute_llt(a, b, 60.0, horizon=500.0)
        assert result == llt.LltResult(500.0, "C", None, True)

    def test_rigid_rotation_unbounded(self):
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = curve(0, 0, 100, 20, CCW, 1.0)
        result = compute_llt(a, b, 150.0, horizon=500.0)
        assert result.horizon_capped
        assert result.llt == 500.0
        assert result.residual is None

    def test_concentric_counter_rotating(self):
        # Closed form: break when cos((w1-w2) t) falls to
        # (R1^2 + R2^2 - range^2) / (2 R1 R2).
        a = curve(0, 0, 100, 10.0, CCW, 0.0)   # omega +0.1
        b = curve(0, 0, 150, 15.0, CW, 0.0)    # omega -0.1
        expected = math.acos((100**2 + 150**2 - 120**2) / (2 * 100 * 150)) / 0.2
        result = compute_llt(a, b, 120.0)
        assert not result.horizon_capped
        assert result.llt == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(4.6156, abs=1e-3)
        oracle = brute_force_llt(a, b, 120.0)
        assert abs(result.llt - oracle) <= 2e-3

    def test_start_a_few_ulps_beyond_range_breaks_at_once(self):
        # Within the link-up tolerance but beyond the range, and flying
        # apart: the break is now, not past the horizon.
        a = curve(0, 0, 300, 40, CCW, 0.0)
        b = straight(400, 0, 0.0, 50)
        tx = 99.99999999999999
        assert initial_separation(a, b) > tx
        result = compute_llt(a, b, tx, horizon=600.0)
        assert not result.horizon_capped
        assert result.llt == 0.0

    def test_separation_identically_on_the_range_circle(self):
        # A flyer parked at the orbit's centre stays one radius away: the
        # separation equals the range at every instant and never exceeds it.
        c = curve(100.0, -50.0, 500.0, 40.0, CCW, 0.7)
        s = straight(100.0, -50.0, 1.0, 0.0)
        model = squared_link_distance(c, s)
        assert model.terms == () and model.quadratic[0] == 500.0**2
        result = compute_llt(c, s, 500.0, horizon=600.0)
        assert result == llt.LltResult(600.0, "B", None, True)

    def test_link_not_up(self):
        a = straight(0, 0, 0, 10)
        b = straight(500, 0, 0, 10)
        with pytest.raises(LinkNotUp):
            compute_llt(a, b, 100.0)

    def test_break_off_the_range_circle_raises_before_its_window(self):
        # The pair of the CLI's exit-2 test: a 1e12 m orbit puts the squared
        # separation near 1e24 m^2, where the model minus r^2 is rounding
        # noise. select_root picks a sign change of that noise, off the
        # range circle, and the walk refuses it before yielding its window.
        c = curve(0.0, -1e12, 1e12, 40.0, CCW, math.pi / 2)
        s = straight(100.0, 0.0, 0.3, 40.0, z=110.0)
        with pytest.raises(RangeLostInRounding, match="no crossing sits on the range circle"):
            compute_llt(c, s, 500.0)
        yielded = []
        with pytest.raises(RangeLostInRounding):
            for item in llt.walk(c, s, 500.0, DEFAULT_HORIZON):
                yielded.append(item)
        assert all(w.pick is None for w in yielded)

    def test_link_up_model_rounding_below_zero_raises(self):
        # A 47,615 km orbit beside a 1.4 km one: the link-up model rounds
        # to a negative squared separation, whose square root the speed
        # steps once took (a bare "math domain error"). Clamped to 0 the
        # walk answers 0.027687 s where the oracle says 0.020807 s.
        a = curve(-35640805.53356059, -30774640.112611193, 47614675.05923803,
                  39.70393010931833, CW, 0.7226185879294431)
        b = curve(72461.37606960257, 715548.4997375101, 1392.0125996610536,
                  36.300578890811316, CCW, -0.12424913236926072, z=110.0)
        assert squared_link_distance(a, b)(0.0) < 0.0
        with pytest.raises(RangeLostInRounding, match="rounds to .* at link-up"):
            compute_llt(a, b, 1.2051079431751688, 300.0)

    @pytest.mark.parametrize("tx_range, horizon", [
        (math.nan, 600.0), (math.inf, 600.0), (0.0, 600.0), (-5.0, 600.0),
        (500.0, math.nan), (500.0, math.inf), (500.0, 0.0), (500.0, -1.0),
    ])
    def test_non_finite_or_non_positive_range_and_horizon_rejected(self, tx_range, horizon):
        a = curve(0, 0, 100, 20, CCW, 0.0)
        b = straight(0, 0, 1.0, 30)  # starts on a's turn center
        with pytest.raises(ValueError, match="positive and finite"):
            compute_llt(a, b, tx_range, horizon)

    def test_break_in_a_later_trust_window(self):
        # Slow beat: equal speeds, slightly different radii, opposite turns
        # around nearby centers; the break lands beyond the first window.
        a = curve(0, 0, 400, 20, CCW, 0.0)
        b = curve(150, 0, 420, 20, CW, 0.0)
        result = compute_llt(a, b, 800.0, horizon=600.0)
        oracle = brute_force_llt(a, b, 800.0, horizon=600.0)
        window = trust_window(squared_link_distance(a, b))[0]
        assert not result.horizon_capped and math.isfinite(oracle)
        assert result.llt > window
        assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)

    def test_bounded_residual_within_one_percent_of_range(self):
        rng = np.random.default_rng(47)
        for case in ("A", "B", "C"):
            for _ in range(20):
                traj_a, traj_b, tx = sample_instance(case, rng)
                result = compute_llt(traj_a, traj_b, tx, horizon=150.0)
                if not result.horizon_capped:
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
            if not result.horizon_capped and math.isfinite(oracle):
                assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)

    def test_flyby_first_break_is_after_the_dip(self):
        # Closing then receding pair: the separation dips, so the only
        # positive crossing is the break on the way out.
        a = straight(0, 0, 0.0, 30.0)
        b = straight(80, 0, math.pi, 20.0)  # head-on
        result = compute_llt(a, b, 100.0)
        oracle = brute_force_llt(a, b, 100.0)
        assert not result.horizon_capped
        assert abs(result.llt - oracle) <= 1e-3
        # they meet first, so the break is well after the approach
        assert result.llt * 50.0 > 80.0


def assert_in_range(model, width, tx):
    """The window stays in range all over [0, W]: on a 1 ms grid and at W."""
    r2 = tx * tx
    ts = np.append(np.arange(0.0, width, 1e-3), width)
    assert np.max(sample(model, ts)) < r2
    assert model(width) <= r2


def assert_no_break(model, width, form, tx):
    """The window stays in range all over [0, W], and the subdivision of
    the form trust_window returned with W, and root selection, would have
    found no break in it either."""
    assert_in_range(model, width, tx)
    r2 = tx * tx
    bernstein, margin = form
    pieces = find_real_roots([b - r2 for b in bernstein], margin + llt._ROUNDING * r2, width)
    assert select_root(pieces, model, tx) is None


def assert_skips_sound(windows, tx):
    """Every window of a walk that find_real_roots excluded whole holds no break."""
    for w in windows:
        if not w.pieces:
            assert_in_range(w.model, w.width, tx)


def count_excluded(windows):
    return sum(not w.pieces for w in windows)


def assert_matches_oracle(result, traj_a, traj_b, tx, horizon):
    oracle = brute_force_llt(traj_a, traj_b, tx, dt=1e-3, horizon=horizon)
    assert result.horizon_capped != math.isfinite(oracle)
    if not result.horizon_capped:
        assert abs(result.llt - oracle) <= max(2e-3, 1e-3 * oracle)


def curve_first(traj_a, traj_b):
    """A case-B pair as (curve flyer, straight flyer)."""
    return (traj_a, traj_b) if isinstance(traj_a, CurveTrajectory) else (traj_b, traj_a)


def skipped_spans(windows, result, horizon):
    """The spans of [0, horizon] that a walk skipped: before its first
    window, between two windows that do not meet, and after its last one
    when a skip past the horizon capped it (a walk that caps at a window's
    edge stops within 1e-12 of the horizon)."""
    spans = []
    end = 0.0
    for w in windows:
        if w.t_base > end:
            spans.append((end, w.t_base))
        end = w.t_base + w.width
    if result.horizon_capped and end < horizon * (1.0 - 1e-12):
        spans.append((end, horizon))
    return spans


def assert_spans_in_range(traj_a, traj_b, tx, spans):
    """No separation reaches the range on any span, from positions alone:
    on a 1 ms grid and at both ends."""
    for lo, hi in spans:
        ts = np.append(np.arange(lo, hi, 1e-3), hi)
        assert np.max(direct_squared_separation(traj_a, traj_b, ts)) < tx * tx, (lo, hi)


def walk_checked(traj_a, traj_b, tx, horizon):
    """The windows and result of llt.walk, with every skipped span sampled,
    every excluded window checked and the result matched to the oracle."""
    *windows, result = llt.walk(traj_a, traj_b, tx, horizon)
    assert_spans_in_range(traj_a, traj_b, tx, skipped_spans(windows, result, horizon))
    assert_skips_sound(windows, tx)
    assert_matches_oracle(result, traj_a, traj_b, tx, horizon)
    return windows, result


def skipped_windows(traj_a, traj_b, tx, horizon):
    """(model, W, form) of the trust windows that a walk with no skip, from
    0, sizes wholly inside the spans that llt.walk skips: case B's bracket
    [0, t1], case A's spans on the no-break arcs and the speed steps."""
    *windows, result = llt.walk(traj_a, traj_b, tx, horizon)
    spans = skipped_spans(windows, result, horizon)
    a, b = sorted((traj_a, traj_b), key=llt._canonical_key)
    skipped = []
    t_base = 0.0
    while spans and t_base < spans[-1][1] * (1.0 - 1e-12):
        model = squared_link_distance(a, b)
        window, *form = trust_window(model, cap=horizon - t_base)
        if any(lo <= t_base and t_base + window <= hi for lo, hi in spans):
            skipped.append((model, window, form))
        t_base += window
        a = re_anchor(a, a.epoch + window)
        b = re_anchor(b, b.epoch + window)
    return skipped


class TestWalk:
    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_windows_tile_up_to_the_result(self, case):
        # compute_llt answers the walk's last item. Two windows in a row
        # either meet end to end or leave a gap, which a walk skips on speed
        # steps or a case-A walk on the no-break arcs, that holds no sampled
        # break. Only the last window can hold a break, and a bounded result
        # is that break; a case-C pair is solved in closed form, with no
        # window.
        rng = np.random.default_rng([109, ord(case)])
        for _ in range(20):
            traj_a, traj_b, tx = sample_instance(case, rng)
            *windows, result = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert compute_llt(traj_a, traj_b, tx, SWEEP_HORIZON) == result
            assert case != "C" or windows == []
            for w, following in zip(windows, windows[1:]):
                assert w.pick is None
                end = w.t_base + w.width
                if following.t_base != end:
                    assert case in "AB" and following.t_base > end
                    assert_spans_in_range(traj_a, traj_b, tx, [(end, following.t_base)])
            if not result.horizon_capped and windows:
                assert result.llt == windows[-1].t_base + windows[-1].pick


class TestCaseBBracket:
    """A case-B walk starts at t1, the first instant the straight flyer can
    be more than r - R from the turn centre; before it the separation is at
    most that distance plus R, so the link cannot break."""

    def test_no_break_before_the_bracket(self):
        rng = np.random.default_rng([41, ord("B")])
        bracketed = 0
        for _ in range(500):
            traj_a, traj_b, tx = sample_instance("B", rng)
            c, s = curve_first(traj_a, traj_b)
            t1 = llt._walk_start(c, s, tx)
            if t1 == 0.0:
                continue
            end = min(t1, SWEEP_HORIZON)
            ts = np.append(np.arange(0.0, end, 1e-3), end)
            assert np.max(direct_squared_separation(c, s, ts)) < tx * tx
            bracketed += 1
        assert bracketed >= 250

    def test_collinear_break_exactly_at_the_bracket(self):
        # Far from the origin, the straight flyer recedes from the centre
        # along +x, and at t1 the curve flyer is diametrically beyond the
        # centre: the separation, at most rho + R, reaches r exactly at t1.
        # The exact t1 of these float parameters is thus a lower bound on the
        # break. Solved without the rounding allowance, t1 rounds above it.
        cx, cy, radius, speed, tx = 1234567.891, 1e6, 150.0, 50.0, 600.1
        s = straight(cx + 123.456, cy, 0.0, speed)
        t_break = (Fraction(tx) - Fraction(radius)
                   - (Fraction(s.origin_x) - Fraction(cx))) / Fraction(speed)
        c = curve(cx, cy, radius, 40.0, CCW, math.pi - 40.0 / radius * float(t_break))
        assert 0.0 < llt._walk_start(c, s, tx) <= t_break
        result = compute_llt(c, s, tx, SWEEP_HORIZON)
        assert not result.horizon_capped
        assert result.llt == pytest.approx(float(t_break), abs=1e-9)

    def test_radius_beyond_the_range_walks_from_zero(self):
        c = curve(0.0, 0.0, 300.0, 40.0, CCW, 0.0)  # at (300, 0)
        s = straight(350.0, 0.0, 2.0, 30.0)
        tx = 250.0
        assert llt._walk_start(c, s, tx) == 0.0
        *windows, result = llt.walk(c, s, tx, SWEEP_HORIZON)
        assert windows[0].model == squared_link_distance(c, s)
        assert_skips_sound(windows, tx)
        assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)

    def test_bracket_past_the_horizon_sizes_no_window(self):
        c = curve(0.0, 0.0, 200.0, 40.0, CCW, 0.0)
        s = straight(100.0, 0.0, 1.0, 1.0)  # 1 m/s, 100 m from the centre
        tx = 1200.0
        assert SWEEP_HORIZON <= llt._walk_start(c, s, tx) < math.inf
        *windows, result = llt.walk(c, s, tx, SWEEP_HORIZON)
        assert windows == []
        assert result == llt.LltResult(SWEEP_HORIZON, "B", None, True)
        assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)

    def test_windows_per_call(self):
        # A standing guard on the skips' saving: a walk from 0 sizes 6.06
        # windows per call on these pairs, the bracket 1.80, and the bracket
        # with the speed steps 1.18.
        rng = np.random.default_rng([7, ord("B")])
        n_windows = 0
        for _ in range(300):
            traj_a, traj_b, tx = sample_instance("B", rng)
            windows, _ = walk_checked(traj_a, traj_b, tx, SWEEP_HORIZON)
            n_windows += len(windows)
        assert n_windows / 300 <= 1.3


def arc_exit(c1, c2, tx):
    """Where a case-A walk from the pair's anchor starts."""
    return llt._arc_exit(c1, c2, llt._no_break_arcs(c1, c2, tx), 0.0, SWEEP_HORIZON)


def distance_from_centre(flyer, centre, ts):
    """Distance of a curve flyer from the centre of another curve at ``ts``."""
    x, y = planar_positions_at(flyer, ts)
    return np.hypot(x - centre.center_x, y - centre.center_y)


class TestCaseAArcs:
    """Two curve flyers are never farther apart than either one's distance
    from the other's centre plus the other's radius. That rules out a break
    while a flyer is on an arc of its phase, and a case-A walk skips every
    span on which either flyer is on its arc. Each pair is checked against
    the oracle, with every skipped span sampled."""

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 + 1e-10, 1.0 - 1e-3])
    def test_concentric_circles_skip_all_or_nothing(self, scale):
        # Concentric circles stay within R1 + R2 of each other: a range
        # beyond that is answered at once, and one within the rounding
        # allowance of it or below it is walked from 0.
        a = curve(0.0, 0.0, 100.0, 20.0, CCW, 0.3)
        b = curve(0.0, 0.0, 150.0, 45.0, CW, -1.0)
        tx = 250.0 * scale
        start = arc_exit(a, b, tx)
        assert start == (math.inf if scale == 1.0 + 1e-6 else 0.0)
        windows, result = walk_checked(a, b, tx, SWEEP_HORIZON)
        assert (windows == []) == (start == math.inf)
        assert result.horizon_capped == (scale > 1.0)

    # Centres 500 m apart, R1 = 200 m and R2 = 150 m: the pair never parts
    # beyond g + R1 + R2 = 850 m. It starts 666.6 m apart, and at ranges up
    # to that both flyers start off their no-break arcs.
    START_OFF_ARCS = (curve(0.0, 0.0, 200.0, 40.0, CCW, 2.0),
                      curve(500.0, 0.0, 150.0, 30.0, CW, 1.0))

    def test_whole_circle_answered_with_no_model(self, monkeypatch):
        a, b = self.START_OFF_ARCS

        def no_model(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(llt, "squared_link_distance", no_model)
        assert compute_llt(a, b, 900.0, SWEEP_HORIZON) == llt.LltResult(
            SWEEP_HORIZON, "A", None, True)

    def test_off_both_arcs_and_beyond_range_not_up(self):
        a, b = self.START_OFF_ARCS
        tx = 600.0
        assert initial_separation(a, b) > tx
        assert arc_exit(a, b, tx) == 0.0
        with pytest.raises(LinkNotUp):
            compute_llt(a, b, tx, SWEEP_HORIZON)

    def test_within_the_link_up_tolerance_beyond_range_breaks_at_once(self):
        a, b = self.START_OFF_ARCS
        tx = initial_separation(a, b) / (1.0 + 1e-13)
        assert initial_separation(a, b) > tx
        assert arc_exit(a, b, tx) == 0.0
        result = compute_llt(a, b, tx, SWEEP_HORIZON)
        assert result.case_used == "A" and not result.horizon_capped
        assert result.llt == 0.0

    def test_break_exactly_at_an_arc_exit(self):
        # Centres 300 m apart on a line far from the origin, R1 = 400 m and
        # r - R2 = 500 m: kappa = 0 exactly, so flyer 1's no-break arc is
        # the half circle within pi/2 of the direction of centre 2, and it
        # leaves it 500 m from centre 2. Flyer 2 is then diametrically
        # beyond centre 2, so the separation, at most rho1 + R2, reaches r
        # there: the exit instant of these float parameters is a lower
        # bound on the break. Solved without the rounding allowance, the
        # exit rounds above it.
        cx, cy, tx = 1234567.891, 1e6, 700.0
        c1 = curve(cx, cy, 400.0, 40.0, CCW, -0.3006)
        gap = Fraction(cx + 300.0) - Fraction(cx)
        assert (Fraction(tx) - 200) ** 2 == gap ** 2 + 400 ** 2
        # math.pi is below pi, so this is below the exit instant.
        t_exit = (Fraction(math.pi) / 2 - Fraction(c1.initial_phase)) / Fraction(c1.omega)
        c2 = curve(cx + 300.0, cy, 200.0, 30.0, CW, math.atan2(-4.0, 3.0) + 0.15 * float(t_exit))
        assert 0.0 < arc_exit(c1, c2, tx) <= t_exit
        windows, result = walk_checked(c1, c2, tx, SWEEP_HORIZON)
        assert windows[0].t_base > 0.0
        assert not result.horizon_capped
        assert result.llt == pytest.approx(float(t_exit), abs=1e-9)

    def test_late_step_allowance_covers_the_phase_rounding(self):
        # Flyer 1 turns at 1e-7 rad/s and leaves its arc after 1.5e7 s.
        # Flyer 2 turns at 100 rad/s, so its phase is 1.5e9 rad there, where
        # an ulp is 2.4e-7 rad, far beyond the 4 pi part of the step's
        # allowance. The exit of flyer 2's arc must still leave it on the
        # arc, checked exactly against a pi good to 80 digits. The arcs are
        # set by hand.
        pi = Fraction("3.14159265358979323846264338327950288419716939937510"
                      "582097494459230781640628620899")
        c1 = curve(0.0, 0.0, 1000.0, 1e-4, CCW, -0.5)
        c2 = curve(1e4, 0.0, 1.0, 100.0, CCW, 0.0)
        half, toward = 3.0, 0.0
        exit_ = llt._arc_exit(c1, c2, ((1.0, 0.0), (half, toward)), 0.0, 1e9)
        assert abs(c2.omega) * exit_ > 1e9
        u = Fraction(c2.initial_phase) + Fraction(c2.omega) * Fraction(exit_) - Fraction(toward)
        u -= 2 * pi * math.floor(u / (2 * pi) + Fraction(1, 2))
        assert abs(u) <= half

    @pytest.mark.parametrize("tx", [900.0, 1000.0, 1080.0, 1100.0])
    def test_counter_rotating_flyers(self, tx):
        # Opposite turns about centres 538 m apart: 1100 m is beyond the
        # reach g + R1 + R2; at 1000 and 1080 m the two arcs cover the
        # horizon between them, and at 900 m they leave gaps to search.
        a = curve(0.0, 0.0, 300.0, 40.0, CCW, 2.0)
        b = curve(500.0, 200.0, 250.0, 35.0, CW, -0.5)
        windows, result = walk_checked(a, b, tx, SWEEP_HORIZON)
        assert skipped_spans(windows, result, SWEEP_HORIZON)
        assert (windows == []) == (tx >= 1000.0)

    @pytest.mark.parametrize("tx", [500.0, 600.0, 640.0])
    @pytest.mark.parametrize("sense", [CCW, CW])
    def test_equal_rates_with_overlapping_arcs(self, sense, tx):
        a = curve(0.0, 0.0, 200.0, 30.0, CCW, 0.0)
        b = curve(300.0, 0.0, 150.0, 22.5, sense, 2.5)
        assert abs(a.omega) == abs(b.omega)
        # For part of every turn both flyers are on their arcs at once.
        ts = np.linspace(0.0, 2.0 * math.pi / abs(a.omega), 10_001)
        both = ((distance_from_centre(a, b, ts) + b.radius <= tx)
                & (distance_from_centre(b, a, ts) + a.radius <= tx))
        assert both.any() and not both.all()
        windows, result = walk_checked(a, b, tx, SWEEP_HORIZON)
        assert skipped_spans(windows, result, SWEEP_HORIZON)

    @pytest.mark.parametrize("tx", [450.0, 480.0])
    def test_gap_narrower_than_a_window(self, tx):
        # Equal rates, turning the same way: flyer 2's arc begins 0.05 rad
        # of phase after flyer 1's ends, a third of a second, while a
        # window spans up to a quarter turn. The walk leaves flyer 1's arc
        # at the gap, far inside the range, crosses the gap on speed steps
        # and skips on from within flyer 2's arc: no window starts in it.
        g, r1, r2, eps = 300.0, 200.0, 150.0, 0.05
        h1 = math.acos(-((tx - r2) ** 2 - g * g - r1 * r1) / (2.0 * g * r1))
        h2 = math.acos(-((tx - r1) ** 2 - g * g - r2 * r2) / (2.0 * g * r2))
        a = curve(0.0, 0.0, r1, 30.0, CCW, 0.0)
        b = curve(g, 0.0, r2, 22.5, CCW, math.pi - h1 - h2 - eps)
        gap_start, gap_end = h1 / a.omega, (h1 + eps) / a.omega
        assert arc_exit(a, b, tx) == pytest.approx(gap_start, abs=1e-6)
        windows, result = walk_checked(a, b, tx, SWEEP_HORIZON)
        start, end = skipped_spans(windows, result, SWEEP_HORIZON)[0]
        assert start == 0.0 and end > gap_end

    def test_windows_per_call(self):
        # A standing guard on the skips' saving: a walk with no arc skip
        # sizes 3.28 windows per call on these pairs, the arcs 1.11, and the
        # arcs with the speed steps 0.80.
        rng = np.random.default_rng([7, ord("A")])
        n_windows = 0
        for _ in range(300):
            traj_a, traj_b, tx = sample_instance("A", rng)
            windows, _ = walk_checked(traj_a, traj_b, tx, SWEEP_HORIZON)
            n_windows += len(windows)
        assert n_windows / 300 <= 0.9


class TestSpeedSteps:
    """Planar separation changes by at most v_a + v_b per second, a curve
    flyer's speed being R|omega|, so before it sizes a window the walk steps
    ahead on contact_span's certificate while a step spans at least
    _MIN_STEP_SHARE of the nominal window. Each pair is checked against the
    oracle, with every skipped span sampled."""

    @staticmethod
    def counted_steps(monkeypatch):
        """The arguments of every contact_span call the walk makes from now on."""
        calls = []

        def counted(*args, _span=llt.contact_span):
            calls.append(args)
            return _span(*args)

        monkeypatch.setattr(llt, "contact_span", counted)
        return calls

    def test_break_at_a_step_end(self):
        # At the break, 15 s in, the curve flyer passes the point where its
        # circle touches the x-axis, heading -x, and the straight flyer is r
        # along that axis, heading +x: the pair parts at the full v_a + v_b,
        # where the certificate is as tight as it can be. The walk starts at
        # t1, and its steps end within one step share of the break, never
        # past it.
        radius, v_curve, v_straight, tx, t_break = 300.0, 40.0, 100.0, 2000.0, 15.0
        omega = v_curve / radius
        c = curve(0.0, -radius, radius, v_curve, CCW, math.pi / 2 - omega * t_break)
        s = straight(tx - v_straight * t_break, 0.0, 0.0, v_straight)
        t_true = brentq(lambda t: direct_squared_separation(c, s, t) - tx * tx,
                        t_break - 1e-3, t_break + 1e-3, xtol=1e-15)
        t1 = llt._walk_start(c, s, tx)
        windows, result = walk_checked(c, s, tx, SWEEP_HORIZON)
        assert len(windows) == 1
        assert t1 < windows[0].t_base <= t_true
        assert t_true - windows[0].t_base < llt._MIN_STEP_SHARE * (math.pi / 2.0) / omega
        assert result.llt == pytest.approx(t_true, abs=1e-9)

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_fast_orbit(self, case, monkeypatch):
        # A 1.6 m orbit at 176 m/s turns at 110 rad/s: its nominal window is
        # 14 ms, so a step may be as short as 0.7 ms. It replaces the curve
        # flyer of sample_instance pairs, through the same point. The walk
        # evaluates the certificate at most 1 / _MIN_STEP_SHARE times.
        calls = self.counted_steps(monkeypatch)
        rng = np.random.default_rng([113, ord(case)])
        most = 0
        for _ in range(20):
            a, b, tx = sample_instance(case, rng)
            a, b = curve_first(a, b)
            start = position_at(a, 0.0)
            phase = a.initial_phase
            fast = curve(start.x - 1.6 * math.cos(phase), start.y - 1.6 * math.sin(phase), 1.6,
                         176.0, a.direction, phase)
            assert abs(fast.omega) > 109.0
            before = len(calls)
            walk_checked(fast, b, tx, SWEEP_HORIZON)
            most = max(most, len(calls) - before)
        assert 0 < most <= 20

    @pytest.mark.parametrize("tx", [950.0, 990.0])
    def test_parked_straight_flyer(self, tx, monkeypatch):
        # Only the circling UAV moves, so the pair parts at no more than
        # R|omega|, and the separation stays in [600, 1000]. The straight
        # flyer is beyond r - R from the centre, so t1 is 0, and the walk
        # steps from 0 on the curve flyer's speed alone.
        calls = self.counted_steps(monkeypatch)
        c = curve(0.0, 0.0, 200.0, 40.0, CCW, 0.0)
        s = straight(800.0, 0.0, 1.0, 0.0)
        assert llt._walk_start(c, s, tx) == 0.0
        windows, result = walk_checked(c, s, tx, SWEEP_HORIZON)
        assert windows[0].t_base > 0.0 and not result.horizon_capped
        (_, _, motion_a, motion_b), *_ = calls
        assert sorted((motion_a[0], motion_b[0])) == [0.0, c.radius * abs(c.omega)]


class TestWindowSkip:
    """A trust window in which the link cannot leave range is skipped: the
    Bernstein test drops it whole, and only when no break can lie in it."""

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_skipped_windows_hold_no_break(self, case):
        rng = np.random.default_rng([61, ord(case)])
        n_skipped = 0
        for _ in range(25):
            traj_a, traj_b, tx = sample_instance(case, rng)
            *windows, _ = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            n_skipped += count_excluded(windows)
            # The windows a walk with no skip sizes where the walk skips
            # hold no break either.
            for model, window, form in skipped_windows(traj_a, traj_b, tx, SWEEP_HORIZON):
                assert_no_break(model, window, form, tx)
                n_skipped += 1
        assert n_skipped >= 10

    def test_break_just_past_a_skipped_window(self):
        # Nearly co-located UAVs flying apart at full speed: the separation
        # grows as fast as it can, and the first window is tiny because the
        # separation starts near zero. The range is set so the break falls
        # 1 % past the first window.
        c = curve(0.0, -500.0, 500.0, 60.0, CCW, math.pi / 2)  # at (0, 0), heading -x
        s = straight(1e-3, 0.0, 0.0, 60.0)                      # heading +x
        model = squared_link_distance(c, s)
        t_break = 1.01 * trust_window(model, cap=SWEEP_HORIZON)[0]
        assert np.all(np.diff(sample(model, np.linspace(0.0, t_break, 10_001))) > 0.0)
        tx = math.sqrt(model(t_break))
        *windows, result = llt.walk(c, s, tx, SWEEP_HORIZON)
        assert not windows[0].pieces, "the first window was not skipped"
        assert_skips_sound(windows, tx)
        assert not result.horizon_capped
        assert result.llt == pytest.approx(t_break, abs=1e-9)
        assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_head_on_at_maximum_speed(self, kind):
        v = SPEED_RANGE[1]
        a = curve(0.0, -300.0, 300.0, v, CW, math.pi / 2)  # at (0, 0), heading +x
        if kind == "A":
            b = curve(900.0, -800.0, 800.0, v, CCW, math.pi / 2)  # at (900, 0), heading -x
        else:
            b = straight(900.0, 0.0, math.pi, v)
        n_skipped = 0
        for tx in (950.0, 1400.0, 2500.0):
            *windows, result = llt.walk(a, b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, a, b, tx, SWEEP_HORIZON)
            n_skipped += count_excluded(windows)
            # The windows a walk with no skip sizes where the walk skips
            # hold no break either.
            for model, window, form in skipped_windows(a, b, tx, SWEEP_HORIZON):
                assert_no_break(model, window, form, tx)
                n_skipped += 1
        assert n_skipped >= 5

    def test_straight_flyer_at_zero_speed(self):
        # Only the circling UAV moves: the separation stays in [600, 1000].
        c = curve(0.0, 0.0, 200.0, 40.0, CCW, 0.0)
        s = straight(800.0, 0.0, 1.0, 0.0)
        for tx in (700.0, 950.0, 1000.0 * (1.0 + 1e-9), 1200.0):
            *windows, result = llt.walk(c, s, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, c, s, tx, SWEEP_HORIZON)
            # An out-of-reach range is answered before any window is sized.
            assert (windows == []) == (tx > 1000.0)
        assert result.horizon_capped

    @pytest.mark.parametrize("swap", [False, True])
    def test_parked_flyer_out_of_reach_visits_no_window(self, swap):
        c = curve(0.0, 0.0, 200.0, 40.0, CCW, 0.0)

        def pair(speed):
            s = straight(800.0, 0.0, 1.0, speed)
            return (s, c) if swap else (c, s)

        # The straight flyer stays within r - R = 1000 m of the centre until
        # t1: never when parked, after ~3e302 s when creeping at 1e-300 m/s.
        capped = llt.LltResult(DEFAULT_HORIZON, "B", None, True)
        for speed in (0.0, 1e-300):
            *windows, result = llt.walk(*pair(speed), 1200.0, DEFAULT_HORIZON)
            assert windows == []
            assert result == capped
        # Without the bracket this horizon would walk ~10^8 windows.
        assert compute_llt(*pair(0.0), 1200.0, 1e9) == llt.LltResult(1e9, "B", None, True)
        # At 2 m/s, t1 falls mid-horizon: the walk starts there, and its
        # speed steps go on from there.
        s = straight(800.0, 0.0, 1.0, 2.0)
        t1 = llt._walk_start(c, s, 1200.0)
        assert 100.0 < t1 < 200.0
        windows, result = walk_checked(*pair(2.0), 1200.0, SWEEP_HORIZON)
        t_base = windows[0].t_base
        assert t_base >= t1
        assert windows[0].model == squared_link_distance(re_anchor(c, t_base), re_anchor(s, t_base))
        assert not result.horizon_capped and result.llt > t1

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_start_on_the_range_circle(self, case):
        rng = np.random.default_rng([67, ord(case)])
        for _ in range(10):
            traj_a, traj_b, _ = sample_instance(case, rng)
            tx = initial_separation(traj_a, traj_b) * (1.0 + 1e-9)
            *windows, result = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert_matches_oracle(result, traj_a, traj_b, tx, SWEEP_HORIZON)


class TestBernsteinExclusion:
    """A searched window is excluded only when its expansion, written in the
    Bernstein basis and widened by the remainder and rounding, stays below
    the range."""

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_excluded_windows_hold_no_break(self, case):
        rng = np.random.default_rng([73, ord(case)])
        n_excluded = 0
        for _ in range(50):
            traj_a, traj_b, tx = sample_instance(case, rng)
            *windows, _ = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            n_excluded += count_excluded(windows)
            # The windows a walk with no skip sizes where the walk skips
            # are excluded too.
            for model, window, form in skipped_windows(traj_a, traj_b, tx, SWEEP_HORIZON):
                assert_no_break(model, window, form, tx)
                n_excluded += 1
        assert n_excluded >= 25

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_excludes_at_least_half_of_the_searched_windows(self, case):
        rng = np.random.default_rng([79, ord(case)])
        n_excluded = n_searched = 0
        for _ in range(100):
            traj_a, traj_b, tx = sample_instance(case, rng)
            *windows, _ = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            n_excluded += count_excluded(windows)
            n_searched += len(windows) - count_excluded(windows)
            # The windows a walk with no skip sizes where compute_llt's walk
            # skips, before case B's bracket or on case A's arcs, are
            # excluded too.
            for model, window, form in skipped_windows(traj_a, traj_b, tx, SWEEP_HORIZON):
                assert_no_break(model, window, form, tx)
                n_excluded += 1
        assert n_excluded >= n_searched

    @staticmethod
    def rises(model, window):
        """The separation rises over all of [0, W], on 2,001 samples."""
        return np.all(np.diff(sample(model, np.linspace(0.0, window, 2001))) > 0.0)

    @classmethod
    def rising_first_windows(cls, case, seed, horizon):
        """(traj_a, traj_b, model, W) of instances whose separation rises
        over all of the first window. The largest Bernstein coefficient of
        the piece that ends at W is then the value at W, so a range put
        there sits within the bound's error terms."""
        rng = np.random.default_rng([seed, ord(case)])
        for _ in range(100):
            traj_a, traj_b, _ = sample_instance(case, rng)
            model = squared_link_distance(traj_a, traj_b)
            window = trust_window(model, cap=horizon)[0]
            if cls.rises(model, window):
                yield traj_a, traj_b, model, window

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_range_between_expansion_and_separation(self, case):
        # The expansion falls short of the separation at W and the range
        # lies between them: only the remainder bound keeps the piece that
        # ends at W from being dropped.
        probed = 0
        for traj_a, traj_b, model, window in self.rising_first_windows(case, 83, SWEEP_HORIZON):
            expansion = npoly.polyval(window, model.taylor())
            if expansion >= model(window):
                continue
            tx = math.sqrt(0.5 * (expansion + model(window)))
            *windows, result = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert windows[0].pieces
            assert_matches_oracle(result, traj_a, traj_b, tx, SWEEP_HORIZON)
            probed += 1
        assert probed >= 10

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_range_within_rounding_of_the_separation(self, case):
        # A 1 ms horizon leaves one window whose remainder bound is far below
        # rounding, so only the rounding allowance keeps the bound honest as
        # the range steps ulp by ulp across the separation at W.
        horizon = 1e-3
        probed = 0
        for traj_a, traj_b, model, window in self.rising_first_windows(case, 89, horizon):
            tx = math.sqrt(model(window))
            for _ in range(16):
                tx = math.nextafter(tx, 0.0)
            for _ in range(32):
                *windows, _ = llt.walk(traj_a, traj_b, tx, horizon)
                assert_skips_sound(windows, tx)
                tx = math.nextafter(tx, math.inf)
            probed += 1
        assert probed >= 10

    def test_overflowing_scale_never_excludes(self):
        # Orbits so wide and a horizon so long that W**12 overflows down to
        # the smallest window: the scaled coefficients are not finite, so no
        # window can be sized or subdivided, and the range is reported lost
        # in rounding.
        big = 1e40
        a = curve(0.0, -big, big, 40.0, CCW, math.pi / 2)
        b = straight(100.0, 0.0, 0.3, 40.0)
        with pytest.raises(OverflowError):
            (big / 4096.0) ** TAYLOR_DEGREE
        with pytest.raises(RangeLostInRounding):
            trust_window(squared_link_distance(a, b), cap=big)
        with pytest.raises(RangeLostInRounding):
            compute_llt(a, b, 500.0, big)

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_break_at_the_window_edge(self, case):
        # The range is the separation at the first window's edge W, which
        # it reaches rising: the break is found at W, whichever of the two
        # windows that meet there brackets it, and also where the separation
        # falls back inside the range soon after W. The range moves the
        # walk's start, through case B's t1, case A's arcs and the speed
        # steps: it is put at the edge of the first window that the walk
        # actually searches.
        probed = 0
        for traj_a, traj_b, model, window in self.rising_first_windows(case, 101, SWEEP_HORIZON):
            found = self.range_at_the_first_searched_edge(
                traj_a, traj_b, math.sqrt(model(window)))
            if found is None:
                continue
            tx, edge = found
            *windows, result = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert_skips_sound(windows, tx)
            assert not result.horizon_capped
            assert result.llt == pytest.approx(edge, abs=1e-9)
            assert_matches_oracle(result, traj_a, traj_b, tx, SWEEP_HORIZON)
            probed += 1
        assert probed >= 10

    @classmethod
    def range_at_the_first_searched_edge(cls, traj_a, traj_b, tx):
        """(range, edge): a range that equals the separation at the edge of
        the first window a walk with that range searches, with the
        separation rising over that window. The range is moved to that edge
        until the window stays put; None if it does not within 30 moves, or
        if the window ends at the horizon, which cuts it short of a trust
        window's edge."""
        for _ in range(30):
            *windows, _ = llt.walk(traj_a, traj_b, tx, SWEEP_HORIZON)
            first = windows[0]
            if (not cls.rises(first.model, first.width)
                    or first.t_base + first.width >= SWEEP_HORIZON * (1.0 - 1e-12)):
                return None
            edge = math.sqrt(first.model(first.width))
            if edge == tx:
                return tx, first.t_base + first.width
            tx = edge
        return None


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
            if initial_separation(traj_a, traj_b) >= tx:
                continue
            # The separation rises monotonically into the peak, so the last
            # sample below the range before it brackets the only crossing.
            ts = np.arange(0.0, t_peak, 0.01)
            below = ts[direct_squared_separation(traj_a, traj_b, ts) < tx * tx]
            t_cross = brentq(lambda t: math.sqrt(direct_squared_separation(traj_a, traj_b, t))
                             - tx, below[-1], t_peak, xtol=1e-13)
            result = compute_llt(traj_a, traj_b, tx, SWEEP_HORIZON)
            assert not result.horizon_capped
            assert result.llt == pytest.approx(t_cross, abs=1e-6)
            probed += 1


class TestEqualOrbitalRates:
    """Distinct centres, one angular velocity: the separation is periodic and
    its peak is known in closed form, so ranges around it probe the window
    search."""

    @staticmethod
    def squared_peak(c1, c2):
        """Largest squared separation: the two gap sinusoids share one rate,
        so their phasor sum gives the envelope's maximum in closed form."""
        gap = math.hypot(c1.center_x - c2.center_x, c1.center_y - c2.center_y)
        base = (gap * gap + c1.radius**2 + c2.radius**2
                - 2.0 * c1.radius * c2.radius * math.cos(c1.initial_phase - c2.initial_phase))
        px = c1.radius * math.cos(c1.initial_phase) - c2.radius * math.cos(c2.initial_phase)
        py = c1.radius * math.sin(c1.initial_phase) - c2.radius * math.sin(c2.initial_phase)
        return base + 2.0 * gap * math.hypot(px, py)

    PAIRS = [
        (curve(0.0, 0.0, 200.0, 40.0, CCW, 0.3), curve(300.0, 100.0, 150.0, 30.0, CCW, -1.1)),
        (curve(0.0, 0.0, 120.0, 30.0, CW, 2.0), curve(-250.0, 180.0, 240.0, 60.0, CW, 0.4)),
    ]

    @pytest.mark.parametrize("scale", [1.0 + 1e-3, 1.0 + 1e-10, 1.0 - 1e-6, 1.0 - 1e-3])
    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_range_around_the_peak(self, pair, scale):
        a, b = self.PAIRS[pair]
        assert a.omega == b.omega
        peak = math.sqrt(self.squared_peak(a, b))
        ts = np.linspace(0.0, 2.0 * math.pi / abs(a.omega), 100_001)
        assert math.sqrt(direct_squared_separation(a, b, ts).max()) == pytest.approx(peak, rel=1e-9)
        tx = scale * peak
        assert initial_separation(a, b) < tx
        *windows, result = llt.walk(a, b, tx, SWEEP_HORIZON)
        assert_skips_sound(windows, tx)
        assert result.horizon_capped == (scale > 1.0)
        assert_matches_oracle(result, a, b, tx, SWEEP_HORIZON)


HORIZON_EDGE_OFFSETS = [-2.0 * SWEEP_DT, -1e-9, 1e-9, 2.0 * SWEEP_DT]


def crossing_near(traj_a, traj_b, tx, t_near, half_width):
    """The instant the pair's separation, from positions alone, crosses the
    range within ``half_width`` of ``t_near``."""
    return brentq(lambda t: math.sqrt(direct_squared_separation(traj_a, traj_b, t)) - tx,
                  t_near - half_width, t_near + half_width, xtol=1e-13)


def assert_break_at_the_horizon_edge(case, traj_a, traj_b, tx, t_break, offset):
    # A break within 2*dt of the horizon, on either side of it: the solver
    # caps exactly at the horizon, and the sweep's verdict rule holds.
    horizon = t_break + offset
    result = compute_llt(traj_a, traj_b, tx, horizon)
    if offset > 0.0:
        assert not result.horizon_capped
        assert result.llt == pytest.approx(t_break, abs=1e-10)
    else:
        assert result.horizon_capped and result.llt == horizon
    oracle = brute_force_llt(traj_a, traj_b, tx, dt=SWEEP_DT, horizon=horizon)
    report = SweepReport(case, 1, 0, SWEEP_DT, horizon,
                         [InstanceOutcome(0, tx, result, oracle)])
    assert report.passed(), report.table_row()


@pytest.mark.parametrize("dt", [SWEEP_DT, 0.5])
class TestSweepGateIgnoresTheOracleStep:
    """The sweep's tolerances are fixed: ``validate --dt 0.5`` once accepted
    errors of up to 1 s, and verdicts that differ 1 s before the horizon."""

    def test_error_of_0_9_s_fails(self, dt):
        result = LltResult(llt=10.9, case_used="A", residual=0.0, horizon_capped=False)
        report = SweepReport("A", 1, 0, dt, SWEEP_HORIZON,
                             [InstanceOutcome(0, 500.0, result, 10.0)])
        assert len(report.failures()) == 1 and not report.passed()

    def test_verdict_mismatch_0_9_s_before_the_horizon_fails(self, dt):
        result = LltResult(llt=SWEEP_HORIZON, case_used="B", residual=None, horizon_capped=True)
        report = SweepReport("B", 1, 0, dt, SWEEP_HORIZON,
                             [InstanceOutcome(0, 500.0, result, SWEEP_HORIZON - 0.9)])
        assert len(report.verdict_mismatches()) == 1 and not report.passed()


@pytest.mark.parametrize("offset", HORIZON_EDGE_OFFSETS)
def test_case_c_break_at_the_horizon_edge(offset):
    a = straight(0.0, 0.0, 0.3, 25.0)
    b = straight(40.0, -30.0, 2.0, 35.0)
    tx = 1500.0
    t_break = crossing_near(a, b, tx, 50.0, 50.0)
    assert_break_at_the_horizon_edge("C", a, b, tx, t_break, offset)


@pytest.mark.parametrize("case", ["A", "B"])
def test_break_at_the_horizon_edge(case):
    # Seeded pairs that break before the sweep horizon, each break found by
    # the oracle and refined from positions alone: a horizon just before or
    # after it exercises the walk's exits in its last window.
    rng = np.random.default_rng([113, ord(case)])
    probed = 0
    while probed < 20:
        traj_a, traj_b, tx = sample_instance(case, rng)
        t_grid = brute_force_llt(traj_a, traj_b, tx, dt=SWEEP_DT, horizon=SWEEP_HORIZON)
        if not math.isfinite(t_grid):
            continue
        t_break = crossing_near(traj_a, traj_b, tx, t_grid, BISECTION_TOL)
        for offset in HORIZON_EDGE_OFFSETS:
            assert_break_at_the_horizon_edge(case, traj_a, traj_b, tx, t_break, offset)
        probed += 1


# Metamorphic relations of the solver: transformations of a pair that leave
# its separation, and so its lifetime, unchanged. The tolerance is fixed; it
# is about 60 times the largest deviation measured on 1,500 seeded pairs per
# case (1.7e-12 s, under a rigid motion), while a quadrant or sign slip in
# the model moves lifetimes by seconds.
METAMORPHIC_PAIRS = 200
METAMORPHIC_TOL = 1e-10  # seconds
TIME_SHIFT = 10.0


@pytest.fixture(scope="module", params=["A", "B"])
def metamorphic(request):
    """Seeded in-range pairs of one case, and their lifetimes."""
    case = request.param
    rng = np.random.default_rng([7, ord(case)])
    instances = [sample_instance(case, rng) for _ in range(METAMORPHIC_PAIRS)]
    return case, instances, [compute_llt(a, b, tx, SWEEP_HORIZON) for a, b, tx in instances]


def moved(traj, rotation, dx, dy):
    """``traj`` rotated about the origin by ``rotation``, then shifted by (dx, dy)."""
    c, s = math.cos(rotation), math.sin(rotation)
    if isinstance(traj, CurveTrajectory):
        x, y = traj.center_x, traj.center_y
        return replace(traj, center_x=c * x - s * y + dx, center_y=s * x + c * y + dy,
                       initial_phase=traj.initial_phase + rotation)
    x, y = traj.origin_x, traj.origin_y
    return replace(traj, origin_x=c * x - s * y + dx, origin_y=s * x + c * y + dy,
                   heading=traj.heading + rotation)


def mirrored(traj):
    """``traj`` reflected across the x-axis: a turn changes its sense."""
    if isinstance(traj, CurveTrajectory):
        return replace(traj, center_y=-traj.center_y, initial_phase=-traj.initial_phase,
                       direction=-traj.direction)
    return replace(traj, origin_y=-traj.origin_y, heading=-traj.heading)


def assert_same_lifetimes(expected, got, shift=0.0):
    assert [r.horizon_capped for r in got] == [r.horizon_capped for r in expected]
    worst = max(abs(g.llt + shift - e.llt) for e, g in zip(expected, got))
    assert worst <= METAMORPHIC_TOL


class TestMetamorphicRelations:
    def test_rigid_motion(self, metamorphic):
        case, instances, expected = metamorphic
        rng = np.random.default_rng([8, ord(case)])
        got = []
        for a, b, tx in instances:
            rotation = float(rng.uniform(-math.pi, math.pi))
            dx, dy = rng.uniform(-5000.0, 5000.0, size=2).tolist()
            got.append(compute_llt(moved(a, rotation, dx, dy), moved(b, rotation, dx, dy),
                                   tx, SWEEP_HORIZON))
        assert_same_lifetimes(expected, got)

    def test_reflection(self, metamorphic):
        _, instances, expected = metamorphic
        got = [compute_llt(mirrored(a), mirrored(b), tx, SWEEP_HORIZON)
               for a, b, tx in instances]
        assert_same_lifetimes(expected, got)

    def test_swapped_pair(self, metamorphic):
        _, instances, expected = metamorphic
        got = [compute_llt(b, a, tx, SWEEP_HORIZON) for a, b, tx in instances]
        assert_same_lifetimes(expected, got)

    def test_time_shift(self, metamorphic):
        # Re-anchored TIME_SHIFT s later, with the horizon still ending at the
        # same instant, a pair still up then breaks TIME_SHIFT s sooner.
        _, instances, results = metamorphic
        kept = [(instance, result) for instance, result in zip(instances, results)
                if result.llt > TIME_SHIFT]
        assert len(kept) > METAMORPHIC_PAIRS // 2
        got = [compute_llt(re_anchor(a, TIME_SHIFT), re_anchor(b, TIME_SHIFT), tx,
                           SWEEP_HORIZON - TIME_SHIFT) for (a, b, tx), _ in kept]
        assert_same_lifetimes([result for _, result in kept], got, shift=TIME_SHIFT)
