"""Analytic link-lifetime (LLT) computation for a UAV pair.

The link between two UAVs lives until their planar separation first exceeds
the transmission range. With both trajectories known, the squared
separation is a quadratic in time plus a handful of sinusoids::

    D^2(t) = q0 + q1*t + q2*t^2 + sum_j  K_j * t^{p_j} * cos(phi_j + nu_j * t)

Three motion pairings occur. When both UAVs fly curves (case A) there are
three sinusoids, at the two orbital rates and their difference. A
curve/straight pair (case B) has sinusoids at the orbital rate only, one of
them with a linear-in-t amplitude. Two straight flyers (case C) give a pure
quadratic that is solved exactly.

For cases A and B the sinusoids are Taylor-expanded to degree
:data:`TAYLOR_DEGREE` to obtain a polynomial that stands for the separation.
Polynomials are plain lists of float coefficients in ascending degree,
which :func:`numpy.polynomial.polynomial.polyval` accepts:
:meth:`SquaredDistance.taylor` returns one. The exact model takes one time
value and returns a float. A fixed-degree expansion of a
cosine is only trustworthy while its argument stays small, so the expansion
is applied piecewise over certified trust windows: each window starts at a
quarter period of the fastest sinusoid and is halved until a remainder bound
guarantees the requested relative accuracy against a certified lower bound
on the separation, and the search re-anchors at the window edge until a
break is found or the horizon is reached. The windows and the spans that
the walk skips, where no break is possible, tile the horizon, so each window
is searched on ``[0, W]`` only. :func:`walk` is that search: it yields each
window it searches as a :class:`Window`, then the result, which
:func:`compute_llt` returns.

Both the sizing and the search rest on one Bernstein form of the window's
expansion. Substituting ``t = W * u`` and changing to the Bernstein basis of
degree :data:`TAYLOR_DEGREE` on ``u in [0, 1]`` turns the coefficients of
the expansion into Bernstein coefficients ``b_i``. The basis functions are
non-negative and sum to one, so on any piece the polynomial lies between
the smallest and the largest coefficient of that piece (Lane and Riesenfeld
1981), and the exact model differs from the expansion by at most the
remainder bound. :func:`trust_window` takes the smallest coefficient less
that bound and a rounding allowance as the certified lower bound on the
separation, so "this window is accurate" rests on a bound, not on samples.

The search subtracts ``r^2`` from the same coefficients.
:func:`find_real_roots` splits the window at midpoints with de Casteljau's
algorithm, drops every piece whose largest coefficient plus the remainder
bound and the rounding allowance is negative, and stops splitting a piece
whose coefficients change sign at most once, since the polynomial then has
at most one root there (Collins and Akritas 1976). A window the link
provably cannot leave range in is thus dropped whole, before any piece is
split. :func:`select_root` brackets the break in the first remaining piece
that the exact separation enters in range and leaves beyond it, and refines
it against the exact transcendental separation, so the reported break time
does not inherit the expansion error. "No break here" therefore rests on
the remainder bound too, and no sampled safety net is needed. The refinement
is Brent's method, ported into this module from scipy's ``brentq`` so that
the package needs no scipy (:func:`_brentq`). Its iterates must stay bit for
bit scipy's: the golden output digests depend on every break time. The walk
then judges the break: its residual, the exact separation's distance from
the range circle there, must be within :data:`RANGE_RESIDUAL_RTOL` of the
range, or the range is lost in the model's rounding.

The exact separation has one evaluator per searched window,
:meth:`SquaredDistance.evaluator`: a plain closure over the model's
coefficients that adds its terms left to right. Calling the model goes
through it too, so every exact evaluation rounds alike. The link-up check,
Brent and the residual all share it, and it remembers its last two points,
so each point is evaluated once: a first window's ``D^2(0)`` is the link-up
check's, and the residual is taken at Brent's root, which is its last or
next-to-last iterate wherever the separation is monotone on the bracket (on
every bracket of the sampled pairs; elsewhere the residual would only
evaluate it again).

A walk skips ahead to where a break first becomes possible. A curve flyer
stays on its circle, so by the triangle inequality the separation is at
most the other flyer's distance from the turn centre plus the radius. For
two curve flyers (case A) that rules out a break while either flyer is on a
closed-form arc of its phase, which comes round once per turn
(:func:`_arc_exit`). A range beyond the centres' gap plus both radii makes
the arc the whole circle and answers the pair at once. For a curve/straight
pair (case B) ``rho(t)``, the straight flyer's distance from the turn
centre, is the square root of a quadratic in time. No break comes before
``rho`` first exceeds ``r - R``, at a closed-form instant ``t1``
(:func:`_walk_start`). Rounding allowances on the arcs, the reach and ``t1``
keep these skips certified in floating point, and a skip to the horizon
answers the pair capped.

Where neither rules a break out, the planar separation still changes by at
most ``v_a + v_b`` per second, a curve flyer's speed being ``R |omega|``:
from a computed separation ``d`` the pair cannot leave range for
``(r - d - slack) / (v_a + v_b)`` seconds. That is the kinetic certificate
the simulator's contact certificates rest on,
:func:`~uavllt.kinematics.contact_span`, whose docstring proves the slack.
Before it sizes a window, the walk takes such speed steps while one spans at
least :data:`_MIN_STEP_SHARE` of the nominal window, a quarter period of the
fastest sinusoid, and steps past case A's arcs again wherever a step lands
on one (:func:`_no_break_until`). So a walk takes at most about
``1 / _MIN_STEP_SHARE`` cheap steps where it would otherwise size one
window. The end of the last window, the start skip, the steps and the arcs
add up to one offset, and both UAVs are re-anchored once per window. A walk
that starts at 0 steps there only when the link-up check's separation
already promises a whole nominal window, so a break in the first window
costs no step at all. The speed steps cannot certify "never", which the
arcs and ``t1`` can.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import (TWO_PI, CurveTrajectory, StraightTrajectory, Trajectory, contact_span,
                         planar_xy, re_anchor, speed_and_size)

# Degree of the Taylor expansion of every sinusoid.
TAYLOR_DEGREE = 12
DEFAULT_HORIZON = 3600.0
# Target relative accuracy of the Taylor polynomial inside a trust window.
TRUST_REL_ERROR = 1e-6
# A bounded result must sit on the range circle to within this fraction.
RANGE_RESIDUAL_RTOL = 0.01
# Tolerances of the Brent refinement of a break time (_brentq, scipy's
# brentq ported bit for bit); find_real_roots splits no piece narrower than
# they resolve.
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
# Allowance for rounding in a window's Bernstein form, relative to the size
# of the model's terms and of r^2: the model's parameters, its exact
# evaluation, the scaling, the basis change, the subtraction of r^2 and the
# splits each round by a few units in the last place.
_ROUNDING = 64.0 * sys.float_info.epsilon
# Relative shrink of the case-B bracket's reach r - R and of its start t1,
# and of the ends of the case-A no-break arcs, far above the few ulps of
# rounding it covers (see _walk_start and _arc_exit).
_BRACKET_SHRINK = 1e-9
# The walk takes a certified speed step only while it spans at least this
# share of the nominal trust window, a quarter period of the fastest
# sinusoid, so it takes about 1 / _MIN_STEP_SHARE steps at most where a walk
# without them would size one window.
_MIN_STEP_SHARE = 0.05
# Change of basis from the power basis on [0, 1] to the Bernstein basis of
# degree TAYLOR_DEGREE: b_i = sum_k C(i, k) / C(n, k) * a_k.
_BERNSTEIN = np.array([[math.comb(i, k) / math.comb(TAYLOR_DEGREE, k)
                        for k in range(TAYLOR_DEGREE + 1)]
                       for i in range(TAYLOR_DEGREE + 1)])
# k! as floats, all exact: the Taylor coefficients and remainder bounds divide by them.
_FACTORIAL = [float(math.factorial(k)) for k in range(TAYLOR_DEGREE + 2)]


class LinkNotUp(RuntimeError):
    """The pair is already farther apart than the transmission range."""


class RangeLostInRounding(ValueError):
    """The separation model's terms are so large that the range is lost in
    their rounding: the model leaves range in a window, but off the range
    circle, or its expansion overflows when scaled to the window."""


# ---------------------------------------------------------------------------
# Bernstein subdivision
# ---------------------------------------------------------------------------


def _sign_changes(coeffs) -> int:
    """Sign changes along ``coeffs``, zeros ignored."""
    changes = 0
    sign = 0
    for c in coeffs:
        if c > 0.0:
            if sign < 0:
                changes += 1
            sign = 1
        elif c:
            if sign > 0:
                changes += 1
            sign = -1
    return changes


def _split(coeffs) -> tuple[list[float], list[float]]:
    """Bernstein coefficients of the two halves of a piece (de Casteljau)."""
    left, right = [], []
    row = coeffs
    while row:
        left.append(row[0])
        right.append(row[-1])
        row = [0.5 * (x + y) for x, y in zip(row, row[1:])]
    right.reverse()
    return left, right


def find_real_roots(bernstein, margin: float, window: float) -> list[tuple[float, float]]:
    """Pieces ``(lo, hi)`` of ``[0, window]`` that may hold a root, in order.

    ``bernstein`` holds a polynomial's Bernstein coefficients on
    ``[0, window]``, and ``margin`` bounds how far the function it stands
    for lies above it. Midpoint splits, taken left to right, drop every
    piece whose largest coefficient plus ``margin`` is negative: the
    function is below zero there. A piece whose coefficients change sign at
    most once holds at most one root of the polynomial and is kept whole, as
    is a piece that the Brent refinement's tolerances no longer resolve.
    Touching pieces share their common end exactly.
    """
    pieces = []
    stack = [(list(bernstein), 0.0, window)]
    while stack:
        coeffs, lo, hi = stack.pop()
        if max(coeffs) + margin < 0.0:
            continue
        if _sign_changes(coeffs) <= 1 or hi - lo <= _ROOT_XTOL + _ROOT_RTOL * hi:
            pieces.append((lo, hi))
            continue
        left, right = _split(coeffs)
        mid = 0.5 * (lo + hi)
        stack.append((right, mid, hi))
        stack.append((left, lo, mid))
    return pieces


# ---------------------------------------------------------------------------
# Squared separation model
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SquaredDistance:
    """Exact squared planar separation of a UAV pair as a function of time.

    ``quadratic`` holds (q0, q1, q2); ``terms`` the sinusoids, each a plain
    ``(amplitude, phase, rate, t_power)`` tuple that stands for
    ``amplitude * t^t_power * cos(phase + rate * t)``, with ``t_power`` 0
    or 1 (case B's moving-amplitude term). Calling the model at one time
    value evaluates the exact (non-expanded) function through
    :meth:`evaluator`; no Taylor error here. Not frozen: a frozen dataclass
    sets each field through ``object.__setattr__``, and a model is built per
    trust window.

    Every sum here runs left to right in a plain loop: ``sum`` of floats
    rounds differently from Python 3.12 on, and the golden digests record
    every bit of the results.
    """

    quadratic: tuple[float, float, float]
    terms: tuple[tuple[float, float, float, int], ...]

    def __call__(self, t: float) -> float:
        """One exact evaluation; a search builds one :meth:`evaluator` instead."""
        return self.evaluator()(t)

    def evaluator(self):
        """The exact model as a plain closure of one time value: ``q0 + t * (q1
        + t * q2)``, then each term added, left to right.

        It remembers the last two points it evaluated and answers a repeat
        of either without evaluating again. :func:`walk` builds one per
        searched window and shares it between the link-up check,
        :func:`select_root` and the residual (see the module docstring).
        """
        q0, q1, q2 = self.quadratic
        terms = self.terms
        cos = math.cos
        last_t = last_value = before_t = before_value = math.nan

        def exact(t: float) -> float:
            nonlocal last_t, last_value, before_t, before_value
            if t == last_t:
                return last_value
            if t == before_t:
                return before_value
            value = q0 + t * (q1 + t * q2)
            for amplitude, phase, rate, t_power in terms:
                if t_power:  # amplitude * cos(...) * t ** 1, exactly
                    value += amplitude * cos(phase + rate * t) * t
                else:
                    value += amplitude * cos(phase + rate * t)
            before_t = last_t
            before_value = last_value
            last_t = t
            last_value = value
            return value

        return exact

    def taylor(self) -> list[float]:
        """Ascending coefficients of the Taylor polynomial about t=0.

        The list always has ``TAYLOR_DEGREE + 1`` entries. The quadratic
        part is carried exactly, so for case C the polynomial is exact. Each
        sinusoid adds ``amplitude * c_k * rate^k / k!`` to the coefficient of
        ``t^(k + t_power)``, in the order of the terms.
        """
        coeffs = [*self.quadratic] + [0.0] * (TAYLOR_DEGREE - 2)
        for amplitude, phase, rate, t_power in self.terms:
            # d^k/dt^k cos(phase + rate*t) at 0 cycles through +-cos/sin(phase)
            # times the amplitude, folded in once: a * (-s) == -(a * s) exactly,
            # and repeated for every k up to the degree
            cos, sin = amplitude * math.cos(phase), amplitude * math.sin(phase)
            cycle = (cos, -sin, -cos, sin) * (TAYLOR_DEGREE // 4 + 1)
            rate_pow = 1.0
            for k in range(TAYLOR_DEGREE + 1 - t_power):
                coeffs[k + t_power] += cycle[k] * rate_pow / _FACTORIAL[k]
                rate_pow *= rate
        return coeffs

    def max_rate(self) -> float:
        fastest = 0.0
        for _, _, rate, _ in self.terms:
            rate = abs(rate)
            if rate > fastest:
                fastest = rate
        return fastest

    def remainder_bound(self, window: float) -> float:
        """Upper bound on the truncation error of :meth:`taylor` over ``[0, window]``.

        Requires ``abs(rate) * window < TAYLOR_DEGREE - t_power + 2`` for
        every term, where the tail of its series is bounded by a geometric
        one. Every trust window meets it: it starts at a quarter period of
        the fastest sinusoid, so each argument stays at or below pi/2.
        """
        bound = 0.0
        for amplitude, _, rate, t_power in self.terms:
            x = abs(rate) * window
            if x:
                order = TAYLOR_DEGREE - t_power
                tail = x ** (order + 1) / _FACTORIAL[order + 1]
                tail /= 1.0 - x / (order + 2)
                bound += abs(amplitude) * (window ** t_power) * tail
        return bound

    def bernstein(self, coeffs: list[float], window: float) -> tuple[list[float], float]:
        """Bernstein coefficients of ``coeffs`` on ``[0, window]``, and their
        rounding allowance.

        ``coeffs`` is :meth:`taylor`. On ``[0, window]`` the model lies within
        the remainder bound plus the allowance of that polynomial; the
        allowance covers the rounding of the model and of the form. Raises
        :class:`RangeLostInRounding` when scaling to the window overflows.
        """
        # Plain floats: 13 products cost less than numpy's call overhead,
        # and an overflow becomes inf or nan here without a warning. A zero
        # coefficient stays zero even where the window's power overflows.
        scaled = []
        size = 0.0
        power = 1.0
        for c in coeffs:
            c = c * power if c else 0.0
            scaled.append(c)
            size += abs(c)
            power *= window
        if not math.isfinite(size):
            raise RangeLostInRounding(
                f"the separation model overflows when scaled to a {window:.6g} s trust window")
        for amplitude, _, _, t_power in self.terms:
            size += abs(amplitude) * window ** t_power
        # ndarray.dot is the same dgemv call as the @ operator, with less
        # dispatch around it: the same bits under every OpenBLAS kernel.
        return _BERNSTEIN.dot(scaled).tolist(), _ROUNDING * size


def _gap_parts(dx: float, dy: float) -> tuple[float, float, float, float, float]:
    """Absolute centre gaps, their signs, and the gap angle of the gap/sign form.

    For a planar offset (dx, dy) between two reference points, returns
    ``(a, b, sign1, sign2, alpha)``: ``a = |dx|``, ``b = |dy|``,
    ``sign1 = dx/a``, ``sign2 = dy/b`` and ``alpha = acos(a / sqrt(a^2 + b^2))``.
    A zero gap takes sign +1; the corresponding term carries a zero factor,
    so the choice is a removable singularity (verified against the direct
    expansion in the tests).
    """
    a = abs(dx)
    b = abs(dy)
    return a, b, -1.0 if dx < 0.0 else 1.0, -1.0 if dy < 0.0 else 1.0, math.atan2(b, a)


def _curve_pair_model(c1: CurveTrajectory, c2: CurveTrajectory) -> SquaredDistance:
    a, b, sign1, sign2, alpha = _gap_parts(c1.center_x - c2.center_x, c1.center_y - c2.center_y)
    gap = math.hypot(a, b)
    beta = sign1 * sign2 * alpha
    q0 = gap * gap + c1.radius**2 + c2.radius**2
    terms = [(-2.0 * c1.radius * c2.radius, c1.initial_phase - c2.initial_phase,
              c1.omega - c2.omega, 0)]
    if gap > 0.0:
        scale = 2.0 * sign1 * gap
        terms.append((scale * c1.radius, c1.initial_phase - beta, c1.omega, 0))
        terms.append((-scale * c2.radius, c2.initial_phase - beta, c2.omega, 0))
    return SquaredDistance((q0, 0.0, 0.0), tuple(terms))


def _curve_straight_model(c: CurveTrajectory, s: StraightTrajectory) -> SquaredDistance:
    # Gaps measured from the straight flyer's origin to the turn center.
    a, b, sign1, sign2, alpha = _gap_parts(c.center_x - s.origin_x, c.center_y - s.origin_y)
    gap = math.hypot(a, b)
    beta = sign1 * sign2 * alpha
    q0 = gap * gap + c.radius**2
    q1 = -2.0 * sign1 * s.speed * gap * math.cos(s.heading - beta)
    q2 = s.speed**2
    terms = []
    if gap > 0.0:
        terms.append((2.0 * sign1 * c.radius * gap, c.initial_phase - beta, c.omega, 0))
    if s.speed > 0.0:
        terms.append((-2.0 * c.radius * s.speed, c.initial_phase - s.heading, c.omega, 1))
    return SquaredDistance((q0, q1, q2), tuple(terms))


def _straight_pair_model(s1: StraightTrajectory, s2: StraightTrajectory) -> SquaredDistance:
    dx = s1.origin_x - s2.origin_x
    dy = s1.origin_y - s2.origin_y
    h1, h2 = s1.heading, s2.heading
    v1, v2 = s1.speed, s2.speed
    q0 = dx * dx + dy * dy
    q1 = (2.0 * v1 * (dx * math.cos(h1) + dy * math.sin(h1))
          - 2.0 * v2 * (dx * math.cos(h2) + dy * math.sin(h2)))
    q2 = v1 * v1 + v2 * v2 - 2.0 * v1 * v2 * math.cos(h1 - h2)
    return SquaredDistance((q0, q1, q2), ())


def _to_shared_epoch(traj_a: Trajectory, traj_b: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Re-anchor both trajectories at the later of their epochs."""
    if traj_a.epoch == traj_b.epoch:
        return traj_a, traj_b
    epoch = max(traj_a.epoch, traj_b.epoch)
    return re_anchor(traj_a, epoch), re_anchor(traj_b, epoch)


def squared_link_distance(traj_a: Trajectory, traj_b: Trajectory) -> SquaredDistance:
    """Exact squared planar separation, as a callable model of elapsed time.

    ``t`` counts seconds from the pair's shared epoch; if the anchors differ,
    both trajectories are first re-anchored at the later epoch. Altitude is
    ignored: each UAV holds a fixed unique altitude and the vertical gap is
    treated as negligible against the planar separation.
    """
    a, b = _to_shared_epoch(traj_a, traj_b)
    a_curve = isinstance(a, CurveTrajectory)
    b_curve = isinstance(b, CurveTrajectory)
    if a_curve and b_curve:
        return _curve_pair_model(a, b)
    if a_curve:
        return _curve_straight_model(a, b)
    if b_curve:
        return _curve_straight_model(b, a)
    return _straight_pair_model(a, b)


def trust_window(model: SquaredDistance,
                 cap: float = math.inf) -> tuple[float, list[float], float]:
    """Certified window [0, W] on which the expansion is relatively accurate,
    with the expansion's Bernstein coefficients on it and their margin.

    Starts from a quarter period of the fastest sinusoid (which keeps every
    argument at or below pi/2, including the difference-rate term of case A)
    and halves, down to 1/4096 of that start, until an analytic remainder
    bound is small against a lower bound on the separation over the window:
    the smallest Bernstein coefficient of the expansion minus the margin,
    which is the remainder bound plus the rounding allowance. That lower
    bound is at most the first coefficient, the expansion's value at 0, so
    above the smallest window a remainder bound that fails the test against
    that value halves the window without building its form. A window whose
    scaling overflows bounds nothing and is halved; if the smallest window
    still overflows, :class:`RangeLostInRounding` is raised. A model with no
    sinusoid, or only constant ones, trusts the whole ``cap``.
    """
    rate = model.max_rate()
    window = min(cap, (math.pi / 2.0) / rate) if rate else cap
    floor = window / 4096.0 if rate else window
    coeffs = model.taylor()
    # The form's smallest coefficient less the margin is at most b_0 = coeffs[0].
    hopeless = 0.25 * TRUST_REL_ERROR * max(coeffs[0], 1e-12)
    while True:
        bound = model.remainder_bound(window)
        if bound > hopeless and window > floor:
            window *= 0.5
            continue
        try:
            bernstein, rounding = model.bernstein(coeffs, window)
        except RangeLostInRounding:
            if window <= floor:
                raise
        else:
            margin = bound + rounding
            smallest = min(bernstein) - margin
            if window <= floor or bound <= 0.25 * TRUST_REL_ERROR * max(smallest, 1e-12):
                return window, bernstein, margin
        window *= 0.5


# ---------------------------------------------------------------------------
# Root selection
# ---------------------------------------------------------------------------


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method (Brent 1973, ch. 4).

    ``fa`` and ``fb`` are ``f(xa)`` and ``f(xb)``, which the caller has
    already evaluated. A line-by-line port of scipy's ``brentq.c``, so every
    iterate, and the root, equals ``scipy.optimize.brentq``'s bit for bit;
    scipy evaluates the two ends itself. It stops when ``f`` is 0 or the
    bracket is narrower than ``xtol + rtol * |x|``. Raises ValueError when
    the ends have the same sign or ``f`` returns NaN, and RuntimeError after
    ``maxiter`` iterations without convergence.

    ``f`` is called once per iterate. Where ``f`` is monotone on the
    bracket, the root is the last or the next-to-last point ``f`` was called
    at (an end counting as called), so an evaluator that remembers two
    points, as :meth:`SquaredDistance.evaluator` does, hands the walk's
    residual its value without evaluating it again.
    """
    xpre, xcur = xa, xb
    fpre, fcur = fa, fb
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError(f"f is NaN at an end of [{xa}, {xb}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    # The loop calls no builtin: a magnitude is ``x if x >= 0.0 else -x``,
    # ``|x| < d`` is ``-d < x < d`` and ``y < min(a, b)`` is ``y < a and y < b``.
    # Each has abs's and min's outcome, -0.0 included, since no f value in
    # it is NaN and every x is finite.
    for _ in range(maxiter):
        # For non-zero values "< 0" is scipy's signbit test.
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if (fblk if fblk >= 0.0 else -fblk) < (fcur if fcur >= 0.0 else -fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * (xcur if xcur >= 0.0 else -xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or -delta < sbis < delta:
            return xcur
        if (spre > delta or spre < -delta) and (
                (fcur if fcur >= 0.0 else -fcur) < (fpre if fpre >= 0.0 else -fpre)):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            step = 2 * (stry if stry >= 0.0 else -stry)
            if step < (spre if spre >= 0.0 else -spre) and step < 3 * (
                    sbis if sbis >= 0.0 else -sbis) - delta:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if (scur > delta or scur < -delta) else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"f is NaN at x={xcur}")
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations; last x={xcur}")


def select_root(pieces, exact_dist, tx_range: float):
    """The break time in a window searched into ``pieces``, or None.

    ``pieces`` are :func:`find_real_roots` pieces of a window that starts
    at 0, and ``exact_dist`` maps time to the exact squared separation. A
    window that starts on or beyond the range circle breaks at 0. Otherwise
    the first piece where the separation is inside the range at its start
    and not inside at its end brackets the break (a link break, not a link
    formation), which :func:`_brentq` refines against the exact separation.
    Its iterates must equal ``scipy.optimize.brentq``'s bit for bit, since
    the golden digests record every break time. An end exactly on the
    circle counts as not inside, so a break at a piece's or a window's edge
    is not lost between two pieces. It only brackets and refines: whether
    the break sits on the range circle is :func:`walk`'s to judge.

    It asks ``exact_dist`` once per point: a piece's start is the end of
    the piece before it, whose value it keeps. The walk passes the window's
    :meth:`SquaredDistance.evaluator`, which already holds ``D^2(0)`` from
    the link-up check in a first window from 0; any callable will do.
    """
    if tx_range <= 0.0:
        raise ValueError(f"transmission range must be positive, got {tx_range}")
    r2 = tx_range * tx_range

    def f(t):
        return exact_dist(t) - r2

    end = f_end = None
    for lo, hi in pieces:
        f_lo = f_end if lo == end else f(lo)
        if lo == 0.0 and f_lo >= 0.0:
            return 0.0
        end, f_end = hi, f(hi)
        if f_lo < 0.0 <= f_end:
            return float(_brentq(f, lo, hi, f_lo, f_end, _ROOT_XTOL, _ROOT_RTOL))
    return None


# ---------------------------------------------------------------------------
# LLT computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LltResult:
    """Outcome of a link-lifetime computation.

    ``llt`` is the predicted remaining lifetime in seconds measured from the
    pair's shared epoch: the break time. ``residual`` is the exact
    separation's distance from the range circle at the break, in metres.
    When no break is found by the horizon, ``horizon_capped`` is set and
    ``llt`` equals the horizon (the lifetime is at least that); ``residual``
    is then None.
    """

    llt: float
    case_used: str
    residual: float | None
    horizon_capped: bool


def _canonical_key(traj: Trajectory):
    if isinstance(traj, CurveTrajectory):
        return (0, traj.center_x, traj.center_y, traj.radius, traj.speed,
                float(traj.direction), traj.initial_phase, traj.altitude)
    return (1, traj.origin_x, traj.origin_y, traj.heading, traj.speed, traj.altitude)


def _unbounded(case: str, horizon: float) -> LltResult:
    return LltResult(llt=horizon, case_used=case, residual=None, horizon_capped=True)


def _bounded(case: str, llt: float, residual: float) -> LltResult:
    return LltResult(llt=llt, case_used=case, residual=residual, horizon_capped=False)


def _residual(exact_dist, t: float, tx_range: float) -> float:
    """Distance of the separation at ``t`` from the range circle, in metres;
    ``exact_dist`` maps time to the exact squared separation."""
    return abs(math.sqrt(max(exact_dist(t), 0.0)) - tx_range)


def _solve_case_c(model: SquaredDistance, exact, tx_range: float, horizon: float) -> LltResult:
    """The closed-form break of a case-C ``model``, whose :meth:`~SquaredDistance.evaluator`
    ``exact`` gives the residual."""
    q0, q1, q2 = model.quadratic
    c = min(q0 - tx_range * tx_range, 0.0)  # at most on the range circle at t=0
    if q2 <= 0.0:
        # Equal velocity vectors: constant separation, never a break.
        if q1 > 0.0 and c < 0.0:
            root = -c / q1
            if root <= horizon:
                return _bounded("C", root, _residual(exact, root, tx_range))
        return _unbounded("C", horizon)
    disc = q1 * q1 - 4.0 * q2 * c
    root = (-q1 + math.sqrt(max(disc, 0.0))) / (2.0 * q2)
    root = max(root, 0.0)
    if root > horizon:
        return _unbounded("C", horizon)
    return _bounded("C", root, _residual(exact, root, tx_range))


def _no_break_arc(flyer: CurveTrajectory, other: CurveTrajectory,
                  tx_range: float) -> tuple[float, float]:
    """``(half, toward)``: the pair cannot break while ``flyer``'s phase is
    within ``half`` of ``toward``, the direction of the other centre from its
    own. ``half`` is ``inf`` for the whole circle and negative for no arc;
    it is shrunk for the rounding of ``kappa`` only (see :func:`_arc_exit`)."""
    reach = tx_range - other.radius
    if reach <= 0.0:
        return -1.0, 0.0
    dx = other.center_x - flyer.center_x
    dy = other.center_y - flyer.center_y
    gap = math.hypot(dx, dy)
    squares = (reach * reach, gap * gap, flyer.radius * flyer.radius)
    excess = (squares[0] - squares[1] - squares[2]
              - _BRACKET_SHRINK * (squares[0] + squares[1] + squares[2]))
    width = 2.0 * gap * flyer.radius
    if excess >= width:
        return math.inf, 0.0
    if excess < -width:
        return -1.0, 0.0
    return math.acos(-excess / width), math.atan2(dy, dx)


def _no_break_arcs(c1: CurveTrajectory, c2: CurveTrajectory, tx_range: float):
    """Both flyers' :func:`_no_break_arc`, or None when either is the whole
    circle. Re-anchoring moves neither centre nor radius, so a walk asks once."""
    arcs = (_no_break_arc(c1, c2, tx_range), _no_break_arc(c2, c1, tx_range))
    return None if math.inf in (arcs[0][0], arcs[1][0]) else arcs


def _arc_exit(c1: CurveTrajectory, c2: CurveTrajectory, arcs, t: float, span: float) -> float:
    """Offset from the pair's anchor, at or after ``t``, before which two
    curve flyers, whose :func:`_no_break_arcs` are ``arcs``, cannot break
    unless they can at ``t``: ``t``, a later time, or ``inf``. ``span`` is
    the time the walk has left; an offset at or beyond it caps the pair.

    A curve flyer stays on its circle, so ``D(t) <= rho1(t) + R2``, where
    ``rho1`` is flyer 1's distance from centre 2. With ``g`` the centres'
    gap and ``u1`` flyer 1's phase less the direction of centre 2 from
    centre 1, ``rho1^2 = g^2 + R1^2 - 2 g R1 cos(u1)``, so no break comes
    while ``cos(u1) >= -kappa``, ``kappa = ((r - R2)^2 - g^2 - R1^2) / (2 g R1)``:
    on an arc ``|u1| <= acos(-kappa)`` of flyer 1's phase, which comes round
    every ``2 pi / |omega1|``. It is the whole circle when
    ``g + R1 + R2 <= r`` (``inf``: the pair never breaks) and empty when
    ``R2 >= r``; concentric circles (``g = 0``) have one or the other.
    Flyer 2 has the mirror arc. The offset is the first instant from ``t``
    on at which neither flyer is on its arc. A flyer on its arc at ``t``
    leaves it at ``t + (acos(-kappa) - sign(omega) u) / |omega|``, so the
    search steps from exit to exit of the two flyers in turn, each step
    moving forward, and stops at ``span``.

    Each arc is shrunk at both ends, twice. The numerator of ``kappa`` is
    formed from ``r - R2``, ``g`` (a ``hypot`` of two rounded differences)
    and ``R1``, each within a few ulps, so it is off by a few ulps of
    ``S = (r - R2)^2 + g^2 + R1^2`` at most. Taking :data:`_BRACKET_SHRINK`
    ``* S`` off it covers that, and since ``S >= 2 g R1`` it also covers the
    few ulps that the division adds: the computed ``kappa`` is below the
    true one. A step from ``t`` then cuts ``acos(-kappa)`` by
    :data:`_BRACKET_SHRINK` ``* (4 pi + |omega| t)``, which covers a few
    ulps of every angle the step rests on: the results of ``acos`` and
    ``atan2`` (the rounded differences turn the gap's direction by an ulp
    at most), the phase ``phi + omega t`` with ``|phi| <= pi``, its
    reduction by ``2 pi``, and the division and sum that turn the angle left
    on the arc (at most ``2 pi``) into an exit at most a turn after ``t``.
    The true phase is thus still on the true arc at a computed exit, and it
    crosses the arc monotonically up to there.
    """
    if arcs is None:
        return math.inf
    flyers = (c1, c2)
    settled = k = 0  # flyers in a row found off their arcs at t
    while settled < 2 and t < span:
        flyer = flyers[k]
        half, toward = arcs[k]
        rate = abs(flyer.omega)
        half -= _BRACKET_SHRINK * (2.0 * TWO_PI + rate * t)
        u = math.remainder(flyer.initial_phase + flyer.omega * t - toward, TWO_PI)
        end = t
        if abs(u) <= half:
            end += (half - u if flyer.omega > 0.0 else half + u) / rate
        settled = 1 if end > t else settled + 1
        t = end
        k = 1 - k
    return t


def _walk_start(curve: CurveTrajectory, straight: StraightTrajectory, tx_range: float) -> float:
    """Offset from the pair's anchor before which a curve/straight pair
    cannot break: 0, a time, or ``inf``.

    A curve flyer stays on its circle, so ``D(t) <= rho(t) + R``, where
    ``rho(t) = |d + v*t*u|`` is the straight flyer's distance from the
    centre (``d`` its origin less the centre, ``u`` its heading). No break
    comes before ``t1``, the larger root of
    ``v^2 t^2 + 2 v t (d.u) + |d|^2 = (r - R)^2``: 0 when ``R >= r`` or
    ``rho(0) > r - R``, ``inf`` for a parked flyer inside ``r - R``. ``rho``
    grows past ``t1``, so a walk asks once.

    ``rho`` is the norm of an affine function of ``t``, so it is convex and
    at most ``max(rho(0), rho(t1))`` on ``[0, t1]``. The computed root is
    the exact one for inputs perturbed by a few ulps, all of size at most
    ``2 (r - R)``, so the true ``rho`` there exceeds the reach it was solved
    for by a few ulps of ``r - R`` at most; shrinking ``r - R`` by
    :data:`_BRACKET_SHRINK` covers them, and shrinking ``t1`` by as much
    covers the rounding of the root formula.
    """
    reach = (tx_range - curve.radius) * (1.0 - _BRACKET_SHRINK)
    dx = straight.origin_x - curve.center_x
    dy = straight.origin_y - curve.center_y
    rho = math.hypot(dx, dy)
    if reach <= 0.0 or rho > reach:
        return 0.0
    if straight.speed == 0.0:
        return math.inf
    along = dx * math.cos(straight.heading) + dy * math.sin(straight.heading)
    inside = (rho - reach) * (rho + reach)  # |d|^2 - reach^2 <= 0
    root = math.sqrt(along * along - inside)
    # The larger root, in the form without cancellation.
    if along <= 0.0:
        t1 = (root - along) / straight.speed
    else:
        t1 = -inside / (straight.speed * (root + along))
    return t1 * (1.0 - _BRACKET_SHRINK)


def _no_break_until(traj_a: Trajectory, traj_b: Trajectory, tx_range: float, t: float,
                    span: float, arcs, motions, min_step: float) -> float:
    """Offset from the pair's anchor, at or after ``t``, before which the
    pair cannot break unless it can at ``t``: ``t`` moved on by certified
    speed steps and, for case A, past the no-break arcs ``arcs`` (None for
    case B), until neither moves it. ``motions`` are both UAVs'
    :func:`~uavllt.kinematics.speed_and_size` up to the horizon, ``span``
    is the time the walk has left, and an offset at or beyond it caps the
    pair.

    A speed step is :func:`~uavllt.kinematics.contact_span` from the
    separation that :func:`~uavllt.kinematics.planar_xy` and
    :func:`math.hypot` give at the current offset, the certificate the
    simulator's contact certificates rest on: no break comes within it. It
    is taken while it spans at least ``min_step``, and never from a
    separation beyond the range, where the certificate holds the pair out of
    range instead.
    """
    while t < span:
        xa, ya = planar_xy(traj_a, t)
        xb, yb = planar_xy(traj_b, t)
        separation = math.hypot(xa - xb, ya - yb)
        if separation <= tx_range:
            step = contact_span(separation, tx_range, *motions)
            if step >= min_step:
                t += step
                continue
        if arcs is None:
            break
        exit_ = _arc_exit(traj_a, traj_b, arcs, t, span)
        if exit_ == t:
            break
        t = exit_
    return t


def compute_llt(
    traj_a: Trajectory,
    traj_b: Trajectory,
    tx_range: float,
    horizon: float = DEFAULT_HORIZON,
) -> LltResult:
    """Predicted remaining link lifetime of a UAV pair: the last item of :func:`walk`.

    Re-anchors both trajectories at the later epoch, so ``llt`` counts
    seconds from that instant. Requires the link to be up (planar
    separation at most ``tx_range``); raises :class:`LinkNotUp` otherwise. ``tx_range`` and
    ``horizon`` must be positive and finite; :class:`ValueError` otherwise.
    Raises :class:`RangeLostInRounding` (a :class:`ValueError`) for a pair
    whose separation model is too large to resolve the range.

    Straight/straight pairs are solved exactly; curve cases run the
    expand/subdivide/refine pipeline over successive trust windows, with the
    skips the module docstring describes. A bounded result's break sits on
    the range circle to within 1% of the range (far tighter in practice,
    since breaks are refined against the exact separation); if no break is
    found by ``horizon`` the result is marked ``horizon_capped``.
    """
    return deque(walk(traj_a, traj_b, tx_range, horizon), maxlen=1).pop()


class Window(NamedTuple):
    """One trust window that :func:`walk` searched.

    It starts ``t_base`` seconds after the pair's epoch, and ``model`` is the
    separation re-anchored there. It ends where the next window starts,
    unless the walk skips the span between them on speed steps or case A's
    arcs. ``width``, ``bernstein`` and ``margin`` are what
    :func:`trust_window` returned for it. ``pieces`` are what
    :func:`find_real_roots` kept of it, none when the window is excluded
    whole, and ``pick`` is :func:`select_root`'s break in it, or None.
    """

    t_base: float
    model: SquaredDistance
    width: float
    bernstein: list
    margin: float
    pieces: list
    pick: float | None


def walk(traj_a: Trajectory, traj_b: Trajectory, tx_range: float, horizon: float):
    """:func:`compute_llt` step by step: a :class:`Window` for each trust
    window it searches, in order, then its :class:`LltResult`.

    Each window starts where the last one ends or where the walk skips to,
    :func:`_no_break_until` from there: speed steps, and for a case-A pair
    the no-break arcs, which the walk computes once, since re-anchoring
    moves neither centre nor radius. A case-B walk first skips to
    :func:`_walk_start`, and a case-A walk to :func:`_arc_exit` from 0.
    However far it skips, the walk re-anchors both trajectories once per
    window.

    At each window the walk asks :func:`squared_link_distance`,
    :func:`trust_window`, :func:`find_real_roots` and :func:`select_root`
    through this module's names, one call each. Only a walk that starts at
    0 builds the model of the link-up check, which raises
    :class:`LinkNotUp`, and its first window reuses it unless the walk steps
    away from 0. A walk that skips at 0 builds none, since what lets it skip
    certifies ``D(0) < r``, so the check cannot fire there: for case A a
    flyer on its shrunk no-break arc at 0, or a reach over the whole circle;
    for case B ``rho(0) <= (r - R)(1 - 1e-9)``, so ``D(0) <= rho(0) + R < r``.
    Nothing is kept from one call to the next.

    With each model the walk builds its :meth:`~SquaredDistance.evaluator`,
    the one exact evaluator of that window: the link-up check, the window's
    :func:`select_root` and the residual all ask it, and it answers a point
    it has just evaluated from memory, so each point is evaluated once (see
    the module docstring). The walk computes each pick's residual once,
    before it yields the window: beyond :data:`RANGE_RESIDUAL_RTOL` of the
    range it raises :class:`RangeLostInRounding`, otherwise the result
    carries it.

    Raises as :func:`compute_llt` does, once iterated. A case-C pair, a pair
    answered before any window is sized and a separation identically on the
    range circle yield the result alone.
    """
    for name, value in (("transmission range", tx_range), ("horizon", horizon)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    traj_a, traj_b = _to_shared_epoch(traj_a, traj_b)
    # Canonical argument order makes the result exactly symmetric in the pair.
    if _canonical_key(traj_b) < _canonical_key(traj_a):
        traj_a, traj_b = traj_b, traj_a

    r2 = tx_range * tx_range
    t_base = 0.0
    # The canonical order puts a curve first.
    if isinstance(traj_b, CurveTrajectory):
        case = "A"
        arcs = _no_break_arcs(traj_a, traj_b, tx_range)
        offset = _arc_exit(traj_a, traj_b, arcs, 0.0, horizon)
        rate = max(abs(traj_a.omega), abs(traj_b.omega), abs(traj_a.omega - traj_b.omega))
    elif isinstance(traj_a, CurveTrajectory):
        case = "B"
        arcs = None
        offset = _walk_start(traj_a, traj_b, tx_range)
        rate = abs(traj_a.omega)
    else:
        case = "C"
        offset = 0.0
    if offset == 0.0:
        model = squared_link_distance(traj_a, traj_b)
        exact = model.evaluator()
        d0_sq = exact(0.0)
        if d0_sq > r2 * (1.0 + 1e-12):
            raise LinkNotUp(
                f"initial separation {math.sqrt(d0_sq):.3f} m exceeds range {tx_range:.3f} m"
            )
        if case == "C":
            yield _solve_case_c(model, exact, tx_range, horizon)
            return
        if d0_sq < 0.0:
            raise RangeLostInRounding(
                f"the separation model rounds to {d0_sq:.3g} m^2 at link-up: the range is lost"
                " in the rounding of its terms")
    motions = (speed_and_size(traj_a, horizon), speed_and_size(traj_b, horizon))
    # The rates above are those of the model's sinusoids, so this is where
    # trust_window starts from without building a model to ask.
    nominal = (math.pi / 2.0) / rate if rate else horizon
    # From 0, step only where the link-up check's separation promises a
    # whole nominal window: a break in the first window then costs nothing.
    steps = offset > 0.0 or tx_range - math.sqrt(d0_sq) >= (
        motions[0][0] + motions[1][0]) * nominal
    while True:
        if steps:
            offset = _no_break_until(traj_a, traj_b, tx_range, offset, horizon - t_base, arcs,
                                     motions, _MIN_STEP_SHARE * nominal)
        if offset > 0.0:
            t_base += offset
            if t_base >= horizon * (1.0 - 1e-12):
                break
            traj_a = re_anchor(traj_a, traj_a.epoch + offset)
            traj_b = re_anchor(traj_b, traj_b.epoch + offset)
            model = squared_link_distance(traj_a, traj_b)
            exact = model.evaluator()
        window, bernstein, margin = trust_window(model, cap=horizon - t_base)
        shifted = [b - r2 for b in bernstein]
        if not any(shifted):
            break  # separation identically equal to the range: never exceeds
        pieces = find_real_roots(shifted, margin + _ROUNDING * r2, window)
        pick = select_root(pieces, exact, tx_range)
        if pick is not None:
            residual = _residual(exact, pick, tx_range)
            if residual > RANGE_RESIDUAL_RTOL * tx_range:
                raise RangeLostInRounding(
                    f"the separation model crosses the {tx_range:g} m range at {pick:.6g} s, but"
                    " no crossing sits on the range circle: the range is lost in the rounding of"
                    " its terms")
        yield Window(t_base, model, window, bernstein, margin, pieces, pick)
        if pick is not None:
            total = t_base + pick
            if total > horizon:
                yield _unbounded(case, horizon)
            else:
                yield _bounded(case, total, residual)
            return
        offset = window
        steps = True
    yield _unbounded(case, horizon)
