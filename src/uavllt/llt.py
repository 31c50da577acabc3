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
break is found or the horizon is reached. The windows tile the
horizon, so each one is searched on ``[0, W]`` only. :func:`walk` is that
search: it yields each window it searches as a :class:`Window`, then the
result, which :func:`compute_llt` returns.

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
the remainder bound too, and no sampled safety net is needed.

A walk starts where a break first becomes possible (:func:`_walk_start`).
A curve flyer stays on its circle. Two curve flyers are never farther apart
than their centres' gap plus both radii, so a range beyond that answers the
pair at once, and any other case-A walk starts at 0. For a curve/straight
pair (case B), by the triangle inequality the separation is at most
``rho(t) + R``, where ``rho(t)`` is the straight flyer's distance from the
turn centre and ``rho^2`` is a quadratic in time. No break comes before
``rho`` first exceeds ``r - R``, at a closed-form instant ``t1``, and both
UAVs are re-anchored there before the first window is sized. A rounding
allowance on the reach and on ``t1`` keeps the skip certified in floating
point, and a ``t1`` at or beyond the horizon answers the pair at once.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .kinematics import CurveTrajectory, StraightTrajectory, Trajectory, re_anchor

# Degree of the Taylor expansion of every sinusoid.
TAYLOR_DEGREE = 12
DEFAULT_HORIZON = 3600.0
# Target relative accuracy of the Taylor polynomial inside a trust window.
TRUST_REL_ERROR = 1e-6
# A bounded result must sit on the range circle to within this fraction.
RANGE_RESIDUAL_RTOL = 0.01
# brentq's tolerances on the break time; find_real_roots splits no piece
# narrower than they resolve.
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
# Allowance for rounding in a window's Bernstein form, relative to the size
# of the model's terms and of r^2: the model's parameters, its exact
# evaluation, the scaling, the basis change, the subtraction of r^2 and the
# splits each round by a few units in the last place.
_ROUNDING = 64.0 * sys.float_info.epsilon
# Relative shrink of the case-B bracket's reach r - R and of its start t1,
# far above the few ulps of rounding it covers (see _walk_start).
_BRACKET_SHRINK = 1e-9
# Change of basis from the power basis on [0, 1] to the Bernstein basis of
# degree TAYLOR_DEGREE: b_i = sum_k C(i, k) / C(n, k) * a_k.
_BERNSTEIN = np.array([[math.comb(i, k) / math.comb(TAYLOR_DEGREE, k)
                        for k in range(TAYLOR_DEGREE + 1)]
                       for i in range(TAYLOR_DEGREE + 1)])


class LinkNotUp(RuntimeError):
    """The pair is already farther apart than the transmission range."""


class RangeLostInRounding(ValueError):
    """The separation model's terms are so large that the range is lost in
    their rounding: the model leaves range in a window, but off the range
    circle, or its expansion overflows when scaled to the window."""


# ---------------------------------------------------------------------------
# Case geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseGeometry:
    """Absolute center gaps, their signs, and the gap angle.

    For a planar offset (dx, dy) between two reference points:
    ``a = |dx|``, ``b = |dy|``, ``sign1 = dx/a``, ``sign2 = dy/b`` and
    ``alpha = acos(a / sqrt(a^2 + b^2))``. A zero gap takes sign +1; the
    corresponding term carries a zero factor, so the choice is a removable
    singularity (verified against the direct expansion in the tests).
    """

    a: float
    b: float
    sign1: float
    sign2: float
    alpha: float

    @property
    def gap(self) -> float:
        """sqrt(a^2 + b^2), the planar distance between the reference points."""
        return math.hypot(self.a, self.b)

    @property
    def cross_sign(self) -> float:
        return self.sign1 * self.sign2


def case_geometry(dx: float, dy: float) -> CaseGeometry:
    a = abs(dx)
    b = abs(dy)
    sign1 = -1.0 if dx < 0.0 else 1.0
    sign2 = -1.0 if dy < 0.0 else 1.0
    return CaseGeometry(a, b, sign1, sign2, math.atan2(b, a))


# ---------------------------------------------------------------------------
# Bernstein subdivision
# ---------------------------------------------------------------------------


def _sign_changes(coeffs) -> int:
    """Sign changes along ``coeffs``, zeros ignored."""
    signs = [c > 0.0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


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
    is a piece that brentq's tolerances no longer resolve. Touching pieces
    share their common end exactly.
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


@dataclass(frozen=True)
class TrigTerm:
    """One sinusoid ``amplitude * t^t_power * cos(phase + rate * t)``."""

    amplitude: float
    phase: float
    rate: float
    t_power: int = 0

    def taylor_coefficients(self) -> list[float]:
        """Ascending coefficients of the expansion about t=0."""
        out = [0.0] * (TAYLOR_DEGREE + 1)
        order = TAYLOR_DEGREE - self.t_power
        # d^k/dt^k cos(phase + rate*t) at 0 cycles through +-cos/sin(phase)
        cycle = (
            math.cos(self.phase),
            -math.sin(self.phase),
            -math.cos(self.phase),
            math.sin(self.phase),
        )
        rate_pow = 1.0
        fact = 1.0
        for k in range(order + 1):
            if k > 0:
                rate_pow *= self.rate
                fact *= k
            out[k + self.t_power] = self.amplitude * cycle[k % 4] * rate_pow / fact
        return out

    def remainder_bound(self, window: float) -> float:
        """Upper bound on the truncation error over ``[0, window]``.

        Requires ``abs(rate) * window < TAYLOR_DEGREE - t_power + 2``, where
        the tail of the series is bounded by a geometric one. Every trust
        window meets it: it starts at a quarter period of the fastest
        sinusoid, so each argument stays at or below pi/2.
        """
        order = TAYLOR_DEGREE - self.t_power
        x = abs(self.rate) * window
        if x == 0.0:
            return 0.0
        tail = x ** (order + 1) / math.factorial(order + 1)
        tail /= 1.0 - x / (order + 2)
        return abs(self.amplitude) * (window ** self.t_power) * tail


@dataclass(frozen=True)
class SquaredDistance:
    """Exact squared planar separation of a UAV pair as a function of time.

    ``quadratic`` holds (q0, q1, q2); ``terms`` the sinusoids. Calling the
    model at one time value evaluates the exact (non-expanded) function; no
    Taylor error here.
    """

    quadratic: tuple[float, float, float]
    terms: tuple[TrigTerm, ...]
    case_label: str

    def __call__(self, t: float) -> float:
        q0, q1, q2 = self.quadratic
        value = q0 + t * (q1 + t * q2)
        for term in self.terms:
            value += term.amplitude * math.cos(term.phase + term.rate * t) * t ** term.t_power
        return value

    def taylor(self) -> list[float]:
        """Ascending coefficients of the Taylor polynomial about t=0.

        The list always has ``TAYLOR_DEGREE + 1`` entries. The quadratic
        part is carried exactly, so for case C the polynomial is exact.
        """
        coeffs = [*self.quadratic] + [0.0] * (TAYLOR_DEGREE - 2)
        for term in self.terms:
            coeffs = [c + d for c, d in zip(coeffs, term.taylor_coefficients())]
        return coeffs

    def max_rate(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(term.rate) for term in self.terms)

    def remainder_bound(self, window: float) -> float:
        return sum(term.remainder_bound(window) for term in self.terms)

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
        power = 1.0
        for c in coeffs:
            scaled.append(c * power if c else 0.0)
            power *= window
        size = sum(map(abs, scaled))
        if not math.isfinite(size):
            raise RangeLostInRounding(
                f"the separation model overflows when scaled to a {window:.6g} s trust window")
        for term in self.terms:
            size += abs(term.amplitude) * window ** term.t_power
        return (_BERNSTEIN @ scaled).tolist(), _ROUNDING * size


def _curve_pair_model(c1: CurveTrajectory, c2: CurveTrajectory) -> SquaredDistance:
    geom = case_geometry(c1.center_x - c2.center_x, c1.center_y - c2.center_y)
    gap = geom.gap
    beta = geom.cross_sign * geom.alpha
    q0 = gap * gap + c1.radius**2 + c2.radius**2
    terms = [TrigTerm(-2.0 * c1.radius * c2.radius,
                      c1.initial_phase - c2.initial_phase,
                      c1.omega - c2.omega)]
    if gap > 0.0:
        scale = 2.0 * geom.sign1 * gap
        terms.append(TrigTerm(scale * c1.radius, c1.initial_phase - beta, c1.omega))
        terms.append(TrigTerm(-scale * c2.radius, c2.initial_phase - beta, c2.omega))
    return SquaredDistance((q0, 0.0, 0.0), tuple(terms), "A")


def _curve_straight_model(c: CurveTrajectory, s: StraightTrajectory) -> SquaredDistance:
    # Gaps measured from the straight flyer's origin to the turn center.
    geom = case_geometry(c.center_x - s.origin_x, c.center_y - s.origin_y)
    gap = geom.gap
    beta = geom.cross_sign * geom.alpha
    q0 = gap * gap + c.radius**2
    q1 = -2.0 * geom.sign1 * s.speed * gap * math.cos(s.heading - beta)
    q2 = s.speed**2
    terms = []
    if gap > 0.0:
        terms.append(TrigTerm(2.0 * geom.sign1 * c.radius * gap,
                              c.initial_phase - beta, c.omega))
    if s.speed > 0.0:
        terms.append(TrigTerm(-2.0 * c.radius * s.speed,
                              c.initial_phase - s.heading, c.omega, t_power=1))
    return SquaredDistance((q0, q1, q2), tuple(terms), "B")


def _straight_pair_model(s1: StraightTrajectory, s2: StraightTrajectory) -> SquaredDistance:
    dx = s1.origin_x - s2.origin_x
    dy = s1.origin_y - s2.origin_y
    h1, h2 = s1.heading, s2.heading
    v1, v2 = s1.speed, s2.speed
    q0 = dx * dx + dy * dy
    q1 = (2.0 * v1 * (dx * math.cos(h1) + dy * math.sin(h1))
          - 2.0 * v2 * (dx * math.cos(h2) + dy * math.sin(h2)))
    q2 = v1 * v1 + v2 * v2 - 2.0 * v1 * v2 * math.cos(h1 - h2)
    return SquaredDistance((q0, q1, q2), (), "C")


def _to_shared_epoch(traj_a: Trajectory, traj_b: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Re-anchor both trajectories at the later of their epochs."""
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
    which is the remainder bound plus the rounding allowance. A window whose
    scaling overflows bounds nothing and is halved; if the smallest window
    still overflows, :class:`RangeLostInRounding` is raised. A model with no
    sinusoid, or only constant ones, trusts the whole ``cap``.
    """
    rate = model.max_rate()
    window = min(cap, (math.pi / 2.0) / rate) if rate else cap
    floor = window / 4096.0 if rate else window
    coeffs = model.taylor()
    while True:
        bound = model.remainder_bound(window)
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


def select_root(pieces, exact_dist, tx_range: float):
    """The break time in a window searched into ``pieces``, or None.

    ``pieces`` are :func:`find_real_roots` pieces of a window that starts
    at 0, and ``exact_dist`` maps time to the exact squared separation. A
    window that starts on or beyond the range circle breaks at 0. Otherwise
    the first piece where the separation is inside the range at its start
    and not inside at its end brackets the break (a link break, not a link
    formation), which brentq refines against the exact separation. An end
    exactly on the circle counts as not inside, so a break at a piece's or
    a window's edge is not lost between two pieces. Raises
    :class:`RangeLostInRounding` when that crossing is off the range circle.
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
            t = float(brentq(f, lo, hi, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL))
            if not _on_range_circle(exact_dist, t, tx_range):
                raise RangeLostInRounding(
                    f"the separation model crosses the {tx_range:g} m range at {t:.6g} s, but no"
                    " crossing sits on the range circle: the range is lost in the rounding of its"
                    " terms")
            return t
    return None


def _on_range_circle(exact_dist, t: float, tx_range: float) -> bool:
    """True when the separation at ``t`` is the range to within RANGE_RESIDUAL_RTOL."""
    return abs(math.sqrt(max(exact_dist(t), 0.0)) - tx_range) <= RANGE_RESIDUAL_RTOL * tx_range


# ---------------------------------------------------------------------------
# LLT computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LltResult:
    """Outcome of a link-lifetime computation.

    ``llt`` is the predicted remaining lifetime in seconds measured from the
    pair's shared epoch. When no break is found by the horizon,
    ``horizon_capped`` is set and ``llt`` equals the horizon (the lifetime
    is at least that); ``root`` and ``residual`` are then None.
    """

    llt: float
    case_used: str
    root: float | None
    residual: float | None
    horizon_capped: bool


def _canonical_key(traj: Trajectory):
    if isinstance(traj, CurveTrajectory):
        return (0, traj.center_x, traj.center_y, traj.radius, traj.speed,
                float(traj.direction), traj.initial_phase, traj.altitude)
    return (1, traj.origin_x, traj.origin_y, traj.heading, traj.speed, traj.altitude)


def _unbounded(case: str, horizon: float) -> LltResult:
    return LltResult(llt=horizon, case_used=case, root=None, residual=None,
                     horizon_capped=True)


def _bounded(case: str, llt: float, model: SquaredDistance, t: float,
             tx_range: float) -> LltResult:
    """A break ``llt`` seconds from the epoch, found at ``t`` on ``model``."""
    residual = abs(math.sqrt(max(model(t), 0.0)) - tx_range)
    return LltResult(llt=llt, case_used=case, root=llt, residual=residual,
                     horizon_capped=False)


def _solve_case_c(model: SquaredDistance, tx_range: float, horizon: float) -> LltResult:
    q0, q1, q2 = model.quadratic
    c = min(q0 - tx_range * tx_range, 0.0)  # at most on the range circle at t=0
    if q2 <= 0.0:
        # Equal velocity vectors: constant separation, never a break.
        if q1 > 0.0 and c < 0.0:
            root = -c / q1
            if root <= horizon:
                return _bounded("C", root, model, root, tx_range)
        return _unbounded("C", horizon)
    disc = q1 * q1 - 4.0 * q2 * c
    root = (-q1 + math.sqrt(max(disc, 0.0))) / (2.0 * q2)
    root = max(root, 0.0)
    if root > horizon:
        return _unbounded("C", horizon)
    return _bounded("C", root, model, root, tx_range)


def _walk_start(curve: CurveTrajectory, other: Trajectory, tx_range: float) -> float:
    """Offset before which a pair led by a curve flyer cannot break: 0, a
    time, or ``inf``.

    The curve flyer stays on its circle. When ``other`` flies a curve too,
    the separation is at most ``|gap| + R1 + R2``, the gap between the
    centres plus both radii: ``inf`` when that is within the range (less a
    relative 1e-12), 0 otherwise.

    For a straight flyer ``D(t) <= rho(t) + R``, where
    ``rho(t) = |d + v*t*u|`` is the straight flyer's distance from the
    centre (``d`` its origin less the centre, ``u`` its heading). No break
    comes before ``t1``, the larger root of
    ``v^2 t^2 + 2 v t (d.u) + |d|^2 = (r - R)^2``: 0 when ``R >= r`` or
    ``rho(0) > r - R``, ``inf`` for a parked flyer inside ``r - R``.

    ``rho`` is the norm of an affine function of ``t``, so it is convex and
    at most ``max(rho(0), rho(t1))`` on ``[0, t1]``. The computed root is
    the exact one for inputs perturbed by a few ulps, all of size at most
    ``2 (r - R)``, so the true ``rho`` there exceeds the reach it was solved
    for by a few ulps of ``r - R`` at most; shrinking ``r - R`` by
    :data:`_BRACKET_SHRINK` covers them, and shrinking ``t1`` by as much
    covers the rounding of the root formula.
    """
    if isinstance(other, CurveTrajectory):
        gap = math.hypot(curve.center_x - other.center_x, curve.center_y - other.center_y)
        unreachable = gap + curve.radius + other.radius <= tx_range * (1.0 - 1e-12)
        return math.inf if unreachable else 0.0
    reach = (tx_range - curve.radius) * (1.0 - _BRACKET_SHRINK)
    dx = other.origin_x - curve.center_x
    dy = other.origin_y - curve.center_y
    rho = math.hypot(dx, dy)
    if reach <= 0.0 or rho > reach:
        return 0.0
    if other.speed == 0.0:
        return math.inf
    along = dx * math.cos(other.heading) + dy * math.sin(other.heading)
    inside = (rho - reach) * (rho + reach)  # |d|^2 - reach^2 <= 0
    root = math.sqrt(along * along - inside)
    # The larger root, in the form without cancellation.
    if along <= 0.0:
        t1 = (root - along) / other.speed
    else:
        t1 = -inside / (other.speed * (root + along))
    return t1 * (1.0 - _BRACKET_SHRINK)


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

    Straight/straight pairs are solved exactly. Curve cases run the
    expand/subdivide/refine pipeline over successive trust windows, from
    :func:`_walk_start`'s offset, before which the separation cannot reach
    the range: for a curve/straight pair, the first instant the straight
    flyer can be more than ``tx_range - R`` from the turn centre; for two
    curves, 0, or ``inf`` when the range is beyond their reach. An offset at
    or beyond ``horizon`` caps the result before any window is sized. A
    bounded result's ``root`` sits on the range circle to within 1% of the
    range (far tighter in practice, since breaks are refined against the
    exact separation); if no break is found by ``horizon`` the result is marked
    ``horizon_capped``.
    """
    return deque(walk(traj_a, traj_b, tx_range, horizon), maxlen=1).pop()


class Window(NamedTuple):
    """One trust window that :func:`walk` searched.

    It starts ``t_base`` seconds after the pair's epoch, and ``model`` is the
    separation re-anchored there. ``width``, ``bernstein`` and ``margin`` are
    what :func:`trust_window` returned for it. ``pieces`` are what
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

    model = squared_link_distance(traj_a, traj_b)
    case = model.case_label
    d0_sq = model(0.0)
    r2 = tx_range * tx_range
    if d0_sq > r2 * (1.0 + 1e-12):
        raise LinkNotUp(
            f"initial separation {math.sqrt(d0_sq):.3f} m exceeds range {tx_range:.3f} m"
        )

    if case == "C":
        yield _solve_case_c(model, tx_range, horizon)
        return

    # The canonical order puts a curve first.
    t_base = _walk_start(traj_a, traj_b, tx_range)
    if not t_base < horizon:
        yield _unbounded(case, horizon)
        return
    if t_base > 0.0:
        traj_a = re_anchor(traj_a, traj_a.epoch + t_base)
        traj_b = re_anchor(traj_b, traj_b.epoch + t_base)
        model = squared_link_distance(traj_a, traj_b)

    while True:
        window, bernstein, margin = trust_window(model, cap=horizon - t_base)
        shifted = [b - r2 for b in bernstein]
        if not any(shifted):
            break  # separation identically equal to the range: never exceeds
        pieces = find_real_roots(shifted, margin + _ROUNDING * r2, window)
        pick = select_root(pieces, model, tx_range)
        yield Window(t_base, model, window, bernstein, margin, pieces, pick)
        if pick is not None:
            total = t_base + pick
            if total > horizon:
                yield _unbounded(case, horizon)
            else:
                yield _bounded(case, total, model, pick, tx_range)
            return
        t_base += window
        if t_base >= horizon * (1.0 - 1e-12):
            break
        traj_a = re_anchor(traj_a, traj_a.epoch + window)
        traj_b = re_anchor(traj_b, traj_b.epoch + window)
        model = squared_link_distance(traj_a, traj_b)
    yield _unbounded(case, horizon)
