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
:data:`TAYLOR_DEGREE` to obtain a polynomial whose real roots locate
candidate break times. Polynomials are plain float64 numpy arrays of
coefficients in ascending degree, as :mod:`numpy.polynomial.polynomial`
takes them: :meth:`SquaredDistance.taylor` returns one and
:func:`find_real_roots` accepts any such sequence. A
fixed-degree expansion of a cosine is only trustworthy while its argument
stays small, so the expansion is applied piecewise over certified trust
windows: each window is sized from the largest sinusoid rate and shrunk
until a remainder bound guarantees the requested relative accuracy, and the
search re-anchors at the window edge until a break is found or the horizon
is reached. Every polynomial root is polished against the exact
transcendental separation by bracketed root refinement before acceptance,
so the reported break time does not inherit the expansion error; the
polynomial only supplies brackets.

A window in which the link provably cannot break is skipped after it has
been sized, before the expansion is built. The planar separation grows no
faster than the sum of the two speeds, so on ``[0, reach]`` it stays below
``sqrt(D^2(0)) + (v_a + v_b) * reach``, where ``reach`` (:func:`probe_reach`)
is the latest time the root selection would evaluate the separation at.
When that bound, widened by an allowance for rounding, is below the range,
every evaluation the root selection would make returns less than the
squared range: it would accept no root, and the crossing scan would not run.
Skipping such a window therefore leaves every result bit-identical, and the
window sequence is unchanged because every window is still sized and
re-anchored the same way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from .kinematics import CurveTrajectory, StraightTrajectory, Trajectory, re_anchor

# Degree of the Taylor expansion of every sinusoid.
TAYLOR_DEGREE = 12
DEFAULT_HORIZON = 3600.0
# Target relative accuracy of the Taylor polynomial inside a trust window.
TRUST_REL_ERROR = 1e-6
# Root refinement target relative to the polynomial's largest coefficient.
ROOT_RESIDUAL_RTOL = 1e-9
# A bounded result must sit on the range circle to within this fraction.
RANGE_RESIDUAL_RTOL = 0.01
# select_root looks for a break this far past a trust window, as a fraction
# of the window: a root just outside it is still polished, not lost.
TRUST_RADIUS_FACTOR = 1.05
# The window skip's allowance for rounding, relative to the size of the
# model's terms: parameters, evaluation and the test itself each round by a
# few units in the last place.
_SKIP_ROUNDING = 64.0 * sys.float_info.epsilon
# Sample points of trust_window's smallest-separation estimate. Scaling this
# grid and pinning its last point gives np.linspace(0, W, 65) bit for bit.
_TRUST_SAMPLES = 65
_TRUST_GRID = np.arange(float(_TRUST_SAMPLES))


class LinkNotUp(RuntimeError):
    """The pair is already farther apart than the transmission range."""


class ZeroPolynomial(ValueError):
    """Root finding was asked for the identically-zero polynomial."""


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
# Polynomials
# ---------------------------------------------------------------------------


def _horner(coeffs, t: float) -> float:
    """``npoly.polyval(t, coeffs)`` in the same operations on plain floats."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def find_real_roots(coeffs) -> list[float]:
    """All real roots of a polynomial in ascending order, Newton-polished.

    ``coeffs`` holds the coefficients in ascending degree; trailing zeros
    are dropped. Complex-conjugate pairs are dropped (imaginary part beyond
    a small relative threshold); surviving roots are refined on the real
    axis until ``|p(t)| <= 1e-9 * max|coefficient|`` or the step size
    degenerates. A nonzero constant has no roots. Raises
    :class:`ZeroPolynomial` when every coefficient is zero.
    """
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("the zero polynomial has no isolated roots")
    if len(coeffs) == 1:
        return []
    raw = npoly.polyroots(coeffs)
    # The Newton polish runs on plain floats: polyval and polyder on numpy
    # arrays cost more in call overhead than the polynomial's arithmetic.
    dcoeffs = tuple(k * c for k, c in enumerate(coeffs) if k)
    target = ROOT_RESIDUAL_RTOL * max(map(abs, coeffs))

    roots = []
    for z in raw.tolist():
        if abs(z.imag) > 1e-5 * (1.0 + abs(z.real)):
            continue
        t = z.real
        best_t, best_f = t, abs(_horner(coeffs, t))
        for _ in range(60):
            ft = _horner(coeffs, t)
            if abs(ft) < best_f:
                best_t, best_f = t, abs(ft)
            if abs(ft) <= 0.01 * target:
                break
            dt = _horner(dcoeffs, t)
            if dt == 0.0:
                break
            step = ft / dt
            t -= step
            if not math.isfinite(t) or abs(step) <= 1e-16 * (1.0 + abs(t)):
                if math.isfinite(t):
                    ft = _horner(coeffs, t)
                    if abs(ft) < best_f:
                        best_t, best_f = t, abs(ft)
                break
        roots.append(best_t)
    return sorted(roots)


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

    def __call__(self, t):
        value = self.amplitude * np.cos(self.phase + self.rate * np.asarray(t, dtype=float))
        if self.t_power:
            value = value * np.asarray(t, dtype=float) ** self.t_power
        return value

    def taylor_coefficients(self) -> np.ndarray:
        """Ascending coefficients of the expansion about t=0."""
        out = np.zeros(TAYLOR_DEGREE + 1)
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
        """Upper bound on the truncation error over ``[0, window]``."""
        order = TAYLOR_DEGREE - self.t_power
        x = abs(self.rate) * window
        if x == 0.0:
            return 0.0
        tail = x ** (order + 1) / math.factorial(order + 1)
        if x < order + 2:
            tail /= 1.0 - x / (order + 2)
        else:  # far outside any window this module produces; keep it safe
            tail = abs(self.amplitude) * math.exp(x)
        return abs(self.amplitude) * (window ** self.t_power) * tail


@dataclass(frozen=True)
class SquaredDistance:
    """Exact squared planar separation of a UAV pair as a function of time.

    ``quadratic`` holds (q0, q1, q2); ``terms`` the sinusoids. Calling the
    model evaluates the exact (non-expanded) function; no Taylor error here.
    """

    quadratic: tuple[float, float, float]
    terms: tuple[TrigTerm, ...]
    case_label: str

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        q0, q1, q2 = self.quadratic
        value = q0 + tt * (q1 + tt * q2)
        for term in self.terms:
            value = value + term(tt)
        if np.ndim(t) == 0:
            return float(value)
        return value

    def taylor(self) -> np.ndarray:
        """Ascending coefficients of the Taylor polynomial about t=0.

        The array always has ``TAYLOR_DEGREE + 1`` entries. The quadratic
        part is carried exactly, so for case C the polynomial is exact.
        """
        coeffs = np.zeros(TAYLOR_DEGREE + 1)
        coeffs[:3] = self.quadratic
        for term in self.terms:
            coeffs += term.taylor_coefficients()
        return coeffs

    def max_rate(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(term.rate) for term in self.terms)

    def remainder_bound(self, window: float) -> float:
        return sum(term.remainder_bound(window) for term in self.terms)

    def stays_below(self, r2: float, speed: float, reach: float) -> bool:
        """True when the model provably stays below ``r2`` on ``[0, reach]``.

        ``speed`` bounds how fast the separation can grow: the sum of both
        UAVs' speeds. The separation is then at most
        ``sqrt(D^2(0)) + speed * t``, and ``slack`` bounds the rounding of the
        model's parameters, of its evaluation and of this test, so wherever
        the model is evaluated on ``[0, reach]`` it returns less than ``r2``.
        """
        q0, q1, q2 = self.quadratic
        d0_sq = q0
        size = abs(q0) + abs(q1) * reach + abs(q2) * reach * reach + r2
        for term in self.terms:
            size += abs(term.amplitude) * reach ** term.t_power
            if not term.t_power:
                d0_sq += term.amplitude * math.cos(term.phase)
        slack = _SKIP_ROUNDING * size
        return (math.sqrt(max(d0_sq, 0.0) + slack) + speed * reach) ** 2 + slack < r2


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


def _to_shared_epoch(traj_a: Trajectory, traj_b: Trajectory) -> tuple[Trajectory, Trajectory, float]:
    """Re-anchor both trajectories at the later of their epochs."""
    epoch = max(traj_a.epoch, traj_b.epoch)
    return re_anchor(traj_a, epoch), re_anchor(traj_b, epoch), epoch


def squared_link_distance(traj_a: Trajectory, traj_b: Trajectory) -> SquaredDistance:
    """Exact squared planar separation, as a callable model of elapsed time.

    ``t`` counts seconds from the pair's shared epoch; if the anchors differ,
    both trajectories are first re-anchored at the later epoch. Altitude is
    ignored: each UAV holds a fixed unique altitude and the vertical gap is
    treated as negligible against the planar separation.
    """
    a, b, _ = _to_shared_epoch(traj_a, traj_b)
    a_curve = isinstance(a, CurveTrajectory)
    b_curve = isinstance(b, CurveTrajectory)
    if a_curve and b_curve:
        return _curve_pair_model(a, b)
    if a_curve:
        return _curve_straight_model(a, b)
    if b_curve:
        return _curve_straight_model(b, a)
    return _straight_pair_model(a, b)


def trust_window(model: SquaredDistance, cap: float = math.inf) -> float:
    """Certified window [0, W] on which the expansion is relatively accurate.

    Starts from a quarter period of the fastest sinusoid (which keeps every
    argument at or below pi/2, including the difference-rate term of case A)
    and halves until an analytic remainder bound is small against the
    smallest sampled separation. Purely quadratic models trust any window.
    """
    rate = model.max_rate()
    if rate == 0.0:
        return cap
    window = min(cap, (math.pi / 2.0) / rate)
    floor = window / 4096.0
    for _ in range(13):
        bound = model.remainder_bound(window)
        ts = _TRUST_GRID * (window / (_TRUST_SAMPLES - 1))
        ts[-1] = window
        smallest = float(np.min(model(ts)))
        if bound <= 0.25 * TRUST_REL_ERROR * max(smallest, 1e-12):
            break
        if window <= floor:
            break
        window *= 0.5
    return window


# ---------------------------------------------------------------------------
# Root selection
# ---------------------------------------------------------------------------


def _latest_candidate(trust_radius: float) -> float:
    """Largest polynomial root that :func:`select_root` still polishes."""
    return trust_radius * (1.0 + 1e-9)


def _bracket_widths(t: float, trust_radius: float) -> tuple[float, float]:
    """First and largest half-width of the bracket polished around ``t``."""
    delta = max(1e-9, 1e-6 * max(1.0, abs(t)))
    return delta, max(0.5 * min(trust_radius, 1e9), 4.0 * delta)


def probe_reach(trust_radius: float) -> float:
    """Latest time at which :func:`select_root` evaluates the separation.

    Both bracket widths grow with the candidate, so the latest candidate
    with its widest bracket bounds every probe.
    """
    t = _latest_candidate(trust_radius)
    return t + _bracket_widths(t, trust_radius)[1]


def _polish_upward_crossing(f, t: float, trust_radius: float):
    """Bracket and refine an upward zero crossing of ``f`` near ``t``.

    Returns the refined crossing time, or None when no sign change from
    below to above exists nearby (entering-range crossings and tangencies
    are rejected here).
    """
    delta, delta_max = _bracket_widths(t, trust_radius)
    while delta <= delta_max:
        lo = max(0.0, t - delta)
        hi = t + delta
        flo = f(lo)
        fhi = f(hi)
        if flo < 0.0 < fhi:
            return float(brentq(f, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps))
        if flo == 0.0 and lo == 0.0 and fhi > 0.0:
            return 0.0
        if flo > 0.0 and fhi < 0.0:
            return None
        delta *= 4.0
    return None


def select_root(roots, exact_dist, tx_range: float, trust_radius: float):
    """Pick the break time from polynomial root candidates.

    ``exact_dist`` maps time to the exact squared separation. Candidates
    must be real, non-negative and within the trust radius; each is polished
    against the exact function and kept only if the separation crosses the
    range from below to above there (a link break, not a link formation).
    Returns the smallest accepted time, or None.
    """
    if tx_range <= 0.0:
        raise ValueError(f"transmission range must be positive, got {tx_range}")
    tol = RANGE_RESIDUAL_RTOL * tx_range
    r2 = tx_range * tx_range

    def f(t):
        return exact_dist(t) - r2

    accepted = []
    for t in sorted(roots):
        if t < -1e-9 or t > _latest_candidate(trust_radius):
            continue
        crossing = _polish_upward_crossing(f, max(t, 0.0), trust_radius)
        if crossing is None:
            continue
        if abs(math.sqrt(max(exact_dist(crossing), 0.0)) - tx_range) <= tol:
            accepted.append(crossing)
    return min(accepted) if accepted else None


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


def _equal_rate_peak(c1: CurveTrajectory, c2: CurveTrajectory) -> float:
    """Largest squared separation when both UAVs share one angular velocity.

    The two gap sinusoids then combine into a single sinusoid via a phasor
    sum, so the exact envelope maximum is available in closed form.
    """
    geom = case_geometry(c1.center_x - c2.center_x, c1.center_y - c2.center_y)
    gap = geom.gap
    base = (gap * gap + c1.radius**2 + c2.radius**2
            - 2.0 * c1.radius * c2.radius * math.cos(c1.initial_phase - c2.initial_phase))
    px = c1.radius * math.cos(c1.initial_phase) - c2.radius * math.cos(c2.initial_phase)
    py = c1.radius * math.sin(c1.initial_phase) - c2.radius * math.sin(c2.initial_phase)
    return base + 2.0 * gap * math.hypot(px, py)


def _first_crossing_scan(model: SquaredDistance, tx_range: float, window: float):
    """Safety net: locate the first upward crossing on [0, window] by scanning."""
    r2 = tx_range * tx_range
    ts = np.linspace(0.0, window, 257)
    values = model(ts) - r2
    for i in range(1, len(ts)):
        if values[i - 1] <= 0.0 < values[i]:
            lo, hi = float(ts[i - 1]), float(ts[i])
            return float(brentq(lambda t: model(t) - r2, lo, hi,
                                xtol=1e-12, rtol=4 * np.finfo(float).eps))
    return None


def compute_llt(
    traj_a: Trajectory,
    traj_b: Trajectory,
    tx_range: float,
    horizon: float = DEFAULT_HORIZON,
) -> LltResult:
    """Predicted remaining link lifetime of a UAV pair.

    Re-anchors both trajectories at the later epoch, so ``llt`` counts
    seconds from that instant. Requires the link to be up (planar
    separation at most ``tx_range``); raises :class:`LinkNotUp` otherwise. ``tx_range`` and
    ``horizon`` must be positive and finite; :class:`ValueError` otherwise.

    Straight/straight pairs are solved exactly. Curve cases run the
    expand/root/polish pipeline over successive trust windows. A bounded
    result's ``root`` sits on the range circle to within 1% of the range
    (far tighter in practice, since roots are polished against the exact
    separation); if no break is found by ``horizon`` the result is marked
    ``horizon_capped``.
    """
    for name, value in (("transmission range", tx_range), ("horizon", horizon)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    traj_a, traj_b, _ = _to_shared_epoch(traj_a, traj_b)
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
        return _solve_case_c(model, tx_range, horizon)

    if case == "A":
        omega_a = traj_a.omega
        omega_b = traj_b.omega
        max_abs = max(abs(omega_a), abs(omega_b))
        if abs(omega_a - omega_b) <= 1e-12 * max_abs:
            # Locked relative phase: the separation envelope never grows.
            if _equal_rate_peak(traj_a, traj_b) <= r2 * (1.0 - 1e-9):
                return _unbounded(case, horizon)
        # Unreachable range: the separation can never exceed |gap| + R1 + R2.
        geom_gap = math.hypot(traj_a.center_x - traj_b.center_x,
                              traj_a.center_y - traj_b.center_y)
        if geom_gap + traj_a.radius + traj_b.radius <= tx_range * (1.0 - 1e-12):
            return _unbounded(case, horizon)

    speed = traj_a.speed + traj_b.speed
    t_base = 0.0
    win_a, win_b = traj_a, traj_b
    while t_base < horizon * (1.0 - 1e-12):
        window_model = squared_link_distance(win_a, win_b)
        window = trust_window(window_model, cap=horizon - t_base)
        trust_radius = window * TRUST_RADIUS_FACTOR
        # A window the pair cannot leave range in, even flying straight apart
        # at full speed, holds no break: select_root would find none and the
        # scan below would not fire, so skipping them changes no result.
        if not window_model.stays_below(r2, speed, probe_reach(trust_radius)):
            coeffs = window_model.taylor()
            coeffs[0] -= r2
            if not coeffs.any():
                break  # separation identically equal to the range: never exceeds
            roots = find_real_roots(coeffs)
            pick = select_root(roots, window_model, tx_range, trust_radius)
            if pick is None and window_model(window) - r2 > 0.0:
                # The window provably contains a crossing the roots missed.
                pick = _first_crossing_scan(window_model, tx_range, window)
            if pick is not None:
                total = t_base + pick
                if total > horizon:
                    return _unbounded(case, horizon)
                return _bounded(case, total, window_model, pick, tx_range)
        t_base += window
        win_a = re_anchor(win_a, win_a.epoch + window)
        win_b = re_anchor(win_b, win_b.epoch + window)
    return _unbounded(case, horizon)
