"""Seeded analytic-vs-brute-force validation sweeps.

Draws random UAV pair instances from realistic scenario ranges, computes
the lifetime both analytically and with the time-stepping oracle, and
scores the agreement. Used by the ``validate`` CLI command and by the
acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import CurveTrajectory, Direction, StraightTrajectory, Trajectory
from .llt import LltResult, compute_llt
from .oracle import brute_force_llt

SPEED_RANGE = (20.0, 60.0)
RADIUS_RANGE = (100.0, 1000.0)
TX_RANGE_RANGE = (100.0, 5000.0)
SWEEP_HORIZON = 300.0
SWEEP_DT = 1e-3


def _random_curve(rng: np.random.Generator, x: float, y: float, altitude: float) -> CurveTrajectory:
    radius = float(rng.uniform(*RADIUS_RANGE))
    speed = float(rng.uniform(*SPEED_RANGE))
    phase = float(rng.uniform(-math.pi, math.pi))
    direction = Direction.COUNTER_CLOCKWISE if rng.integers(0, 2) else Direction.CLOCKWISE
    # Choose the center so the UAV sits exactly at (x, y) at the epoch.
    cx = x - radius * math.cos(phase)
    cy = y - radius * math.sin(phase)
    return CurveTrajectory(cx, cy, radius, speed, direction, phase, altitude)


def _random_straight(rng: np.random.Generator, x: float, y: float, altitude: float) -> StraightTrajectory:
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    speed = float(rng.uniform(*SPEED_RANGE))
    return StraightTrajectory(x, y, heading, speed, altitude)


def sample_instance(case: str, rng: np.random.Generator) -> tuple[Trajectory, Trajectory, float]:
    """Random in-range pair of the requested case: (traj_a, traj_b, tx_range)."""
    tx_range = float(rng.uniform(*TX_RANGE_RANGE))
    separation = tx_range * float(rng.uniform(0.15, 0.95))
    psi = float(rng.uniform(0.0, 2.0 * math.pi))
    xa, ya = 0.0, 0.0
    xb = separation * math.cos(psi)
    yb = separation * math.sin(psi)
    if case == "A":
        a: Trajectory = _random_curve(rng, xa, ya, 150.0)
        b: Trajectory = _random_curve(rng, xb, yb, 160.0)
    elif case == "B":
        if rng.integers(0, 2):
            a = _random_curve(rng, xa, ya, 150.0)
            b = _random_straight(rng, xb, yb, 160.0)
        else:
            a = _random_straight(rng, xa, ya, 150.0)
            b = _random_curve(rng, xb, yb, 160.0)
    elif case == "C":
        a = _random_straight(rng, xa, ya, 150.0)
        b = _random_straight(rng, xb, yb, 160.0)
    else:
        raise ValueError(f"unknown case {case!r}")
    return a, b, tx_range


@dataclass(frozen=True)
class InstanceOutcome:
    index: int
    tx_range: float
    analytic: LltResult
    oracle_llt: float  # inf when the oracle saw no break before the horizon

    @property
    def both_bounded(self) -> bool:
        return not self.analytic.horizon_capped and math.isfinite(self.oracle_llt)

    @property
    def abs_error(self) -> float | None:
        if not self.both_bounded:
            return None
        return abs(self.analytic.llt - self.oracle_llt)


@dataclass
class SweepReport:
    case: str
    trials: int
    seed: int
    dt: float
    horizon: float
    outcomes: list

    @property
    def bounded(self) -> list:
        return [o for o in self.outcomes if o.both_bounded]

    def verdict_mismatches(self) -> list:
        """Instances where bounded/unbounded verdicts disagree.

        A mismatch is excused when the break sits within 2*dt of the
        horizon, where grid detection and capping legitimately diverge.
        """
        slack = 2.0 * self.dt
        out = []
        for o in self.outcomes:
            if o.both_bounded:
                continue
            if o.analytic.horizon_capped and not math.isfinite(o.oracle_llt):
                continue
            near = (math.isfinite(o.oracle_llt) and self.horizon - o.oracle_llt <= slack) or (
                not o.analytic.horizon_capped and self.horizon - o.analytic.llt <= slack)
            if near:
                continue
            out.append(o)
        return out

    def tolerance_for(self, outcome: InstanceOutcome) -> float:
        if self.case == "C":
            return 1e-3
        return max(2.0 * self.dt, 1e-3 * outcome.oracle_llt)

    def failures(self) -> list:
        return [o for o in self.bounded if o.abs_error > self.tolerance_for(o)]

    @property
    def max_abs_error(self) -> float:
        errors = [o.abs_error for o in self.bounded]
        return max(errors) if errors else 0.0

    @property
    def mean_abs_error(self) -> float:
        errors = [o.abs_error for o in self.bounded]
        return sum(errors) / len(errors) if errors else 0.0

    def passed(self) -> bool:
        if self.verdict_mismatches():
            return False
        failures = self.failures()
        if self.case == "C":
            return not failures
        return len(failures) <= max(0.001 * len(self.bounded), 0)

    def table_row(self) -> str:
        return (f"case {self.case}: trials={self.trials} bounded={len(self.bounded)} "
                f"unbounded_both={sum(1 for o in self.outcomes if o.analytic.horizon_capped and not math.isfinite(o.oracle_llt))} "
                f"verdict_mismatch={len(self.verdict_mismatches())} "
                f"max_abs_err={self.max_abs_error:.3e}s mean_abs_err={self.mean_abs_error:.3e}s "
                f"tol_failures={len(self.failures())} -> "
                f"{'PASS' if self.passed() else 'FAIL'}")


def run_sweep(case: str, trials: int, seed: int, *, dt: float = SWEEP_DT,
              horizon: float = SWEEP_HORIZON) -> SweepReport:
    """Compare the analytic solver against the oracle on seeded instances."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng([seed, ord(case)])
    outcomes = []
    for index in range(trials):
        traj_a, traj_b, tx_range = sample_instance(case, rng)
        analytic = compute_llt(traj_a, traj_b, tx_range, horizon)
        oracle = brute_force_llt(traj_a, traj_b, tx_range, dt=dt, horizon=horizon)
        outcomes.append(InstanceOutcome(index, tx_range, analytic, oracle))
    return SweepReport(case, trials, seed, dt, horizon, outcomes)
