"""Predict how long the link between two UAVs lasts, for all three motion pairings.

Each prediction is cross-checked against the brute-force oracle, which
simply steps time until the pair drifts out of range.
"""

import math

from uavllt import (
    CurveTrajectory,
    Direction,
    StraightTrajectory,
    brute_force_llt,
    compute_llt,
)

RANGE_M = 120.0

print("== both straight (closing then receding) ==")
a = StraightTrajectory(0, 0, 0.0, 10.0, altitude=100)
b = StraightTrajectory(50, 0, 0.0, 20.0, altitude=110)
result = compute_llt(a, b, 100.0)
oracle = brute_force_llt(a, b, 100.0)
print(f"analytic {result.llt:.6f} s  (case {result.case_used})")
print(f"oracle   {oracle:.6f} s   |diff| {abs(result.llt - oracle):.2e} s")

print()
print("== counter-rotating concentric circles ==")
inner = CurveTrajectory(0, 0, 100, 10.0, Direction.COUNTER_CLOCKWISE, 0.0, 100)
outer = CurveTrajectory(0, 0, 150, 15.0, Direction.CLOCKWISE, 0.0, 110)
result = compute_llt(inner, outer, RANGE_M)
oracle = brute_force_llt(inner, outer, RANGE_M)
closed = math.acos((100**2 + 150**2 - RANGE_M**2) / (2 * 100 * 150)) / 0.2
print(f"analytic    {result.llt:.6f} s  (case {result.case_used})")
print(f"closed form {closed:.6f} s")
print(f"oracle      {oracle:.6f} s")

print()
print("== curve plus straight ==")
orbiter = CurveTrajectory(0, 0, 300, 40.0, Direction.COUNTER_CLOCKWISE, 0.0, 100)
cruiser = StraightTrajectory(500, 100, math.pi / 2, 30.0, 110)
result = compute_llt(orbiter, cruiser, 600.0)
oracle = brute_force_llt(orbiter, cruiser, 600.0)
print(f"analytic {result.llt:.6f} s  (case {result.case_used}, "
      f"residual {result.residual:.1e} m)")
print(f"oracle   {oracle:.6f} s   |diff| {abs(result.llt - oracle):.2e} s")

print()
print("== rigid rotation: same circle, same angular velocity ==")
lead = CurveTrajectory(0, 0, 100, 20.0, Direction.COUNTER_CLOCKWISE, 0.0, 100)
trail = CurveTrajectory(0, 0, 100, 20.0, Direction.COUNTER_CLOCKWISE, 1.0, 110)
result = compute_llt(lead, trail, 150.0, horizon=600.0)
print(f"analytic: horizon_capped={result.horizon_capped} (horizon-capped at {result.llt:g} s)")
print(f"oracle:   {brute_force_llt(lead, trail, 150.0, horizon=600.0)}")
