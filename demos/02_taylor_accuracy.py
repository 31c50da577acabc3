"""How well the degree-12 expansion tracks the exact squared separation.

Inside the certified trust window the relative error stays below 1e-6;
past the window a fixed-degree cosine expansion falls apart quickly, which
is exactly why the lifetime search re-anchors window by window. The window
is certified against a lower bound on the separation over it: the smallest
Bernstein coefficient of the expansion less its margin, printed here next
to the smallest sampled separation.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from uavllt import CurveTrajectory, Direction, squared_link_distance, trust_window

a = CurveTrajectory(0, 0, 400, 40.0, Direction.COUNTER_CLOCKWISE, 0.3, 100)
b = CurveTrajectory(900, 500, 250, 55.0, Direction.CLOCKWISE, -1.2, 110)

model = squared_link_distance(a, b)
window, bernstein, margin = trust_window(model)
coeffs = model.taylor()

print(f"fastest sinusoid rate : {model.max_rate():.4f} rad/s")
print(f"certified trust window: {window:.3f} s")
print()
print(f"{'t/window':>9} {'exact m^2':>14} {'poly m^2':>14} {'rel err':>10}")
for frac in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
    t = frac * window
    exact = model(t)
    approx = float(npoly.polyval(t, coeffs))
    rel = abs(approx - exact) / abs(exact)
    marker = "" if frac <= 1.0 else "   <- outside the window"
    print(f"{frac:>9.2f} {exact:>14.1f} {approx:>14.1f} {rel:>10.2e}{marker}")

ts = np.linspace(0.0, window, 1000)
rel = np.abs(npoly.polyval(ts, coeffs) - model(ts)) / np.abs(model(ts))
print()
print(f"max relative error over the window: {rel.max():.2e} (target 1e-6)")
print(f"certified lower bound on D^2 over the window: {min(bernstein) - margin:.4f} m^2")
print(f"smallest sampled D^2 over the window        : {model(ts).min():.4f} m^2")
