"""Array sampling of trajectories and of the exact squared-separation
model, for tests.

:func:`uavllt.kinematics.planar_xy` and :class:`uavllt.llt.SquaredDistance`
take one time value. Tests that check positions or the model over a grid
sample them here with numpy. The model is summed term by term in its own
order, so each sample rounds as the scalar model does wherever ``np.cos``
and ``math.cos`` agree.
"""

import numpy as np

from uavllt.kinematics import CurveTrajectory


def planar_positions_at(traj, ts):
    """Vectorized planar twin of :func:`~uavllt.kinematics.planar_xy`; it
    multiplies in another order, so its coordinates may differ from the
    scalar ones in the last bits."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(traj, CurveTrajectory):
        phi = traj.initial_phase + traj.omega * ts
        return (traj.center_x + traj.radius * np.cos(phi),
                traj.center_y + traj.radius * np.sin(phi))
    return (traj.origin_x + traj.speed * np.cos(traj.heading) * ts,
            traj.origin_y + traj.speed * np.sin(traj.heading) * ts)


def sample(model, ts):
    """The exact squared separation of ``model`` at each time in ``ts``."""
    ts = np.asarray(ts, dtype=float)
    q0, q1, q2 = model.quadratic
    value = q0 + ts * (q1 + ts * q2)
    for amplitude, phase, rate, t_power in model.terms:
        value = value + amplitude * np.cos(phase + rate * ts) * ts ** t_power
    return value
