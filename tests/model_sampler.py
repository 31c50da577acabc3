"""Array sampling of the exact squared-separation model, for tests.

:class:`uavllt.llt.SquaredDistance` takes one time value. Tests that check
the model over a grid sample it here with numpy, term by term in the
model's own order, so each sample rounds as the scalar model does wherever
``np.cos`` and ``math.cos`` agree.
"""

import numpy as np


def sample(model, ts):
    """The exact squared separation of ``model`` at each time in ``ts``."""
    ts = np.asarray(ts, dtype=float)
    q0, q1, q2 = model.quadratic
    value = q0 + ts * (q1 + ts * q2)
    for amplitude, phase, rate, t_power in model.terms:
        value = value + amplitude * np.cos(phase + rate * ts) * ts ** t_power
    return value
