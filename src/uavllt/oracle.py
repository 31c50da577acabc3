"""Brute-force ground truth for link lifetimes and route selection.

Deliberately simple and slow: the link-lifetime oracle walks time on a
fixed grid evaluating exact positions, and the route oracle enumerates
every simple path. Both exist to validate the analytic solver and the
search-based router, so neither shares any code with them beyond the
trajectory primitives.
"""

from __future__ import annotations

import math

import numpy as np

from .kinematics import Trajectory, planar_positions_at, position_at, re_anchor
from .llt import LinkNotUp
from .routing import NodeUnknown, Route

_CHUNK = 1 << 16
BISECTION_TOL = 1e-6  # seconds


class TooLarge(ValueError):
    """The graph is too big for exhaustive path enumeration."""


def brute_force_llt(traj_a: Trajectory, traj_b: Trajectory, tx_range: float,
                    dt: float = 1e-3, horizon: float = 3600.0) -> float:
    """First time the pair's planar separation exceeds the range.

    Steps t by ``dt`` from the shared epoch, then refines the bracketing
    step by bisection to 1e-6 s. Returns ``math.inf`` when no break occurs
    before ``horizon``. Raises :class:`LinkNotUp` if the pair starts out of
    range, and :class:`ValueError` unless ``tx_range``, ``dt`` and
    ``horizon`` are positive and finite.
    """
    for name, value in (("transmission range", tx_range), ("dt", dt), ("horizon", horizon)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    epoch = max(traj_a.epoch, traj_b.epoch)
    traj_a = re_anchor(traj_a, epoch)
    traj_b = re_anchor(traj_b, epoch)

    r2 = tx_range * tx_range

    def sq_sep(t: float) -> float:
        pa = position_at(traj_a, t)
        pb = position_at(traj_b, t)
        return (pa.x - pb.x) ** 2 + (pa.y - pb.y) ** 2

    if sq_sep(0.0) > r2:
        raise LinkNotUp(f"initial separation exceeds range {tx_range}")

    n_steps = int(math.ceil(horizon / dt))
    start = 0
    while start <= n_steps:
        stop = min(start + _CHUNK, n_steps + 1)
        ts = np.arange(start, stop, dtype=float) * dt
        xa, ya = planar_positions_at(traj_a, ts)
        xb, yb = planar_positions_at(traj_b, ts)
        d2 = (xa - xb) ** 2 + (ya - yb) ** 2
        exceed = d2 > r2
        if exceed.any():
            j = int(np.argmax(exceed))
            hi = float(ts[j])
            lo = hi - dt if j > 0 or start > 0 else 0.0
            return _bisect_crossing(sq_sep, max(lo, 0.0), hi, r2)
        start = stop
    return math.inf


def _bisect_crossing(sq_sep, lo: float, hi: float, r2: float) -> float:
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if sq_sep(mid) > r2:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def enumerate_best_route(graph, src, dst) -> Route | None:
    """Exhaustive max-min route search over all simple paths.

    Uses the same tie-break as the production router (bottleneck first,
    then fewer hops, then lexicographically smallest node sequence).
    Guarded to 12 nodes; raises :class:`TooLarge` beyond that.
    """
    nodes = set(graph.nodes)
    if len(nodes) > 12:
        raise TooLarge(f"refusing to enumerate paths over {len(nodes)} nodes")
    if src not in nodes or dst not in nodes:
        raise NodeUnknown(f"unknown endpoint in {src!r} -> {dst!r}")
    if src == dst:
        raise ValueError("source and destination must differ")

    adjacency: dict = {n: [] for n in nodes}
    for (a, b), weight in graph.edges.items():
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))

    best_key = None
    best = None

    def visit(node, path, bottleneck):
        nonlocal best_key, best
        if node == dst:
            key = (-bottleneck, len(path) - 1, tuple(path))
            if best_key is None or key < best_key:
                best_key = key
                best = Route(tuple(path), bottleneck)
            return
        for nbr, weight in adjacency[node]:
            if nbr in path_set:
                continue
            path.append(nbr)
            path_set.add(nbr)
            visit(nbr, path, min(bottleneck, weight))
            path_set.discard(nbr)
            path.pop()

    path_set = {src}
    visit(src, [src], math.inf)
    return best
