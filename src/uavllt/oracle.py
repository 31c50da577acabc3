"""Brute-force ground truth for link lifetimes and route selection.

Deliberately simple and slow: the link-lifetime oracle steps time forward
on exact positions, never further than the pair's speeds allow without a
break, and the route oracle enumerates every simple path. Both exist to
validate the analytic solver and the search-based router, so neither
shares any code with them beyond the trajectory primitives.
"""

from __future__ import annotations

import math

from .kinematics import Trajectory, planar_xy, re_anchor
from .llt import DEFAULT_HORIZON, LinkNotUp
from .routing import NodeUnknown, Route

BISECTION_TOL = 1e-6  # seconds
# Most minimum steps brute_force_llt may take: some 28 times the 3.6e6 steps
# of a 3,600 s horizon at 1 ms, and several seconds of work.
MAX_STEPS = 10**8


class TooLarge(ValueError):
    """The input is too big for brute force: a link-lifetime walk of more
    than :data:`MAX_STEPS` minimum steps, or a graph too big for exhaustive
    path enumeration."""


def brute_force_llt(traj_a: Trajectory, traj_b: Trajectory, tx_range: float,
                    dt: float = 1e-3, horizon: float = DEFAULT_HORIZON) -> float:
    """First time the pair's planar separation exceeds the range.

    From the shared epoch, takes the separation ``d`` from
    :func:`~uavllt.kinematics.planar_xy` and :func:`math.hypot` and steps by
    ``max((r - d) / (v_a + v_b), dt)``, sampling ``horizon`` itself last,
    then bisects the first step that ends beyond the range to 1e-6 s. The
    separation changes by at most ``v_a + v_b`` (the ``speed`` fields) per
    second, so no break comes within ``(r - d) / (v_a + v_b)``: conservative
    advancement (Basch, Guibas & Hershberger 1999). Rounding in ``d`` or in
    the speeds can carry a step past a crossing by a rounding-sized time
    only, and cannot lose the break: a pair still out of range at the
    step's end is caught there, and one back in range made an excursion
    shorter than that. So, as on a grid of ``dt``, only an excursion
    shorter than ``dt`` can be missed.

    Returns ``math.inf`` when no break occurs by ``horizon``, at once for a
    parked pair. Raises :class:`LinkNotUp` if the pair starts out of range,
    :class:`ValueError` unless ``tx_range``, ``dt`` and ``horizon`` are
    positive and finite, and :class:`TooLarge` (a :class:`ValueError`) when
    ``horizon / dt``, which bounds the step count, exceeds
    :data:`MAX_STEPS`, so that no step size can hang a run.
    """
    for name, value in (("transmission range", tx_range), ("dt", dt), ("horizon", horizon)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if horizon / dt > MAX_STEPS:
        raise TooLarge(f"refusing {horizon / dt:.3g} minimum steps of dt = {dt:g} s over"
                       f" {horizon:g} s: the oracle takes at most {MAX_STEPS:.0e} steps")
    epoch = max(traj_a.epoch, traj_b.epoch)
    traj_a = re_anchor(traj_a, epoch)
    traj_b = re_anchor(traj_b, epoch)

    def separation(t: float) -> float:
        xa, ya = planar_xy(traj_a, t)
        xb, yb = planar_xy(traj_b, t)
        return math.hypot(xa - xb, ya - yb)

    d = separation(0.0)
    if d > tx_range:
        raise LinkNotUp(f"initial separation exceeds range {tx_range}")
    closing = traj_a.speed + traj_b.speed
    hi = 0.0
    while d <= tx_range:
        if closing == 0.0 or hi >= horizon:
            return math.inf
        lo = hi
        hi = min(hi + max((tx_range - d) / closing, dt), horizon)
        d = separation(hi)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if separation(mid) > tx_range:
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
