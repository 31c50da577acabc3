"""Longest-lasting route selection by the max-min link-lifetime rule.

The best route between two nodes is the one maximizing the minimum
lifetime over its links (the widest / bottleneck path). Among routes with
equal bottleneck the router prefers fewer hops, then the lexicographically
smallest node sequence, so results are deterministic and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush


class NodeUnknown(KeyError):
    """Source or destination is not present in the graph."""


@dataclass(frozen=True)
class Route:
    """An acyclic node sequence and the minimum link lifetime along it."""

    nodes: tuple
    bottleneck_llt: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


def _adjacency(graph) -> dict:
    adjacency: dict = {n: [] for n in graph.nodes}
    for (a, b), weight in graph.edges.items():
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    return adjacency


def max_min_route(graph, src, dst) -> Route | None:
    """Route with the largest bottleneck lifetime, or None if unreachable.

    Edge weights of ``math.inf`` (links predicted to outlive the horizon)
    compare greater than any finite lifetime. Runs a widest-path best-first
    search for the optimal bottleneck value, then a level-order
    breadth-first search restricted to edges at least that wide, which
    returns the fewest-hop path and, among those, the lexicographically
    smallest node sequence.

    Each level of that search lists its nodes in the lexicographic order
    of their smallest shortest paths. All paths to the next level have one
    length, so they compare as their second-to-last nodes' paths do, then
    by their last node; and the prefix of a smallest shortest path is the
    smallest shortest path to its second-to-last node. So a node first
    reached from the earliest node of its parent level has its best path
    through that parent, and the next level is the parents' new
    neighbours, batch by batch in level order, each batch by increasing
    id. The search stops as soon as ``dst`` is reached. Node ids only need
    to be mutually orderable.
    """
    adjacency = _adjacency(graph)
    if src not in adjacency or dst not in adjacency:
        raise NodeUnknown(f"unknown endpoint in {src!r} -> {dst!r}")
    if src == dst:
        raise ValueError("source and destination must differ")

    # Phase 1: widest-path search for the optimal bottleneck value.
    best_width = {src: math.inf}
    heap = [(-math.inf, 0, src)]
    counter = 1
    settled = set()
    while heap:
        neg_width, _, node = heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            break
        width = -neg_width
        for nbr, weight in adjacency[node]:
            cand = min(width, weight)
            if cand > best_width.get(nbr, -math.inf):
                best_width[nbr] = cand
                heappush(heap, (-cand, counter, nbr))
                counter += 1
    if dst not in settled:
        return None
    bottleneck = best_width[dst]

    # Phase 2: fewest hops, then lexicographically smallest path, over the
    # subgraph of edges at least as wide as the optimal bottleneck.
    parent = {src: src}
    level = [src]
    while level:
        following = []
        for node in level:
            batch = []
            for nbr, weight in adjacency[node]:
                if weight >= bottleneck and nbr not in parent:
                    parent[nbr] = node
                    if nbr == dst:
                        path = [dst, node]
                        while node != src:
                            node = parent[node]
                            path.append(node)
                        return Route(tuple(reversed(path)), bottleneck)
                    batch.append(nbr)
            if len(batch) > 1:
                batch.sort()
            following += batch
        level = following
    return None
