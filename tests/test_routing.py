import math
from heapq import heappop, heappush

import numpy as np
import pytest

from uavllt.netsim import LinkGraph, read_snapshot_csv
from uavllt.oracle import enumerate_best_route
from uavllt.routing import NodeUnknown, max_min_route


def random_graph(rng, max_nodes=8):
    """Random connected-ish weighted graph; some edges may be inf."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                weight = math.inf if rng.random() < 0.1 else float(rng.uniform(1, 100))
                edges.append((i, j, weight))
    return LinkGraph.from_edges(edges, nodes=range(n)), n


class TestMaxMinRoute:
    def test_single_edge(self):
        g = LinkGraph.from_edges([("s", "d", 7.0)])
        route = max_min_route(g, "s", "d")
        assert route.nodes == ("s", "d")
        assert route.bottleneck_llt == 7.0

    def test_triangle_prefers_wider_detour(self):
        g = LinkGraph.from_edges([("s", "t", 5.0), ("s", "a", 10.0), ("a", "t", 8.0)])
        route = max_min_route(g, "s", "t")
        assert route.nodes == ("s", "a", "t")
        assert route.bottleneck_llt == 8.0

    def test_unreachable_is_none(self):
        g = LinkGraph.from_edges([("a", "b", 1.0)], nodes=["a", "b", "c"])
        assert max_min_route(g, "a", "c") is None

    def test_unknown_node(self):
        g = LinkGraph.from_edges([("a", "b", 1.0)])
        with pytest.raises(NodeUnknown):
            max_min_route(g, "a", "zzz")

    def test_same_endpoints_rejected(self):
        g = LinkGraph.from_edges([("a", "b", 1.0)])
        with pytest.raises(ValueError):
            max_min_route(g, "a", "a")

    def test_unbounded_edges_beat_finite(self):
        g = LinkGraph.from_edges([("s", "d", 50.0), ("s", "m", math.inf),
                                  ("m", "d", math.inf)])
        route = max_min_route(g, "s", "d")
        assert route.nodes == ("s", "m", "d")
        assert math.isinf(route.bottleneck_llt)

    def test_tie_break_fewer_hops_then_lexicographic(self):
        g = LinkGraph.from_edges([
            ("s", "b", 5.0), ("s", "a", 5.0), ("a", "d", 5.0), ("b", "d", 5.0),
            ("s", "d", 5.0),
        ])
        route = max_min_route(g, "s", "d")
        assert route.nodes == ("s", "d")  # fewest hops wins among equal widths
        g2 = LinkGraph.from_edges([
            ("s", "b", 5.0), ("s", "a", 5.0), ("a", "d", 5.0), ("b", "d", 5.0),
        ])
        route2 = max_min_route(g2, "s", "d")
        assert route2.nodes == ("s", "a", "d")  # lexicographic among equal hops

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng([67, seed])
        g, n = random_graph(rng)
        route = max_min_route(g, 0, n - 1)
        reference = enumerate_best_route(g, 0, n - 1)
        if reference is None:
            assert route is None
        else:
            assert route is not None
            assert route.bottleneck_llt == reference.bottleneck_llt
            assert route.nodes == reference.nodes

    @pytest.mark.parametrize("seed", range(30))
    def test_monotonic_in_edge_weights(self, seed):
        rng = np.random.default_rng([71, seed])
        g, n = random_graph(rng)
        base = max_min_route(g, 0, n - 1)
        if base is None or not g.edges:
            return
        pair = sorted(g.edges)[int(rng.integers(0, len(g.edges)))]
        bumped = dict(g.edges)
        bumped[pair] = bumped[pair] * 2.0 if math.isfinite(bumped[pair]) else bumped[pair]
        g2 = LinkGraph(g.snapshot_time, g.nodes, bumped)
        improved = max_min_route(g2, 0, n - 1)
        assert improved.bottleneck_llt >= base.bottleneck_llt

    @pytest.mark.parametrize("seed", range(30))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng([73, seed])
        g, n = random_graph(rng)
        base = max_min_route(g, 0, n - 1)
        scaled_edges = {pair: w * 3.5 for pair, w in g.edges.items()}
        g2 = LinkGraph(g.snapshot_time, g.nodes, scaled_edges)
        scaled = max_min_route(g2, 0, n - 1)
        if base is None:
            assert scaled is None
        else:
            assert scaled.nodes == base.nodes
            if math.isfinite(base.bottleneck_llt):
                assert scaled.bottleneck_llt == pytest.approx(3.5 * base.bottleneck_llt)


def best_first_fewest_hops(graph, src, dst, bottleneck):
    """Reference for ``max_min_route``'s second phase: the best-first search
    it replaced, which pops ``(hops, path)`` keys from a heap, so it yields
    the fewest-hop, then lexicographically smallest, path over the edges at
    least ``bottleneck`` wide."""
    adjacency = {n: [] for n in graph.nodes}
    for (a, b), weight in graph.edges.items():
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    heap = [(0, (src,))]
    visited = set()
    while heap:
        hops, path = heappop(heap)
        node = path[-1]
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            return path
        for nbr, weight in adjacency[node]:
            if weight >= bottleneck and nbr not in visited:
                heappush(heap, (hops + 1, path + (nbr,)))
    return None


def assert_route(graph, src, dst, nodes):
    route = max_min_route(graph, src, dst)
    assert route.nodes == nodes
    assert route == enumerate_best_route(graph, src, dst)


class TestLevelOrderTieBreaks:
    """All widths are equal, so only the fewest-hop search's tie-breaks
    pick the route. Each graph lists edges so that a search keeping
    discovery order, leaving a batch of new neighbours unsorted or ordering
    a level by node id instead of by path would return another route."""

    def test_level_one_listed_in_decreasing_id_order(self):
        # Level 1 is discovered as 3, 2, 1 but must be expanded as 1, 2, 3,
        # and level 2 as 5 (via 1) before 4 (via 3), although 4 < 5.
        g = LinkGraph.from_edges([(0, 3, 5.0), (0, 2, 5.0), (0, 1, 5.0),
                                  (3, 4, 5.0), (1, 5, 5.0), (4, 9, 5.0), (5, 9, 5.0)])
        assert_route(g, 0, 9, (0, 1, 5, 9))

    def test_smaller_path_parent_later_in_adjacency_order(self):
        # 9 is reached from 8 (path 0-1-8) and from 5 (path 0-2-5). Its
        # adjacency lists 5 first and 5 < 8, yet 0-1-8 is the smaller path.
        g = LinkGraph.from_edges([(0, 1, 5.0), (0, 2, 5.0), (2, 5, 5.0), (1, 8, 5.0),
                                  (5, 9, 5.0), (8, 9, 5.0)])
        assert_route(g, 0, 9, (0, 1, 8, 9))

    def test_str_ids_order_as_strings(self, tmp_path):
        # Read as ``uavllt route`` reads a snapshot: ids are strs, so "10"
        # sorts before "9" and 0-10-5 is the smaller path.
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n"
                        "0.0,0,9,5.0\n0.0,0,10,5.0\n0.0,9,5,5.0\n0.0,10,5,5.0\n")
        assert_route(read_snapshot_csv(path), "0", "5", ("0", "10", "5"))


def tie_heavy_graph(rng, n, label):
    """Graph on ``n`` nodes with widths from {1, 2, 3, inf}, edges in a
    random order and a few self-loops, built directly as the simulator
    builds its snapshots."""
    density = float(rng.uniform(0.04, 0.3))
    widths = (1.0, 2.0, 3.0, math.inf)
    pairs = [(i, j) for i in range(n) for j in range(i, n)
             if (i == j and rng.random() < 0.05) or (i < j and rng.random() < density)]
    order = rng.permutation(len(pairs))
    edges = {}
    for k in order:
        a, b = label(pairs[k][0]), label(pairs[k][1])
        edges[(a, b) if a <= b else (b, a)] = widths[int(rng.integers(0, len(widths)))]
    return LinkGraph(0.0, frozenset(label(i) for i in range(n)), edges)


class TestEquivalence:
    @pytest.mark.parametrize("label", [int, str], ids=["int", "str"])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_best_first_on_large_tie_heavy_graphs(self, seed, label):
        rng = np.random.default_rng([79, seed])
        n = int(rng.integers(20, 61))
        g = tie_heavy_graph(rng, n, label)
        for _ in range(10):
            src, dst = (label(int(i)) for i in rng.choice(n, 2, replace=False))
            route = max_min_route(g, src, dst)
            if route is None:
                continue
            assert route.nodes == best_first_fewest_hops(g, src, dst, route.bottleneck_llt)

    @pytest.mark.parametrize("seed", range(150))
    def test_all_equal_widths_match_enumeration(self, seed):
        rng = np.random.default_rng([83, seed])
        n = int(rng.integers(2, 13))
        density = float(rng.uniform(0.1, 0.5))
        label = str if seed % 2 else int
        edges = [(label(i), label(j), 4.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        g = LinkGraph.from_edges([edges[k] for k in rng.permutation(len(edges))],
                                 nodes=map(label, range(n)))
        assert max_min_route(g, label(0), label(n - 1)) == enumerate_best_route(
            g, label(0), label(n - 1))
