"""Pick the longest-lasting route: maximize the minimum link lifetime.

A short direct link is passed over for a detour whose weakest link lasts
longer; links predicted to outlive the horizon act as infinitely wide.
The router's widest-path search and its level-order fewest-hop search are
cross-checked by exhaustive path enumeration.
"""

import math

from uavllt import LinkGraph, enumerate_best_route, max_min_route

graph = LinkGraph.from_edges([
    ("s", "t", 5.0),     # direct but short-lived
    ("s", "a", 10.0),
    ("a", "t", 8.0),     # detour bottleneck: 8 s
    ("s", "b", 9.0),
    ("b", "c", math.inf),  # pair predicted to outlive the horizon
    ("c", "t", 7.0),
])

route = max_min_route(graph, "s", "t")
print("edges:")
for pair, llt in sorted(graph.edges.items()):
    print(f"  {pair[0]}-{pair[1]}: {'inf' if math.isinf(llt) else llt}")
print()
print(f"selected route : {' -> '.join(route.nodes)}")
print(f"bottleneck llt : {route.bottleneck_llt} s")

reference = enumerate_best_route(graph, "s", "t")
assert reference == route
print("exhaustive enumeration agrees")
