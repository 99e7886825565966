"""
Placing a field and discovering node-disjoint paths
===================================================

Random placement with a pinned sink and source, range-limited neighbor
lists (plus the extended links that keep sparse fields connected), and
the two routers' path sets side by side.
"""

import math

from qempar import ScenarioConfig, beacon_exchange, discover_paths, minhop_paths, place_nodes
from qempar.link_metrics import NetworkState

# A denser field than the default so several disjoint paths exist:
# 80 nodes on 200 m x 200 m, sink at the origin, source at (150, 150).
config = ScenarioConfig(node_count=80, field_width=200.0, field_height=200.0,
                        source_x=150.0, source_y=150.0)
topology = place_nodes(config, seed=18)
state = NetworkState(topology, config.radio_params(), config)

# Node i is topology.nodes[i]; nodes 0 and 1 are always the sink and the source.
print(f"{config.node_count} nodes, radio range {config.radio_range_m} m")
print(f"sink   0 at {topology.nodes[0].position}")
print(f"source 1 at {topology.nodes[1].position}")
print(f"source neighbors: {state.neighbors(1)}")
print(f"extended links added to connect components: {topology.extended_links or 'none'}")

# One beacon round debits every node for its own beacon and for each one it
# hears. It builds no table of its own: the network state caches each node's
# neighbor list, read from placement's distance table on first use, and the
# round drops that cache if a beacon kills a node. The suitability score
# reads positions, residual energy and the cold-start PPS/PPR value straight
# from the network state.
beacon_exchange(state)
beacon_j = math.fsum(n.spent_energy for n in topology.nodes)
print(f"beacon round cost: {beacon_j * 1e3:.3f} mJ across the field")

# Each router returns a tuple of up to k node-disjoint paths, ordered by hop
# count, then by total link merit; the baseline takes minimum-hop paths only.
for name, finder in (("qempar", discover_paths), ("minhop", minhop_paths)):
    paths = finder(1, 0, 4, state)
    print(f"\n{name}: {len(paths)} disjoint path(s)")
    for p in paths:
        print(f"  {p.hop_count:2d} hops  merit {p.merit:7.3f}  {p.node_ids}")

# Disjointness means the paths share no interior node, so one exhausted
# relay can only take down a single path.
interiors = [set(p.interior()) for p in discover_paths(1, 0, 4, state)]
shared = set.intersection(*interiors) if len(interiors) > 1 else set()
print(f"\ninterior nodes shared between paths: {shared or 'none'}")
