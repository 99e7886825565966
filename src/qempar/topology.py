"""Node placement and neighbor relations for a static sensor field.

Nodes are placed uniformly at random with the sink and source pinned. The
neighbor relation is a closed ball of the radio range. Because a sparse field
can leave the in-range graph disconnected, placement optionally adds minimal
extended-range links (repeatedly joining the two closest components) so every
node can reach every other; these long links are flagged and transmissions
over them pay the multi-path amplifier cost.

Bridging, neighbor lists, the beacon round and carrier-sense sets all read
one pairwise distance table per field, built on first use; the first two
read every node's in-range list, split from one comparison of the whole
table with the radio range. Its entries are exactly
distance(): numpy takes the coordinate differences, which is IEEE subtraction
as in Python, but each entry is math.hypot of them. np.hypot cannot stand in,
as it differs from math.hypot in the last bit on about 0.6% of pairs, which
would move a pair sitting at the radio range across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import UnknownNodeError


@dataclass(frozen=True)
class Position:
    """A point in the field, meters."""

    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass
class NodeState:
    """A node and what set-up spent of its energy. Liveness and residual
    energy are derived from spent_energy, so a node is dead exactly when it
    has spent its energy and conservation holds to float round-off."""

    position: Position
    initial_energy: float  # joules, > 0
    spent_energy: float = 0.0

    @property
    def alive(self) -> bool:
        return self.spent_energy < self.initial_energy

    @property
    def residual_energy(self) -> float:
        """Remaining energy, clamped to [0, initial]."""
        return max(0.0, self.initial_energy - self.spent_energy)

    def spend(self, joules: float) -> bool:
        """Deduct joules, which kills the node at zero. Returns True if the
        charge was clamped (requested more than remained)."""
        clamped = joules > self.initial_energy - self.spent_energy
        self.spent_energy += joules
        return clamped


class DistanceTable:
    """Pairwise distances of a field's nodes, row and column k standing for
    node k. Entry (a, b) equals distance() of the two positions bit for bit.
    Every node's in-range list comes from one comparison of the whole table
    (within_each); carrier-sense sets and the nearest-alive fallback read
    single rows."""

    def __init__(self, nodes: list[NodeState]):
        xs = np.array([node.position.x for node in nodes])
        ys = np.array([node.position.y for node in nodes])
        n = len(nodes)
        d = self.d = np.zeros((n, n))
        # Row by row above the diagonal, each row written to its mirror
        # column too: math.hypot ignores the signs of the differences, so
        # the mirrored entry is the same float.
        for k in range(n - 1):
            d[k, k + 1:] = d[k + 1:, k] = np.fromiter(
                map(math.hypot, (xs[k + 1:] - xs[k]).tolist(), (ys[k + 1:] - ys[k]).tolist()),
                float, n - 1 - k)

    def within(self, node_id: int, radius: float) -> list[int]:
        """Ids of the other nodes at distance <= radius, ascending."""
        return [j for j in np.flatnonzero(self.d[node_id] <= radius).tolist() if j != node_id]

    def within_each(self, radius: float) -> list[list[int]]:
        """within(k, radius) of every node k, from one comparison of the
        whole table with radius split by row."""
        near = self.d <= radius
        np.fill_diagonal(near, False)
        rows, cols = np.nonzero(near)  # row-major, so ascending (row, col)
        cols = cols.tolist()
        ends = np.bincount(rows, minlength=len(near)).cumsum().tolist()
        return [cols[start:end] for start, end in zip([0, *ends], ends)]

    def by_distance(self, node_id: int) -> list[int]:
        """Ids of the other nodes by ascending (distance, id)."""
        return [j for j in np.argsort(self.d[node_id], kind="stable").tolist() if j != node_id]

    def farthest(self, node_id: int, others) -> float:
        """The largest distance from node_id to any of others (not empty)."""
        return max(map(self.d[node_id].item, others))


@dataclass
class Topology:
    """A placed field: node i at nodes[i], the sink node 0 and the source
    node 1, plus the neighbor relation inputs."""

    sink_id: ClassVar[int] = 0
    source_id: ClassVar[int] = 1
    nodes: list[NodeState]
    radio_range: float  # meters
    fallback_enabled: bool = True
    # Symmetric extended-range links added at placement to connect the field;
    # empty when fallback is disabled.
    extended_links: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def node(self, node_id: int) -> NodeState:
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNodeError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    @cached_property
    def distances(self) -> DistanceTable:
        """The distance table, built on first use; nodes never move."""
        return DistanceTable(self.nodes)

    @cached_property
    def in_range(self) -> list[list[int]]:
        """in_range[k]: the other nodes within the closed radio range of
        node k, dead or alive, ascending by id; built on first use."""
        return self.distances.within_each(self.radio_range)


def place_nodes(config, seed: int) -> Topology:
    """Place config.node_count nodes in the field deterministically for a seed.

    Node 0 is the sink pinned at the sink position, node 1 the source pinned
    at the source position; nodes 2..n-1 are uniform over the field using
    numpy's default PCG64 stream so seeds reproduce across platforms.
    """
    n = config.node_count
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, config.field_width, size=n - 2) if n > 2 else []
    ys = rng.uniform(0.0, config.field_height, size=n - 2) if n > 2 else []
    points = [(config.sink_x, config.sink_y), (config.source_x, config.source_y),
              *zip(map(float, xs), map(float, ys))]
    topo = Topology(
        nodes=[NodeState(Position(x, y), config.initial_energy_j) for x, y in points],
        radio_range=config.radio_range_m,
        fallback_enabled=config.extended_range_fallback,
    )
    if config.extended_range_fallback:
        topo.extended_links = _bridge_components(topo)
    return topo


def _bridge_components(topo: Topology) -> dict[int, tuple[int, ...]]:
    """Connect the in-range graph by repeatedly adding the shortest link
    between two components (Kruskal completion; ties broken by id pair).

    An isolated node's bridge is therefore exactly its nearest neighbor. All
    bridges exceed the radio range by construction, so transmissions over
    them pay the long-distance amplifier cost.
    """
    d = topo.distances.d
    in_range = topo.in_range
    # Label each component of the in-range graph by its lowest node, which
    # is also its root in the union-find forest below.
    parent = [-1] * len(d)
    for root in range(len(d)):
        if parent[root] < 0:
            parent[root] = root
            stack = [root]
            while stack:
                for b in in_range[stack.pop()]:
                    if parent[b] < 0:
                        parent[b] = root
                        stack.append(b)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # The comparison below buffers its broadcast operands 8192 at a time, so
    # the labels take the narrowest dtype: as int64 that buffer was 0.13 MB,
    # the largest transient allocation of a 100-node set-up.
    comp = np.array(parent, dtype=np.min_scalar_type(len(d)))
    components = sum(i == root for i, root in enumerate(parent))
    cross = np.triu(comp[:, None] != comp[None, :], 1)
    top = d.max(initial=0.0)
    bridges: dict[int, list[int]] = {}
    # Kruskal needs only the pairs up to its last bridge, a small share of
    # all pairs, so it takes them in distance bands (lo, hi] of doubling
    # width. Within a band, the pairs come out of nonzero() row-major, so
    # ascending (a, b), and a stable sort by distance orders them by
    # (d, a, b); bands follow one another in that order.
    lo = topo.radio_range
    while components > 1 and lo < math.inf:
        hi = 2 * lo if 0 < 2 * lo < top else math.inf
        a_idx, b_idx = np.nonzero(cross & (d > lo) & (d <= hi))
        order = np.argsort(d[a_idx, b_idx], kind="stable")
        for a, b in zip(a_idx[order].tolist(), b_idx[order].tolist()):
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            parent[ra] = rb
            bridges.setdefault(a, []).append(b)
            bridges.setdefault(b, []).append(a)
            components -= 1
            if components == 1:
                break
        lo = hi
    return {i: tuple(sorted(v)) for i, v in bridges.items()}


def neighbors(topo: Topology, node_id: int) -> list[int]:
    """Alive nodes within the closed radio range of node_id, plus any
    extended-range links, ascending by id: topo.in_range[node_id], filtered
    by liveness, plus the bridges.

    Dead nodes never appear. If the list comes up empty and the fallback is
    enabled, returns the single nearest alive node regardless of distance.
    """
    topo.node(node_id)
    nodes = topo.nodes
    out = [i for i in topo.in_range[node_id] if nodes[i].alive]
    for i in topo.extended_links.get(node_id, ()):
        if nodes[i].alive and i not in out:
            out.append(i)
    if not out and topo.fallback_enabled:
        for i in topo.distances.by_distance(node_id):
            if nodes[i].alive:
                return [i]
    return sorted(out)

