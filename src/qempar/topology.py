"""Node placement and neighbor relations for a static sensor field.

Nodes are placed uniformly at random with the sink and source pinned. The
neighbor relation is a closed ball of the radio range. Because a sparse field
can leave the in-range graph disconnected, placement optionally adds minimal
extended-range links (repeatedly joining the two closest components) so every
node can reach every other; these long links are flagged and transmissions
over them pay the multi-path amplifier cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Mutable per-node state. residual_energy is derived from spent_energy
    so that energy conservation holds to float round-off."""

    node_id: int
    position: Position
    initial_energy: float  # joules, > 0
    spent_energy: float = 0.0
    alive: bool = True

    @property
    def residual_energy(self) -> float:
        """Remaining energy, clamped to [0, initial]."""
        return max(0.0, self.initial_energy - self.spent_energy)

    def spend(self, joules: float) -> bool:
        """Deduct joules; kill the node at zero. Returns True if the charge
        was clamped (requested more than remained)."""
        clamped = joules > self.initial_energy - self.spent_energy
        self.spent_energy += joules
        if self.spent_energy >= self.initial_energy:
            self.alive = False
        return clamped


@dataclass
class Topology:
    """A placed field: nodes keyed by id plus the neighbor relation inputs."""

    nodes: dict[int, NodeState]
    sink_id: int
    source_id: int
    radio_range: float  # meters
    fallback_enabled: bool = True
    # Symmetric extended-range links added at placement to connect the field;
    # empty when fallback is disabled.
    extended_links: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def node(self, node_id: int) -> NodeState:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def positions(self) -> dict[int, Position]:
        return {i: n.position for i, n in self.nodes.items()}


def place_nodes(config, seed: int) -> Topology:
    """Place config.node_count nodes in the field deterministically for a seed.

    Id 0 is the sink pinned at the sink position, id 1 the source pinned at
    the source position; remaining ids are uniform over the field using
    numpy's default PCG64 stream so seeds reproduce across platforms.
    """
    n = config.node_count
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, config.field_width, size=n - 2) if n > 2 else []
    ys = rng.uniform(0.0, config.field_height, size=n - 2) if n > 2 else []
    nodes: dict[int, NodeState] = {}
    nodes[0] = NodeState(0, Position(config.sink_x, config.sink_y), config.initial_energy_j)
    nodes[1] = NodeState(1, Position(config.source_x, config.source_y), config.initial_energy_j)
    for i in range(n - 2):
        nodes[i + 2] = NodeState(i + 2, Position(float(xs[i]), float(ys[i])), config.initial_energy_j)
    topo = Topology(
        nodes=nodes,
        sink_id=0,
        source_id=1,
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
    ids = sorted(topo.nodes)
    pos = {i: topo.nodes[i].position for i in ids}
    r = topo.radio_range
    parent = {i: i for i in ids}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pairs = []
    for idx, a in enumerate(ids):
        for b in ids[idx + 1:]:
            d = distance(pos[a], pos[b])
            if d <= r:
                parent[find(a)] = find(b)  # already linked in-range
            else:
                pairs.append((d, a, b))
    pairs.sort()
    bridges: dict[int, list[int]] = {}
    for d, a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        bridges.setdefault(a, []).append(b)
        bridges.setdefault(b, []).append(a)
    return {i: tuple(sorted(v)) for i, v in bridges.items()}


def neighbors(topo: Topology, node_id: int) -> list[int]:
    """Alive nodes within the closed radio range of node_id, plus any
    extended-range links, ascending by id.

    Dead nodes never appear. If the list comes up empty and the fallback is
    enabled, returns the single nearest alive node regardless of distance.
    """
    me = topo.node(node_id)
    r = topo.radio_range
    out = []
    for i, other in topo.nodes.items():
        if i == node_id or not other.alive:
            continue
        if distance(me.position, other.position) <= r:
            out.append(i)
    for i in topo.extended_links.get(node_id, ()):
        if topo.nodes[i].alive and i not in out:
            out.append(i)
    if not out and topo.fallback_enabled:
        best = None
        for i, other in topo.nodes.items():
            if i == node_id or not other.alive:
                continue
            d = distance(me.position, other.position)
            if best is None or (d, i) < best:
                best = (d, i)
        if best is not None:
            return [best[1]]
    return sorted(out)


def is_extended_link(topo: Topology, a: int, b: int) -> bool:
    """True when the a-b hop exceeds the radio range (bridge or fallback)."""
    return distance(topo.node(a).position, topo.node(b).position) > topo.radio_range
