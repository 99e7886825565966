"""Node placement and neighbor relations for a static sensor field.

Nodes are placed uniformly at random with the sink and source pinned. The
neighbor relation is a closed ball of the radio range. Because a sparse field
can leave the in-range graph disconnected, placement optionally adds minimal
extended-range links (repeatedly joining the two closest components) so every
node can reach every other; these long links are flagged and transmissions
over them pay the multi-path amplifier cost.

Bridging, neighbor lists, the beacon round, carrier-sense sets and
discovery all read one DistanceTable per field, built on first use. Its
screen holds every pair's distance as np.sqrt(dx*dx + dy*dy), filled in
blocks of rows, which lies within a stated margin of the exact value. Every
distance an output reads is exact: math.hypot of the same coordinate
differences (IEEE subtraction, in numpy as in Python), equal to distance()
bit for bit. The screen only picks the pairs that need one: those it cannot
place on one side of a threshold (in-range lists, carrier-sense sets,
bridging's bands), a node's candidate farthest links (beacon reach), or a
whole row (discovery's distances to the sink, the nearest-alive fallback).
np.hypot cannot stand in for math.hypot, as it differs from it in the last
bit on about 0.6% of pairs, which would move a pair sitting at the radio
range across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import ClassVar

import numpy as np

from .errors import UnknownNodeError


@dataclass(frozen=True, slots=True)
class Position:
    """A point in the field, meters."""

    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(slots=True)
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


# The cells of the temporaries that the screen's build holds, whatever the
# field's size.
_BLOCK = 4096


def _margin(x: float) -> float:
    """How far from x a screen entry must lie for the screen alone to place
    the exact distance on the same side of x (DistanceTable)."""
    return x * 2.0 ** -40 + 2.0 ** -500


class DistanceTable:
    """Pairwise distances of a field's nodes: a screen of all pairs, and
    exact() for each distance an output reads.

    The screen is an n x n array, row and column k standing for node k, of
    np.sqrt(dx*dx + dy*dy) over the same coordinate differences dx, dy that
    distance() takes, filled a few rows at a time. exact() is math.hypot
    of those differences, so it equals distance() bit for bit; every
    distance that an output reads comes from it.

    The bound. IEEE arithmetic rounds each of the two squares, their sum and
    the root correctly, so an entry lies within about 3u of the true
    distance t of dx, dy (u = 2**-53), and math.hypot within 1 ulp (2u) of
    it. Where dx*dx underflows, the sum loses at most about 2**-1074, which
    moves the root by at most 2**-536. So an entry and the exact distance
    differ by less than 5u*t + 2**-536, far below _margin(t) = t*2**-40 +
    2**-500. Hence an entry more than _margin(r) below a threshold r has
    its exact distance <= r, and one more than _margin(r) above it has its
    exact distance > r; a pair whose entry lies within _margin(r) of r is
    decided by exact(). The one entry not covered is +inf, where the sum
    overflows although t may not; the build replaces each such entry with
    exact().
    """

    def __init__(self, nodes: list[NodeState]):
        xs = self._xs = np.array([node.position.x for node in nodes])
        ys = self._ys = np.array([node.position.y for node in nodes])
        n = len(nodes)
        screen = self.screen = np.empty((n, n))
        # Each step fills the screen's next rows from two temporaries of
        # that many rows, together about _BLOCK cells: own[k] holds node
        # start+k's coordinate in every column, other[k] every node's. numpy
        # buffers an operand that it broadcasts in arithmetic, about one
        # block more, but not one that it broadcasts in an assignment.
        rows = max(1, min(n, _BLOCK // max(2 * n, 1)))
        own, other = np.empty((rows, n)), np.empty((rows, n))
        # Overflow makes +inf, which the last line of each step replaces.
        with np.errstate(over="ignore"):
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                block, own, other = screen[start:stop], own[:stop - start], other[:stop - start]
                block[...] = xs
                own[...] = xs[start:stop, None]
                block -= own
                block *= block
                other[...] = ys
                own[...] = ys[start:stop, None]
                other -= own
                other *= other
                block += other
                np.sqrt(block, out=block)
                if block.max() == math.inf:
                    a, b = np.nonzero(block == math.inf)
                    block[a, b] = self.exact(a + start, b)

    def exact(self, a, b) -> list[float]:
        """distance() of nodes a[i] and b[i] for each i, bit for bit: one
        math.hypot of their coordinate differences per pair. a and b are
        numpy indices that broadcast together (id arrays or lists, an id, a
        slice)."""
        xs, ys = self._xs, self._ys
        return list(map(math.hypot, (xs[a] - xs[b]).tolist(), (ys[a] - ys[b]).tolist()))

    def row(self, node_id: int) -> list[float]:
        """The exact distance from node_id to every node, by id."""
        return self.exact(node_id, slice(None))

    def _within_rows(self, start: int, stop: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols), row-major, of the pairs (k, j) with k in
        start..stop-1, j != k and exact distance <= radius. The screen
        rules out the entries more than _margin(radius) above radius and
        admits those more than _margin(radius) below it; exact() decides
        the rest."""
        screen = self.screen[start:stop]
        margin = _margin(radius)
        rows, cols = np.nonzero(screen <= radius + margin)
        unsure = np.flatnonzero(screen[rows, cols] > radius - margin)
        rows += start
        keep = rows != cols
        if len(unsure):
            keep[unsure] &= np.less_equal(self.exact(rows[unsure], cols[unsure]), radius)
        return rows[keep], cols[keep]

    def within(self, node_id: int, radius: float) -> list[int]:
        """Ids of the other nodes at distance <= radius, ascending."""
        return self._within_rows(node_id, node_id + 1, radius)[1].tolist()

    def within_each(self, radius: float) -> list[list[int]]:
        """within(k, radius) of every node k, from one screening of the
        whole table split by row."""
        rows, cols = self._within_rows(0, len(self.screen), radius)
        cols = cols.tolist()
        ends = np.bincount(rows, minlength=len(self.screen)).cumsum().tolist()
        return [cols[start:end] for start, end in zip([0, *ends], ends)]

    def farthest(self, node_ids: list[int], others: list[list[int]]) -> list[float]:
        """For each node_ids[k], the largest distance to any of others[k]
        (not empty). By the bound, the entry of the link whose exact
        distance is largest lies less than 2 _margin(top) below the largest
        entry top over the node's links, so exact() runs only on the links
        whose entries reach that far, about one a node. Where top is +inf,
        the cut is nan and keeps every link."""
        counts = np.fromiter(map(len, others), np.intp, len(others))
        a = np.repeat(np.array(node_ids, np.intp), counts)
        b = np.fromiter(chain.from_iterable(others), np.intp, len(a))
        screen = self.screen[a, b]
        starts = np.cumsum(counts) - counts
        top = np.maximum.reduceat(screen, starts)
        keep = np.flatnonzero(~(screen < np.repeat(top - 2 * _margin(top), counts)))
        dist = self.exact(a[keep], b[keep])
        return np.maximum.reduceat(dist, np.searchsorted(keep, starts)).tolist()


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
    xs = rng.uniform(0.0, config.field_width, size=n - 2).tolist() if n > 2 else []
    ys = rng.uniform(0.0, config.field_height, size=n - 2).tolist() if n > 2 else []
    points = [(config.sink_x, config.sink_y), (config.source_x, config.source_y), *zip(xs, ys)]
    topo = Topology([NodeState(Position(x, y), config.initial_energy_j) for x, y in points],
                    config.radio_range_m, config.extended_range_fallback)
    if config.extended_range_fallback:
        topo.extended_links = _bridge_components(topo)
    return topo


def _bridge_components(topo: Topology) -> dict[int, tuple[int, ...]]:
    """Connect the in-range graph by repeatedly adding the shortest link
    between two components (Kruskal completion; ties broken by id pair).

    An isolated node's bridge is therefore exactly its nearest neighbor. All
    bridges exceed the radio range by construction, so transmissions over
    them pay the long-distance amplifier cost. A connected field takes no
    distance band; otherwise each band's candidates are the screen's pairs
    (a, b), a < b, whose component labels differ.
    """
    in_range = topo.in_range
    n = len(topo.nodes)
    # Label each component of the in-range graph by its lowest node, which
    # is also its root in the union-find forest below.
    parent = [-1] * n
    components = 0
    for root in range(n):
        if parent[root] < 0:
            components += 1
            parent[root] = root
            stack = [root]
            while stack:
                for b in in_range[stack.pop()]:
                    if parent[b] < 0:
                        parent[b] = root
                        stack.append(b)
    if components == 1:
        return {}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    table, comp = topo.distances, np.array(parent)
    screen = table.screen
    top = screen.max(initial=0.0)
    bridges: dict[int, list[int]] = {}
    # Kruskal needs only the pairs up to its last bridge, a small share of
    # all pairs, so it takes them in distance bands (lo, hi] of doubling
    # width. The screen picks every pair whose exact distance can lie in a
    # band (DistanceTable's bound), and the exact distances keep those that
    # do. They come out of nonzero() row-major, so ascending (a, b), and a
    # stable sort by exact distance orders them by (d, a, b); bands follow
    # one another in that order. The band edges only partition the pairs,
    # so that top is a screen value changes no bridge.
    lo = topo.radio_range
    while components > 1 and lo < math.inf:
        hi = 2 * lo if 0 < 2 * lo < top else math.inf
        a_idx, b_idx = np.nonzero((screen > lo - _margin(lo)) & (screen <= hi + _margin(hi)))
        cross = (a_idx < b_idx) & (comp[a_idx] != comp[b_idx])
        a_idx, b_idx = a_idx[cross], b_idx[cross]
        exact = np.array(table.exact(a_idx, b_idx))
        keep = np.flatnonzero((exact > lo) & (exact <= hi))
        order = keep[np.argsort(exact[keep], kind="stable")]
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
    # in_range[node_id] ascends, so only a bridge joining the list needs a sort.
    for i in topo.extended_links.get(node_id, ()):
        if nodes[i].alive and i not in out:
            out.append(i)
            out.sort()
    if not out and topo.fallback_enabled:
        row = topo.distances.row(node_id)
        nearest = min(((row[i], i) for i, n in enumerate(nodes) if n.alive and i != node_id),
                      default=None)
        return [] if nearest is None else [nearest[1]]
    return out

