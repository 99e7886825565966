"""The beacon round and multi-path route discovery.

Discovery runs once per scenario, after one synchronized beacon round and
before any traffic. It builds up to k node-disjoint source-to-sink paths,
which share only the source and sink, each by one walk: one breadth-first
pass from the sink over the reversed links the router admits counts every
node's fewest hops to the sink, and the walk steps from the source, each
time to a neighbor one hop nearer the sink. The protocol router takes the
most suitable such neighbor, progressing ones first (in strict mode it
admits progressing links only); the baseline takes the lowest id, so its
paths are minimum-hop paths.
"""

from __future__ import annotations

import math
from functools import cache, partial

from . import link_metrics
from .errors import NoPathError
from .link_metrics import NetworkState, RoutePath
from .energy import rx_energy, tx_energy


def beacon_exchange(state: NetworkState) -> None:
    """One synchronized beacon round at time zero, which only spends energy.

    When beacon accounting is on, every alive node broadcasts one beacon
    sized to reach its farthest neighbor and every neighbor receives it;
    both sides pay for it. Beacons never touch the link counters.
    """
    cfg = state.config
    if not cfg.beacon_accounting:
        return
    topo = state.topology
    bits = cfg.beacon_bytes * 8
    ledger, params = state.ledger, state.params
    rx_j = rx_energy(bits, params)
    ids = [i for i, n in enumerate(topo.nodes) if n.alive]
    # Neighbor lists are taken before any energy is spent, so a node that
    # dies in this round still hears and is heard by everyone.
    nbr_map = {i: state.neighbors(i) for i in ids}
    senders = [i for i in ids if nbr_map[i]]
    reaches = topo.distances.farthest(senders, [nbr_map[i] for i in senders])
    for i, reach in zip(senders, reaches):
        ledger.add(topo.nodes[i], tx_energy(bits, reach, params))
        for v in nbr_map[i]:
            ledger.add(topo.nodes[v], rx_j)
    if not all(topo.nodes[i].alive for i in ids):
        state.invalidate_neighbors()


def _links(state: NetworkState, dist_to_sink: list[float] | None = None) -> list[list[int]]:
    """links[u]: the nodes u may step to, ascending: state.neighbors(u)
    and, with dist_to_sink (strict progress), only those strictly nearer
    the sink. A dead node is in no neighbor list, so none steps into one,
    and it steps nowhere itself."""
    nodes = state.topology.nodes
    links = [state.neighbors(u) if node.alive else [] for u, node in enumerate(nodes)]
    if dist_to_sink is None:
        return links
    return [[v for v in out if dist_to_sink[v] < dist_to_sink[u]] for u, out in enumerate(links)]


def _predecessors(links: list[list[int]]) -> list[list[int]]:
    """predecessors[w]: the nodes u with w in links[u], ascending. That
    relation is not symmetric: a node whose only link is the nearest-alive
    fallback is not a neighbor of that node."""
    predecessors: list[list[int]] = [[] for _ in links]
    for u, out in enumerate(links):
        for v in out:
            predecessors[v].append(u)
    return predecessors


def _hops_to_sink(predecessors: list[list[int]], source: int, sink: int,
                  banned: set[int], direct_ok: bool) -> list[float]:
    """hops[v]: the fewest hops from v to the sink over the links behind
    predecessors that avoid banned interiors (and, without direct_ok, the
    source-to-sink link), math.inf where there is none."""
    hops = [math.inf] * len(predecessors)
    hops[sink] = 0
    frontier = [sink]
    while frontier:
        reached = []
        for w in frontier:
            h = hops[w] + 1
            for u in predecessors[w]:
                if h < hops[u] and u not in banned and (direct_ok or w != sink or u != source):
                    hops[u] = h
                    reached.append(u)
        frontier = reached
    return hops


def _walk(links: list[list[int]], predecessors: list[list[int]], source: int, sink: int,
          limit: int, pick, banned: set[int], direct_ok: bool) -> list[int] | None:
    """One path avoiding banned interiors (and, without direct_ok, the
    source-to-sink link), or None when the source has no such path of at
    most limit hops. From the source, each step goes to pick(cur, cands),
    cands being cur's links one hop nearer the sink (_hops_to_sink); every
    node with a finite count has one, and without direct_ok the source's
    are all at least one hop from the sink."""
    hops = _hops_to_sink(predecessors, source, sink, banned, direct_ok)
    if hops[source] > limit:
        return None
    path = [source]
    while path[-1] != sink:
        cur = path[-1]
        h = hops[cur] - 1
        path.append(pick(cur, [v for v in links[cur] if hops[v] == h]))
    return path


def _check_endpoints(state: NetworkState, source: int, sink: int, k: int) -> None:
    """A dead source or sink is in no neighbor list, so the hop table gives
    it no route and discovery raises NoPathError without a test here."""
    if k < 1:
        raise ValueError("k must be at least 1")
    state.topology.node(source)
    state.topology.node(sink)
    if source == sink:
        raise ValueError("source and sink must differ")


def _disjoint_paths(source: int, sink: int, k: int, find_path,
                    score) -> tuple[RoutePath, ...]:
    """Up to k node-disjoint paths, accepted sequentially: each accepted
    path's interior is banned for the next, and a direct source-to-sink hop
    is taken at most once. find_path(banned, direct_ok) returns one path's
    node ids or None; a path's merit sums score(a, b) over its links.
    Returns them ranked by ascending hop count, then descending merit, then
    ascending first-interior id. Raises NoPathError when not even one path
    exists."""
    used: set[int] = set()
    paths: list[RoutePath] = []
    for _ in range(k):
        direct_ok = all(p.hop_count > 1 for p in paths)
        ids = find_path(used, direct_ok)
        if ids is None:
            break
        paths.append(RoutePath(tuple(ids), sum(score(a, b) for a, b in zip(ids, ids[1:]))))
        used.update(ids[1:-1])
    if not paths:
        raise NoPathError(f"no path from {source} to {sink}")
    return tuple(sorted(paths, key=lambda p: (p.hop_count, -p.merit, p.node_ids[1])))


def discover_paths(source: int, sink: int, k: int, state: NetworkState) -> tuple[RoutePath, ...]:
    """Up to k node-disjoint suitability-greedy paths, best-effort.

    Returns fewer than k when the topology cannot support more and raises
    NoPathError when not even one path exists.
    """
    _check_endpoints(state, source, sink, k)
    topo, cfg = state.topology, state.config
    dist_to_sink = topo.distances.row(sink)
    # No simple path has more than n-1 hops, so both bounds stop there (and
    # stay finite).
    longest = len(topo.nodes) - 1
    est = max(1, math.ceil(min(dist_to_sink[source] / topo.radio_range, longest)))
    cap_max = math.ceil(min(cfg.hop_budget_factor * est, longest))
    # The state cannot change during one discovery, so each link is scored
    # once; the scores read residual energy, so the memo lives for this call.
    score = cache(lambda a, b: link_metrics.suitability(a, b, state))

    def pick(cur, cands):
        # Neighbor lists ascend by id and max() keeps the first of equal
        # scores, so ties go to the lowest id. Progressing candidates come
        # first; in strict mode _links admits no other kind.
        here = dist_to_sink[cur]
        return max([v for v in cands if dist_to_sink[v] < here] or cands, key=partial(score, cur))

    links = _links(state, dist_to_sink if cfg.progress_mode == "strict" else None)
    return _disjoint_paths(source, sink, k,
                           partial(_walk, links, _predecessors(links), source, sink,
                                   cap_max, pick), score)


def minhop_paths(source: int, sink: int, k: int, state: NetworkState) -> tuple[RoutePath, ...]:
    """Up to k node-disjoint minimum-hop paths: find the lexicographically
    smallest shortest path (each step to the lowest-id candidate, the path
    a breadth-first search from the source taking neighbors in ascending
    id order returns), remove its interior (or, for a direct hop, that
    link), repeat."""
    _check_endpoints(state, source, sink, k)
    score = cache(lambda a, b: link_metrics.suitability(a, b, state))
    links = _links(state)
    return _disjoint_paths(source, sink, k,
                           partial(_walk, links, _predecessors(links), source, sink,
                                   len(links) - 1, lambda _, cands: cands[0]), score)
