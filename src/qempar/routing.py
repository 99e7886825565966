"""The beacon round and multi-path route discovery.

Discovery runs once per scenario, after one synchronized beacon round and
before any traffic. It builds up to k node-disjoint source-to-sink paths:
the protocol router searches greedily by link suitability (progressing
candidates first) with backtracking under an iteratively deepened hop budget;
the baseline router takes minimum-hop paths. Paths share only the source
and sink.

Before each search, one breadth-first pass from the sink over the reversed
neighbor relation gives every node's fewest hops to the sink. The baseline
walks down that table; the greedy search skips a candidate that cannot
reach the sink within the hop cap. Nothing below such a candidate can
either, so only subtrees without a path go.
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


def _predecessors(state: NetworkState) -> list[list[int]]:
    """predecessors[w]: the alive nodes whose neighbor lists hold w,
    ascending. A dead node is in no neighbor list, so the search never
    enters one and needs no hop count for it."""
    nodes = state.topology.nodes
    predecessors: list[list[int]] = [[] for _ in nodes]
    for u, node in enumerate(nodes):
        if node.alive:
            for v in state.neighbors(u):
                predecessors[v].append(u)
    return predecessors


def _hops_to_sink(predecessors: list[list[int]], source: int, sink: int,
                  banned: set[int], direct_ok: bool) -> list[float]:
    """hops[v]: the fewest hops from v to the sink over links that avoid
    banned interiors (and, without direct_ok, the source-to-sink link),
    math.inf where there is none, from _predecessors. That relation is
    not symmetric: a node whose only link is the nearest-alive fallback is
    not a neighbor of that node."""
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


def _shortest_path(state: NetworkState, predecessors: list[list[int]], source: int,
                   sink: int, banned: set[int], direct_ok: bool) -> list[int] | None:
    """The lexicographically smallest minimum-hop path avoiding banned
    interiors (and, without direct_ok, the source-to-sink link), or None:
    from the source, each step takes the lowest-id neighbor one hop nearer
    the sink (_hops_to_sink). That is the path a breadth-first search from
    the source, taking neighbors in ascending id order, returns."""
    hops = _hops_to_sink(predecessors, source, sink, banned, direct_ok)
    if hops[source] == math.inf:
        return None
    path = [source]
    while path[-1] != sink:
        h = hops[path[-1]] - 1
        path.append(next(v for v in state.neighbors(path[-1]) if hops[v] == h))
    return path


def _bounded_greedy_dfs(state: NetworkState, source: int, sink: int, banned: set[int],
                        depth_cap: int, dist_to_sink: list[float], hops_left: list[float],
                        visit_budget: int, direct_ok: bool, score):
    """Depth-first search for one path, taking the candidate of highest
    score(cur, v), ties to the lowest id.

    Progressing candidates (strictly closer to the sink) are considered
    first; in 'preferred' mode non-progressing candidates are admitted only
    when no progressing one remains, in 'strict' mode never. Without
    direct_ok the source-to-sink link itself is skipped. A candidate v
    entered at depth is admitted only if hops_left[v] <= depth_cap - depth.
    Returns (path or None, truncated, deepest_partial): truncated means the
    visit budget stopped an unfinished search.
    """
    # Shallowest depth each node has been entered at during this cap. A
    # candidate is entered only strictly shallower than before; without
    # this the backtracking search re-explores subtrees exponentially. The
    # nodes on the path and those already tried from the current node sit
    # no deeper than its children would, so this one test rules them out;
    # banned nodes count as entered at the source's depth 0, so it rules
    # them out too.
    entered = [depth_cap + 1] * len(dist_to_sink)
    for v in banned:
        if v != sink:
            entered[v] = 0
    entered[source] = 0
    strict = state.config.progress_mode == "strict"
    path = [source]
    deepest = [source]
    visits = 0
    while path:
        cur, depth = path[-1], len(path)
        if cur == sink:
            return path, False, deepest
        links = []
        if depth <= depth_cap and visits < visit_budget:
            slack = depth_cap - depth
            links = [v for v in state.neighbors(cur) if entered[v] > depth
                     and hops_left[v] <= slack and (direct_ok or cur != source or v != sink)]
            here = dist_to_sink[cur]
            progressing = [v for v in links if dist_to_sink[v] < here]
            if progressing or strict:
                links = progressing
        if not links:
            path.pop()
        else:
            # Neighbor lists ascend by id and max() keeps the first of
            # equal scores, so ties go to the lowest id.
            nxt = max(links, key=partial(score, cur))
            visits += 1
            entered[nxt] = depth
            path.append(nxt)
            if depth >= len(deepest):
                deepest = list(path)
    return None, visits >= visit_budget, deepest


def _find_path(state: NetworkState, source: int, sink: int, cap_max: int,
               dist_to_sink: list[float], predecessors: list[list[int]], score,
               banned: set[int], direct_ok: bool) -> list[int] | None:
    """One path avoiding banned interiors (and, without direct_ok, the
    source-to-sink link), or None.

    The depth cap deepens iteratively starting from the source's hop count
    to the sink on the reduced graph (a lower bound, so skipped caps
    provably hold no path). In strict mode a search truncated by the visit
    budget blacklists the deepest partial path's interior and retries, up
    to the configured retry limit. In preferred mode the search at the
    first cap never backtracks, so the budget truncates it only when below
    the source's hop count; blacklisting never lowers that count, so every
    retry would be truncated too, and the first truncation ends the search.
    """
    cfg = state.config
    blacklist: set[int] = set()
    for _ in range(cfg.path_retry_limit + 1):
        excluded = banned | blacklist
        hops_to_sink = _hops_to_sink(predecessors, source, sink, excluded, direct_ok)
        if hops_to_sink[source] > cap_max:
            return None
        truncated_any = False
        deepest: list[int] = []
        for cap in range(hops_to_sink[source], cap_max + 1):
            path, truncated, partial = _bounded_greedy_dfs(
                state, source, sink, excluded, cap, dist_to_sink, hops_to_sink,
                cfg.search_visit_budget, direct_ok, score)
            if path is not None:
                return path
            if truncated:
                truncated_any = True
                deepest = partial
                break
        if not truncated_any:
            return None  # exhaustive search: no such path exists
        if cfg.progress_mode == "preferred":
            return None  # every retry would be truncated too
        # A truncated search made a visit (the budget is at least 1), never
        # reached the sink and never entered an excluded node, so the
        # partial path past the source is non-empty and new to the blacklist.
        blacklist.update(deepest[1:])
    return None


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
    topo = state.topology
    dist_to_sink = topo.distances.row(sink)
    # No simple path has more than n-1 hops, and every cap beyond that
    # repeats the same search, so both bounds stop there (and stay finite).
    longest = len(topo.nodes) - 1
    est = max(1, math.ceil(min(dist_to_sink[source] / topo.radio_range, longest)))
    cap_max = math.ceil(min(state.config.hop_budget_factor * est, longest))
    # The state cannot change during one discovery, so each link is scored
    # once; the scores read residual energy, so the memo lives for this call.
    score = cache(lambda a, b: link_metrics.suitability(a, b, state))
    return _disjoint_paths(source, sink, k,
                           partial(_find_path, state, source, sink, cap_max, dist_to_sink,
                                   _predecessors(state), score), score)


def minhop_paths(source: int, sink: int, k: int, state: NetworkState) -> tuple[RoutePath, ...]:
    """Up to k node-disjoint minimum-hop paths: find a shortest path, remove
    its interior (or, for a direct hop, that link), repeat."""
    _check_endpoints(state, source, sink, k)
    score = cache(lambda a, b: link_metrics.suitability(a, b, state))
    return _disjoint_paths(source, sink, k,
                           partial(_shortest_path, state, _predecessors(state), source, sink),
                           score)
