"""Beacon exchange accounting and multi-path discovery."""

import hashlib
import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings

from qempar import (ScenarioConfig, beacon_exchange, discover_paths, minhop_paths, run,
                    rx_energy, tx_energy)
from qempar import link_metrics, routing
from qempar.engine import discover, setup, simulate
from qempar.errors import NoPathError
from qempar.link_metrics import NetworkState, RoutePath, suitability

from conftest import assert_valid_paths, make_state, manual_topology, valid_configs


def test_beacon_exchange_debits_exact_energy(line_topology):
    state = make_state(line_topology)
    p = state.params
    bits = state.config.beacon_bytes * 8
    beacon_exchange(state)
    tx30 = tx_energy(bits, 30.0, p)
    rx = rx_energy(bits, p)
    nodes = line_topology.nodes
    assert nodes[0].spent_energy == pytest.approx(tx30 + rx, rel=1e-12)
    assert nodes[1].spent_energy == pytest.approx(tx30 + 2 * rx, rel=1e-12)
    assert nodes[2].spent_energy == pytest.approx(tx30 + rx, rel=1e-12)
    assert math.fsum(n.spent_energy for n in nodes) == pytest.approx(
        3 * tx30 + 4 * rx, rel=1e-12)
    assert state.ledger.clamped_debits == 0


def test_beacons_never_touch_link_counters(line_topology):
    state = make_state(line_topology, cold_start_value=0.4)
    beacon_exchange(state)
    for node in range(len(line_topology.nodes)):
        assert state.node_pps(node) == state.node_ppr(node) == 0.4


def test_beacon_accounting_can_be_disabled(line_topology):
    state = make_state(line_topology, beacon_accounting=False)
    beacon_exchange(state)
    assert all(n.spent_energy == 0.0 for n in line_topology.nodes)
    assert math.fsum(n.spent_energy for n in line_topology.nodes) == 0.0


def _stub_discovery(found, link_scores, k=4):
    """routing._disjoint_paths from source 1 to sink 0 over a stub find_path
    that returns the node-id paths of found in turn, then None, a link's
    score being link_scores[a, b] (0 if absent): (the ranked paths' node
    ids, the (banned, direct_ok) of each find_path call)."""
    calls, queue = [], list(found)

    def find_path(banned, direct_ok):
        calls.append((set(banned), direct_ok))
        return queue.pop(0) if queue else None

    paths = routing._disjoint_paths(1, 0, k, find_path,
                                    lambda a, b: link_scores.get((a, b), 0.0))
    return [p.node_ids for p in paths], calls


def test_disjoint_paths_rank_by_hop_count_and_ban_each_interior():
    ids, calls = _stub_discovery([(1, 5, 6, 0), (1, 4, 0), (1, 3, 0)],
                                 {(1, 5): 9.0, (1, 4): 5.0, (1, 3): 7.0})
    assert ids == [(1, 3, 0), (1, 4, 0), (1, 5, 6, 0)]
    assert calls == [(set(), True), ({5, 6}, True), ({4, 5, 6}, True), ({3, 4, 5, 6}, True)]


def test_disjoint_paths_tie_break_merit_then_first_interior():
    assert _stub_discovery([(1, 2, 0), (1, 7, 0)], {(1, 7): 9.0, (1, 2): 3.0})[0] == [
        (1, 7, 0), (1, 2, 0)]
    assert _stub_discovery([(1, 8, 0), (1, 3, 0)], {(1, 8): 4.0, (1, 3): 4.0})[0] == [
        (1, 3, 0), (1, 8, 0)]


def test_disjoint_paths_take_the_direct_hop_once():
    ids, calls = _stub_discovery([(1, 0), (1, 4, 0)], {}, k=3)
    assert ids == [(1, 0), (1, 4, 0)]
    assert calls == [(set(), True), (set(), False), ({4}, False)]


def _adjacent_source_state(node_count):
    """Seed 1 of a field whose source lies within radio range of the sink."""
    return setup(ScenarioConfig(source_x=20, source_y=20, node_count=node_count, seed=1))


@pytest.mark.parametrize("find", [discover_paths, minhop_paths])
@pytest.mark.parametrize("node_count, expected", [
    (2, [(1, 0)]),
    (300, [(1, 0), (1, 63, 0), (1, 265, 0)]),
])
def test_direct_hop_is_used_at_most_once(find, node_count, expected):
    paths = find(1, 0, 4, _adjacent_source_state(node_count))
    assert [p.node_ids for p in paths] == expected


@pytest.mark.parametrize("router", ["qempar", "minhop"])
@pytest.mark.parametrize("node_count, qempar_hops", [(2, (1,)), (300, (1, 2, 2))])
def test_adjacent_source_run_reports_distinct_paths(router, node_count, qempar_hops):
    cfg = ScenarioConfig(source_x=20, source_y=20, node_count=node_count,
                         router=router, duration_s=1.0)
    metrics = run(cfg, 1)
    assert metrics.path_hops == (qempar_hops if router == "qempar" else (1,))
    assert metrics.n_paths == len(metrics.path_hops)
    assert metrics.delivered + metrics.expired + metrics.dropped == metrics.generated


def _diamond_state():
    """Source 1 and sink 0 joined by two symmetric two-hop corridors."""
    topo = manual_topology(
        [(100, 0), (0, 0), (50, 10), (50, -10)], radio_range=60.0)
    return make_state(topo)


def test_discover_finds_disjoint_paths_on_diamond():
    state = _diamond_state()
    paths = discover_paths(1, 0, 2, state)
    assert [p.node_ids for p in paths] == [(1, 2, 0), (1, 3, 0)]
    interiors = [set(p.interior()) for p in paths]
    assert interiors[0].isdisjoint(interiors[1])


def test_discover_stops_when_paths_run_out():
    paths = discover_paths(1, 0, 4, _diamond_state())
    assert len(paths) == 2  # only two disjoint corridors exist


def test_discover_rejects_bad_arguments():
    state = _diamond_state()
    with pytest.raises(ValueError):
        discover_paths(1, 1, 2, state)
    with pytest.raises(ValueError):
        discover_paths(1, 0, 0, state)
    # A dead node is in no neighbor list, so the hop table gives a dead
    # source or sink no route.
    for find in (discover_paths, minhop_paths):
        for dead in (1, 0):
            state = _diamond_state()
            state.topology.nodes[dead].spent_energy = 10.0
            with pytest.raises(NoPathError):
                find(1, 0, 2, state)


def _diamond_path(state, *ids, merit_error=0.0):
    return RoutePath(ids, sum(suitability(a, b, state) for a, b in zip(ids, ids[1:]))
                     + merit_error)


@pytest.mark.parametrize("routes, k, merit_error, breach", [
    ([(1,)], 1, 0.0, "a path's endpoints"),
    ([(1, 2, 3, 2, 0)], 1, 0.0, "a path repeats a node"),
    ([(1, 0)], 1, 0.0, "a hop over no link"),
    ([(1, 2)], 1, 0.0, "a path's endpoints"),
    ([(2, 0)], 1, 0.0, "a path's endpoints"),
    ([(1, 2, 0)], 1, 1e-9, "merit"),
    ([(1, 2, 0), (1, 2, 3, 0)], 2, 0.0, "paths share an interior node"),
    ([(1, 3, 0), (1, 2, 0)], 2, 0.0, "paths out of rank order"),
    ([(1, 2, 0), (1, 3, 0)], 1, 0.0, "more paths than asked for"),
])
def test_path_oracle_rejects_each_breach(routes, k, merit_error, breach):
    """assert_valid_paths, the one check of the path invariants, fails on
    each hand-built breach of the diamond's two ranked paths."""
    state = _diamond_state()
    assert_valid_paths(state, [_diamond_path(state, 1, 2, 0), _diamond_path(state, 1, 3, 0)], 2)
    paths = [_diamond_path(state, *ids, merit_error=merit_error) for ids in routes]
    with pytest.raises(AssertionError, match=breach):
        assert_valid_paths(state, paths, k)


def test_no_route_raises():
    topo = manual_topology([(0, 0), (500, 0)], radio_range=40.0)
    with pytest.raises(NoPathError):
        minhop_paths(1, 0, 1, make_state(topo))
    with pytest.raises(NoPathError):
        discover_paths(1, 0, 1, make_state(topo))


def test_discovery_ignores_mac_state():
    """Discovery scores what exists before traffic: after traffic has run on
    a state, it yields the same paths and merits as before."""
    cfg = ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                         source_x=212.1, source_y=212.1, duration_s=0.5, rate_pkts_per_s=30.0)
    for seed in range(1, 21):
        state = setup(replace(cfg, seed=seed))
        paths = discover(state)
        assert simulate(state, paths).generated > 0
        assert discover(state) == paths, f"seed {seed}"


def test_discovery_scores_each_link_at_most_once(monkeypatch):
    calls = Counter()

    def counted(a, b, state):
        calls[a, b] += 1
        return suitability(a, b, state)

    monkeypatch.setattr(link_metrics, "suitability", counted)
    cfg = ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                         source_x=212.1, source_y=212.1, seed=1)
    state = setup(cfg)
    assert len(discover_paths(1, 0, 4, state)) > 1
    assert max(calls.values()) == 1


def test_a_later_discovery_sees_a_changed_residual():
    """The link scores of one discovery do not outlive it."""
    state = _diamond_state()
    first = discover_paths(1, 0, 1, state)[0]
    assert first.node_ids == (1, 2, 0)  # a tie, won by the lower id
    state.topology.nodes[2].spent_energy += 0.5
    second = discover_paths(1, 0, 1, state)[0]
    assert second.node_ids == (1, 3, 0)
    assert second.merit == first.merit
    assert discover_paths(1, 0, 2, state)[1].merit == first.merit - 0.5 / 2.0


def test_ties_go_to_the_lowest_id_on_symmetric_corridors():
    """Two mirror-image corridors of 50 m hops meet at node 4 and part
    again: the walk meets an exact tie of scores at the source (2 or 3)
    and at node 4 (5 or 6), and takes the lower id both times."""
    state = make_state(manual_topology(
        [(120, 0), (0, 0), (30, 40), (30, -40), (60, 0), (90, 40), (90, -40)],
        radio_range=50.0))
    assert suitability(1, 2, state) == suitability(1, 3, state)
    assert suitability(4, 5, state) == suitability(4, 6, state)
    paths = discover_paths(1, 0, 2, state)
    assert [p.node_ids for p in paths] == [(1, 2, 4, 5, 0)]


def test_paths_flag_extended_hops():
    topo = manual_topology([(0, 0), (300, 0), (30, 0)],
                           radio_range=40.0, fallback=True,
                           extended={1: (2,), 2: (1,)})
    state = make_state(topo)
    # Node 1 reaches the sink only over its 270 m bridge to node 2.
    assert minhop_paths(1, 0, 1, state)[0].node_ids == (1, 2, 0)


def test_a_huge_hop_budget_factor_still_finds_no_strict_path():
    """Strict progress finds no path on seed 2 at any hop budget: the
    budget stops at n - 1 hops, which no simple path exceeds."""
    cfg = ScenarioConfig(progress_mode="strict", duration_s=0.1, hop_budget_factor=1e12)
    assert run(cfg, 2).n_paths == 0


def _max_disjoint_paths(state, source, sink):
    """Menger oracle: the most node-disjoint source-to-sink paths over
    state.neighbors, as a unit-capacity max flow (Edmonds-Karp) on the
    node-split graph. Node v is entered at (v, 0) and left from (v, 1);
    every node but the endpoints carries one unit, as does each link, so a
    direct source-to-sink hop counts once."""
    residual = defaultdict(int)
    adj = defaultdict(set)

    def link(a, b):
        residual[a, b] += 1
        adj[a].add(b)
        adj[b].add(a)

    for u in range(len(state.topology.nodes)):
        if u not in (source, sink):
            link((u, 0), (u, 1))
        for v in state.neighbors(u):
            link((u, 1), (v, 0))
    start, goal = (source, 1), (sink, 0)
    flow = 0
    while True:
        parent = {start: None}
        queue = deque([start])
        while queue and goal not in parent:
            a = queue.popleft()
            for b in adj[a]:
                if b not in parent and residual[a, b] > 0:
                    parent[b] = a
                    queue.append(b)
        if goal not in parent:
            return flow
        b = goal
        while parent[b] is not None:
            a = parent[b]
            residual[a, b] -= 1
            residual[b, a] += 1
            b = a
        flow += 1


def _rebuilding_greedy_dfs(state: NetworkState, source: int, sink: int, banned: set[int],
                           depth_cap: int, dist_to_sink: list[float], hops_left: list[float],
                           visit_budget: int, direct_ok: bool, score):
    """The search qempar discovery first made, the reference for its walk:
    a depth-first search for one path within depth_cap hops, taking the
    candidate of highest score(cur, v), ties to the lowest id, progressing
    candidates first ('preferred') or only ('strict'), and backtracking
    when none is left. It rebuilds, re-filters and re-scores the current
    node's candidates at every step. A candidate v at depth must have
    hops_left[v] <= depth_cap - depth. Returns (path or None, truncated):
    truncated means the visit budget stopped an unfinished search."""
    strict = state.config.progress_mode == "strict"
    path = [source]
    on_path = {source}
    tried: dict[int, set[int]] = {source: set()}
    # Shallowest depth each node has been expanded at during this cap. A
    # candidate is re-entered only strictly shallower than before; without
    # this the backtracking search re-explores subtrees exponentially.
    entered = {source: 0}
    visits = 0
    while path:
        cur = path[-1]
        if cur == sink:
            return path, False
        nxt = None
        if len(path) - 1 < depth_cap and visits < visit_budget:
            depth = len(path)
            cands = [v for v in state.neighbors(cur)
                     if v not in on_path and v not in tried[cur]
                     and entered.get(v, depth_cap + 1) > depth
                     and hops_left[v] <= depth_cap - depth
                     and (v == sink or v not in banned)
                     and (direct_ok or cur != source or v != sink)]
            here = dist_to_sink[cur]
            prog = [v for v in cands if dist_to_sink[v] < here]
            if strict:
                cands = prog
            else:
                cands = prog if prog else cands
            if cands:
                nxt = min(cands, key=lambda v: (-score(cur, v), v))
        if nxt is None:
            dead = path.pop()
            on_path.discard(dead)
            tried.pop(dead, None)
            if path:
                tried[path[-1]].add(dead)
        else:
            visits += 1
            tried[nxt] = set()
            entered[nxt] = len(path)
            path.append(nxt)
            on_path.add(nxt)
    return None, visits >= visit_budget


def _graph_state(links):
    """A state whose neighbor graph is exactly the given links: nodes lie
    100 m apart with a 1 m range, joined only by extended links."""
    extended = defaultdict(tuple)
    for a, b in links:
        extended[a] += (b,)
        extended[b] += (a,)
    n = max(i for link in links for i in link) + 1
    return make_state(manual_topology([(100 * i, 0) for i in range(n)], radio_range=1.0,
                                      extended=dict(extended)))


def test_max_flow_oracle_counts_node_disjoint_paths():
    # The unique shortest path 1-2-3-0 blocks both of the two disjoint paths
    # 1-2-4-5-0 and 1-6-7-3-0, so iterated BFS finds one.
    trap = _graph_state([(1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 0),
                         (1, 6), (6, 7), (7, 3)])
    assert _max_disjoint_paths(trap, 1, 0) == 2
    assert len(minhop_paths(1, 0, 4, trap)) == 1
    # Two link-disjoint paths that share node 4.
    bowtie = _graph_state([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 0), (6, 0)])
    assert _max_disjoint_paths(bowtie, 1, 0) == 1
    assert _max_disjoint_paths(_diamond_state(), 1, 0) == 2
    assert _max_disjoint_paths(_adjacent_source_state(2), 1, 0) == 1


def test_routers_find_no_more_paths_than_max_flow_allows():
    rng = random.Random(99)
    k = 4
    for _ in range(80):
        side = rng.uniform(100.0, 300.0)
        cfg = ScenarioConfig(node_count=rng.randrange(10, 151), field_width=side,
                             field_height=side, source_x=0.75 * side, source_y=0.75 * side,
                             extended_range_fallback=rng.random() < 0.8)
        state = setup(replace(cfg, seed=rng.randrange(10000)))
        bound = min(k, _max_disjoint_paths(state, 1, 0))
        for find in (discover_paths, minhop_paths):
            try:
                n_paths = len(find(1, 0, k, state))
            except NoPathError:
                n_paths = 0
            assert n_paths <= bound, (cfg, find.__name__)


# A 120-node field whose beacon round kills 0-22 nodes on seeds 1-30 and
# leaves some alive nodes only a one-way nearest-alive fallback link.
DYING = ScenarioConfig(node_count=120, initial_energy_j=1e-4)

# Fields whose discovery the path hash pins: the default; a dense field with
# several disjoint paths; literal scoring; strict progress; a field without
# bridging that has paths on 17 of seeds 1-30; strict progress with the
# tightest hop budget; a field whose beacon round spends most of a node's
# energy, though on seeds 1-30 none dies; and DYING, where nodes die and
# links are one-way.
PINNED_DISCOVERY = [
    ScenarioConfig(),
    ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                   source_x=212.1, source_y=212.1),
    ScenarioConfig(node_count=200, appr_mode="literal", interference_mode="literal"),
    ScenarioConfig(node_count=300, progress_mode="strict"),
    ScenarioConfig(node_count=60, field_width=200.0, field_height=200.0, source_x=150.0,
                   source_y=150.0, extended_range_fallback=False),
    ScenarioConfig(node_count=40, progress_mode="strict", hop_budget_factor=1.0),
    ScenarioConfig(node_count=120, initial_energy_j=2e-4),
    DYING,
]


def test_discovered_paths_are_pinned():
    """Every path both routers find on seeds 1-30 of each pinned field, its
    node ids and the exact bits of its merit, fed in order into one hash."""
    digest, n_paths = hashlib.sha256(), 0
    for cfg in PINNED_DISCOVERY:
        for router in ("qempar", "minhop"):
            for seed in range(1, 31):
                for p in discover(setup(replace(cfg, router=router, seed=seed))):
                    digest.update(repr((p.node_ids, p.merit.hex())).encode())
                    n_paths += 1
    # 408 paths before discovery became one walk: on seed 2 of
    # PINNED_DISCOVERY[3], then pinned at a visit budget of 50, the
    # backtracking search, cut short by that budget, found one qempar path;
    # uncut it finds two, as the walk does
    # (test_a_budget_cut_short_path_is_found_by_the_walk). The unbridged
    # field adds 40.
    assert n_paths == 449
    assert digest.hexdigest() == "07c7ac2e2dd6e8f1d955c59c11ea04b6357830093bc74c7e3dad1751b3a380f5"


def _reference_path(state, source, sink, limit, banned, direct_ok):
    """The path the original search (_rebuilding_greedy_dfs) first finds
    avoiding banned interiors (and, without direct_ok, the source-to-sink
    link), over the caps from the source's fewest hops to the sink up to
    limit, or None. Each cap is searched at a visit budget of
    (n - 1) x cap + 1: each node but the source is entered at most cap
    times, at strictly falling depths, so no search is cut short."""
    n = len(state.topology.nodes)
    hops = routing._hops_to_sink(routing._predecessors(routing._links(state)), source, sink,
                                 banned, direct_ok)
    _assert_hop_counts(state, hops, source, sink, banned, direct_ok)
    if hops[source] > limit:
        return None
    dist_to_sink = state.topology.distances.row(sink)
    score = partial(suitability, state=state)
    for cap in range(hops[source], limit + 1):
        path, truncated = _rebuilding_greedy_dfs(
            state, source, sink, banned, cap, dist_to_sink, hops, (n - 1) * cap + 1, direct_ok,
            score)
        assert not truncated
        if path is not None:
            return path
    return None


def _hop_limit(state, source, sink):
    """The most hops a qempar path may have: hop_budget_factor times the
    estimate ceil(distance to sink / radio range), and no more than n - 1."""
    cfg, topo = state.config, state.topology
    longest = len(topo.nodes) - 1
    est = max(1, math.ceil(min(topo.distances.row(sink)[source] / topo.radio_range, longest)))
    return math.ceil(min(cfg.hop_budget_factor * est, longest))


def _discover_against_the_reference(config):
    """discover(setup(config)) under qempar, asserting that every walk
    discovery makes finds the path _reference_path finds on the same
    banned nodes and direct_ok, up to _hop_limit."""
    state = setup(replace(config, router="qempar"))
    walk = routing._walk

    def compared(links, predecessors, source, sink, limit, pick, banned, direct_ok):
        path = walk(links, predecessors, source, sink, limit, pick, banned, direct_ok)
        assert path == _reference_path(state, source, sink, _hop_limit(state, source, sink),
                                       banned, direct_ok)
        return path

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_walk", compared)
        return discover(state)


def test_a_budget_cut_short_path_is_found_by_the_walk():
    """Seed 2 of the strict pinned field is the one pinned discovery the
    walk changed: the backtracking search, cut short by the visit budget
    of 50 that field was pinned at, found one path of 14 hops; the walk
    finds the two that search finds with a budget that cannot cut it
    short."""
    paths = _discover_against_the_reference(replace(PINNED_DISCOVERY[3], seed=2))
    assert tuple(p.hop_count for p in paths) == (14, 19)


@settings(max_examples=100, deadline=None)
@given(valid_configs())
@example(replace(DYING, seed=4))
def test_the_walk_matches_the_original_search_on_drawn_configs(config):
    """Every walk qempar discovery makes finds the path of the search it
    replaced wherever that search could not be cut short. The example is a
    120-node field where 7 nodes die in the beacon round and one link is
    one-way."""
    _discover_against_the_reference(config)


def test_discovery_skips_nodes_that_cannot_reach_the_sink_in_time(monkeypatch):
    """The walk scores only the links one hop nearer the sink from the nodes
    on its paths: qempar discovery on the dense pinned field, seeds 1-30,
    scores at most 1,000 links (764). A search that scores every link of
    every node it enters scores 9,408."""
    scored = 0

    def counted(a, b, state):
        nonlocal scored
        scored += 1
        return suitability(a, b, state)

    monkeypatch.setattr(link_metrics, "suitability", counted)
    for seed in range(1, 31):
        discover(setup(replace(PINNED_DISCOVERY[1], seed=seed)))
    assert scored <= 1000


def _assert_hop_counts(state, hops, source, sink, banned, direct_ok):
    """hops is every node's fewest hops to the sink over state.neighbors,
    around banned interiors and, without direct_ok, the source-to-sink
    link: the sink has 0, every other dead or banned node inf, and every
    other node 1 + the least count over its usable links. That system has
    one solution, so this checks every node's count."""
    assert hops[sink] == 0
    for v, node in enumerate(state.topology.nodes):
        if v == sink:
            continue
        if not node.alive or v in banned:
            assert hops[v] == math.inf, v
            continue
        links = [w for w in state.neighbors(v) if direct_ok or v != source or w != sink]
        assert hops[v] == 1 + min((hops[w] for w in links), default=math.inf), v


def test_hops_to_sink_follows_one_way_links():
    """On DYING, seeds 1-30, some alive node's only link is the nearest-alive
    fallback, which its target does not return. Every node's hop count to
    the sink still follows the forward links."""
    one_way = 0
    for seed in range(1, 31):
        state = setup(replace(DYING, seed=seed))
        hops = routing._hops_to_sink(routing._predecessors(routing._links(state)), 1, 0,
                                     set(), True)
        _assert_hop_counts(state, hops, 1, 0, set(), True)
        for v, node in enumerate(state.topology.nodes):
            if node.alive:
                one_way += sum(v not in state.neighbors(w) for w in state.neighbors(v))
    assert one_way > 0


@pytest.mark.parametrize("factor, limit, n_paths", [(1.2, 10, 16), (1.5, 12, 40)])
def test_a_hop_budget_factor_drops_the_paths_longer_than_its_limit(factor, limit, n_paths):
    """The dense pinned field, seeds 1-30, whose hop estimate is 8, at hop
    limits below some of its paths' hop counts (at the default factor of 4
    it has 45 paths of up to 14 hops). The pinned path hash sees the default
    factor only; this count of paths found sees a tighter one."""
    cfg = replace(PINNED_DISCOVERY[1], hop_budget_factor=factor)
    paths = []
    for seed in range(1, 31):
        state = setup(replace(cfg, seed=seed))
        assert _hop_limit(state, 1, 0) == limit
        paths += discover(state)
    assert len(paths) == n_paths
    assert max(p.hop_count for p in paths) == limit


@pytest.mark.parametrize("mode", ["preferred", "strict"])
def test_qempar_takes_no_path_longer_than_its_hop_limit(mode):
    """On seed 1 of the dense field the shortest path has more hops than
    the limit of 8 a hop_budget_factor of 1 gives, so qempar finds no path
    in either mode, while minhop, which has no limit, still does."""
    state = setup(replace(PINNED_DISCOVERY[1], progress_mode=mode, hop_budget_factor=1.0,
                          seed=1))
    assert minhop_paths(1, 0, 1, state)[0].hop_count > _hop_limit(state, 1, 0) == 8
    assert discover(state) == []


# Seed 2 of the default field at the default density with 1500 nodes: the
# side and the source position scale by sqrt(1500 / 100).
LARGE = ScenarioConfig(node_count=1500, field_width=400 * math.sqrt(15),
                       field_height=400 * math.sqrt(15), source_x=300 * math.sqrt(15),
                       source_y=300 * math.sqrt(15), seed=2)


def test_qempar_finds_a_minimum_hop_path_on_a_large_field():
    """In preferred mode qempar walks the same hop table as minhop, so on a
    1500-node field its first path is as short as minhop's."""
    state = setup(LARGE)
    best = discover_paths(1, 0, LARGE.fragments_per_packet, state)[0]
    assert best.hop_count == minhop_paths(1, 0, 1, state)[0].hop_count > 20
