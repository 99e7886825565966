"""Beacon exchange accounting and multi-path discovery."""

import hashlib
import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

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
            state.topology.nodes[dead].spend(10.0)
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
    state.topology.nodes[2].spend(0.5)
    second = discover_paths(1, 0, 1, state)[0]
    assert second.node_ids == (1, 3, 0)
    assert second.merit == first.merit
    assert discover_paths(1, 0, 2, state)[1].merit == first.merit - 0.5 / 2.0


def test_ties_go_to_the_lowest_id_on_symmetric_corridors():
    """Two mirror-image corridors of 50 m hops meet at node 4 and part
    again: the search meets an exact tie of scores at the source (2 or 3)
    and at node 4 (5 or 6), takes the lower id both times, and matches its
    oracle at every step."""
    state = make_state(manual_topology(
        [(120, 0), (0, 0), (30, 40), (30, -40), (60, 0), (90, 40), (90, -40)],
        radio_range=50.0))
    assert suitability(1, 2, state) == suitability(1, 3, state)
    assert suitability(4, 5, state) == suitability(4, 6, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_bounded_greedy_dfs", _same_search)
        paths = discover_paths(1, 0, 2, state)
    assert [p.node_ids for p in paths] == [(1, 2, 4, 5, 0)]


def test_paths_flag_extended_hops():
    topo = manual_topology([(0, 0), (300, 0), (30, 0)],
                           radio_range=40.0, fallback=True,
                           extended={1: (2,), 2: (1,)})
    state = make_state(topo)
    # Node 1 reaches the sink only over its 270 m bridge to node 2.
    assert minhop_paths(1, 0, 1, state)[0].node_ids == (1, 2, 0)


def test_a_huge_hop_budget_searches_no_cap_beyond_n_minus_1(monkeypatch):
    """Strict progress finds no path on seed 2, so every cap up to cap_max
    is searched; capped at n - 1 hops, that takes a few dozen passes, not
    one per unit of the factor."""
    calls = 0
    dfs = routing._bounded_greedy_dfs

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 10_000, "the depth cap grew with the factor"
        return dfs(*args)

    monkeypatch.setattr(routing, "_bounded_greedy_dfs", counted)
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
    """Oracle for routing._bounded_greedy_dfs: the same search as it was
    first written, rebuilding, re-filtering and re-scoring the current
    node's candidates at every step, backtracking included. A candidate v
    at depth must have hops_left[v] <= depth_cap - depth."""
    strict = state.config.progress_mode == "strict"
    path = [source]
    on_path = {source}
    tried: dict[int, set[int]] = {source: set()}
    # Shallowest depth each node has been expanded at during this cap. A
    # candidate is re-entered only strictly shallower than before; without
    # this the backtracking search re-explores subtrees exponentially.
    entered = {source: 0}
    deepest = [source]
    visits = 0
    while path:
        cur = path[-1]
        if cur == sink:
            return path, False, deepest
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
            if len(path) > len(deepest):
                deepest = list(path)
    return None, visits >= visit_budget, deepest


_greedy_dfs = routing._bounded_greedy_dfs
_find_path = routing._find_path


def _same_search(state, source, sink, banned, depth_cap, dist_to_sink, hops_left,
                 visit_budget, direct_ok, score):
    """Runs the search and its oracle on one input, asserts that they return
    the same (path, truncated, deepest) and score the same set of links, and
    returns that result."""
    outcomes = []
    for dfs in (_rebuilding_greedy_dfs, _greedy_dfs):
        scored = set()

        def recording(a, b):
            scored.add((a, b))
            return score(a, b)

        outcomes.append((dfs(state, source, sink, banned, depth_cap, dist_to_sink,
                             hops_left, visit_budget, direct_ok, recording), scored))
    assert outcomes[0] == outcomes[1]
    return outcomes[1][0]


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
# several disjoint paths; literal scoring; strict progress under a visit
# budget that still truncates 1 of its 157 qempar searches; a sparse field
# without bridging; strict progress with the tightest hop budget; a field
# whose beacon round spends most of a node's energy, though on seeds 1-30
# none dies; and DYING, where nodes die and links are one-way.
PINNED_DISCOVERY = [
    ScenarioConfig(),
    ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                   source_x=212.1, source_y=212.1),
    ScenarioConfig(node_count=200, appr_mode="literal", interference_mode="literal"),
    ScenarioConfig(node_count=300, progress_mode="strict", search_visit_budget=50),
    ScenarioConfig(node_count=60, extended_range_fallback=False),
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
    assert n_paths == 408
    assert digest.hexdigest() == "83023e6fa02b43c71de920d732d5818ac179959df48c84a2f24998d4c45bc120"


@settings(max_examples=100, deadline=None)
@given(valid_configs())
@example(replace(DYING, seed=4, search_visit_budget=50))
@example(replace(DYING, seed=4))
def test_greedy_search_matches_its_oracle_on_drawn_configs(config):
    """Every search discovery makes, and for each set of banned nodes it
    searches around, every depth cap from the source's hop count to cap_max
    with the direct hop both allowed and not. Each cap is searched skipping
    nothing and skipping the nodes that cannot reach the sink within it.
    Each node is entered at most cap times, at strictly falling depths, so
    where (n - 1) x cap is under the visit budget neither search can be cut
    short; there both find the same path, which shows that skipping loses
    no path. The examples are a 120-node field where 7 nodes die in the
    beacon round and one link is one-way, at a budget that truncates and
    one that cannot."""
    state = setup(config)
    finds = []

    def recorded_find(*args):
        finds.append(args)
        return _find_path(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_bounded_greedy_dfs", _same_search)
        mp.setattr(routing, "_find_path", recorded_find)
        try:
            discover_paths(1, 0, config.fragments_per_packet, state)
        except NoPathError:
            pass
    budget, n = config.search_visit_budget, config.node_count
    for _, source, sink, cap_max, dist_to_sink, predecessors, score, banned, _ in finds:
        for direct_ok in (True, False):
            hops = routing._hops_to_sink(predecessors, source, sink, banned, direct_ok)
            _assert_hop_counts(state, hops, source, sink, banned, direct_ok)
            if hops[source] == math.inf:
                continue
            for cap in range(hops[source], cap_max + 1):
                full = _same_search(state, source, sink, banned, cap, dist_to_sink, [0] * n,
                                    budget, direct_ok, score)
                if (n - 1) * cap < budget:
                    pruned = _same_search(state, source, sink, banned, cap, dist_to_sink, hops,
                                          budget, direct_ok, score)
                    assert pruned[:2] == full[:2] and not full[1]


def test_discovery_skips_nodes_that_cannot_reach_the_sink_in_time(monkeypatch):
    """qempar discovery on the dense pinned field, seeds 1-30, scores at
    most 1,000 links. Searching every subtree scores 9,408."""
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
        hops = routing._hops_to_sink(routing._predecessors(state), 1, 0, set(), True)
        _assert_hop_counts(state, hops, 1, 0, set(), True)
        for v, node in enumerate(state.topology.nodes):
            if node.alive:
                one_way += sum(v not in state.neighbors(w) for w in state.neighbors(v))
    assert one_way > 0


@pytest.mark.parametrize("budget, searches, truncated, n_paths", [
    (10, 36, 20, 16),
    (12, 45, 5, 40),
])
def test_greedy_search_matches_its_oracle_under_truncating_budgets(
        monkeypatch, budget, searches, truncated, n_paths):
    """The dense pinned field at visit budgets below some of its paths' hop
    counts, seeds 1-30, so that searches are cut short; in preferred mode a
    cut-short search ends the search for that path, which retrying around
    its deepest partial path would not change (at budget 10 the retries
    were 11 more searches, all cut short, for the same 16 paths). The
    pinned path hash cannot see a change in truncation; these counts of
    searches, truncated searches and paths found can."""
    outcomes = []

    def compared(*args):
        outcomes.append(_same_search(*args))
        return outcomes[-1]

    monkeypatch.setattr(routing, "_bounded_greedy_dfs", compared)
    cfg = replace(PINNED_DISCOVERY[1], search_visit_budget=budget)
    found = sum(len(discover(setup(replace(cfg, seed=seed)))) for seed in range(1, 31))
    assert (len(outcomes), sum(t for _, t, _ in outcomes), found) == (
        searches, truncated, n_paths)


# Seed 2 of the default field at the default density with 1500 nodes: the
# side and the source position scale by sqrt(1500 / 100).
LARGE = ScenarioConfig(node_count=1500, field_width=400 * math.sqrt(15),
                       field_height=400 * math.sqrt(15), source_x=300 * math.sqrt(15),
                       source_y=300 * math.sqrt(15), seed=2)


def test_qempar_finds_a_minimum_hop_path_on_a_large_field():
    """Where the visit budget cannot cover every entry of every node, the
    search still skips the nodes that cannot reach the sink in time, so
    qempar's first path is as short as minhop's."""
    state = setup(LARGE)
    best = discover_paths(1, 0, LARGE.fragments_per_packet, state)[0]
    assert best.hop_count == minhop_paths(1, 0, 1, state)[0].hop_count > 20


def _truncated_searches(config):
    """qempar discovery on setup(config), asserting of every search the
    visit budget cuts short that its deepest partial path past the source
    is not empty and holds neither an excluded node nor an endpoint, so a
    strict retry always blacklists new nodes. Returns how many searches
    were cut short."""
    truncated = 0

    def checked(state, source, sink, excluded, *args):
        nonlocal truncated
        path, cut, deepest = _greedy_dfs(state, source, sink, excluded, *args)
        if cut:
            truncated += 1
            assert deepest[0] == source and len(deepest) > 1, deepest
            assert not {source, sink, *excluded} & set(deepest[1:]), (deepest, excluded)
        return path, cut, deepest

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_bounded_greedy_dfs", checked)
        discover(setup(replace(config, router="qempar")))
    return truncated


STRICT_BUDGETS = (1, 2, 3, 5, 8, 20, 50)


@settings(max_examples=100, deadline=None)
@given(valid_configs(), st.sampled_from(STRICT_BUDGETS))
def test_a_truncated_strict_search_leaves_new_nodes_to_blacklist(config, budget):
    _truncated_searches(replace(config, progress_mode="strict", search_visit_budget=budget))


def test_strict_searches_are_cut_short_at_small_budgets():
    """The default field in strict mode, seeds 1-10, at each small budget:
    some searches are cut short, and each leaves new nodes to blacklist."""
    config = ScenarioConfig(progress_mode="strict")
    assert sum(_truncated_searches(replace(config, seed=seed, search_visit_budget=budget))
               for seed in range(1, 11) for budget in STRICT_BUDGETS) > 0


def test_preferred_discovery_ends_at_its_first_truncated_search():
    """In preferred mode a visit budget below the source's hop count cuts
    the first search short, and every retry around its deepest partial path
    would be cut short too (banning nodes never lowers that count), so
    discovery makes that one search and finds no path, with retries left.
    On this dense field blacklisting a partial path leaves the source a
    route, so without the early end every retry would be searched."""
    config = ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                            source_x=212.1, source_y=212.1, progress_mode="preferred",
                            search_visit_budget=5, path_retry_limit=3, duration_s=0.1, seed=1)
    state = setup(config)
    assert minhop_paths(1, 0, 1, state)[0].hop_count > config.search_visit_budget
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        path, truncated, partial = _greedy_dfs(*args)
        assert path is None and truncated
        return path, truncated, partial

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_bounded_greedy_dfs", counted)
        assert discover(state) == []
    assert calls == 1


@settings(max_examples=100, deadline=None)
@given(valid_configs())
@example(LARGE)
def test_preferred_discovery_searches_once_per_path(config):
    """In preferred mode, with a visit budget no smaller than any path's hop
    count (n - 1 bounds them), the first cap of every search holds a path
    and the search never backtracks, and a search with no path within
    cap_max is never started: discovery calls _bounded_greedy_dfs exactly
    once per path it returns."""
    config = replace(config, router="qempar", progress_mode="preferred",
                     search_visit_budget=max(config.search_visit_budget, config.node_count - 1))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _greedy_dfs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_bounded_greedy_dfs", counted)
        paths = discover(setup(config))
    assert calls == len(paths)
