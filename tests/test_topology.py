"""Node placement, the neighbor relation, and component bridging."""

import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from qempar import ScenarioConfig, beacon_exchange, place_nodes, rx_energy, tx_energy
from qempar import link_metrics, topology
from qempar.energy import EnergyLedger
from qempar.engine import discover
from qempar.errors import ConfigError, UnknownNodeError
from qempar.link_metrics import NetworkState
from qempar.topology import (DistanceTable, NodeState, Position, _bridge_components, _margin,
                             distance, neighbors)

from conftest import BOUNDARY_BASE, boundary_configs, make_state, manual_topology, valid_configs


def test_diagonal_distance_value():
    assert distance(Position(0.0, 0.0), Position(300.0, 300.0)) == pytest.approx(
        424.26406871192853, rel=1e-12)


def test_placement_pins_sink_and_source():
    cfg = ScenarioConfig()
    topo = place_nodes(cfg, seed=1)
    assert len(topo.nodes) == cfg.node_count
    assert topo.sink_id == 0 and topo.source_id == 1
    assert topo.nodes[0].position == Position(cfg.sink_x, cfg.sink_y)
    assert topo.nodes[1].position == Position(cfg.source_x, cfg.source_y)


def test_placement_stays_inside_field():
    cfg = ScenarioConfig(node_count=60)
    for seed in range(5):
        topo = place_nodes(cfg, seed)
        for node in topo.nodes:
            assert 0.0 <= node.position.x <= cfg.field_width
            assert 0.0 <= node.position.y <= cfg.field_height


def test_placement_deterministic_and_seed_sensitive():
    cfg = ScenarioConfig()
    a = place_nodes(cfg, seed=11)
    b = place_nodes(cfg, seed=11)
    c = place_nodes(cfg, seed=12)
    assert a.nodes == b.nodes
    assert a.nodes != c.nodes
    assert a.extended_links == b.extended_links


def test_residual_energy_clamps_and_node_dies():
    node = NodeState(Position(0, 0), initial_energy=1.0)
    ledger = EnergyLedger()
    ledger.add(node, 0.6)
    assert node.alive and node.residual_energy == pytest.approx(0.4)
    assert ledger.clamped_debits == 0
    ledger.add(node, 0.6)  # clamped: only 0.4 remained
    assert ledger.clamped_debits == 1
    assert not node.alive
    assert node.residual_energy == 0.0
    assert node.spent_energy == pytest.approx(1.2)  # full model joules


def test_neighbors_sorted_and_range_is_closed():
    topo = manual_topology([(0, 0), (40, 0), (80, 0), (39, 0)], radio_range=40.0)
    assert neighbors(topo, 0) == [1, 3]  # 1 sits exactly at the range
    assert neighbors(topo, 1) == [0, 2, 3]
    assert neighbors(topo, 2) == [1]


def test_neighbors_excludes_dead_nodes():
    topo = manual_topology([(0, 0), (30, 0), (60, 0)], radio_range=40.0)
    topo.nodes[1].spent_energy = 10.0
    assert not topo.nodes[1].alive
    assert neighbors(topo, 0) == []  # fallback disabled in manual topologies
    assert neighbors(topo, 2) == []


def test_unknown_node_raises():
    # Ids index a list: a negative id must not wrap around to the last node.
    topo = manual_topology([(0, 0), (10, 0)], radio_range=40.0)
    state = make_state(topo)
    for bad in (-1, 2, 99):
        with pytest.raises(UnknownNodeError):
            topo.node(bad)
        with pytest.raises(UnknownNodeError):
            neighbors(topo, bad)
        with pytest.raises(UnknownNodeError):
            state.carrier_sense_set(bad)


def _component_count(topo) -> int:
    ids = range(len(topo.nodes))
    parent = list(ids)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in ids:
        for j in neighbors(topo, i):
            parent[find(i)] = find(j)
    return len({find(i) for i in ids})


def test_bridging_connects_every_seed():
    cfg = ScenarioConfig()
    for seed in range(1, 51):
        topo = place_nodes(cfg, seed)
        assert _component_count(topo) == 1, f"seed {seed} left the field split"


def test_without_bridging_the_field_is_usually_split():
    cfg = ScenarioConfig(extended_range_fallback=False)
    split = sum(1 for seed in range(1, 21)
                if _component_count(place_nodes(cfg, seed)) > 1)
    assert split >= 19  # this density cannot connect a 400 m field


def test_bridges_are_symmetric_and_beyond_range():
    cfg = ScenarioConfig()
    topo = place_nodes(cfg, seed=3)
    assert topo.extended_links, "this scenario needs bridges"
    for a, partners in topo.extended_links.items():
        for b in partners:
            assert a in topo.extended_links[b]
            assert distance(topo.nodes[a].position, topo.nodes[b].position) > topo.radio_range
            assert b in neighbors(topo, a)


def test_a_connected_field_takes_no_band():
    """Bridging a field that is already connected in range returns no
    bridge and, with in_range built, allocates less than n*n bytes at its
    peak: no n x n array of pairs."""
    cfg = ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                         source_x=212.1, source_y=212.1, extended_range_fallback=False)
    topo = place_nodes(cfg, 1)
    n = len(topo.nodes)
    assert _component_count(topo) == 1
    topo.in_range
    tracemalloc.start()
    try:
        assert _bridge_components(topo) == {}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_isolated_node_falls_back_to_nearest():
    topo = manual_topology([(0, 0), (30, 0), (500, 0)], radio_range=40.0, fallback=True)
    assert neighbors(topo, 2) == [1]  # nearest alive node, 470 m away


def test_fallback_prefers_lowest_id_on_distance_tie():
    topo = manual_topology([(0, 0), (200, 100), (200, -100), (200, 0)],
                           radio_range=40.0, fallback=True)
    # node 3 is 100 m from both 1 and 2 and 200 m from 0
    assert neighbors(topo, 3) == [1]


def test_fallback_tie_break_holds_on_a_long_row():
    # Twelve nodes 50 m from node 0 among 30 farther ones: a row long enough
    # that an unstable sort reorders the ties.
    ring = [(50, 0), (0, 50), (-50, 0), (0, -50), (30, 40), (40, 30), (-30, 40),
            (-40, 30), (30, -40), (40, -30), (-30, -40), (-40, -30)]
    far = [(100 + 3 * i, 100 + 7 * (i % 5)) for i in range(30)]
    points = [(0, 0)] + far[:15] + ring + far[15:]
    topo = manual_topology(points, radio_range=10.0, fallback=True)
    assert neighbors(topo, 0) == [16]


def test_equal_distance_bridges_follow_the_id_pair_order():
    # Four isolated corners of a 100 m square: the four sides tie at 100 m,
    # and Kruskal takes them in (a, b) order, (0, 2), (0, 3), (1, 2), leaving
    # (1, 3) out.
    topo = manual_topology([(100, 0), (0, 100), (0, 0), (100, 100)],
                           radio_range=40.0, fallback=True)
    assert _bridge_components(topo) == {0: (2, 3), 2: (0, 1), 3: (0,), 1: (2,)}


# The all-pairs scans that the distance table replaced, kept as the oracle.

def _scan_bridges(topo):
    pos = [node.position for node in topo.nodes]
    ids = range(len(pos))
    parent = list(ids)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pairs = []
    for idx, a in enumerate(ids):
        for b in ids[idx + 1:]:
            d = distance(pos[a], pos[b])
            if d <= topo.radio_range:
                parent[find(a)] = find(b)
            else:
                pairs.append((d, a, b))
    pairs.sort()
    bridges = {}
    for d, a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            bridges.setdefault(a, []).append(b)
            bridges.setdefault(b, []).append(a)
    return {i: tuple(sorted(v)) for i, v in bridges.items()}


def _scan_neighbors(topo, node_id):
    me = topo.nodes[node_id]
    out = [i for i, other in enumerate(topo.nodes)
           if i != node_id and other.alive
           and distance(me.position, other.position) <= topo.radio_range]
    for i in topo.extended_links.get(node_id, ()):
        if topo.nodes[i].alive and i not in out:
            out.append(i)
    if not out and topo.fallback_enabled:
        alive = [(distance(me.position, other.position), i)
                 for i, other in enumerate(topo.nodes) if i != node_id and other.alive]
        if alive:
            return [min(alive)[1]]
    return sorted(out)


def _scan_beacon_round(state):
    """Every node's spent energy and the clamp count after the beacon round,
    replayed in beacon_exchange's order from the brute-force neighbor scans
    taken before any beacon."""
    topo, params = state.topology, state.params
    nodes = topo.nodes
    spent = [node.spent_energy for node in nodes]
    clamps = 0
    bits = state.config.beacon_bytes * 8

    def debit(i, joules):
        nonlocal clamps
        clamps += joules > nodes[i].initial_energy - spent[i]
        spent[i] += joules

    heard = {i: _scan_neighbors(topo, i) for i, node in enumerate(nodes) if node.alive}
    for i, nbrs in heard.items():
        if nbrs:
            reach = max(distance(nodes[i].position, nodes[j].position) for j in nbrs)
            debit(i, tx_energy(bits, reach, params))
            for j in nbrs:
                debit(j, rx_energy(bits, params))
    return spent, clamps


def _scan_carrier_sense(topo, node_id, cs):
    here = topo.nodes[node_id].position
    return frozenset(i for i, other in enumerate(topo.nodes)
                     if i != node_id and distance(here, other.position) <= cs)


@st.composite
def fields(draw):
    """Small fields of 1 to 24 nodes. Lattice coordinates put pairs exactly
    at range, repeat positions and tie distances between components; free
    coordinates fill in the rest."""
    n = draw(st.integers(1, 24))
    coord = st.integers(0, 16).map(lambda v: 8.0 * v) | st.floats(0.0, 130.0)
    positions = [(draw(coord), draw(coord)) for _ in range(n)]
    radius = draw(st.sampled_from([8.0, 24.0, 40.0]) | st.floats(1.0, 60.0))
    dead = draw(st.sets(st.integers(0, n - 1)))
    # 1e-5 J lasts a node about two beacon receptions.
    energy = draw(st.sampled_from([2.0, 1e-5]))
    return (positions, radius, draw(st.booleans()), dead,
            draw(st.sampled_from([0.0, 1.0, 2.0, 2.5])), energy)


def _assert_table_matches_scans(state):
    """The screen is symmetric and each entry lies within _margin() of
    distance(), every exact row equals distance() bit for bit, and bridges,
    neighbor lists (dead nodes and the nearest-alive fallback included),
    carrier-sense sets and the beacon round's debits and clamps equal the
    brute-force scans, the lists before the beacon round and after it."""
    topo, nodes = state.topology, state.topology.nodes
    table = topo.distances
    exact = [[distance(a.position, b.position) for b in nodes] for a in nodes]
    screen = table.screen.tolist()
    assert (table.screen == table.screen.T).all()
    assert all(s == e or abs(s - e) <= _margin(e)
               for s_row, e_row in zip(screen, exact) for s, e in zip(s_row, e_row))
    assert [table.row(k) for k in range(len(nodes))] == exact
    if topo.fallback_enabled:
        assert topo.extended_links == _scan_bridges(topo)
    cs = state.config.carrier_sense_factor * topo.radio_range
    spent, clamps = _scan_beacon_round(state)
    for after_beacons in (False, True):
        for i in range(len(nodes)):
            assert neighbors(topo, i) == _scan_neighbors(topo, i)
            assert state.carrier_sense_set(i) == _scan_carrier_sense(topo, i, cs)
        if not after_beacons and state.config.beacon_accounting:
            beacon_exchange(state)
            assert [node.spent_energy.hex() for node in nodes] == [j.hex() for j in spent]
            assert state.ledger.clamped_debits == clamps


@settings(max_examples=300, deadline=None)
@given(fields())
@example(([(0.0, 0.0), (24.0, 32.0), (24.0, 32.0), (300.0, 0.0)], 40.0, True, {1}, 1.0, 2.0))
# Decimal lattices where the screen misplaces a pair at the range: its
# entry for (0, 0)-(0.1, 0.1) lies above the exact 0.1414213562373095, and
# for (0, 0)-(0.1, 1.5) below the exact 1.503329637837291.
@example(([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2), (0.1, 1.5)], 0.1414213562373095, True,
          set(), 1.0, 2.0))
@example(([(0.0, 0.0), (0.1, 0.1), (0.1, 1.5), (0.2, 0.2)], 1.5033296378372907, True,
          set(), 1.0, 2.0))
def test_distance_table_matches_the_all_pairs_scans(field_spec):
    """_assert_table_matches_scans on small hand-made fields."""
    positions, radius, fallback, dead, cs_factor, energy = field_spec
    topo = manual_topology(positions, radio_range=radius, initial_energy=energy,
                           fallback=fallback)
    if fallback:
        topo.extended_links = _bridge_components(topo)
    for i in dead:
        topo.nodes[i].spent_energy = topo.nodes[i].initial_energy
    _assert_table_matches_scans(make_state(topo, carrier_sense_factor=cs_factor))


# A field whose corner-to-corner dx*dx + dy*dy overflows, although its
# diagonal, the sink-to-source distance, is finite and validates.
_WIDE, _TALL = 7.324924083106166e+153, 1.123008462403391e+154


@settings(max_examples=150, deadline=None)
@given(valid_configs() | boundary_configs())
@example(replace(BOUNDARY_BASE, field_width=1.0, field_height=1.0, sink_x=0.0, sink_y=0.0,
                 source_x=0.1, source_y=0.1, radio_range_m=0.1414213562373095))
@example(replace(BOUNDARY_BASE, field_width=5e-324, field_height=5e-324, sink_x=0.0,
                 sink_y=0.0, source_x=5e-324, source_y=5e-324))
@example(replace(BOUNDARY_BASE, radio_range_m=1e-310))
@example(replace(BOUNDARY_BASE, field_width=1e-308, field_height=1e-308, sink_x=0.0,
                 sink_y=0.0, source_x=1e-308, source_y=1e-308, radio_range_m=1e-310))
@example(replace(BOUNDARY_BASE, field_width=_WIDE, field_height=_TALL, sink_x=0.0,
                 sink_y=0.0, source_x=_WIDE, source_y=_TALL,
                 radio_range_m=math.hypot(_WIDE, _TALL), eps_mp_j_per_bit_m4=5e-324,
                 interference_alpha=0.5))
def test_distance_table_matches_the_all_pairs_scans_on_drawn_configs(config):
    """_assert_table_matches_scans on placed fields of configs that pass
    validate(). The examples put the sink and source exactly at the range
    on a decimal lattice, where the screen misplaces them; make nodes
    coincide; take the radio range to 1e-310; shrink the field until every
    dx*dx underflows, so that the screen reads 0 for every pair; and
    overflow the screen's sum for the sink-to-source pair."""
    try:
        config.validate()
    except ConfigError:
        return
    topo = place_nodes(config, config.seed)
    _assert_table_matches_scans(NetworkState(topo, config.radio_params(), config))


def test_set_up_and_discovery_take_exact_distances_of_links_not_pairs(monkeypatch):
    """On a 300-node field with two bridges, the distances that placement,
    the beacon round and discovery compute through DistanceTable.exact
    number at most the pairs in bridging's bands (different components, no
    farther apart than twice the longest bridge), plus the directed links
    (beacon reaches), plus n (discovery's row to the sink): 648, where an
    exact all-pairs table takes n(n-1)/2 = 44,850. The helper distance()
    is called at most once per node, where an all-pairs Python scan makes
    n(n-1)/2 calls."""
    computed = []
    exact = DistanceTable.exact
    helper_calls = 0

    def counted(self, a, b):
        out = exact(self, a, b)
        computed.append(len(out))
        return out

    def counted_distance(a, b):
        nonlocal helper_calls
        helper_calls += 1
        return distance(a, b)

    monkeypatch.setattr(DistanceTable, "exact", counted)
    for module in (topology, link_metrics):
        monkeypatch.setattr(module, "distance", counted_distance)
    cfg = ScenarioConfig(node_count=300, seed=5)
    n, r = cfg.node_count, cfg.radio_range_m
    topo = place_nodes(cfg, cfg.seed)
    placing = sum(computed)
    state = NetworkState(topo, cfg.radio_params(), cfg)
    beacon_exchange(state)
    discover(state)
    assert math.fsum(node.spent_energy for node in topo.nodes) > 0
    assert helper_calls <= n
    pos = [node.position for node in topo.nodes]
    longest = max(distance(pos[a], pos[b]) for a, bs in topo.extended_links.items() for b in bs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = [(a, b, distance(pos[a], pos[b])) for a in range(n) for b in range(a + 1, n)]
    for a, b, d in pairs:
        if d <= r:
            parent[find(a)] = find(b)
    band_pairs = sum(d <= 2 * longest and find(a) != find(b) for a, b, d in pairs)
    links = sum(len(state.neighbors(i)) for i in range(n))
    assert len(topo.extended_links) == 4
    assert placing <= band_pairs
    assert sum(computed) <= band_pairs + links + n < n * (n - 1) // 2 // 10


@pytest.mark.parametrize("n", [100, 150])
def test_screen_build_allocates_the_table_and_one_block(n):
    """Building the screen allocates at its peak the n x n table, the
    temporaries of one block (topology._BLOCK cells), the coordinates the
    table keeps (16 bytes a node) and 4 KiB of object headers: no
    temporary of the table's size."""
    nodes = place_nodes(ScenarioConfig(node_count=n, extended_range_fallback=False), 1).nodes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        DistanceTable(nodes)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert 8 * n * n < peak <= 8 * n * n + 8 * topology._BLOCK + 16 * n + 4096
