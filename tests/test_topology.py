"""Node placement, the neighbor relation, and component bridging."""

import math

import pytest

from qempar import ScenarioConfig, place_nodes
from qempar.errors import UnknownNodeError
from qempar.topology import (NodeState, Position, distance, is_extended_link,
                             neighbors)

from conftest import manual_topology


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
        for node in topo.nodes.values():
            assert 0.0 <= node.position.x <= cfg.field_width
            assert 0.0 <= node.position.y <= cfg.field_height


def test_placement_deterministic_and_seed_sensitive():
    cfg = ScenarioConfig()
    a = place_nodes(cfg, seed=11)
    b = place_nodes(cfg, seed=11)
    c = place_nodes(cfg, seed=12)
    assert a.positions() == b.positions()
    assert a.positions() != c.positions()
    assert a.extended_links == b.extended_links


def test_residual_energy_clamps_and_node_dies():
    node = NodeState(7, Position(0, 0), initial_energy=1.0)
    assert not node.spend(0.6)
    assert node.alive and node.residual_energy == pytest.approx(0.4)
    assert node.spend(0.6)  # clamped: only 0.4 remained
    assert not node.alive
    assert node.residual_energy == 0.0
    assert node.spent_energy == pytest.approx(1.2)  # full model joules


def test_neighbors_sorted_and_range_is_closed():
    topo = manual_topology({0: (0, 0), 1: (40, 0), 2: (80, 0), 3: (39, 0)},
                           radio_range=40.0)
    assert neighbors(topo, 0) == [1, 3]  # 1 sits exactly at the range
    assert neighbors(topo, 1) == [0, 2, 3]
    assert neighbors(topo, 2) == [1]


def test_neighbors_excludes_dead_nodes():
    topo = manual_topology({0: (0, 0), 1: (30, 0), 2: (60, 0)}, radio_range=40.0)
    topo.nodes[1].spend(10.0)
    assert not topo.nodes[1].alive
    assert neighbors(topo, 0) == []  # fallback disabled in manual topologies
    assert neighbors(topo, 2) == []


def test_unknown_node_raises():
    topo = manual_topology({0: (0, 0), 1: (10, 0)}, radio_range=40.0)
    with pytest.raises(UnknownNodeError):
        topo.node(99)
    with pytest.raises(UnknownNodeError):
        neighbors(topo, 99)


def _component_count(topo) -> int:
    ids = sorted(topo.nodes)
    parent = {i: i for i in ids}

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
            assert is_extended_link(topo, a, b)
            assert b in neighbors(topo, a)


def test_in_range_link_is_not_extended():
    topo = manual_topology({0: (0, 0), 1: (30, 0)}, radio_range=40.0)
    assert not is_extended_link(topo, 0, 1)


def test_isolated_node_falls_back_to_nearest():
    topo = manual_topology({0: (0, 0), 1: (30, 0), 2: (500, 0)},
                           radio_range=40.0, fallback=True)
    assert neighbors(topo, 2) == [1]  # nearest alive node, 470 m away
    assert is_extended_link(topo, 2, 1)


def test_fallback_prefers_lowest_id_on_distance_tie():
    topo = manual_topology({0: (0, 0), 1: (200, 100), 2: (200, -100), 3: (200, 0)},
                           radio_range=40.0, fallback=True)
    # node 3 is 100 m from both 1 and 2 and 200 m from 0
    assert neighbors(topo, 3) == [1]
