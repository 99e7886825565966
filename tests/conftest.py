"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json

import pytest

from qempar import NetworkState, ScenarioConfig
from qempar.topology import NodeState, Position, Topology


def manual_topology(positions, radio_range, initial_energy=2.0, sink_id=0,
                    source_id=1, fallback=False, extended=None) -> Topology:
    """Topology with hand-picked positions: {node_id: (x, y)}."""
    nodes = {i: NodeState(i, Position(float(x), float(y)), initial_energy)
             for i, (x, y) in positions.items()}
    return Topology(
        nodes=nodes, sink_id=sink_id, source_id=source_id,
        radio_range=radio_range, fallback_enabled=fallback, extended_links=extended or {})


def make_state(topo: Topology, **config_overrides) -> NetworkState:
    cfg = ScenarioConfig(radio_range_m=topo.radio_range, **config_overrides)
    return NetworkState(topo, cfg.radio_params(), cfg)


def replay_mean_delay(log_text, k, deadline):
    """Recompute the mean end-to-end delay from event-log lines alone."""
    born, arrivals = {}, {}
    for line in log_text.splitlines():
        e = json.loads(line)
        if e["kind"] == "packet-born":
            born[e["packet"]] = e["t"]
        elif e["kind"] == "fragment-delivered":
            arrivals.setdefault(e["packet"], []).append(e["t"])
    delays = []
    for pid in sorted(born):
        times = arrivals.get(pid, [])
        if len(times) == k and all(t < born[pid] + deadline for t in times):
            delays.append(max(times) - born[pid])
    return (sum(delays) / len(delays) if delays else None), len(delays)


@pytest.fixture
def line_topology() -> Topology:
    """Three collinear nodes 30 m apart with 40 m range: 0-1 and 1-2 link,
    0-2 does not."""
    return manual_topology({0: (0, 0), 1: (30, 0), 2: (60, 0)}, radio_range=40.0)
