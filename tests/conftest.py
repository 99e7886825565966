"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, strategies as st

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


def hop_spans(log_text):
    """(node, start, end, wire bits) of every hop attempt in an event log, in
    start order. A hop ends with its hop-complete or hop-failed event; at
    most one hop of a (packet, seq) is in flight at a time."""
    spans, in_flight = [], {}
    for line in log_text.splitlines():
        e = json.loads(line)
        key = (e["packet"], e["seq"])
        if e["kind"] == "hop-start":
            assert key not in in_flight
            in_flight[key] = len(spans)
            spans.append([e["node"], e["t"], None, e["bits"]])
        elif e["kind"] in ("hop-complete", "hop-failed"):
            spans[in_flight.pop(key)][2] = e["t"]
    assert not in_flight
    return [tuple(s) for s in spans]


@st.composite
def valid_configs(draw):
    """Small configs that pass validate(): tiny and degenerate fields (two
    nodes, a source next to the sink, no bridging), short horizons, nodes
    that die from their first beacons, and search budgets that truncate."""
    width = draw(st.floats(1.0, 120.0))
    height = draw(st.floats(1.0, 120.0))
    frac = st.floats(0.0, 1.0)
    sink = (draw(frac) * width, draw(frac) * height)
    source = (draw(frac) * width, draw(frac) * height)
    assume(sink != source)
    return ScenarioConfig(
        field_width=width, field_height=height,
        node_count=draw(st.integers(2, 30)),
        sink_x=sink[0], sink_y=sink[1], source_x=source[0], source_y=source[1],
        radio_range_m=draw(st.floats(10.0, 80.0)),
        extended_range_fallback=draw(st.booleans()),
        initial_energy_j=draw(st.sampled_from([1e-5, 1e-3, 2.0, 2.0])),
        packet_bytes=draw(st.integers(1, 64)),
        fragment_count=draw(st.integers(1, 6)),
        fragment_header_bytes=draw(st.integers(0, 8)),
        traffic_model=draw(st.sampled_from(["deterministic", "poisson"])),
        rate_pkts_per_s=draw(st.floats(1.0, 200.0)),
        duration_s=draw(st.floats(0.01, 1.0)),
        reassembly_deadline_s=draw(st.floats(0.001, 2.0)),
        beacon_accounting=draw(st.booleans()),
        progress_mode=draw(st.sampled_from(["preferred", "strict"])),
        hop_budget_factor=draw(st.floats(1.0, 4.0)),
        search_visit_budget=draw(st.sampled_from([1, 50, 20000])),
        path_retry_limit=draw(st.integers(0, 3)),
        carrier_sense_factor=draw(st.floats(0.0, 3.0)),
        hop_retry_limit=draw(st.integers(0, 3)),
        base_success=draw(st.floats(0.01, 1.0)),
        success_distance_slope=draw(st.floats(0.0, 1.0)),
        router=draw(st.sampled_from(["qempar", "minhop"])),
    )




@pytest.fixture
def line_topology() -> Topology:
    """Three collinear nodes 30 m apart with 40 m range: 0-1 and 1-2 link,
    0-2 does not."""
    return manual_topology({0: (0, 0), 1: (30, 0), 2: (60, 0)}, radio_range=40.0)
