"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import io
import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import assume, strategies as st

from qempar import NetworkState, ScenarioConfig, engine, run
from qempar.engine import arrival_times, discover, setup, simulate
from qempar.link_metrics import suitability
from qempar.topology import NodeState, Position, Topology, distance


def manual_topology(positions, radio_range, initial_energy=2.0, fallback=False,
                    extended=None) -> Topology:
    """Topology with hand-picked positions: node i at positions[i] = (x, y)."""
    return Topology(
        nodes=[NodeState(Position(float(x), float(y)), initial_energy) for x, y in positions],
        radio_range=radio_range, fallback_enabled=fallback, extended_links=extended or {})


def make_state(topo: Topology, **config_overrides) -> NetworkState:
    cfg = ScenarioConfig(radio_range_m=topo.radio_range, **config_overrides)
    return NetworkState(topo, cfg.radio_params(), cfg)


def assert_valid_paths(state, paths, k):
    """The paths' invariants: at most k of them; each runs from the source
    to the sink over links of state.neighbors without repeating a node, its
    merit the sum of its links' suitability on state; no two share an
    interior node; they come in strictly ascending (hop count, -merit,
    first-interior id), so no path repeats."""
    source, sink = state.topology.source_id, state.topology.sink_id
    assert len(paths) <= k, ("more paths than asked for", len(paths), k)
    interiors = set()
    for p in paths:
        ids = p.node_ids
        links = list(zip(ids, ids[1:]))
        assert (ids[0], ids[-1]) == (source, sink), ("a path's endpoints", ids)
        assert len(set(ids)) == len(ids), ("a path repeats a node", ids)
        assert all(b in state.neighbors(a) for a, b in links), ("a hop over no link", ids)
        assert p.merit == sum(suitability(a, b, state) for a, b in links), ("merit", ids)
        assert interiors.isdisjoint(ids[1:-1]), ("paths share an interior node", ids)
        interiors.update(ids[1:-1])
    ranks = [(p.hop_count, -p.merit, p.node_ids[1]) for p in paths]
    assert all(a < b for a, b in zip(ranks, ranks[1:])), ("paths out of rank order", ranks)


KINDS = ("packet-born", "hop-start", "hop-complete", "hop-failed",
         "fragment-delivered", "deadline-expired")


def replay_run(config, seed, log_text):
    """The one event-log oracle: run(config, seed).to_dict() rebuilt from
    setup(), discover() and the log alone, as {"metrics", "contention" (each
    hop's carrier-sense count), "spans" (each hop's node, start, end, wire
    bits, start and end line) in start order, "spent" (the replayed
    spent_energy of every node with a debit)}.
    Asserts that every hop ends at start + bits/bit_rate + access_delay +
    contention_delay x (other nodes within carrier_sense_factor x
    radio_range whose latest hop ends after the start), and the invariants
    named in its assertion messages, assert_valid_paths among them."""
    config = replace(config, seed=seed)
    state = setup(config)
    paths = discover(state)
    assert_valid_paths(state, paths, config.fragments_per_packet)
    nodes, ledger = state.topology.nodes, state.ledger
    setup_spent = [n.spent_energy for n in nodes]
    born, arrivals, expired = {}, {}, set()
    spans, in_flight, reached = [], {}, set()
    for line_no, line in enumerate(log_text.splitlines()):
        e = json.loads(line)
        kind, key = e["kind"], (e["packet"], e["seq"])
        assert kind in KINDS, kind
        if kind == "packet-born":
            born[e["packet"]] = e["t"]
        elif kind == "hop-start":
            assert key not in in_flight, ("two hops of one fragment in flight", key)
            in_flight[key] = len(spans)
            spans.append([e["node"], e["t"], None, e["bits"], line_no, None])
        elif kind in ("hop-complete", "hop-failed"):
            span = spans[in_flight.pop(key)]
            span[2], span[5] = e["t"], line_no
        elif kind == "fragment-delivered":
            assert key not in reached, ("a fragment reached the sink twice", key)
            reached.add(key)
            arrivals.setdefault(e["packet"], []).append((e["t"], e["seq"]))
        else:
            expired.add(e["packet"])
        if kind in ("hop-start", "hop-complete"):
            assert nodes[e["node"]].alive, ("a dead node sends or receives", line_no)
            ledger.add(nodes[e["node"]], e["joules"])
    assert not in_flight, "a hop never ended"
    cs_range = config.carrier_sense_factor * state.topology.radio_range
    latest_end, contention = {}, []
    for node, start, end, bits, _, _ in spans:
        n = sum(1 for other, other_end in latest_end.items()
                if other != node and other_end > start
                and distance(nodes[node].position, nodes[other].position) <= cs_range)
        assert end == start + (bits / config.bit_rate_bps + config.access_delay_s
                               + config.contention_delay_s * n), ("hop timing", node, start)
        latest_end[node] = end
        contention.append(n)
    assert paths or not log_text, "a run without paths logs nothing"
    generated = len(born) if paths else len(arrival_times(config, seed))
    k = config.fragment_count if config.router == "qempar" else 1
    delays, out_of_order = [], 0
    for pid, t0 in born.items():
        got = arrivals.get(pid, [])
        if len(got) == k and all(t < t0 + config.reassembly_deadline_s for t, _ in got):
            assert pid not in expired, ("a packet delivered and expired", pid)
            delays.append(got[-1][0] - t0)
            out_of_order += any(a[1] > b[1] for a, b in zip(got, got[1:]))
    delivered = len(delays)
    total = math.fsum(n.spent_energy for n in nodes)
    participants = set().union(*(p.node_ids for p in paths))
    participant_energy = math.fsum(nodes[i].spent_energy - setup_spent[i] for i in participants)
    metrics = dict(
        router=config.router, rate_pkts_per_s=config.rate_pkts_per_s, seed=seed,
        n_paths=len(paths), path_hops=[p.hop_count for p in paths], generated=generated,
        delivered=delivered, expired=len(expired), dropped=generated - delivered - len(expired),
        delivery_ratio=delivered / generated if generated else None,
        mean_delay_s=sum(delays) / delivered if delivered else None,
        mean_energy_j=participant_energy / delivered if delivered else None,
        participant_energy_j=participant_energy, setup_energy_j=math.fsum(setup_spent),
        total_energy_j=total, ledger_total_j=total, clamped_debits=ledger.clamped_debits,
        residual_total_j=math.fsum(n.residual_energy for n in nodes),
        out_of_order_ratio=out_of_order / delivered if delivered else 0.0)
    return {"metrics": metrics, "contention": contention,
            "spans": [tuple(s) for s in spans],
            "spent": {i: n.spent_energy for i, n in enumerate(nodes) if n.spent_energy}}


def run_and_replay(config, seed):
    """(metrics, log text, replay_run) of a logged run whose metrics it rebuilds."""
    log = io.StringIO()
    m = run(config, seed, event_log=log)
    replay = replay_run(config, seed, log.getvalue())
    assert replay["metrics"] == m.to_dict()
    return m, log.getvalue(), replay


def simulate_twice(config, seed):
    """(metrics, log text, spent) of simulate() on one post-discovery state,
    spent being every node's spent energy at the end of the run. The state
    is simulated twice: asserts that both runs give equal metrics, log bytes
    and energies, and that neither changes the nodes' spent energies, the
    ledger or what discover() finds."""
    state = setup(replace(config, seed=seed))
    paths = discover(state)
    nodes = state.topology.nodes
    before = [n.spent_energy.hex() for n in nodes], dict(vars(state.ledger))
    runs = []
    traffic = engine._traffic
    for _ in range(2):
        # Without paths simulate() runs no traffic and spent stays setup()'s.
        spent = [n.spent_energy for n in nodes]

        def kept(*args):
            nonlocal spent
            spent, clamped = traffic(*args)
            return spent, clamped

        log = io.StringIO()
        engine._traffic = kept
        try:
            m = simulate(state, paths, log)
        finally:
            engine._traffic = traffic
        runs.append((m, log.getvalue(), [s.hex() for s in spent]))
        assert ([n.spent_energy.hex() for n in nodes], vars(state.ledger)) == before
    assert runs[0] == runs[1], "a second simulate() of one state differs"
    assert discover(state) == paths
    return m, log.getvalue(), spent


@st.composite
def valid_configs(draw):
    """Small configs that pass validate(): tiny and degenerate fields (two
    nodes, a source next to the sink, no bridging), short horizons, nodes
    that die from their first beacons, search budgets that truncate, and
    both scoring modes over drawn radio, MAC and interference constants."""
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
        carrier_sense_factor=draw(st.floats(0.0, 3.0)),
        hop_retry_limit=draw(st.integers(0, 3)),
        base_success=draw(st.floats(0.01, 1.0)),
        success_distance_slope=draw(st.floats(0.0, 1.0)),
        router=draw(st.sampled_from(["qempar", "minhop"])),
        bit_rate_bps=draw(st.floats(1e4, 1e7)),
        access_delay_s=draw(st.floats(0.0, 0.005)),
        contention_delay_s=draw(st.floats(0.0, 0.005)),
        e_elec_j_per_bit=draw(st.floats(1e-9, 1e-6)),
        eps_fs_j_per_bit_m2=draw(st.floats(1e-13, 1e-10)),
        eps_mp_j_per_bit_m4=draw(st.floats(1e-16, 1e-12)),
        beacon_bytes=draw(st.integers(1, 64)),
        cold_start_value=draw(st.floats(0.0, 1.0)),
        appr_mode=draw(st.sampled_from(["mean", "literal"])),
        interference_mode=draw(st.sampled_from(["normalized", "literal"])),
        interference_reference=draw(st.floats(1.0, 1e4)),
        interference_alpha=draw(st.floats(0.5, 4.0)),
    )


# A small field that boundary_configs() moves one or two fields of.
BOUNDARY_BASE = ScenarioConfig(field_width=100.0, field_height=100.0, node_count=12,
                               source_x=75.0, source_y=75.0, packet_bytes=64,
                               duration_s=0.5)
# The bounds validate() puts on a number of BOUNDARY_BASE, where 0 (every
# other float is positive or non-negative, every other int non-negative)
# is not all of them. 2**63 is past fragment_count's upper bound,
# sys.maxsize, and node_count's, about 1.07e9 (the distance table); those
# bounds themselves are left out, as a run there cannot fit in memory.
_BOUNDS = {
    "sink_x": (0.0, 100.0), "sink_y": (0.0, 100.0),
    "source_x": (0.0, 100.0), "source_y": (0.0, 100.0),
    "cold_start_value": (0.0, 1.0), "base_success": (0.0, 1.0),
    "success_distance_slope": (0.0, 1.0), "hop_budget_factor": (1.0,),
    "node_count": (2,), "packet_bytes": (1,), "beacon_bytes": (1,),
    "fragment_count": (1, BOUNDARY_BASE.packet_bits),
}
_HUGE_INTS = (2**63, 10**30)
_EXTREME_FLOATS = (5e-324, 1e-310, 1e308)
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_CHOICES = {"traffic_model": ("deterministic", "poisson"), "appr_mode": ("mean", "literal"),
            "interference_mode": ("normalized", "literal"),
            "progress_mode": ("preferred", "strict"), "router": ("qempar", "minhop")}


def _edges(name: str) -> tuple:
    """Values at the edges of a field's validated range: each bound, the
    next value past it on either side, huge ints, a subnormal and 1e308;
    every choice of a str or bool field."""
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        return (False, True)
    if kind == "str":
        return _CHOICES[name]
    bounds = _BOUNDS.get(name, (0.0,) if kind == "float" else (0,))
    if kind == "int":
        return tuple(sorted({v for b in bounds for v in (b - 1, b, b + 1)}.union(_HUGE_INTS)))
    return tuple(sorted({v for b in bounds for v in (math.nextafter(b, -math.inf), b,
                                                    math.nextafter(b, math.inf))}
                        .union(_EXTREME_FLOATS)))


@st.composite
def boundary_configs(draw):
    """BOUNDARY_BASE with one or two fields set to an edge of its range
    (_edges), valid or not."""
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_TYPES)), min_size=1, max_size=2,
                          unique=True))
    return replace(BOUNDARY_BASE, **{name: draw(st.sampled_from(_edges(name)))
                                     for name in names})


@pytest.fixture
def line_topology() -> Topology:
    """Three collinear nodes 30 m apart with 40 m range: 0-1 and 1-2 link,
    0-2 does not."""
    return manual_topology([(0, 0), (30, 0), (60, 0)], radio_range=40.0)
