"""End-to-end simulation runs: MAC timing, lifecycle accounting, determinism,
and the event log contract."""

import io
import json
import math
import multiprocessing
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from qempar import ScenarioConfig, compare, engine, run
from qempar.engine import (Event, _time_text, arrival_times, discover, link_success_probability,
                           setup, simulate)
from qempar.energy import EnergyLedger
from qempar.errors import ConfigError
from qempar.link_metrics import NetworkState

from conftest import (KINDS, boundary_configs, replay_run, run_and_replay, simulate_twice,
                      valid_configs)
from test_byte_identity import DEFAULT_MINHOP, DEFAULT_TIES, DENSE_LITERAL, DENSE_QEMPAR, EXPIRING


# replay_run checks every hop's end against its start, wire bits and
# carrier-sense count, so these two runs pin the MAC timing.
def test_hop_takes_serialization_plus_access_delay_without_contention():
    cfg = ScenarioConfig(duration_s=2.0, rate_pkts_per_s=50.0, base_success=0.9,
                         contention_delay_s=0.0)
    assert run_and_replay(cfg, 3)[2]["spans"]


def test_contention_adds_whole_multiples_of_its_delay():
    cfg = ScenarioConfig(duration_s=2.0, rate_pkts_per_s=50.0, base_success=0.9,
                         contention_delay_s=0.0003)
    assert max(run_and_replay(cfg, 3)[2]["contention"]) > 0


DENSE = ScenarioConfig(node_count=150, field_width=282.8, field_height=282.8,
                      source_x=212.1, source_y=212.1, duration_s=0.2,
                      base_success=1.0, success_distance_slope=0.0)


def _log_events(cfg, seed):
    return [json.loads(line) for line in run_and_replay(cfg, seed)[1].splitlines()]


def _packet_zero_hops(events):
    """{seq: [(node, peer) of each hop-start]} of packet 0's fragments."""
    hops: dict[int, list] = {}
    for e in events:
        if e["kind"] == "hop-start" and e["packet"] == 0:
            hops.setdefault(e["seq"], []).append((e["node"], e["peer"]))
    assert sorted(hops) == list(range(1, DENSE.fragment_count + 1))
    return hops


@pytest.mark.parametrize("seed", [1, 7])
def test_fragments_follow_paths_round_robin_by_sequence(seed):
    """Fragment seq s of packet 0 hops along ranked path (s-1) mod n_paths,
    wrapping when there are fewer paths than fragments."""
    paths = discover(setup(replace(DENSE, seed=seed)))
    assert 2 <= len(paths) < DENSE.fragment_count
    for seq, pairs in _packet_zero_hops(_log_events(DENSE, seed)).items():
        route = paths[(seq - 1) % len(paths)].node_ids
        assert pairs == list(zip(route, route[1:])), f"seq {seq}"


@pytest.mark.parametrize("seed", [1, 7])
def test_simulate_carries_every_fragment_on_the_paths_it_is_given(seed):
    """Traffic over the first of qempar's paths only, on one set-up."""
    state = setup(replace(DENSE, seed=seed))
    paths = discover(state)
    assert len(paths) >= 2
    log = io.StringIO()
    m = simulate(state, paths[:1], log)
    assert m.n_paths == 1
    assert m.path_hops == (paths[0].hop_count,)
    route = paths[0].node_ids
    for seq, pairs in _packet_zero_hops(map(json.loads, log.getvalue().splitlines())).items():
        assert pairs == list(zip(route, route[1:])), f"seq {seq}"


@pytest.mark.parametrize("router, finder", [("qempar", "discover_paths"),
                                           ("minhop", "minhop_paths")])
def test_run_calls_each_set_up_layer_once_through_the_engine_names(router, finder, monkeypatch):
    """Placement, beacons and path finding are reached through the engine
    module's names, which the bench's traced pass wraps to time each layer."""
    calls = Counter()
    for name in ("place_nodes", "beacon_exchange", "discover_paths", "minhop_paths"):
        def counted(*args, _name=name, _original=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    m = run(_small(duration_s=0.2, router=router), seed=3)
    assert m.n_paths >= 1
    # The other router's finder is never called.
    assert calls == Counter({"place_nodes": 1, "beacon_exchange": 1, finder: 1})


@pytest.mark.parametrize("router", ["qempar", "minhop"])
def test_hops_carry_the_payload_plus_the_fragment_header(router):
    cfg = ScenarioConfig(duration_s=1.0, rate_pkts_per_s=20.0, fragment_count=3,
                         fragment_header_bytes=5, router=router)
    k = cfg.fragment_count if router == "qempar" else 1
    base, rem = divmod(cfg.packet_bits, k)
    payload = {seq: base + (seq <= rem) for seq in range(1, k + 1)}
    events = _log_events(cfg, seed=2)
    starts = [e for e in events if e["kind"] == "hop-start"]
    assert starts and {e["seq"] for e in starts} == set(payload)
    for e in starts:
        assert e["bits"] == payload[e["seq"]] + 8 * cfg.fragment_header_bytes
    for e in events:
        if e["kind"] == "fragment-delivered":
            assert e["bits"] == payload[e["seq"]]


def test_link_success_degrades_with_distance_and_clamps():
    cfg = ScenarioConfig()
    assert link_success_probability(cfg, 0.0, 40.0) == pytest.approx(0.98)
    assert link_success_probability(cfg, 40.0, 40.0) == pytest.approx(0.98 * 0.97, rel=1e-12)
    assert link_success_probability(cfg, 4000.0, 40.0) == 0.01  # floor
    perfect = ScenarioConfig(base_success=1.0, success_distance_slope=0.0)
    assert link_success_probability(perfect, 500.0, 40.0) == 1.0  # cap


def test_event_record_has_every_field():
    record = json.loads(Event("packet-born", node=1, bits=4096).to_json("0.5", 3))
    assert record == {"t": 0.5, "kind": "packet-born", "node": 1, "peer": None,
                      "packet": 3, "seq": None, "bits": 4096, "joules": None}


KEYS = ("kind", "node", "peer", "packet", "seq", "bits", "joules")


def _compact_json(t, packet, fields):
    """The line json.dumps(record, separators=(",", ":")) writes for the
    record of an Event(**fields) logged at time t for packet, "\n" added."""
    record = {"t": t, **dict.fromkeys(KEYS), **fields, "packet": packet}
    return json.dumps(record, separators=(",", ":")) + "\n"


def _lines_match(lines):
    """Each (t, packet, fields) logged by a fresh Event(**fields) gives the
    line json.dumps writes for its record."""
    for t, packet, fields in lines:
        assert Event(**fields).to_json(repr(t), packet) == _compact_json(t, packet, fields)


# Log lines have a finite float time and an int packet; the fixed fields take
# ints of any sign and size, past 64 bits included, finite floats with the
# subnormal minimum, negative zero, the switch to exponent form and a sum that
# rounds, and None.
TIMES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([5e-324, -0.0, 1e16, 1e22, 0.1 + 0.2]))
PACKETS = st.one_of(st.integers(), st.integers(2**63, 2**80))
FIELD_VALUES = st.one_of(
    st.none(), st.integers(), st.integers(2**63, 2**80), st.integers(-2**80, -2**63), TIMES)
FIELDS = st.fixed_dictionaries({"kind": st.sampled_from(KINDS), "node": FIELD_VALUES,
                                "peer": FIELD_VALUES, "seq": FIELD_VALUES,
                                "bits": FIELD_VALUES, "joules": FIELD_VALUES})
EVENTS = st.tuples(TIMES, PACKETS, FIELDS)

X = 0.1 + 0.2
FLOATS = [i + 0.5 for i in range(266)]


@pytest.mark.parametrize("lines", [
    [(0.0, 0, {"kind": "packet-born", "node": 1, "bits": 4096})],
    [(X, 2**40, {"kind": "hop-start", "node": 12, "peer": 3, "seq": 4, "bits": 1088,
                 "joules": 5.440000000000001e-05})],
    [(1e-300, 5, {"kind": "hop-failed", "node": 0, "peer": 99, "seq": 1, "bits": 1})],
    [(123456.789, 17, {"kind": "deadline-expired", "node": 0})],
    [(2.5, 0, {"kind": "hop-complete", "node": -1, "peer": 0, "joules": 1e22})],
    # Values that compare equal but print differently keep their own text.
    [(0.0, 0, {"kind": "hop-start", "joules": 0.0}),
     (-0.0, 0, {"kind": "hop-start", "joules": -0.0}),
     (0.0, 0, {"kind": "hop-start", "joules": 0.0})],
    [(1, 0, {"kind": "hop-complete", "joules": 1}),
     (1.0, 0, {"kind": "hop-complete", "joules": 1.0}),
     (1, 0, {"kind": "hop-complete", "joules": 1})],
    # One float as both time and joules, and beside another.
    [(X, 0, {"kind": "hop-start", "joules": X}), (X, 0, {"kind": "hop-failed", "joules": X}),
     (-X, 0, {"kind": "hop-start", "joules": -X}), (X, 0, {"kind": "hop-start", "joules": 0.3})],
    # Many distinct joule floats, each as its line's time too.
    [*((f, 0, {"kind": "hop-complete", "joules": f}) for f in FLOATS),
     (FLOATS[0], 0, {"kind": "hop-start", "joules": FLOATS[0]}),
     (FLOATS[-1], 0, {"kind": "hop-start", "joules": FLOATS[-1]}),
     (FLOATS[-1], 1, {"kind": "packet-born", "node": 0, "bits": 4096})],
], ids=["born", "start", "failed", "expired", "complete", "zeros", "int-and-float",
        "shared-float", "distinct-joules"])
def test_event_json_matches_compact_json_dumps(lines):
    _lines_match(lines)


@settings(max_examples=300, deadline=None)
@given(EVENTS)
def test_drawn_event_json_matches_compact_json_dumps(event):
    """Every value is finite: validate() rejects non-finite floats, so no run
    logs one (json.dumps would write NaN or Infinity)."""
    _lines_match([event])


@settings(max_examples=200, deadline=None)
@given(FIELDS, st.lists(st.tuples(TIMES, PACKETS), min_size=1, max_size=5))
def test_event_template_json_matches_compact_json_dumps_at_every_stamp(fields, stamps):
    """One Event logs a line for each drawn (time, packet) pair, as a run's
    hop records do."""
    event = Event(**fields)
    for t, packet in stamps:
        assert event.to_json(repr(t), packet) == _compact_json(t, packet, fields)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50, deadline=None)
@given(FIELDS, TIMES, PACKETS)
def test_a_packet_id_and_its_text_write_the_same_line(kind, fields, t, packet):
    """The loop passes each packet's id as text, made once per run."""
    event = Event(**{**fields, "kind": kind})
    assert event.to_json(repr(t), str(packet)) == event.to_json(repr(t), packet)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                 st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)))
@example(0.0)
@example(5e-324)
@example(math.nextafter(1e-4, 0))
@example(1e-4)
@example(math.nextafter(1e16, 0))
@example(1e16)
@example(2.0**53 + 2)
@example(sys.float_info.max)
def test_time_text_is_repr(t):
    """An event's time is written as repr(t) over every finite t >= 0, with
    the bounds of orjson's range (where repr's notation switches to and
    from exponent form) on both sides."""
    assert _time_text(t) == repr(t)


def test_deterministic_arrivals_are_evenly_spaced():
    cfg = ScenarioConfig(rate_pkts_per_s=10.0, duration_s=1.0)
    times = arrival_times(cfg, seed=1)
    assert times == [i / 10.0 for i in range(10)]
    assert all(t < cfg.duration_s for t in times)


def test_poisson_arrivals_are_reproducible_and_bounded():
    cfg = ScenarioConfig(traffic_model="poisson", rate_pkts_per_s=20.0, duration_s=5.0)
    a = arrival_times(cfg, seed=3)
    b = arrival_times(cfg, seed=3)
    c = arrival_times(cfg, seed=4)
    assert a == b
    assert a != c
    assert all(0.0 < t < cfg.duration_s for t in a)
    assert 40 <= len(a) <= 220  # loose band around the 100-packet mean


def _small(**kw):
    base = dict(duration_s=2.0, rate_pkts_per_s=10.0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_perfect_links_deliver_everything():
    m = run(_small(base_success=1.0, success_distance_slope=0.0), seed=5)
    assert m.delivery_ratio == 1.0
    assert m.dropped == 0 and m.expired == 0
    assert m.mean_delay_s > 0.0


def test_hopeless_links_deliver_nothing():
    m = run(_small(base_success=0.01, duration_s=1.0), seed=5)
    assert m.delivered == 0
    assert m.mean_delay_s is None and m.mean_energy_j is None
    assert m.dropped > 0


def test_impossible_deadline_expires_everything():
    m = run(_small(reassembly_deadline_s=0.001), seed=5)
    assert m.delivered == 0
    assert m.expired == m.generated


# One packet over one perfect 30 m hop into the sink, sent whole (minhop).
ONE_HOP = ScenarioConfig(router="minhop", node_count=2, source_x=30.0, source_y=0.0,
                         base_success=1.0, success_distance_slope=0.0, duration_s=0.1)


def test_a_fragment_landing_at_the_deadline_instant_is_late():
    """The deadline is strict and the loop alone decides it: its hop end
    and the packet's deadline fall on the same float, and the deadline,
    created first, runs first; one ulp later the packet is delivered."""
    cfg = ONE_HOP
    hop_s = ((cfg.packet_bits + 8 * cfg.fragment_header_bytes) / cfg.bit_rate_bps
             + cfg.access_delay_s)
    for deadline, want in ((hop_s, (1, 0, 1)), (math.nextafter(hop_s, math.inf), (1, 1, 0))):
        m = run(replace(cfg, reassembly_deadline_s=deadline), seed=1)
        assert (m.generated, m.delivered, m.expired) == want, deadline


@pytest.mark.parametrize("router", ["qempar", "minhop"])
def test_a_deadline_runs_before_a_birth_at_the_same_instant(router):
    """A birth and a deadline at one instant run in ordinal order: packet
    p's deadline (2p + 1) before packet p + 2's birth (2p + 4). Every hop
    takes 11 s or more at 100 bit/s, so each packet expires 2 s after its
    birth, and the deadlines at 2, 3 and 4 s tie with births."""
    cfg = ScenarioConfig(rate_pkts_per_s=1.0, duration_s=5.0, reassembly_deadline_s=2.0,
                         bit_rate_bps=100.0, router=router)
    m, text, _ = run_and_replay(cfg, 1)
    assert m.expired == m.generated == 5
    order = [(e["t"], e["kind"], e["packet"]) for e in map(json.loads, text.splitlines())
             if e["kind"] in ("packet-born", "deadline-expired")]
    for p in range(3):
        t = float(p + 2)
        assert order.index((t, "deadline-expired", p)) < order.index((t, "packet-born", p + 2))


def test_unroutable_scenario_reports_failure():
    # Two isolated nodes: no neighbors, so nothing is ever transmitted.
    cfg = ScenarioConfig(node_count=2, extended_range_fallback=False, duration_s=1.0)
    m = run(cfg, seed=1)
    assert m.n_paths == 0
    assert m.dropped == m.generated > 0
    assert m.delivery_ratio == 0.0
    assert m.setup_energy_j == 0.0
    assert m.ledger_total_j == 0.0
    assert m.residual_total_j == 2 * cfg.initial_energy_j
    # A sparse split field: beacons are still paid for before discovery fails.
    cfg = ScenarioConfig(node_count=40, extended_range_fallback=False, duration_s=1.0)
    m = run(cfg, seed=1)
    assert m.n_paths == 0
    assert m.dropped == m.generated > 0
    assert m.setup_energy_j > 0.0
    assert m.ledger_total_j == pytest.approx(m.setup_energy_j, rel=1e-12)


def test_packet_born_at_a_dying_source_is_dropped():
    """A packet born while the source sends the frame that kills it is
    dropped at once, not queued at the dead source until it expires."""
    m = run(ScenarioConfig(duration_s=2.0, rate_pkts_per_s=50.0, initial_energy_j=2e-3,
                           router="minhop"), 1)
    assert (m.generated, m.delivered, m.expired, m.dropped) == (100, 3, 0, 97)


@pytest.mark.parametrize("router", ["qempar", "minhop"])
def test_a_packet_waiting_at_a_node_that_dies_is_dropped_then(router):
    """A packet not yet settled that has a fragment waiting at a node (there
    since its birth or arrival, not yet sent on) when that node dies is
    dropped at that instant, so it never gets a deadline-expired line. Read
    from the event log alone: the debits of setup() and of the logged hops,
    applied in log order, give the line where each node dies."""
    cfg = ScenarioConfig(duration_s=5.0, rate_pkts_per_s=60.0, initial_energy_j=0.02,
                         router=router)
    text = run_and_replay(cfg, 1)[1]
    state = setup(replace(cfg, seed=1))
    nodes, ledger = state.topology.nodes, state.ledger
    source, sink = state.topology.source_id, state.topology.sink_id
    waiting = {}  # (packet, seq): the node the fragment waits at
    stranded, expired = set(), set()
    for line in text.splitlines():
        e = json.loads(line)
        kind, pid = e["kind"], e["packet"]
        if kind == "packet-born":
            waiting.update({(pid, seq): source
                            for seq in range(1, cfg.fragments_per_packet + 1)})
        elif kind == "hop-start":
            waiting.pop((pid, e["seq"]), None)
        elif kind == "hop-complete" and e["node"] != sink:
            waiting[pid, e["seq"]] = e["node"]
        elif kind == "deadline-expired":
            expired.add(pid)
        if kind in ("hop-start", "hop-complete"):
            node = nodes[e["node"]]
            was_alive = node.alive
            ledger.add(node, e["joules"])
            if was_alive and not node.alive:
                stranded |= {p for (p, _), at in waiting.items()
                             if at == e["node"] and p not in expired}
    assert stranded
    assert not stranded & expired, sorted(stranded & expired)


def _spent_hex(spent: dict) -> dict:
    return {i: j.hex() for i, j in spent.items() if j}


@pytest.mark.parametrize("router, beacon_accounting", [("minhop", True), ("qempar", True),
                                                       ("qempar", False)])
def test_spent_energy_equals_ledger_add_replayed_from_the_log(router, beacon_accounting):
    """Every node's spent energy at the end of simulate(), bit for bit, and
    the clamp count equal EnergyLedger.add applied to every logged debit in
    log order (replay_run), from the nodes and ledger of setup(). Nodes die
    here, so some debits are clamped; without beacon accounting only nodes
    the traffic debits have spent anything."""
    cfg = ScenarioConfig(duration_s=2.0, rate_pkts_per_s=50.0, initial_energy_j=2e-3,
                         router=router, beacon_accounting=beacon_accounting)
    m, text, spent = simulate_twice(cfg, 1)
    replay = replay_run(cfg, 1, text)
    assert m.clamped_debits > 0
    assert replay["metrics"] == m.to_dict()
    assert _spent_hex(dict(enumerate(spent))) == _spent_hex(replay["spent"])


class _CountingLog(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_traffic_debits_and_senses_inline_and_writes_one_line_per_event(monkeypatch):
    """During simulate() neither EnergyLedger.add nor
    active_transmitters_near is called (the beacon round calls add), and
    every logged event is one to_json() call, one write() and one line."""
    calls = Counter()
    for owner, name in ((EnergyLedger, "add"), (NetworkState, "active_transmitters_near"),
                        (Event, "to_json")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    state = setup(replace(DENSE, duration_s=0.5, rate_pkts_per_s=30.0, seed=1))
    paths = discover(state)
    assert calls["add"] > 0
    calls.clear()
    log = _CountingLog()
    m = simulate(state, paths, log)
    assert m.delivered > 0
    assert calls["add"] == calls["active_transmitters_near"] == 0
    lines = log.getvalue().splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert calls["to_json"] == log.writes == len(lines) > 0


def test_logging_builds_events_per_run_not_per_line(monkeypatch):
    """A logged run builds its Events once: the count does not grow with the
    run's length and stays below its line count."""
    built = 0
    original = Event.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counted)
    counts = []
    for duration in (0.5, 2.0):
        state = setup(replace(DENSE, duration_s=duration, rate_pkts_per_s=30.0, seed=1))
        paths = discover(state)
        built = 0
        log = io.StringIO()
        simulate(state, paths, log)
        assert 0 < built < log.getvalue().count("\n")
        counts.append(built)
    assert counts[0] == counts[1]


def test_zero_packet_run_has_no_delivery_ratio():
    m = run(ScenarioConfig(duration_s=0.05, rate_pkts_per_s=10.0), seed=1)
    assert m.generated == 0
    assert m.delivery_ratio is None
    assert m.mean_delay_s is None and m.mean_energy_j is None
    assert m.out_of_order_ratio == 0.0


@pytest.mark.parametrize("config, seed", [
    (DENSE_QEMPAR, 7), (DEFAULT_MINHOP, 1), (DENSE_LITERAL, 7), (DEFAULT_TIES, 16), (EXPIRING, 16),
], ids=["dense-qempar", "default-minhop", "dense-literal", "default-ties", "expiring"])
def test_replay_rebuilds_the_pinned_runs(config, seed):
    """The replay rebuilds each pinned run's metrics and every node's spent
    energy, simulate() leaves the state it is given as it was, and each
    node's spent energy is the one energy account: ledger_total_j is their
    fsum, bit for bit, and the ledger keeps nothing but the count of clamped
    debits."""
    m, text, spent = simulate_twice(config, seed)
    replay = replay_run(config, seed, text)
    assert replay["metrics"] == m.to_dict()
    assert _spent_hex(dict(enumerate(spent))) == _spent_hex(replay["spent"])
    assert m.ledger_total_j.hex() == math.fsum(spent).hex()
    assert list(vars(setup(replace(config, seed=seed)).ledger)) == ["clamped_debits"]


@pytest.mark.parametrize("kind, change", [
    ("hop-start", lambda e: [dict(e, joules=e["joules"] * 1.001)]),
    ("hop-complete", lambda e: [dict(e, t=e["t"] + EXPIRING.contention_delay_s)]),
    ("deadline-expired", lambda e: []),
    ("fragment-delivered", lambda e: [e, e]),
], ids=["debit-x1.001", "late-hop-end", "expiry-removed", "delivery-repeated"])
def test_replay_catches_a_tampered_log(kind, change):
    """The replay catches the first line of kind replaced by change(record)."""
    m, text, _ = run_and_replay(EXPIRING, 16)
    events = [json.loads(line) for line in text.splitlines()]
    at = next(i for i, e in enumerate(events) if e["kind"] == kind)
    events[at:at + 1] = change(events[at])
    tampered = "".join(json.dumps(e) + "\n" for e in events)
    with pytest.raises(AssertionError):
        assert replay_run(EXPIRING, 16, tampered)["metrics"] == m.to_dict()


@pytest.mark.xfail(strict=True, reason="engine._traffic: a node offered a fragment as its "
                   "own hop ends, before that hop's end event runs, starts a second hop")
def test_no_node_starts_a_hop_while_its_own_hop_is_in_flight():
    """In log order, no hop starts at a node whose earlier hop has yet to end."""
    last_end_line, doubled = {}, []
    for node, start, _, _, start_line, end_line in run_and_replay(DEFAULT_TIES, 16)[2]["spans"]:
        if last_end_line.get(node, -1) > start_line:
            doubled.append((node, start))
        last_end_line[node] = max(last_end_line.get(node, -1), end_line)
    assert doubled == []


def test_event_log_writes_to_a_file(tmp_path):
    path = tmp_path / "events.jsonl"
    m = run(_small(duration_s=0.5), seed=1, event_log=str(path))
    lines = path.read_text().splitlines()
    assert lines and m.generated > 0
    assert json.loads(lines[0])["kind"] == "packet-born"
    # The file holds the bytes of the same run logged to memory, "\n" line
    # ends included, whatever the platform's default.
    buf = io.StringIO()
    run(_small(duration_s=0.5), seed=1, event_log=buf)
    assert path.read_bytes() == buf.getvalue().encode()


def test_a_file_log_across_many_write_blocks_holds_the_bytes_of_a_memory_log(tmp_path):
    """run() writes a path log in 256 KiB blocks; this log spans several."""
    cfg = replace(DENSE, duration_s=10.0, rate_pkts_per_s=30.0)
    path = tmp_path / "events.jsonl"
    run(cfg, seed=1, event_log=str(path))
    buf = io.StringIO()
    run(cfg, seed=1, event_log=buf)
    assert path.stat().st_size > 4 * 2**18
    assert path.read_bytes() == buf.getvalue().encode()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        run(_small(duration_s=0.1), seed=-1)


@pytest.mark.parametrize("rates, seeds", [([5.0], [-3, 2]), ([5.0, 0.0], [1]),
                                          ([5.0, math.inf], [1]), ([5.0, 5], [1]),
                                          ([5.0], [1, 1])])
def test_compare_validates_every_cell_before_running_any(rates, seeds, monkeypatch):
    ran = []
    monkeypatch.setattr("qempar.engine.run", lambda cfg, seed: ran.append(seed))
    with pytest.raises(ConfigError):
        compare(_small(duration_s=0.1), rates=rates, seeds=seeds)
    assert ran == []


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested size and
    maps inline, so no process starts."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


@pytest.mark.parametrize("jobs, seeds, pools", [(100000, [1, 2, 3], [3]), (2, [1, 2, 3], [2]),
                                                (8, [1], []), (1, [1, 2], [])])
def test_compare_pool_has_at_most_one_worker_per_cell(jobs, seeds, pools, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    cells = compare(_small(duration_s=0.1), rates=[5.0], seeds=seeds,
                    routers=("minhop",), jobs=jobs)
    assert _RecordingPool.sizes == pools
    assert set(cells) == {(5.0, "minhop", s) for s in seeds}


def test_fragmented_router_beats_whole_packet_baseline_on_delay():
    cfg = _small(duration_s=3.0)
    a = run(cfg, seed=4)
    b = run(replace(cfg, router="minhop"), seed=4)
    assert a.mean_delay_s < b.mean_delay_s
    assert a.n_paths >= 1 and b.n_paths == 1


@settings(max_examples=100, deadline=None)
@given(valid_configs(), st.integers(0, 2**16))
@example(ScenarioConfig(node_count=2, field_width=60.0, field_height=10.0,
                        sink_x=0.0, sink_y=0.0, source_x=30.0, source_y=0.0,
                        duration_s=0.5, rate_pkts_per_s=200.0), 1)
@example(ScenarioConfig(node_count=30, field_width=100.0, field_height=100.0,
                        sink_x=0.0, sink_y=0.0, source_x=90.0, source_y=90.0,
                        initial_energy_j=1e-3, duration_s=1.0, rate_pkts_per_s=200.0), 2)
@example(ScenarioConfig(duration_s=0.5, rate_pkts_per_s=100.0,
                        carrier_sense_factor=0.0), 1)
def test_every_valid_config_runs_to_balanced_metrics(cfg, seed):
    """replay_run rebuilds the metrics, including every hop's carrier-sense
    count, and every log line is the compact json.dumps of its record
    (finite: validate() rejects non-finite floats). The examples pin a
    two-node field, nodes that die mid-run and carrier_sense_factor 0.
    simulate() of one set-up, run twice, leaves that state as it was and
    gives run()'s metrics and log bytes and the replayed energies both
    times."""
    cfg.validate()
    m, text, replay = run_and_replay(cfg, seed)
    sim_m, sim_text, spent = simulate_twice(cfg, seed)
    assert (sim_m, sim_text) == (m, text)
    assert _spent_hex(dict(enumerate(spent))) == _spent_hex(replay["spent"])
    for line in text.splitlines():
        assert line == json.dumps(json.loads(line), separators=(",", ":"))
    assert m.ledger_total_j == m.total_energy_j
    assert m.participant_energy_j <= m.total_energy_j
    budget = cfg.node_count * cfg.initial_energy_j
    drained = budget - m.residual_total_j
    # Each residual is rounded to the precision of the initial energy, so
    # budget - residual carries that much round-off per node.
    round_off = cfg.node_count * math.ulp(cfg.initial_energy_j) + math.ulp(budget)
    if m.clamped_debits == 0:
        assert drained == pytest.approx(m.ledger_total_j, rel=1e-12, abs=round_off)
    else:  # a dying node's last debit exceeds what it had left
        assert drained <= m.ledger_total_j + round_off


@st.composite
def wide_configs(draw):
    """Fields of 60-300 nodes at the default density (the side scaled by
    sqrt(n / 100)), the source at the far corner from the sink, so that
    paths have tens of senders, each hop sensing many of them: both routers,
    carrier_sense_factor in [0, 3], fallback on and off, short horizons."""
    n = draw(st.integers(60, 300))
    side = 400.0 * math.sqrt(n / 100)
    return ScenarioConfig(
        node_count=n, field_width=side, field_height=side, source_x=side, source_y=side,
        router=draw(st.sampled_from(["qempar", "minhop"])),
        carrier_sense_factor=draw(st.floats(0.0, 3.0)),
        extended_range_fallback=draw(st.booleans()),
        duration_s=draw(st.floats(0.1, 0.3)),
        rate_pkts_per_s=draw(st.floats(10.0, 200.0)))


@settings(max_examples=12, deadline=None)
@given(wide_configs(), st.integers(0, 2**16))
@example(ScenarioConfig(node_count=300, field_width=400.0 * math.sqrt(3),
                        field_height=400.0 * math.sqrt(3), source_x=300.0 * math.sqrt(3),
                        source_y=300.0 * math.sqrt(3), carrier_sense_factor=3.0,
                        duration_s=0.2, rate_pkts_per_s=200.0), 1)
def test_paths_with_tens_of_senders_replay_their_carrier_sense(cfg, seed):
    """On fields whose paths have more than 30 senders, replay_run
    recounts every hop's carrier sense from the log and rebuilds run()'s
    metrics. The example's one path has 36 hops, and 5360 of its 6036 hop
    starts sense contention."""
    m, _, _ = run_and_replay(cfg, seed)
    assert m.generated > 0


@settings(max_examples=100, deadline=None)
@given(boundary_configs())
@example(ScenarioConfig(access_delay_s=1e308, duration_s=0.5))
@example(ScenarioConfig(bit_rate_bps=5e-324, duration_s=0.5))
def test_every_boundary_config_runs_or_is_rejected(cfg):
    """A config with one or two fields at an edge of their ranges either
    fails validate() or runs to metrics that replay_run rebuilds from the
    log. The examples once passed validate() and logged hops that never
    ended."""
    try:
        cfg.validate()
    except ConfigError:
        return
    run_and_replay(cfg, cfg.seed)


@settings(max_examples=10, deadline=None)
@given(valid_configs(), st.integers(0, 2**16))
def test_compare_ignores_job_count_over_drawn_configs(cfg, seed):
    rates, seeds = [cfg.rate_pkts_per_s, cfg.rate_pkts_per_s / 2], [seed, seed + 1]
    serial = compare(cfg, rates, seeds, jobs=1)
    assert set(serial) == {(r, rt, s) for r in rates for rt in ("qempar", "minhop")
                           for s in seeds}
    assert serial == compare(cfg, rates, seeds, jobs=2)
