"""Deterministic discrete-event simulation of a full scenario.

A run is setup() (placement, beacons), discover() (the router's paths) and
simulate(), traffic through a light CSMA-style MAC. Each hop attempt
occupies the sender for the serialization time plus access and contention
delays, succeeds with a distance-dependent probability, and is retried a
bounded number of times. Fragments queue FIFO at busy nodes; fragment seq s
of every packet travels on ranked path (s-1) mod n_paths. The loop decides
each packet's fate, the sink's reassembly buffer records it, and the metrics
read it there. Events are ordered by (time, ordinal) where ordinals count
event creation, so ties resolve in creation order and a run is reproducible
bit for bit from (scenario, seed).

The event loop holds per-node spent energy, liveness and busy times in flat
lists, and every hop of a fragment as one precomputed record linked to the
next: its energies, success probability, delay before contention and the
path senders within its sender's carrier-sense range. Births are read from
sorted times, deadlines computed from them; only hop ends go through a
heap, and run while strictly earlier than the next birth and deadline. One
block of the loop starts every hop: an event leaves at most one hop
pending, and after it a hop end's sender serves its queue or a birth offers
its next first hop. Carrier sense counts the senders w in the record with
busy[w] > t, so a hop that ends at the start instant t is not sending. Each
debit adds to its node's spent energy in the flat list, as EnergyLedger.add
does, and one that asks for more than the node had left is counted. A node
whose spent energy is below its guard, its initial energy less four times
the run's largest hop debit, can neither be clamped nor die of one debit,
so its debit is the add alone. The metrics are read from those lists and
that count; simulate() writes nothing to the state it is given, so one
post-discovery state can be simulated again with the same result.

With an event log, each event is one line written by Event.to_json from a
fixed format: the keys t, kind, node, peer, packet, seq, bits and joules in
that order, null for absent fields, numbers as their shortest round-trip
repr, and a "\n" line end on every platform. The line is byte for byte what
json.dumps(record, separators=(",", ":")) writes. An Event is the template
of one line, the text of its six fixed fields built once per run, and each
hop record carries its Events; each event of the loop formats its time once,
with _time_text, and passes that text and its packet's id text, made once per
run for every packet, to the lines it writes. Without a log, the loop builds
no Event. run() writes a log given as a path in 256 KiB blocks.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .dispatch import DELIVERED, DROPPED, EXPIRED, ReassemblyBuffer, fragment
from .errors import ConfigError, NoPathError
from .link_metrics import NetworkState
from .routing import beacon_exchange, discover_paths, minhop_paths
from .topology import distance, place_nodes
from .energy import rx_energy, tx_energy


def link_success_probability(config, distance_m: float, radio_range_m: float) -> float:
    """Per-attempt delivery probability, linearly degrading with distance and
    clamped to [0.01, 1.0] so even stretched links stay usable."""
    p = config.base_success * (1.0 - config.success_distance_slope * (distance_m / radio_range_m))
    return min(1.0, max(0.01, p))


def _text(value) -> str:
    return "null" if value is None else str(value)


def _time_text(t: float) -> str:
    """repr(t) of a time t >= 0. orjson writes the same shortest round-trip
    digits in compiled code, and in [1e-4, 1e16) the same notation; outside
    it repr's notation differs (5e-05, 1e+16), so repr writes those."""
    return orjson.dumps(t).decode() if 1e-4 <= t < 1e16 else repr(t)


@dataclass(slots=True)
class Event:
    """The template of one event-log line: its six fixed fields, whose text
    is built at construction, so a line formats only its time and packet."""

    kind: str
    node: int | None = None
    peer: int | None = None
    seq: int | None = None
    bits: int | None = None
    joules: float | None = None
    _head: str = field(init=False, repr=False, compare=False)
    _tail: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._head = (f',"kind":{encode_basestring_ascii(self.kind)},"node":{_text(self.node)},'
                      f'"peer":{_text(self.peer)},"packet":')
        self._tail = (f',"seq":{_text(self.seq)},"bits":{_text(self.bits)},'
                      f'"joules":{_text(self.joules)}}}\n')

    def to_json(self, t_text: str, packet: int | str) -> str:
        """This event's line for packet (an id, or its str(), which writes
        the same) at the time whose repr() is t_text (as _time_text writes
        it), "\n" included: what
        json.dumps(record, separators=(",", ":")) writes for finite numbers,
        as str() of an int or float is the repr the JSON encoder writes, and
        None becomes null."""
        return f'{{"t":{t_text}{self._head}{packet}{self._tail}'


@dataclass(frozen=True)
class RunMetrics:
    """Headline numbers of one finished run."""

    router: str
    rate_pkts_per_s: float
    seed: int
    n_paths: int
    path_hops: tuple[int, ...]
    generated: int
    delivered: int
    expired: int
    dropped: int
    delivery_ratio: float | None  # None when no packet was generated
    mean_delay_s: float | None
    mean_energy_j: float | None
    participant_energy_j: float
    setup_energy_j: float
    total_energy_j: float
    ledger_total_j: float
    residual_total_j: float
    out_of_order_ratio: float
    clamped_debits: int

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["path_hops"] = list(self.path_hops)
        return d


def arrival_times(config, seed: int) -> list[float]:
    """Packet creation times in [0, duration).

    Deterministic traffic needs no randomness: packet i is born at i/rate.
    Poisson traffic draws exponential gaps from a generator seeded by
    (seed, 1), independent of the placement stream seeded by (seed,).
    """
    rate = config.rate_pkts_per_s
    if config.traffic_model == "deterministic":
        n = int(rate * config.duration_s + 1e-9)
        return [i / rate for i in range(n)]
    rng = np.random.default_rng([seed, 1])
    times = []
    t = rng.exponential(1.0 / rate)
    while t < config.duration_s:
        times.append(float(t))
        t += rng.exponential(1.0 / rate)
    return times


def run(config, seed: int | None = None, event_log=None) -> RunMetrics:
    """Metrics of one scenario, seed (if given) replacing config.seed.
    event_log, a path or writable file, gets one JSON line per event ("\n"
    line ends); equal (config, seed) give equal metrics and log bytes."""
    if seed is not None:
        config = replace(config, seed=seed)
    config.validate()
    with (nullcontext(event_log) if event_log is None or hasattr(event_log, "write")
          else open(event_log, "w", buffering=1 << 18, encoding="utf-8", newline="\n")) as log:
        state = setup(config)
        return simulate(state, discover(state), log)


def setup(config) -> NetworkState:
    """The field of (config, config.seed) after its beacon round."""
    state = NetworkState(place_nodes(config, config.seed), config.radio_params(), config)
    beacon_exchange(state)
    return state


def discover(state) -> list:
    """The ranked paths of state.config.router, [] with no route: qempar asks
    discover_paths for fragment_count paths, minhop asks minhop_paths for 1."""
    config, topo = state.config, state.topology
    find = discover_paths if config.router == "qempar" else minhop_paths
    try:
        return list(find(topo.source_id, topo.sink_id, config.fragments_per_packet, state))
    except NoPathError:
        return []


def simulate(state, paths, log=None) -> RunMetrics:
    """Run state.config's traffic over paths (none: every packet is dropped)
    and return the metrics; log is a file or None. The state is only read,
    so simulating it again gives equal metrics and log bytes."""
    config, nodes = state.config, state.topology.nodes
    setup_spent = [n.spent_energy for n in nodes]
    setup_energy = math.fsum(setup_spent)

    times = arrival_times(config, config.seed)
    n_packets = len(times)
    buffer = ReassemblyBuffer(times, config.fragments_per_packet)
    if paths:
        spent, clamped = _traffic(state, paths, times, buffer, log)
    else:
        spent, clamped = setup_spent, 0
        for pid in range(n_packets):
            buffer.drop(pid)

    status = buffer.status
    delivered = status.count(DELIVERED)
    delays = [d for s, d in zip(status, buffer.delay) if s == DELIVERED]
    mean_delay = sum(delays) / delivered if delivered else None
    out_of_order = (sum(s == DELIVERED and late for s, late in zip(status, buffer.out_of_order))
                    / delivered if delivered else 0.0)

    # fsum is correctly rounded, so the order of its inputs cannot matter.
    participants = set().union(*(p.node_ids for p in paths))
    participant_energy = math.fsum(spent[i] - setup_spent[i] for i in participants)
    total_energy = math.fsum(spent)
    residual_total = math.fsum(max(0.0, n.initial_energy - s) for n, s in zip(nodes, spent))
    mean_energy = participant_energy / delivered if delivered else None

    return RunMetrics(
        router=config.router,
        rate_pkts_per_s=config.rate_pkts_per_s,
        seed=config.seed,
        n_paths=len(paths),
        path_hops=tuple(p.hop_count for p in paths),
        generated=n_packets,
        delivered=delivered,
        expired=status.count(EXPIRED),
        dropped=status.count(DROPPED),
        delivery_ratio=delivered / n_packets if n_packets else None,
        mean_delay_s=mean_delay,
        mean_energy_j=mean_energy,
        participant_energy_j=participant_energy,
        setup_energy_j=setup_energy,
        total_energy_j=total_energy,
        ledger_total_j=total_energy,
        residual_total_j=residual_total,
        out_of_order_ratio=out_of_order,
        clamped_debits=state.ledger.clamped_debits + clamped)


def _traffic(state, paths, times, buffer, log) -> tuple[list[float], int]:
    """Drive every packet through the MAC along its fragments' paths,
    settling each packet's status in buffer; returns every node's spent
    energy at the end and the count of the loop's clamped debits.

    Node i is topology.nodes[i], so each node's spent energy, liveness,
    busy-until time and queue live in flat lists indexed by id, starting
    from the nodes as setup() left them, which the loop never changes."""
    config = state.config
    topo = state.topology
    params = state.params
    nodes = topo.nodes
    n_nodes = len(nodes)
    access_delay = config.access_delay_s
    contention_delay = config.contention_delay_s

    # Only the senders of path hops ever transmit, so near_of[u] holds, in
    # ascending order, the path senders in state.carrier_sense_set(u).
    senders = {u for p in paths for u in p.node_ids[:-1]}
    near_of = {u: tuple(sorted(state.carrier_sense_set(u) & senders)) for u in senders}

    # Hop records: every packet splits the same way, so energies, success
    # probabilities, the path senders within the sender's carrier-sense
    # range, the delay before contention and the log Events are built once
    # per (seq, hop). A record is (u, v, tx_j, rx_j, p_ok, near_of[u],
    # t_tx + access_delay, seq, events, next_hop): next_hop is None on the
    # hop into the sink; events is None without a log, else its hop-start,
    # hop-complete, hop-failed and (into the sink, else None)
    # fragment-delivered Events.
    packet_bits = config.packet_bits
    header_bits = config.fragment_header_bytes * 8
    first_hops = []
    largest = 0.0  # the largest debit of any hop record
    for seq, frag_bits in enumerate(fragment(packet_bits, buffer.expected), start=1):
        route = paths[(seq - 1) % len(paths)].node_ids
        wire = frag_bits + header_bits
        t_tx = wire / config.bit_rate_bps
        hop = None
        for u, v in reversed(list(zip(route, route[1:]))):
            d = distance(nodes[u].position, nodes[v].position)
            tx_j = tx_energy(wire, d, params)
            rx_j = rx_energy(wire, params)
            largest = max(largest, tx_j, rx_j)
            events = None if log is None else (
                Event("hop-start", u, v, seq, wire, tx_j),
                Event("hop-complete", v, u, seq, wire, rx_j),
                Event("hop-failed", u, v, seq, wire),
                None if hop else Event("fragment-delivered", v, None, seq, frag_bits))
            hop = (u, v, tx_j, rx_j, link_success_probability(config, d, topo.radio_range),
                   near_of[u], t_tx + access_delay, seq, events, hop)
        first_hops.append(hop)

    initial = [n.initial_energy for n in nodes]
    spent = [n.spent_energy for n in nodes]
    # A debit is at most largest, so a live node with spent < guard can cover
    # it and stays alive after it: with four debits of room, the roundings of
    # guard, initial - spent and spent + joules cannot cross initial. Such a
    # debit is the add alone. A guard at or below zero (a tiny initial
    # energy, an infinite debit) is never reached, as spent starts at zero or
    # above, and every debit takes the full path.
    guard = [e - 4 * largest for e in initial]
    alive = [n.alive for n in nodes]
    busy = [0.0] * n_nodes
    # Queues are made on first use; queues[n_nodes] stays None (see nxt).
    queues: list[deque | None] = [None] * (n_nodes + 1)
    # Debits beyond what their node had left, as EnergyLedger.add counts them.
    clamped = 0
    reassemble = buffer.reassemble
    drop = buffer.drop
    link_random = random.Random(config.seed ^ 0x9E3779B9).random
    retry_limit = config.hop_retry_limit
    deadline_s = config.reassembly_deadline_s

    # Events run in (time, ordinal) order, ordinals counting creation: packet
    # pid's birth has ordinal 2*pid and its deadline 2*pid + 1, so that at the
    # exact deadline instant expiry wins and a fragment landing then is late;
    # hop ends count on from 2*len(times). This order is the one deadline
    # rule: the buffer records whichever of the two runs first. Births are
    # read in order from times and deadlines computed as times[pid] +
    # deadline_s when their turn comes, so only hop ends use a heap.
    n_packets = len(times)
    heap: list[tuple] = []
    ordinal = 2 * n_packets
    heappush = heapq.heappush
    heappop = heapq.heappop

    if log is not None:
        write = log.write
        ptext = list(map(str, range(n_packets)))  # each packet's id as text
        born_event = Event("packet-born", topo.source_id, bits=packet_bits)
        expired_event = Event("deadline-expired", topo.sink_id)

    def drain_dead(u: int) -> None:
        """A dead node strands everything queued at it."""
        q = queues[u]
        if q:
            for item in q:
                drop(item[0])
            q.clear()

    born = expired = 0  # packets whose birth, or deadline, has run
    next_birth = times[0] if times else math.inf
    next_deadline = times[0] + deadline_s if times else math.inf
    horizon = next_birth if next_birth < next_deadline else next_deadline
    while True:
        # Each event leaves at most one hop pending, (pid, hop, attempt)
        # with hop None for none. An offered hop starts only if its sender
        # is free and queues there otherwise; a retry or a hop taken off a
        # queue starts at once. What follows the pending hop is nxt: a node
        # id, the sender of the hop that just ended, which then serves its
        # queue if it is still free; a negative index into first_hops, the
        # next first hop to offer of the packet just born; or n_nodes,
        # nothing (queues[n_nodes] stays None).
        # A birth or deadline has a lower ordinal than any hop end, so hop
        # ends run first only while strictly earlier than both (horizon).
        if heap and heap[0][0] < horizon:
            t, _, pid, hop, attempt, ok = heappop(heap)
            u, v, _tx_j, rx_j, _p, _near, _base, seq, events, next_hop = hop
            nxt = u
            if ok and alive[v]:
                s = spent[v]
                if s < guard[v]:
                    spent[v] = s + rx_j
                else:
                    if rx_j > initial[v] - s:
                        clamped += 1
                    spent[v] = s = s + rx_j
                    if s >= initial[v]:
                        alive[v] = False
                        drain_dead(v)
                if log is not None:
                    t_text = _time_text(t)
                    write(events[1].to_json(t_text, ptext[pid]))
                if next_hop is None:
                    if log is not None:
                        write(events[3].to_json(t_text, ptext[pid]))
                    reassemble(pid, seq, t)
                    hop = None
                else:
                    hop = next_hop
                    attempt = 1
                    offered = True
            else:
                if log is not None:
                    t_text = _time_text(t)
                    write(events[2].to_json(t_text, ptext[pid]))
                if attempt <= retry_limit:
                    # A retry starts at once, even at a busy sender.
                    attempt += 1
                    offered = False
                else:
                    drop(pid)
                    hop = None
        elif next_birth < next_deadline or (next_birth == next_deadline and born <= expired):
            if born == n_packets:
                break  # past every deadline: each packet has settled
            t = next_birth
            pid = born
            born += 1
            next_birth = times[born] if born < n_packets else math.inf
            horizon = next_birth if next_birth < next_deadline else next_deadline
            if log is not None:
                t_text = _time_text(t)
                write(born_event.to_json(t_text, ptext[pid]))
            hop = None
            nxt = -len(first_hops)
        else:
            t = next_deadline
            pid = expired
            expired += 1
            next_deadline = times[expired] + deadline_s if expired < n_packets else math.inf
            horizon = next_birth if next_birth < next_deadline else next_deadline
            if buffer.expire(pid) and log is not None:
                write(expired_event.to_json(_time_text(t), ptext[pid]))
            continue

        while True:
            if hop is not None:
                u = hop[0]
                if not alive[u]:
                    # The packet of a dead sender is dropped, even while the
                    # sender is busy with the frame that killed it.
                    drop(pid)
                elif offered and busy[u] > t:
                    q = queues[u]
                    if q is None:
                        q = queues[u] = deque()
                    q.append((pid, hop))
                else:
                    # The start rule: sense the carrier, debit the sender and
                    # draw the outcome. A path sender is sending while its
                    # latest hop ends after t.
                    n = 0
                    for w in hop[5]:
                        if busy[w] > t:
                            n += 1
                    end = t + (hop[6] + contention_delay * n if n else hop[6])
                    s = spent[u]
                    if s < guard[u]:
                        spent[u] = s + hop[2]
                    else:
                        joules = hop[2]
                        if joules > initial[u] - s:
                            clamped += 1
                        spent[u] = s = s + joules
                        if s >= initial[u]:
                            alive[u] = False
                            drain_dead(u)
                    # One success draw per start, whatever follows; the hop
                    # end alone judges the receiver, failing the hop if it
                    # is dead by then.
                    busy[u] = end
                    heappush(heap, (end, ordinal, pid, hop, attempt, link_random() < hop[4]))
                    ordinal += 1
                    if log is not None:
                        # t_text: _time_text(t), formatted by the hop end or birth
                        # that led here, whose own line has been written.
                        write(hop[8][0].to_json(t_text, ptext[pid]))
            if nxt < 0:
                hop = first_hops[nxt]
                attempt = 1
                offered = True
                nxt = nxt + 1 if nxt < -1 else n_nodes
            else:
                # A dead node's queue is empty: drain_dead clears it, nothing joins.
                q = queues[nxt]
                if not q or busy[nxt] > t:
                    break
                pid, hop = q.popleft()
                attempt = 1
                offered = False
                nxt = n_nodes

    return spent, clamped


def _run_cell(args) -> tuple:
    config, seed = args
    return (config.rate_pkts_per_s, config.router, seed), run(config, seed)


def compare(config, rates, seeds, routers=("qempar", "minhop"), jobs: int = 1) -> dict:
    """Run every (rate, router, seed) cell and return {key: RunMetrics}.

    Every cell is validated, and a repeated cell refused, before the first
    one runs. Results are independent of jobs; with jobs > 1 cells run in a
    pool of at most one worker process per cell.
    """
    tasks = [(replace(config, rate_pkts_per_s=float(r), router=rt), int(s))
             for r in rates for rt in routers for s in seeds]
    cells = set()
    for cell_config, seed in tasks:
        replace(cell_config, seed=seed).validate()
        cell = (cell_config.rate_pkts_per_s, cell_config.router, seed)
        if cell in cells:
            raise ConfigError(f"sweep cell (rate, router, seed) {cell} is repeated")
        cells.add(cell)
    workers = min(jobs, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_cell, tasks)
    else:
        results = [_run_cell(task) for task in tasks]
    return dict(results)
