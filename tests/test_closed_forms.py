"""The event loop against the closed forms of its own model.

Each hop attempt is an independent draw that succeeds with p(d), and a hop
makes at most R + 1 attempts, R being hop_retry_limit. A fragment then
crosses hop h with probability 1 - (1 - p_h)^(R+1), and a packet is
delivered with the product of that over its fragments' hops, whatever the
load: contention only delays, so while no packet expires and no node dies
the delivered count is a sum of independent Bernoulli trials (the ARQ analysis
of Bertsekas & Gallager, Data Networks, 2nd ed., 1992, ch. 2). Where nothing
queues and nothing contends, an attempt takes T, the airtime plus the access
delay, so a hop's attempt count also sets its hop-start lines and the delay.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import replace

import pytest

from qempar import ScenarioConfig
from qempar.engine import discover, link_success_probability, setup, simulate
from qempar.topology import distance

# Lossy links (p from 0.6 down to 0.42 at the radio range), no carrier
# sense, and energy no run can spend.
LOSSY = ScenarioConfig(router="minhop", base_success=0.6, success_distance_slope=0.3,
                       carrier_sense_factor=0.0, rate_pkts_per_s=2.0, duration_s=500.0,
                       initial_energy_j=1e9)


def hop_probability(state, u: int, v: int) -> float:
    """p(d) of the link from node u to node v."""
    nodes = state.topology.nodes
    d = distance(nodes[u].position, nodes[v].position)
    return link_success_probability(state.config, d, state.topology.radio_range)


def delivery_probability(state, paths) -> float:
    """Product over every fragment's hops of 1 - (1 - p_h)^(R+1)."""
    config = state.config
    prob = 1.0
    for seq in range(config.fragments_per_packet):
        ids = paths[seq % len(paths)].node_ids
        for u, v in zip(ids, ids[1:]):
            prob *= 1.0 - (1.0 - hop_probability(state, u, v)) ** (config.hop_retry_limit + 1)
    return prob


# Carrier sense on, at 20 pkt/s for 50 s: on seed 1, 48,051 of qempar's
# 64,967 hop starts and 2,457 of minhop's 11,732 sense a transmitting
# neighbor (counted by tests/conftest.py::replay_run), so contention delays
# most hops without changing any draw's odds.
SENSING = dict(carrier_sense_factor=2.0, rate_pkts_per_s=20.0, duration_s=50.0)


@pytest.mark.parametrize("config", [
    LOSSY,
    replace(LOSSY, router="qempar", base_success=0.95),
    replace(LOSSY, router="qempar", base_success=0.95, **SENSING),
    replace(LOSSY, base_success=0.7, **SENSING),
], ids=["minhop", "qempar", "qempar-sensing", "minhop-sensing"])
def test_delivered_count_matches_the_retry_limited_hop_success(config):
    """Seeds 1-10: the delivered total lies within four standard deviations
    of the sum over seeds of generated x P. Each case predicts 241 to 843
    delivered of 10,000 packets; none expires and no node dies."""
    mean = variance = 0.0
    delivered = 0
    for seed in range(1, 11):
        state = setup(replace(config, seed=seed))
        paths = discover(state)
        m = simulate(state, paths)
        assert m.expired == 0, seed
        # Every node's spent energy is at most the total, so none reached its
        # initial energy.
        assert m.total_energy_j < config.initial_energy_j, seed
        prob = delivery_probability(state, paths)
        mean += m.generated * prob
        variance += m.generated * prob * (1.0 - prob)
        delivered += m.delivered
    z = (delivered - mean) / math.sqrt(variance)
    assert abs(z) <= 4.0, (delivered, mean, z)


def logged_hops(state, paths):
    """simulate()'s metrics and, from its event log, the hop-start and the
    hop-complete lines of each link (u, v)."""
    log = io.StringIO()
    metrics = simulate(state, paths, log)
    starts, completes = Counter(), Counter()
    for e in map(json.loads, log.getvalue().splitlines()):
        if e["kind"] == "hop-start":
            starts[e["node"], e["peer"]] += 1
        elif e["kind"] == "hop-complete":
            completes[e["peer"], e["node"]] += 1
    return metrics, starts, completes


def test_each_attempt_succeeds_with_its_hops_probability():
    """Counted from the event log, per seed and hop: the hop-complete lines
    of n hop-start lines lie within 4.5 standard deviations of n x p(d).
    Over the 203 hops of the ten paths the largest |z| is 2.4."""
    for seed in range(1, 11):
        state = setup(replace(LOSSY, seed=seed))
        _, starts, completes = logged_hops(state, discover(state))
        for (u, v), n in starts.items():
            p = hop_probability(state, u, v)
            z = (completes[u, v] - n * p) / math.sqrt(n * p * (1.0 - p))
            assert abs(z) <= 4.5, (seed, u, v, n, completes[u, v], p)


# LOSSY at 1 pkt/s: the longest of the ten paths has 34 hops, and
# hops x (R + 1) x T is at most 0.90 s, below 1 / rate, so each packet settles
# before the next is born and nothing queues. The contention delay is about
# as long as an attempt: with carrier sense off no hop may pay it, and a hop
# that did would move the delay by many standard deviations.
QUIET = replace(LOSSY, rate_pkts_per_s=1.0, duration_s=1000.0, contention_delay_s=0.01)


def attempt_moments(p: float, retry_limit: int) -> tuple[tuple, tuple]:
    """(mean, variance) of a hop's attempt count A, and of A given that the
    hop succeeds. Attempt k is the first success with probability
    q^(k-1) p, q = 1 - p, for k up to m = R + 1; A is m as well when all m
    fail."""
    m, q = retry_limit + 1, 1.0 - p
    success = [q ** (k - 1) * p for k in range(1, m + 1)]

    def moments(weights):
        total = sum(weights)
        mean = sum(k * w for k, w in enumerate(weights, 1)) / total
        return mean, sum((k - mean) ** 2 * w for k, w in enumerate(weights, 1)) / total

    return moments(success[:-1] + [q ** (m - 1)]), moments(success)


def test_delay_and_hop_starts_follow_the_attempt_counts():
    """QUIET seeds 1-10, minhop's one path and one fragment: a delivered
    packet's delay is the sum over its hops of T x A_h, A_h the hop's
    attempts given that it succeeds. So the delivered packets' summed delay
    lies within four standard deviations of its mean, delivered x
    sum_h T x E[A_h | success]: 243 packets, 248.2 ms against 251.2 ms
    predicted (z = -1.7). And each hop's hop-start lines lie within 4.5
    standard deviations of n_h x E[A_h], n_h the packets offered to it:
    every packet at the first hop, the hop-complete lines of the hop before
    at the others (largest |z| 2.7 over 203 hops)."""
    config = QUIET
    retry_limit = config.hop_retry_limit
    t_attempt = ((config.packet_bits + 8 * config.fragment_header_bytes) / config.bit_rate_bps
                 + config.access_delay_s)
    delay = mean = variance = 0.0
    for seed in range(1, 11):
        state = setup(replace(config, seed=seed))
        paths = discover(state)
        ids = paths[0].node_ids
        assert (len(ids) - 1) * (retry_limit + 1) * t_attempt < 1.0 / config.rate_pkts_per_s
        m, starts, completes = logged_hops(state, paths)
        assert m.expired == 0, seed
        if m.delivered:
            delay += m.mean_delay_s * m.delivered
        offered = m.generated
        for u, v in zip(ids, ids[1:]):
            (a_mean, a_var), (s_mean, s_var) = attempt_moments(hop_probability(state, u, v),
                                                              retry_limit)
            mean += m.delivered * t_attempt * s_mean
            variance += m.delivered * t_attempt ** 2 * s_var
            if offered:
                z = (starts[u, v] - offered * a_mean) / math.sqrt(offered * a_var)
                assert abs(z) <= 4.5, (seed, u, v, offered, starts[u, v], a_mean)
            offered = completes[u, v]
    z = (delay - mean) / math.sqrt(variance)
    assert abs(z) <= 4.0, (delay, mean, z)
