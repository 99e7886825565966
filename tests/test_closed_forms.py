"""The event loop against the closed forms of its own model.

Each hop attempt is an independent draw that succeeds with p(d), and a hop
makes at most R + 1 attempts, R being hop_retry_limit. A fragment then
crosses hop h with probability 1 - (1 - p_h)^(R+1), and a packet is
delivered with the product of that over its fragments' hops, whatever the
load: contention only delays, so while no packet expires and no node dies
the delivered count is a sum of independent Bernoulli trials (the ARQ analysis
of Bertsekas & Gallager, Data Networks, 2nd ed., 1992, ch. 2).
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


def test_each_attempt_succeeds_with_its_hops_probability():
    """Counted from the event log, per seed and hop: the hop-complete lines
    of n hop-start lines lie within 4.5 standard deviations of n x p(d).
    Over the 203 hops of the ten paths the largest |z| is 2.4."""
    for seed in range(1, 11):
        state = setup(replace(LOSSY, seed=seed))
        log = io.StringIO()
        simulate(state, discover(state), log)
        starts, completes = Counter(), Counter()
        for e in map(json.loads, log.getvalue().splitlines()):
            if e["kind"] == "hop-start":
                starts[e["node"], e["peer"]] += 1
            elif e["kind"] == "hop-complete":
                completes[e["peer"], e["node"]] += 1
        for (u, v), n in starts.items():
            p = hop_probability(state, u, v)
            z = (completes[u, v] - n * p) / math.sqrt(n * p * (1.0 - p))
            assert abs(z) <= 4.5, (seed, u, v, n, completes[u, v], p)
