"""Per-node counters, the four-term suitability score, and path merit."""

import random

import pytest

from qempar import discover_paths
from qempar.link_metrics import RoutePath, appr, interference, suitability

from conftest import make_state, manual_topology


def _two_node_state(d=40.0, radio_range=40.0, **cfg):
    topo = manual_topology([(0, 0), (d, 0)], radio_range=radio_range)
    return make_state(topo, **cfg)


def test_ratios_cold_start_before_any_traffic():
    for cold in (1.0, 0.4):
        state = _two_node_state(cold_start_value=cold)
        for node in (0, 1):
            assert state.node_pps(node) == cold
            assert state.node_ppr(node) == cold


def test_counters_track_events_exactly():
    state = _two_node_state(cold_start_value=0.4)
    for ok in (True, True, False, True):
        state.record_send(1, 0, ok)
    for ok in (True, False):
        state.record_receive(1, 0, ok)
    assert state.node_pps(1) == 0.75  # sends count against the sender
    assert state.node_ppr(0) == 0.5  # receptions count against the receiver
    assert state.node_pps(0) == state.node_ppr(1) == 0.4


def test_suitability_four_terms_add_to_known_value():
    """PPS 0.9 + APPR 0.8 + normalized interference 0.5 + full energy 1.0."""
    state = _two_node_state()
    for i in range(10):
        state.record_send(1, 0, ok=i != 0)      # node 1 sends: 9/10
    for i in range(10):
        state.record_receive(1, 0, ok=i > 1)    # node 0 receives: 8/10
    assert state.node_pps(1) == pytest.approx(0.9, rel=1e-12)
    assert appr(1, state) == pytest.approx(0.8, rel=1e-12)  # mean PPR of 1's neighbors
    assert interference(0, 1, state) == pytest.approx(1.0, rel=1e-12)  # 40^2/1600: term 0.5
    assert suitability(0, 1, state) == pytest.approx(3.2, rel=1e-12)  # full energy adds 1.0


def test_literal_interference_term_is_reciprocal():
    state = _two_node_state(d=20.0, interference_mode="literal")
    # I = 20^2 / 1600 = 0.25, literal term 1/I = 4, plus 1 + 1 + 1 cold start
    assert interference(0, 1, state) == pytest.approx(0.25, rel=1e-12)
    assert suitability(0, 1, state) == pytest.approx(7.0, rel=1e-12)


def test_interference_floors_at_tiny_positive_value():
    state = _two_node_state(d=0.0)
    assert interference(0, 1, state) == pytest.approx(1e-12)


def test_energy_term_tracks_residual_fraction():
    state = _two_node_state()
    full = suitability(0, 1, state)
    state.topology.nodes[1].spent_energy += 1.0  # half of the 2 J initial
    assert suitability(0, 1, state) - full == pytest.approx(-0.5, rel=1e-12)


def _star_state(appr_mode="mean"):
    """Node 1 with neighbors 2, 3, 4 whose PPRs are 0.9, 0.6, 0.6."""
    topo = manual_topology(
        [(200, 0), (0, 0), (30, 0), (0, 30), (-30, 0)],
        radio_range=40.0)
    state = make_state(topo, appr_mode=appr_mode)
    for i in range(10):
        state.record_receive(1, 2, ok=i != 0)  # 9/10
    for i in range(10):
        state.record_receive(1, 3, ok=i > 3)   # 6/10
    for i in range(10):
        state.record_receive(1, 4, ok=i > 3)   # 6/10
    return state


def test_appr_mean_and_literal_sum():
    assert appr(1, _star_state()) == pytest.approx(0.7, rel=1e-12)
    assert appr(1, _star_state("literal")) == pytest.approx(2.1, rel=1e-12)


def test_total_merit_of_single_hop_path():
    """Cold-start literal-mode hop at 80 m with 100 m range:
    1 + 1 + 1/(6400/1600) + 1 = 3.25."""
    topo = manual_topology([(0, 0), (80, 0)], radio_range=100.0)
    state = make_state(topo, interference_mode="literal")
    (path,) = discover_paths(0, 1, 1, state)
    assert path.node_ids == (0, 1)
    assert path.merit == pytest.approx(3.25, rel=1e-12)


def test_node_ratios_match_a_recount_of_the_record_calls():
    """PPS and PPR equal a plain per-node recount over a random sequence of
    record_send/record_receive calls."""
    topo = manual_topology([(10 * i, 0) for i in range(6)], radio_range=100.0)
    rng = random.Random(5)
    state = make_state(topo, cold_start_value=0.25)
    calls = []
    for _ in range(500):
        a, b = rng.sample(range(6), 2)
        send, ok = rng.random() < 0.5, rng.random() < 0.8
        (state.record_send if send else state.record_receive)(a, b, ok)
        calls.append((send, a, b, ok))
    for node in range(6):
        for send, ratio in ((True, state.node_pps), (False, state.node_ppr)):
            oks = [ok for s, a, b, ok in calls if s == send and (a if send else b) == node]
            assert ratio(node) == (sum(oks) / len(oks) if oks else 0.25)


def test_route_path_properties():
    p = RoutePath((1, 5, 3, 0), merit=9.0)
    assert p.hop_count == 3
    assert p.interior() == (5, 3)
