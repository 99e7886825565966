"""Network state and the four-term next-hop suitability score.

A candidate hop from a to b is scored PPS_b + APPR_b + interference term +
residual-energy ratio, one float per link. Discovery runs once, before any
traffic, so PPS/PPR (a node's send/receive success ratios) are still the
cold-start value; APPR averages (or, in literal mode, sums) the PPR of the
candidate's neighbors; the interference term rewards short links, 1/(1+I_B)
in normalized mode or 1/I_B in literal mode, with I_B = d^alpha / reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import EnergyLedger, RadioParams
from .topology import Topology, distance, neighbors as topo_neighbors


@dataclass(frozen=True)
class RoutePath:
    """A discovered source-to-sink path with its merit snapshot: the sum of
    its links' suitability scores."""

    node_ids: tuple[int, ...]
    merit: float

    @property
    def hop_count(self) -> int:
        return len(self.node_ids) - 1

    def interior(self) -> tuple[int, ...]:
        return self.node_ids[1:-1]


class NetworkState:
    """A field as set-up leaves it, which discovery and the event loop only
    read: topology (whose nodes keep their set-up spent energy), radio
    constants, scenario config, per-node send and receive counts, and the
    energy ledger, which debits set-up charges and counts their clamps."""

    def __init__(self, topology: Topology, params: RadioParams, config):
        self.topology = topology
        self.params = params
        self.config = config
        self.ledger = EnergyLedger()
        # Per-node [attempted, succeeded] send and receive counts.
        self._send_agg: dict[int, list[int]] = {}
        self._recv_agg: dict[int, list[int]] = {}
        self._nbr_cache: dict[int, list[int]] = {}
        self._cs_near: dict[int, frozenset[int]] = {}  # see carrier_sense_set

    def record_send(self, a: int, b: int, ok: bool) -> None:
        """Count one a-to-b send attempt against sender a."""
        agg = self._send_agg.setdefault(a, [0, 0])
        agg[0] += 1
        agg[1] += bool(ok)

    def record_receive(self, a: int, b: int, ok: bool) -> None:
        """Count one expected a-to-b reception against receiver b."""
        agg = self._recv_agg.setdefault(b, [0, 0])
        agg[0] += 1
        agg[1] += bool(ok)

    def node_pps(self, node_id: int) -> float:
        agg = self._send_agg.get(node_id)
        if not agg:
            return self.config.cold_start_value
        return agg[1] / agg[0]

    def node_ppr(self, node_id: int) -> float:
        agg = self._recv_agg.get(node_id)
        if not agg:
            return self.config.cold_start_value
        return agg[1] / agg[0]

    def neighbors(self, node_id: int) -> list[int]:
        nbrs = self._nbr_cache.get(node_id)
        if nbrs is None:
            nbrs = self._nbr_cache[node_id] = topo_neighbors(self.topology, node_id)
        return nbrs

    def invalidate_neighbors(self) -> None:
        """Drop cached neighbor lists (call after any node death)."""
        self._nbr_cache.clear()

    def active_transmitters_near(self, node_id: int, active: set[int]) -> int:
        """Nodes of active within carrier_sense_set(node_id)."""
        return len(active & self.carrier_sense_set(node_id))

    def carrier_sense_set(self, node_id: int) -> frozenset[int]:
        """The other nodes within carrier-sense range (carrier_sense_factor
        times the radio range) of node_id. Nodes never move, so each set is
        built once, on the node's first query."""
        near = self._cs_near.get(node_id)
        if near is None:
            topo = self.topology
            topo.node(node_id)
            cs = self.config.carrier_sense_factor * topo.radio_range
            near = self._cs_near[node_id] = frozenset(topo.distances.within(node_id, cs))
        return near


def appr(neighbor_id: int, state: NetworkState) -> float:
    """Average (or literal-sum) packet reception ratio over the candidate's
    own neighbor set."""
    values = [state.node_ppr(j) for j in state.neighbors(neighbor_id)]
    if not values:
        return state.config.cold_start_value
    if state.config.appr_mode == "literal":
        return sum(values)
    return sum(values) / len(values)


def interference(a: int, b: int, state: NetworkState) -> float:
    """I_B for the a-to-b link: d^alpha / reference, with no live
    contention, as discovery runs before any traffic. Always positive."""
    cfg = state.config
    nodes = state.topology.nodes
    d = distance(nodes[a].position, nodes[b].position)
    raw = d ** cfg.interference_alpha / cfg.interference_reference
    return max(raw, 1e-12)


def suitability(a: int, b: int, state: NetworkState) -> float:
    """Score candidate b as the next hop from a: PPS + APPR + interference
    term + residual-energy ratio, added in that order. Precondition, not
    checked: b is in state.neighbors(a), as is every link discovery scores."""
    i_b = interference(a, b, state)
    if state.config.interference_mode == "literal":
        interference_term = 1.0 / i_b
    else:
        interference_term = 1.0 / (1.0 + i_b)
    node_b = state.topology.nodes[b]
    return (state.node_pps(b) + appr(b, state) + interference_term
            + node_b.residual_energy / node_b.initial_energy)
