"""Network state and the four-term next-hop suitability score.

A candidate hop from a to b is scored PPS_b + APPR_b + interference term +
residual-energy ratio. Discovery runs once, before any traffic, so PPS/PPR
(a node's send/receive success ratios) are still the cold-start value; APPR
averages (or, in literal mode, sums) the PPR of the candidate's neighbors;
the interference term rewards short links, 1/(1+I_B) in normalized mode or
1/I_B in literal mode, with I_B = noise * d^alpha / reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import EnergyLedger, RadioParams
from .errors import UnknownNodeError
from .topology import Topology, distance, neighbors as topo_neighbors


@dataclass(frozen=True)
class SuitabilityScore:
    """The four scored terms. total is their exact sum by construction."""

    pps_term: float
    appr_term: float
    interference_term: float
    energy_term: float

    @property
    def total(self) -> float:
        return self.pps_term + self.appr_term + self.interference_term + self.energy_term


@dataclass(frozen=True)
class RoutePath:
    """A discovered source-to-sink path with its merit snapshot.

    extended_hops flags the hops that exceed the radio range (bridge links).
    """

    node_ids: tuple[int, ...]
    total_merit: float
    extended_hops: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if len(self.node_ids) < 2:
            raise ValueError("a path needs at least source and sink")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("path repeats a node id")

    @property
    def hop_count(self) -> int:
        return len(self.node_ids) - 1

    @property
    def first_interior(self) -> int:
        """Tie-break key for path classification."""
        return self.node_ids[1]

    def interior(self) -> tuple[int, ...]:
        return self.node_ids[1:-1]


class NetworkState:
    """Everything the metrics need about a running network: topology, radio
    constants, scenario config, per-node send and receive counts, the energy
    ledger, and active_tx, the nodes transmitting at the event loop's current
    time."""

    def __init__(self, topology: Topology, params: RadioParams, config):
        self.topology = topology
        self.params = params
        self.config = config
        self.ledger = EnergyLedger()
        self.active_tx: set[int] = set()
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

    def active_transmitters_near(self, node_id: int) -> int:
        """Nodes of active_tx, other than node_id, within carrier-sense range
        (carrier_sense_factor times the radio range) of node_id. The event
        loop keeps a node that died mid-transmission in active_tx until its
        transmission ends."""
        active = self.active_tx
        if not active:
            return 0
        return len(active & self.carrier_sense_set(node_id))

    def carrier_sense_set(self, node_id: int) -> frozenset[int]:
        """The other nodes within carrier-sense range (carrier_sense_factor
        times the radio range) of node_id. Nodes never move, so each set is
        built once, on the node's first query."""
        near = self._cs_near.get(node_id)
        if near is None:
            topo = self.topology
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
    """I_B for the a-to-b link: noise * d^alpha / reference, with no live
    contention, as discovery runs before any traffic. Always positive."""
    cfg = state.config
    d = distance(state.topology.node(a).position, state.topology.node(b).position)
    raw = cfg.interference_noise * d ** cfg.interference_alpha / cfg.interference_reference
    return max(raw, 1e-12)


def suitability(a: int, b: int, state: NetworkState) -> SuitabilityScore:
    """Score candidate b as the next hop from a. b must be a neighbor of a."""
    if b not in state.neighbors(a):
        raise UnknownNodeError(f"no link {a}->{b}")
    i_b = interference(a, b, state)
    if state.config.interference_mode == "literal":
        interference_term = 1.0 / i_b
    else:
        interference_term = 1.0 / (1.0 + i_b)
    node_b = state.topology.node(b)
    return SuitabilityScore(
        pps_term=state.node_pps(b),
        appr_term=appr(b, state),
        interference_term=interference_term,
        energy_term=node_b.residual_energy / node_b.initial_energy,
    )


def pick_best(candidates: list[int], totals: list[float]) -> int:
    """Argmax with lowest-id tie-break. Invariant under any positive scaling
    of all totals."""
    best_id = candidates[0]
    best = totals[0]
    for cand, tot in zip(candidates[1:], totals[1:]):
        if tot > best or (tot == best and cand < best_id):
            best, best_id = tot, cand
    return best_id


def link_total(a: int, b: int, state: NetworkState, totals: dict) -> float:
    """suitability(a, b, state).total, scored once per (a, b) into totals.

    totals may be shared only while the state cannot change, as during one
    discovery: the score reads residual energy.
    """
    total = totals.get((a, b))
    if total is None:
        total = totals[a, b] = suitability(a, b, state).total
    return total


def select_next_hop(current: int, candidates: list[int], state: NetworkState,
                    totals: dict) -> int:
    """Highest-suitability candidate; ties go to the lowest node id. totals
    holds the link totals already scored (see link_total)."""
    if not candidates:
        raise ValueError(f"no candidates from node {current}")
    return pick_best(list(candidates), [link_total(current, c, state, totals) for c in candidates])


def total_merit(node_ids, state: NetworkState, totals: dict) -> float:
    """Path merit: the sum of full link suitability totals along the path.
    totals holds the link totals already scored (see link_total)."""
    ids = tuple(node_ids)
    if len(ids) < 2 or len(set(ids)) != len(ids):
        raise ValueError("invalid path")
    return sum(link_total(a, b, state, totals) for a, b in zip(ids, ids[1:]))
