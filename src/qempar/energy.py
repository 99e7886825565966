"""First-order radio energy model and the per-run energy ledger.

Transmission costs electronics energy per bit plus amplifier energy that
scales with d^2 up to the threshold distance d0 and with d^4 beyond it;
reception costs electronics energy only. Every charge is folded into per-node
ledger totals so a finished run can prove energy conservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .topology import NodeState


@dataclass(frozen=True)
class RadioParams:
    """Radio constants, all strictly positive.

    e_elec: electronics energy, J/bit.
    eps_fs: open-space amplifier, J/bit/m^2 (used for d <= d0).
    eps_mp: multi-path amplifier, J/bit/m^4 (used for d > d0).
    """

    e_elec: float = 50e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12

    def __post_init__(self):
        for name in ("e_elec", "eps_fs", "eps_mp"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"radio constant {name} must be positive")

    @property
    def d0(self) -> float:
        """Crossover distance between the two amplifier regimes, meters."""
        return math.sqrt(self.eps_fs / self.eps_mp)


def tx_energy(bits: int, distance_m: float, params: RadioParams) -> float:
    """Energy to transmit `bits` over `distance_m` meters, joules.

    Uses the open-space amplifier up to and including d0, the multi-path
    amplifier beyond. Strictly increasing in distance and continuous at d0.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    if distance_m < 0.0:
        raise ValueError("distance must be non-negative")
    if distance_m <= params.d0:
        return bits * params.e_elec + bits * params.eps_fs * distance_m ** 2
    return bits * params.e_elec + bits * params.eps_mp * distance_m ** 4


def rx_energy(bits: int, params: RadioParams) -> float:
    """Energy to receive `bits`, joules."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return bits * params.e_elec


@dataclass
class EnergyLedger:
    """Per-node totals of every energy charge in a run.

    Totals are running accumulators, so they stay O(1) regardless of run
    length. The beacon round charges through add; the event loop sums its
    debits the same way in a list of its own and folds them in at the end.
    """

    clamped_debits: int = 0
    per_node_joules: dict[int, float] = field(default_factory=dict)

    def total(self) -> float:
        """Exactly rounded sum of the per-node subtotals.

        Each per-node subtotal accumulates in the same order as the node's
        own spent-energy counter, so the two agree bit for bit and the
        ledger-vs-residual conservation identity holds to ~1e-14 relative.
        """
        return math.fsum(self.per_node_joules.values())

    def per_node(self) -> dict[int, float]:
        return dict(self.per_node_joules)

    def add(self, node_id: int, joules: float, clamped: bool) -> None:
        """Fold one charge into the accumulators."""
        self.per_node_joules[node_id] = self.per_node_joules.get(node_id, 0.0) + joules
        if clamped:
            self.clamped_debits += 1


def record_tx(node: NodeState, bits: int, distance_m: float, params: RadioParams,
              ledger: EnergyLedger) -> float:
    """Debit a transmission; returns the joules spent. The node's residual
    clamps at zero (the node dies); the ledger keeps the full model joules
    and counts the clamp."""
    joules = tx_energy(bits, distance_m, params)
    ledger.add(node.node_id, joules, node.spend(joules))
    return joules


def record_rx(node: NodeState, bits: int, params: RadioParams,
              ledger: EnergyLedger) -> float:
    """Debit a reception; returns the joules spent (clamping as record_tx)."""
    joules = rx_energy(bits, params)
    ledger.add(node.node_id, joules, node.spend(joules))
    return joules
