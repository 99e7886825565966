"""First-order radio energy model and the debit that charges it to a node.

Transmission costs electronics energy per bit plus amplifier energy that
scales with d^2 up to the threshold distance d0 and with d^4 beyond it;
reception costs electronics energy only. Every charge lands in its node's
spent energy, the full model joules even when the node had less left, so a
finished run can prove energy conservation against the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """The set-up debit: charges a node and counts the charges that asked
    for more than the node had left. The event loop debits a copy of the
    nodes' accounts, counts its own clamps and changes neither."""

    clamped_debits: int = 0

    def add(self, node: NodeState, joules: float) -> None:
        """Debit joules from node, which kills it at its initial energy,
        counting the debit if it asked for more than remained."""
        if joules > node.initial_energy - node.spent_energy:
            self.clamped_debits += 1
        node.spent_energy += joules
