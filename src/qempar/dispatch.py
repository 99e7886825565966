"""Packet fragmentation, path assignment, and reassembly.

A data packet is split into k tiny packets whose payload sizes differ by at
most one bit and sum exactly to the original size. Tiny packets are assigned
to ranked paths round-robin by sequence number. The sink reassembles; a
packet counts as delivered only if every fragment arrives before its
reassembly deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoPathError
from .link_metrics import RoutePath


@dataclass(frozen=True)
class DataPacket:
    """An application packet awaiting fragmentation."""

    packet_id: int
    bits: int
    created_s: float

    def __post_init__(self):
        if self.bits <= 0:
            raise ValueError("packet bits must be positive")
        if self.created_s < 0:
            raise ValueError("creation time must be non-negative")


@dataclass(frozen=True)
class TinyPacket:
    """One fragment of a data packet. seq runs 1..k; wire_bits adds the
    per-fragment header to the payload."""

    parent_id: int
    seq: int
    bits: int
    header_bits: int = 0

    def __post_init__(self):
        if self.seq < 1:
            raise ValueError("fragment seq starts at 1")
        if self.bits <= 0:
            raise ValueError("fragment bits must be positive")
        if self.header_bits < 0:
            raise ValueError("header bits must be non-negative")

    @property
    def wire_bits(self) -> int:
        return self.bits + self.header_bits


def fragment(packet: DataPacket, k: int, header_bits: int = 0) -> list[TinyPacket]:
    """Split a packet into k fragments.

    Payload sizes sum exactly to packet.bits and differ by at most one bit
    (the remainder goes to the lowest sequence numbers). k=1 returns the
    whole payload as a single fragment, which still pays the header on the
    wire.
    """
    if k < 1:
        raise ValueError("fragment count must be at least 1")
    if k > packet.bits:
        raise ValueError(f"cannot split {packet.bits} bits into {k} fragments")
    base, rem = divmod(packet.bits, k)
    return [
        TinyPacket(packet.packet_id, seq, base + (1 if seq <= rem else 0), header_bits)
        for seq in range(1, k + 1)
    ]


def assign(fragments: list[TinyPacket],
           paths: list[RoutePath]) -> list[tuple[TinyPacket, RoutePath]]:
    """Map fragments onto ranked paths by sequence number: fragment seq s
    takes paths[(s-1) mod len(paths)], so extra fragments wrap around."""
    if not paths:
        raise NoPathError("no paths available for assignment")
    return [(f, paths[(f.seq - 1) % len(paths)]) for f in fragments]


@dataclass
class _Slot:
    created_s: float
    expected: int
    status: str = "pending"
    arrivals: dict[int, float] = field(default_factory=dict)  # seq -> time, in arrival order
    completed_s: float | None = None


class ReassemblyBuffer:
    """Sink-side fragment collector with a per-packet deadline.

    A packet completes when all expected fragments have arrived strictly
    before created + deadline; at or past the deadline it expires and late
    fragments are ignored.
    """

    def __init__(self, deadline_s: float):
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        self.deadline_s = deadline_s
        self._slots: dict[int, _Slot] = {}

    def register(self, packet: DataPacket, expected: int) -> None:
        if expected < 1:
            raise ValueError("expected fragment count must be at least 1")
        if packet.packet_id in self._slots:
            raise ValueError(f"packet {packet.packet_id} already registered")
        self._slots[packet.packet_id] = _Slot(packet.created_s, expected)

    def _slot(self, packet_id: int) -> _Slot:
        try:
            return self._slots[packet_id]
        except KeyError:
            raise ValueError(f"unknown packet {packet_id}") from None

    def reassemble(self, packet_id: int, seq: int, now: float) -> str:
        """Record a fragment arrival; returns the packet's status."""
        slot = self._slot(packet_id)
        if slot.status != "pending":
            return slot.status
        if now >= slot.created_s + self.deadline_s:
            slot.status = "expired"
            return slot.status
        if seq not in slot.arrivals:
            slot.arrivals[seq] = now
            if len(slot.arrivals) == slot.expected:
                slot.status = "complete"
                slot.completed_s = now
        return slot.status

    def expire(self, packet_id: int, now: float) -> bool:
        """Expire a still-pending packet whose deadline has passed; returns
        True if this call expired it."""
        slot = self._slot(packet_id)
        if slot.status == "pending" and now >= slot.created_s + self.deadline_s:
            slot.status = "expired"
            return True
        return False

    def status(self, packet_id: int) -> str:
        return self._slot(packet_id).status

    def delay_of(self, packet_id: int) -> float:
        """End-to-end delay of a completed packet (last fragment arrival
        minus creation)."""
        slot = self._slot(packet_id)
        if slot.status != "complete" or slot.completed_s is None:
            raise ValueError(f"packet {packet_id} is not complete")
        return slot.completed_s - slot.created_s

    def out_of_order(self, packet_id: int) -> bool:
        """True if a completed packet's fragments arrived out of sequence."""
        slot = self._slot(packet_id)
        order = list(slot.arrivals)
        return any(a > b for a, b in zip(order, order[1:]))
