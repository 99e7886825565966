"""Packet fragmentation and reassembly.

A data packet is split into k fragments whose payload sizes differ by at
most one bit and sum exactly to the original size. The sink's reassembly
buffer is the one record of every packet's fate: a packet is delivered only
if every fragment arrives before its reassembly deadline, expires at the
deadline, or is dropped when a fragment is lost on the way.
"""

from __future__ import annotations

# Packet statuses, as held in ReassemblyBuffer.status.
PENDING, DELIVERED, EXPIRED, DROPPED = 0, 1, 2, 3


def fragment(bits: int, k: int) -> list[int]:
    """Payload sizes of fragments 1..k of a packet carrying bits payload bits.

    Sizes sum exactly to bits and differ by at most one bit (the remainder
    goes to the lowest sequence numbers). k=1 returns the whole payload.
    """
    base, rem = divmod(bits, k)
    return [base + (1 if seq <= rem else 0) for seq in range(1, k + 1)]


class ReassemblyBuffer:
    """Sink-side fragment collector and status record of packets 0..n-1.

    Packet pid, created at created[pid], is delivered when all expected
    fragments have arrived strictly before created[pid] + deadline_s; at or
    past the deadline it expires and late fragments are ignored. status[pid]
    holds PENDING until the packet settles, then its final status.
    """

    def __init__(self, created: list[float], expected: int, deadline_s: float):
        self.expected = expected
        self.deadline_s = deadline_s
        self._created = created
        n = len(created)
        self.status = [PENDING] * n
        self._arrived = [0] * n
        self._last_seq = [0] * n
        self._out_of_order = [False] * n
        self._delay = [0.0] * n

    def reassemble(self, pid: int, seq: int, now: float) -> int:
        """Record fragment seq of packet pid arriving at now; returns the
        packet's status."""
        status = self.status[pid]
        if status != PENDING:
            return status
        created = self._created[pid]
        if now >= created + self.deadline_s:
            self.status[pid] = EXPIRED
            return EXPIRED
        if seq < self._last_seq[pid]:
            self._out_of_order[pid] = True
        self._last_seq[pid] = seq
        self._arrived[pid] += 1
        if self._arrived[pid] < self.expected:
            return PENDING
        self.status[pid] = DELIVERED
        self._delay[pid] = now - created
        return DELIVERED

    def expire(self, pid: int, now: float) -> bool:
        """Expire a still-pending packet whose deadline has passed; returns
        True if this call expired it."""
        if self.status[pid] == PENDING and now >= self._created[pid] + self.deadline_s:
            self.status[pid] = EXPIRED
            return True
        return False

    def drop(self, pid: int) -> None:
        """Settle a still-pending packet as dropped."""
        if self.status[pid] == PENDING:
            self.status[pid] = DROPPED

    def delay_of(self, pid: int) -> float:
        """End-to-end delay of a delivered packet (last fragment arrival
        minus creation)."""
        return self._delay[pid]

    def out_of_order(self, pid: int) -> bool:
        """True if some fragment of the packet arrived with a lower seq than
        the one before it."""
        return self._out_of_order[pid]
