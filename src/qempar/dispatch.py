"""Packet fragmentation and reassembly.

A data packet is split into k fragments whose payload sizes differ by at
most one bit and sum exactly to the original size. The sink's reassembly
buffer is the one record of every packet's fate: delivered when its last
fragment arrives, expired, or dropped when a fragment is lost on the way.
The event loop is the one clock: it runs a packet's deadline before any
fragment landing at or after it, so the buffer only records what the loop
decides.
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
    fragments have arrived, and settles as expired or dropped when the loop
    says so; once settled it ignores later fragments. status[pid] holds
    PENDING until the packet settles, then its final status. delay[pid] is
    a delivered packet's end-to-end delay, its last fragment's arrival less
    its creation (0.0 otherwise), and out_of_order[pid] is True once some
    fragment of it arrived with a lower seq than the one before it.
    """

    def __init__(self, created: list[float], expected: int):
        self.expected = expected
        self._created = created
        n = len(created)
        self.status = [PENDING] * n
        self._arrived = [0] * n
        self._last_seq = [0] * n
        self.out_of_order = [False] * n
        self.delay = [0.0] * n

    def reassemble(self, pid: int, seq: int, now: float) -> int:
        """Record fragment seq of packet pid arriving at now; returns the
        packet's status."""
        status = self.status[pid]
        if status != PENDING:
            return status
        if seq < self._last_seq[pid]:
            self.out_of_order[pid] = True
        self._last_seq[pid] = seq
        self._arrived[pid] += 1
        if self._arrived[pid] < self.expected:
            return PENDING
        self.status[pid] = DELIVERED
        self.delay[pid] = now - self._created[pid]
        return DELIVERED

    def expire(self, pid: int) -> bool:
        """Settle a still-pending packet as expired; returns True if this
        call expired it."""
        if self.status[pid] == PENDING:
            self.status[pid] = EXPIRED
            return True
        return False

    def drop(self, pid: int) -> None:
        """Settle a still-pending packet as dropped."""
        if self.status[pid] == PENDING:
            self.status[pid] = DROPPED
