"""Fragmentation algebra and the reassembly buffer's record of each packet's
fate; the deadline itself is the event loop's (test_engine.py)."""

import pytest

from qempar.dispatch import (DELIVERED, DROPPED, EXPIRED, PENDING, ReassemblyBuffer,
                             fragment)


def test_even_split_four_ways():
    assert fragment(4096, 4) == [1024, 1024, 1024, 1024]


def test_remainder_goes_to_lowest_sequence_numbers():
    assert fragment(4097, 4) == [1025, 1024, 1024, 1024]


def test_single_fragment_is_the_whole_payload():
    assert fragment(4096, 1) == [4096]


def test_reassembly_completes_with_last_fragment():
    buf = ReassemblyBuffer([0.0] * 7 + [1.0], expected=3)
    assert buf.reassemble(7, 1, 1.2) == PENDING
    assert buf.reassemble(7, 3, 1.3) == PENDING
    assert buf.reassemble(7, 2, 1.5) == DELIVERED
    assert buf.status[7] == DELIVERED
    assert buf.status[:7] == [PENDING] * 7
    assert buf.delay[7] == pytest.approx(0.5)
    assert buf.out_of_order[7]  # 1, 3, 2


def test_in_order_arrivals_are_not_flagged():
    buf = ReassemblyBuffer([0.0, 0.0], expected=2)
    buf.reassemble(1, 1, 0.1)
    buf.reassemble(1, 2, 0.2)
    assert not buf.out_of_order[1]


def test_late_fragments_and_settled_packets_are_ignored():
    buf = ReassemblyBuffer([0.0, 0.0, 0.0], expected=2)
    assert buf.reassemble(0, 1, 0.5) == PENDING
    assert buf.expire(0)
    assert not buf.expire(0)  # only the first call expires
    assert buf.reassemble(0, 2, 1.5) == EXPIRED
    buf.drop(0)  # a settled packet stays settled
    assert buf.status[0] == EXPIRED
    buf.drop(1)
    assert buf.status == [EXPIRED, DROPPED, PENDING]
    assert buf.reassemble(1, 1, 0.1) == DROPPED
    assert not buf.expire(1)
    buf.reassemble(2, 1, 0.1)
    assert buf.reassemble(2, 2, 0.2) == DELIVERED
    assert not buf.expire(2)  # a delivered packet does not expire
    assert buf.status == [EXPIRED, DROPPED, DELIVERED]


def test_unknown_packet_raises():
    buf = ReassemblyBuffer([0.0], expected=1)
    with pytest.raises(IndexError):
        buf.reassemble(42, 1, 0.0)
