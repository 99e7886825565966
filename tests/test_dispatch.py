"""Fragmentation algebra and reassembly deadlines."""

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
    buf = ReassemblyBuffer([0.0] * 7 + [1.0], expected=3, deadline_s=5.0)
    assert buf.reassemble(7, 1, 1.2) == PENDING
    assert buf.reassemble(7, 3, 1.3) == PENDING
    assert buf.reassemble(7, 2, 1.5) == DELIVERED
    assert buf.status[7] == DELIVERED
    assert buf.status[:7] == [PENDING] * 7
    assert buf.delay_of(7) == pytest.approx(0.5)
    assert buf.out_of_order(7)  # 1, 3, 2


def test_in_order_arrivals_are_not_flagged():
    buf = ReassemblyBuffer([0.0, 0.0], expected=2, deadline_s=5.0)
    buf.reassemble(1, 1, 0.1)
    buf.reassemble(1, 2, 0.2)
    assert not buf.out_of_order(1)


def test_deadline_is_strict():
    buf = ReassemblyBuffer([0.0, 0.0], expected=1, deadline_s=5.0)
    assert buf.reassemble(0, 1, 5.0) == EXPIRED  # exactly at the deadline
    assert buf.reassemble(1, 1, 4.999999) == DELIVERED


def test_late_fragments_and_settled_packets_are_ignored():
    buf = ReassemblyBuffer([0.0, 0.0], expected=2, deadline_s=1.0)
    assert buf.reassemble(0, 1, 0.5) == PENDING
    assert not buf.expire(0, 0.99)  # before the deadline
    assert buf.expire(0, 1.0)
    assert not buf.expire(0, 1.5)  # only the first call expires
    assert buf.reassemble(0, 2, 1.5) == EXPIRED
    buf.drop(0)  # a settled packet stays settled
    assert buf.status[0] == EXPIRED
    buf.drop(1)
    assert buf.status == [EXPIRED, DROPPED]
    assert buf.reassemble(1, 1, 0.1) == DROPPED
    assert not buf.expire(1, 1.0)


def test_unknown_packet_raises():
    buf = ReassemblyBuffer([0.0], expected=1, deadline_s=1.0)
    with pytest.raises(IndexError):
        buf.reassemble(42, 1, 0.0)
