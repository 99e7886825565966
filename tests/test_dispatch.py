"""Fragmentation algebra, path assignment, and reassembly deadlines."""

import random

import pytest

from qempar.dispatch import (DataPacket, ReassemblyBuffer, TinyPacket, assign,
                             fragment)
from qempar.errors import NoPathError
from qempar.link_metrics import RoutePath


def test_even_split_four_ways():
    frags = fragment(DataPacket(1, 4096, 0.0), 4)
    assert [f.bits for f in frags] == [1024, 1024, 1024, 1024]
    assert [f.seq for f in frags] == [1, 2, 3, 4]


def test_remainder_goes_to_lowest_sequence_numbers():
    frags = fragment(DataPacket(1, 4097, 0.0), 4)
    assert [f.bits for f in frags] == [1025, 1024, 1024, 1024]


def test_single_fragment_is_the_whole_payload():
    frags = fragment(DataPacket(1, 4096, 0.0), 1, header_bits=64)
    assert len(frags) == 1
    assert frags[0].bits == 4096
    assert frags[0].wire_bits == 4160  # header still paid on the wire


def test_fragment_validation():
    with pytest.raises(ValueError):
        fragment(DataPacket(1, 4096, 0.0), 0)
    with pytest.raises(ValueError):
        fragment(DataPacket(1, 3, 0.0), 4)
    with pytest.raises(ValueError):
        DataPacket(1, 0, 0.0)
    with pytest.raises(ValueError):
        TinyPacket(1, 0, 100)
    with pytest.raises(ValueError):
        TinyPacket(1, 1, 100, header_bits=-1)


def test_fragment_partition_property():
    """Sizes sum exactly to the packet and differ by at most one bit."""
    rng = random.Random(17)
    for _ in range(200):
        bits = rng.randrange(1, 100000)
        k = rng.randrange(1, min(bits, 12) + 1)
        sizes = [f.bits for f in fragment(DataPacket(0, bits, 0.0), k)]
        assert sum(sizes) == bits
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


def _paths(n):
    return [RoutePath((1, 10 + i, 0), float(n - i)) for i in range(n)]


def test_assign_round_robin_by_sequence():
    frags = fragment(DataPacket(1, 4096, 0.0), 4)
    paths = _paths(2)
    pairs = assign(frags, paths)
    assert [p.node_ids[1] for _f, p in pairs] == [10, 11, 10, 11]
    pairs = assign(frags, _paths(4))
    assert [p.node_ids[1] for _f, p in pairs] == [10, 11, 12, 13]
    with pytest.raises(NoPathError):
        assign(frags, [])


def test_reassembly_completes_with_last_fragment():
    buf = ReassemblyBuffer(deadline_s=5.0)
    buf.register(DataPacket(7, 4096, created_s=1.0), expected=3)
    assert buf.reassemble(7, 1, 1.2) == "pending"
    assert buf.reassemble(7, 3, 1.3) == "pending"
    assert buf.reassemble(7, 2, 1.5) == "complete"
    assert buf.status(7) == "complete"
    assert buf.delay_of(7) == pytest.approx(0.5)
    assert buf.out_of_order(7)  # 1, 3, 2


def test_in_order_arrivals_are_not_flagged():
    buf = ReassemblyBuffer(deadline_s=5.0)
    buf.register(DataPacket(1, 100, 0.0), expected=2)
    buf.reassemble(1, 1, 0.1)
    buf.reassemble(1, 2, 0.2)
    assert not buf.out_of_order(1)


def test_deadline_is_strict():
    buf = ReassemblyBuffer(deadline_s=5.0)
    buf.register(DataPacket(1, 100, created_s=0.0), expected=1)
    assert buf.reassemble(1, 1, 5.0) == "expired"  # exactly at the deadline
    buf.register(DataPacket(2, 100, created_s=0.0), expected=1)
    assert buf.reassemble(2, 1, 4.999999) == "complete"


def test_late_and_duplicate_fragments_are_ignored():
    buf = ReassemblyBuffer(deadline_s=1.0)
    buf.register(DataPacket(1, 100, 0.0), expected=2)
    assert buf.reassemble(1, 1, 0.5) == "pending"
    assert buf.reassemble(1, 1, 0.6) == "pending"  # duplicate seq
    assert buf.expire(1, 1.0)
    assert not buf.expire(1, 1.5)  # only the first call expires
    assert buf.reassemble(1, 2, 1.5) == "expired"
    with pytest.raises(ValueError):
        buf.delay_of(1)


def test_unknown_packet_raises():
    buf = ReassemblyBuffer(deadline_s=1.0)
    with pytest.raises(ValueError):
        buf.reassemble(42, 1, 0.0)
    buf.register(DataPacket(1, 100, 0.0), expected=1)
    with pytest.raises(ValueError):
        buf.register(DataPacket(1, 100, 0.0), expected=1)


def test_reassembly_against_oracle_patterns():
    """Random arrival subsets and orders: complete exactly when every
    fragment lands strictly before the deadline."""
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randrange(1, 9)
        deadline = rng.uniform(0.5, 2.0)
        born = rng.uniform(0.0, 10.0)
        buf = ReassemblyBuffer(deadline_s=deadline)
        buf.register(DataPacket(0, 1000, born), expected=k)
        seqs = list(range(1, k + 1))
        rng.shuffle(seqs)
        arrive = seqs[:rng.randrange(0, k + 1)]
        times = sorted(born + rng.uniform(0.0, 1.5 * deadline) for _ in arrive)
        status = "pending"
        for seq, t in zip(arrive, times):
            status = buf.reassemble(0, seq, t)
        should_complete = (len(arrive) == k
                           and all(t < born + deadline for t in times))
        assert (status == "complete") == should_complete
        if should_complete:
            assert buf.delay_of(0) == pytest.approx(max(times) - born)
