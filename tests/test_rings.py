"""Edge behavior of the scratch-ring model (repro.ixp.rings.Ring).

These pin down the hardware conventions the runtime depends on: a put
into a full ring is *rejected* (counted, ring untouched), a get from an
empty ring returns 0 (which is why packet handles never live at address
0), occupancy is tracked as a high watermark, and stored words are
masked to 32 bits.
"""

from __future__ import annotations

from repro.ixp.rings import Ring, RingSet


def test_put_at_capacity_counts_drop_without_mutating_ring():
    ring = Ring("cc", capacity=2)
    assert ring.put(1) and ring.put(2)
    snapshot = list(ring.items)

    assert ring.put(3) is False
    assert ring.drops == 1
    # The rejected put must not disturb the ring in any observable way.
    assert list(ring.items) == snapshot
    assert len(ring) == 2
    assert ring.puts == 2
    assert ring.max_depth == 2
    # Occupancy after each operation, the rejected put included: 1+2+2.
    assert ring.depth_sum == 5

    # Repeated rejections keep counting but still leave the ring alone.
    assert ring.put(4) is False
    assert ring.drops == 2
    assert list(ring.items) == snapshot


def test_get_on_empty_returns_zero_and_counts():
    ring = Ring("free", capacity=4)
    assert ring.get() == 0
    assert ring.empty_gets == 1
    assert ring.gets == 0  # empty gets are not successful gets

    # After draining, the same convention applies again.
    ring.put(7)
    assert ring.get() == 7
    assert ring.get() == 0
    assert ring.empty_gets == 2
    assert ring.gets == 1
    # Empty gets see depth 0: only the put (1) and its get (0) count.
    assert ring.depth_sum == 1


def test_empty_get_is_indistinguishable_from_a_stored_zero():
    # The hardware returns 0 for "empty", so a stored 0 is ambiguous --
    # the runtime convention is that valid handles are never 0.
    ring = Ring("amb", capacity=4)
    ring.put(0)
    assert ring.get() == 0
    assert ring.empty_gets == 0  # this one was a real (stored) zero
    assert ring.get() == 0
    assert ring.empty_gets == 1


def test_max_depth_is_a_high_watermark():
    ring = Ring("hw", capacity=8)
    for v in (1, 2, 3):
        ring.put(v)
    assert ring.max_depth == 3
    ring.get()
    ring.get()
    assert ring.max_depth == 3  # does not fall when the ring drains
    ring.put(4)
    assert ring.max_depth == 3  # occupancy 2 < watermark 3
    for v in (5, 6, 7):
        ring.put(v)
    assert ring.max_depth == 5


def test_values_masked_to_32_bits():
    ring = Ring("mask", capacity=4)
    ring.put(0x1_0000_0005)
    ring.put(-1)
    assert ring.get() == 5
    assert ring.get() == 0xFFFFFFFF
    # FIFO order is preserved through the mask.
    ring.put(0xDEADBEEF)
    ring.put(0x2_DEAD_BEEF)
    assert ring.get() == 0xDEADBEEF
    assert ring.get() == 0xDEADBEEF
    # Depth is the number of words held, whatever their value:
    # puts 1, 2; gets 1, 0; puts 1, 2; gets 1, 0.
    assert ring.depth_sum == 8


def test_ringset_lookup():
    rs = RingSet()
    ring = rs.create("cc0", capacity=16)
    assert rs["cc0"] is ring
    assert rs.get("cc0") is ring
    assert rs.get("missing") is None
