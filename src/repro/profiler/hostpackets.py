"""Host-side packet model used by the functional profiler.

Mirrors the runtime packet model (:mod:`repro.baker.packetmodel`): a DRAM
buffer with headroom, a head offset, a length and a metadata block. Field
access is big-endian bit addressing relative to the head, exactly as the
generated ME code computes it, so the interpreter and the simulator agree
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict

from repro.baker.packetmodel import (
    BUFFER_BYTES,
    HEADROOM_BYTES,
    META_RX_PORT,
)


def _byte_window(buf: bytearray, bit_off: int, width: int):
    """(first byte, end byte, bits below the field) of the bytes a field
    spans. Slices truncate silently, so the range is checked here."""
    end = bit_off + width
    last = (end + 7) >> 3
    if bit_off < 0 or last > len(buf):
        raise IndexError("bit field %d+%d outside a %d-byte buffer"
                         % (bit_off, width, len(buf)))
    return bit_off >> 3, last, last * 8 - end


def get_bits(buf: bytearray, bit_off: int, width: int) -> int:
    """Read ``width`` bits big-endian starting at absolute ``bit_off``."""
    first, last, shift = _byte_window(buf, bit_off, width)
    return (int.from_bytes(buf[first:last], "big") >> shift) & ((1 << width) - 1)


def set_bits(buf: bytearray, bit_off: int, width: int, value: int) -> None:
    """Write the low ``width`` bits of ``value`` big-endian starting at
    absolute ``bit_off``."""
    first, last, shift = _byte_window(buf, bit_off, width)
    mask = ((1 << width) - 1) << shift
    merged = (int.from_bytes(buf[first:last], "big") & ~mask) | ((value << shift) & mask)
    buf[first:last] = merged.to_bytes(last - first, "big")


class HostPacket:
    """A packet as seen by the functional profiler.

    The packet's buffer is ``BUFFER_BYTES`` of ``data`` from ``base``
    (here a buffer of its own, so ``base`` is 0); ``head`` is the byte
    offset of the current protocol head within the buffer and ``length``
    counts bytes from head to tail. ``meta`` maps metadata word indices
    to 32-bit values. :class:`repro.ixp.packets.SimPacket` is the same
    packet over the simulated chip's memory.
    """

    _next_uid = 0
    base = 0

    def __init__(self, data: bytes = b"", rx_port: int = 0):
        if HEADROOM_BYTES + len(data) > BUFFER_BYTES:
            raise ValueError("packet larger than buffer")
        self.data = bytearray(BUFFER_BYTES)
        self.data[HEADROOM_BYTES : HEADROOM_BYTES + len(data)] = data
        self.head = HEADROOM_BYTES
        self.length = len(data)
        self.meta: Dict[int, int] = {META_RX_PORT: rx_port}
        self.dropped = False
        self.uid = HostPacket._next_uid
        HostPacket._next_uid += 1

    # -- field access ------------------------------------------------------------

    def _bit(self, bit_off: int, width: int) -> int:
        """Where in ``data`` the ``width`` bits at ``bit_off`` from the
        head start, checked against the buffer."""
        bit = (self.head << 3) + bit_off
        if bit < 0 or bit + width > BUFFER_BYTES * 8:
            raise IndexError("%d bits at bit %d outside the %d-byte buffer"
                             % (width, bit, BUFFER_BYTES))
        return (self.base << 3) + bit

    def load_bits(self, bit_off: int, width: int) -> int:
        return get_bits(self.data, self._bit(bit_off, width), width)

    def store_bits(self, bit_off: int, width: int, value: int) -> None:
        set_bits(self.data, self._bit(bit_off, width), width, value)

    def load_bytes(self, byte_off: int, nbytes: int) -> bytes:
        start = self._bit(byte_off << 3, nbytes << 3) >> 3
        return bytes(self.data[start : start + nbytes])

    def store_bytes(self, byte_off: int, data: bytes) -> None:
        start = self._bit(byte_off << 3, len(data) << 3) >> 3
        self.data[start : start + len(data)] = data

    # -- encapsulation -----------------------------------------------------------

    def encap(self, header_bytes: int) -> None:
        if self.head < header_bytes:
            raise ValueError("no headroom for encapsulation")
        self.head -= header_bytes
        self.length += header_bytes

    def decap(self, header_bytes: int) -> None:
        if header_bytes > self.length:
            raise ValueError("decap beyond packet length")
        self.head += header_bytes
        self.length -= header_bytes

    def add_tail(self, n: int) -> None:
        if self.head + self.length + n > BUFFER_BYTES:
            raise ValueError("no tailroom")
        self.length += n

    def remove_tail(self, n: int) -> None:
        if n > self.length:
            raise ValueError("remove_tail beyond packet length")
        self.length -= n

    def extend(self, n: int) -> None:
        self.encap(n)

    def shorten(self, n: int) -> None:
        self.decap(n)

    # -- misc ----------------------------------------------------------------------

    def copy(self) -> "HostPacket":
        dup = HostPacket.__new__(HostPacket)
        dup.data = bytearray(self.data)
        dup.head = self.head
        dup.length = self.length
        dup.meta = dict(self.meta)
        dup.dropped = False
        dup.uid = HostPacket._next_uid
        HostPacket._next_uid = HostPacket._next_uid + 1
        return dup

    def payload(self) -> bytes:
        """Bytes from head to tail (what Tx would transmit)."""
        return self.load_bytes(0, self.length)

    def __repr__(self) -> str:
        return "<%s #%d head=%d len=%d>" % (type(self).__name__, self.uid,
                                            self.head, self.length)
