"""Host-side packet model used by the functional profiler.

Mirrors the runtime packet model (:mod:`repro.baker.packetmodel`): a DRAM
buffer with headroom, a head offset, a length and a metadata block. Field
access is big-endian bit addressing relative to the head, exactly as the
generated ME code computes it, so the interpreter and the simulator agree
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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

    ``head`` is the byte offset of the current protocol head within the
    buffer; ``length`` counts bytes from head to tail. ``meta`` maps
    metadata word indices to 32-bit values.
    """

    _next_uid = 0

    def __init__(self, data: bytes = b"", rx_port: int = 0,
                 headroom: int = HEADROOM_BYTES, bufsize: int = BUFFER_BYTES):
        if headroom + len(data) > bufsize:
            raise ValueError("packet larger than buffer")
        self.buf = bytearray(bufsize)
        self.buf[headroom : headroom + len(data)] = data
        self.head = headroom
        self.length = len(data)
        self.meta: Dict[int, int] = {META_RX_PORT: rx_port}
        self.dropped = False
        self.uid = HostPacket._next_uid
        HostPacket._next_uid += 1

    # -- field access ------------------------------------------------------------

    def load_bits(self, bit_off: int, width: int) -> int:
        return get_bits(self.buf, self.head * 8 + bit_off, width)

    def store_bits(self, bit_off: int, width: int, value: int) -> None:
        set_bits(self.buf, self.head * 8 + bit_off, width, value & ((1 << width) - 1))

    def load_bytes(self, byte_off: int, nbytes: int) -> bytes:
        start = self.head + byte_off
        return bytes(self.buf[start : start + nbytes])

    def store_bytes(self, byte_off: int, data: bytes) -> None:
        start = self.head + byte_off
        self.buf[start : start + len(data)] = data

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
        if self.head + self.length + n > len(self.buf):
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
        dup.buf = bytearray(self.buf)
        dup.head = self.head
        dup.length = self.length
        dup.meta = dict(self.meta)
        dup.dropped = False
        dup.uid = HostPacket._next_uid
        HostPacket._next_uid = HostPacket._next_uid + 1
        return dup

    def payload(self) -> bytes:
        """Bytes from head to tail (what Tx would transmit)."""
        return bytes(self.buf[self.head : self.head + self.length])

    def __repr__(self) -> str:
        return "<HostPacket #%d head=%d len=%d>" % (self.uid, self.head, self.length)
