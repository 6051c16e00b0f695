"""The chip's packet format: how a packet lies in SRAM and DRAM.

A packet handle is the SRAM address of the packet's metadata words,
laid out as :mod:`repro.baker.packetmodel` says (``META_*``); word
``META_BUF_ADDR`` points at a ``BUFFER_BYTES`` DRAM buffer whose frame
starts ``HEADROOM_BYTES`` in. Handles and buffers come from the
``__meta_free`` / ``__buf_free`` rings the loader fills.

Everything outside compiled code that makes, reads or recycles a
packet goes through this module: the Rx and Tx engines and the XScale
core. (ME code does the same on the chip,
as :mod:`repro.cg.pktlower` emits it.) :class:`SimPacket` is the
profiler's :class:`~repro.profiler.hostpackets.HostPacket` over this
format, so the XScale runs the same packet semantics, checks included,
as the functional profiler does.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baker.packetmodel import (
    BUFFER_BYTES,
    HEADROOM_BYTES,
    META_BUF_ADDR,
    META_HEAD_OFF,
    META_PKT_LEN,
    META_RX_PORT,
    META_USER_BASE,
)
from repro.profiler.hostpackets import HostPacket

_ZERO_BUFFER = bytes(BUFFER_BYTES)


def alloc_packet(meta_free, buf_free) -> Optional[Tuple[int, int]]:
    """``(handle, buffer)`` from the free rings, or None when either ring
    is empty (the half that was taken goes back)."""
    meta = meta_free.get()
    buf = buf_free.get()
    if meta and buf:
        return meta, buf
    free_packet(meta_free, buf_free, meta, buf)
    return None


def free_packet(meta_free, buf_free, meta: int, buf: int) -> Tuple[bool, bool]:
    """Put a packet's buffer, then its handle, back on the free rings (a
    0 half is skipped). Returns whether each was lost to a full ring:
    ``(buffer lost, handle lost)``."""
    buf_lost = bool(buf) and not buf_free.put(buf)
    meta_lost = bool(meta) and not meta_free.put(meta)
    return buf_lost, meta_lost


def write_packet(chip, meta: int, buf: int, frame: bytes,
                 rx_port: int) -> None:
    """Make ``meta``/``buf`` a fresh packet holding ``frame``: the whole
    buffer is cleared first, as a new host packet's is, so bytes past
    the tail read as zero whoever held the buffer before."""
    end = HEADROOM_BYTES + len(frame)
    if end > BUFFER_BYTES:
        raise ValueError("packet larger than buffer")
    dram = chip.memory.stores["dram"]
    dram[buf : buf + BUFFER_BYTES] = _ZERO_BUFFER
    dram[buf + HEADROOM_BYTES : buf + end] = frame
    words = [0] * chip.meta_words
    words[META_BUF_ADDR] = buf
    words[META_HEAD_OFF] = HEADROOM_BYTES
    words[META_PKT_LEN] = len(frame)
    words[META_RX_PORT] = rx_port
    chip.memory.write_words("sram", meta, words)


def is_buffer(memory, buf: int) -> bool:
    """Whether ``buf`` is the address of a pool buffer."""
    return buf % BUFFER_BYTES == 0 \
        and BUFFER_BYTES <= buf <= len(memory.stores["dram"]) - BUFFER_BYTES


def read_packet(memory, meta: int,
                nwords: int = META_USER_BASE) -> Tuple[List[int], bytes]:
    """The first ``nwords`` metadata words of the packet at ``meta`` and
    its payload (head to tail). Geometry that is not a packet's reads as
    a marker payload naming it, never as bytes of another buffer."""
    words = memory.read_words("sram", meta, nwords)
    buf = words[META_BUF_ADDR]
    head, length = words[META_HEAD_OFF], words[META_PKT_LEN]
    if head + length <= BUFFER_BYTES and is_buffer(memory, buf):
        return words, memory.read_bytes("dram", buf + head, length)
    return words, b"<invalid geometry head=%d len=%d>" % (head, length)


class SimMeta:
    """dict-like view of a packet's metadata words in simulated SRAM."""

    def __init__(self, memory, handle: int):
        self.memory = memory
        self.handle = handle

    def get(self, word: int, default: int = 0) -> int:
        return self.memory.read_words("sram", self.handle + word * 4, 1)[0]

    def __getitem__(self, word: int) -> int:
        return self.get(word)

    def __setitem__(self, word: int, value: int) -> None:
        self.memory.write_words("sram", self.handle + word * 4, [value])


def _meta_word(word: int) -> property:
    return property(lambda self: self.meta[word],
                    lambda self, value: self.meta.__setitem__(word, value))


class SimPacket(HostPacket):
    """A packet on the chip, as a :class:`HostPacket`: its bytes are the
    DRAM map, its buffer starts where metadata word 0 points, and
    ``head``, ``length`` and ``meta`` read and write its SRAM words."""

    head = _meta_word(META_HEAD_OFF)
    length = _meta_word(META_PKT_LEN)

    def __init__(self, chip, handle: int):
        self.chip = chip
        self.handle = handle
        self.meta = SimMeta(chip.memory, handle)
        self.data = chip.memory.stores["dram"]
        self.base = self.meta[META_BUF_ADDR]
        self.dropped = False
        self.uid = handle

    def copy(self) -> "SimPacket":
        chip = self.chip
        got = alloc_packet(chip.rings["ring.__meta_free"],
                           chip.rings["ring.__buf_free"])
        if got is None:
            raise RuntimeError("packet pool exhausted during XScale copy")
        meta, buf = got
        memory = chip.memory
        words = memory.read_words("sram", self.handle, chip.meta_words)
        words[META_BUF_ADDR] = buf
        memory.write_words("sram", meta, words)
        dram = self.data
        dram[buf : buf + BUFFER_BYTES] = dram[self.base : self.base + BUFFER_BYTES]
        if chip.tracer is not None:
            chip.tracer.alloc(meta, chip.now, "xscale_copy")
        return SimPacket(chip, meta)
