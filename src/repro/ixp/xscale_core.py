"""XScale core model.

The paper maps infrequently executed aggregates (control, management,
initialization) onto the IXP's XScale core, compiling them via C and
gcc. Our substitute executes the same IR with the functional
interpreter, but against the *simulated* chip memory: globals read/write
the loader-assigned SRAM/Scratch addresses, and packets are views over
simulated SRAM metadata + DRAM data, so XScale-side code observes and
mutates exactly the state the MEs do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baker.packetmodel import HEADROOM_BYTES, META_RX_PORT
from repro.ir.module import IRModule
from repro.profiler.hostpackets import get_bits, set_bits
from repro.profiler.interpreter import Interpreter

# Cost model: the XScale runs at 600 MHz too, but goes through its own
# caches/bus; we charge a flat per-serviced-packet cost.
XSCALE_CYCLES_PER_PACKET = 2000.0


class SimMeta:
    """dict-like view of a packet's metadata words in simulated SRAM."""

    def __init__(self, chip, handle: int):
        self.chip = chip
        self.handle = handle

    def get(self, word: int, default: int = 0) -> int:
        return self.chip.memory.read_words("sram", self.handle + word * 4, 1)[0]

    def __getitem__(self, word: int) -> int:
        return self.get(word)

    def __setitem__(self, word: int, value: int) -> None:
        self.chip.memory.write_words("sram", self.handle + word * 4, [value])


class SimPacket:
    """HostPacket-compatible view over a simulated packet."""

    def __init__(self, chip, handle: int):
        self.chip = chip
        self.handle = handle
        self.meta = SimMeta(chip, handle)
        self.dropped = False
        self.uid = handle

    # -- head/len metadata ----------------------------------------------------------

    @property
    def buf(self) -> int:
        return self.meta[0]

    @property
    def head(self) -> int:
        return self.meta[1]

    @head.setter
    def head(self, v: int) -> None:
        self.meta[1] = v

    @property
    def length(self) -> int:
        return self.meta[2]

    @length.setter
    def length(self, v: int) -> None:
        self.meta[2] = v

    # -- data access ---------------------------------------------------------------------

    def _window(self, bit_off: int, width: int):
        start_byte = self.buf + self.head + bit_off // 8
        nbytes = (bit_off % 8 + width + 7) // 8
        return start_byte, nbytes, bit_off % 8

    def load_bits(self, bit_off: int, width: int) -> int:
        start, nbytes, rel = self._window(bit_off, width)
        window = bytearray(self.chip.memory.read_bytes("dram", start, nbytes))
        return get_bits(window, rel, width)

    def store_bits(self, bit_off: int, width: int, value: int) -> None:
        start, nbytes, rel = self._window(bit_off, width)
        window = bytearray(self.chip.memory.read_bytes("dram", start, nbytes))
        set_bits(window, rel, width, value & ((1 << width) - 1))
        self.chip.memory.write_bytes("dram", start, bytes(window))

    def load_bytes(self, byte_off: int, nbytes: int) -> bytes:
        return self.chip.memory.read_bytes("dram", self.buf + self.head + byte_off, nbytes)

    def store_bytes(self, byte_off: int, data: bytes) -> None:
        self.chip.memory.write_bytes("dram", self.buf + self.head + byte_off, data)

    # -- encapsulation ---------------------------------------------------------------------

    def encap(self, header_bytes: int) -> None:
        if self.head < header_bytes:
            raise ValueError("no headroom")
        self.head = self.head - header_bytes
        self.length = self.length + header_bytes

    def decap(self, header_bytes: int) -> None:
        self.head = self.head + header_bytes
        self.length = self.length - header_bytes

    def add_tail(self, n: int) -> None:
        self.length = self.length + n

    def remove_tail(self, n: int) -> None:
        self.length = self.length - n

    def extend(self, n: int) -> None:
        self.encap(n)

    def shorten(self, n: int) -> None:
        self.decap(n)

    def copy(self) -> "SimPacket":
        chip = self.chip
        meta = chip.rings["ring.__meta_free"].get()
        buf = chip.rings["ring.__buf_free"].get()
        if meta == 0 or buf == 0:
            raise RuntimeError("packet pool exhausted during XScale copy")
        words = chip.memory.read_words("sram", self.handle, chip.meta_words)
        words[0] = buf
        chip.memory.write_words("sram", meta, words)
        data = chip.memory.read_bytes("dram", self.buf + self.head, self.length)
        chip.memory.write_bytes("dram", buf + self.head, data)
        if chip.tracer is not None:
            chip.tracer.alloc(meta, chip.now, "xscale_copy")
        return SimPacket(chip, meta)

    def payload(self) -> bytes:
        return self.chip.memory.read_bytes("dram", self.buf + self.head, self.length)


class SimGlobals:
    """GlobalMemory-compatible adapter hitting simulated SRAM/Scratch."""

    def __init__(self, chip, layout):
        self.chip = chip
        self.layout = layout  # rts.loader.LoadLayout

    def _locate(self, g: str):
        return self.layout.global_space[g], self.layout.global_addr[g]

    def load(self, g: str, offset: int, width: int) -> int:
        space, addr = self._locate(g)
        return int.from_bytes(
            self.chip.memory.read_bytes(space, addr + offset, width), "big"
        )

    def store(self, g: str, offset: int, value: int, width: int) -> None:
        space, addr = self._locate(g)
        self.chip.memory.write_bytes(
            space, addr + offset,
            (value & ((1 << (width * 8)) - 1)).to_bytes(width, "big"),
        )


class XScaleCore(Interpreter):
    """Interprets XScale-mapped aggregates against simulated memory."""

    def __init__(self, mod: IRModule, chip, layout,
                 input_channels: List[str]):
        super().__init__(mod)
        self.chip = chip
        self.layout = layout
        self.globals = SimGlobals(chip, layout)
        self.input_channels = list(input_channels)
        self.serviced = 0

    # -- hooks -------------------------------------------------------------------------

    def _emit_channel(self, channel: str, pkt) -> None:
        ring = self.chip.rings.get("ring.%s" % channel)
        if ring is None:
            raise RuntimeError("XScale put to unknown channel %r" % channel)
        ok = ring.put(pkt.handle)
        if self.chip.tracer is not None:
            self.chip.tracer.xscale_put(ring.name, pkt.handle,
                                        self.chip.now, ok)

    def _drop_packet(self, pkt) -> None:
        if self.chip.tracer is not None:
            self.chip.tracer.drop(pkt.handle, self.chip.now, "xscale_drop")
        self.chip.rings["ring.__buf_free"].put(pkt.buf)
        self.chip.rings["ring.__meta_free"].put(pkt.handle)
        pkt.dropped = True

    def _new_packet(self, size: int):
        chip = self.chip
        meta = chip.rings["ring.__meta_free"].get()
        buf = chip.rings["ring.__buf_free"].get()
        if meta == 0 or buf == 0:
            raise RuntimeError("packet pool exhausted during XScale create")
        words = [buf, HEADROOM_BYTES, size, 0] + [0] * (chip.meta_words - 4)
        chip.memory.write_words("sram", meta, words)
        chip.memory.write_bytes("dram", buf + HEADROOM_BYTES, bytes(size))
        if chip.tracer is not None:
            chip.tracer.alloc(meta, chip.now, "xscale_create")
        return SimPacket(chip, meta)

    # -- chip integration ---------------------------------------------------------------

    def service(self, now: float) -> float:
        """Drain pending packets from the XScale's input rings; returns
        the cycles of work performed (for pacing)."""
        busy = 0.0
        for chan in self.input_channels:
            ring = self.chip.rings.get("ring.%s" % chan)
            if ring is None:
                continue
            consumer = self._ppf_by_channel.get(chan)
            if consumer is None:
                continue
            while len(ring):
                handle = ring.get()
                if handle == 0:
                    break
                if self.chip.tracer is not None:
                    self.chip.tracer.xscale_get(ring.name, handle, now)
                pkt = SimPacket(self.chip, handle)
                self._deliver(consumer, pkt)
                self.serviced += 1
                busy += XSCALE_CYCLES_PER_PACKET
        return busy
