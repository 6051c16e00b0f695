"""XScale core model.

The paper maps infrequently executed aggregates (control, management,
initialization) onto the IXP's XScale core, compiling them via C and
gcc. Our substitute executes the same IR with the functional
interpreter, but against the *simulated* chip memory: its
:class:`~repro.profiler.interpreter.GlobalMemory` places each global at
the loader-assigned SRAM/Scratch address, and its packets are
:class:`~repro.ixp.packets.SimPacket` -- the profiler's packet over SRAM
metadata + DRAM data -- so XScale-side code observes and mutates exactly
the state the MEs do, under the same checks the profiler applies.
"""

from __future__ import annotations

from typing import List

from repro.ir.module import IRModule
from repro.ixp.packets import SimPacket, alloc_packet, free_packet, write_packet
from repro.profiler.interpreter import GlobalMemory, Interpreter

# Cost model: the XScale runs at 600 MHz too, but goes through its own
# caches/bus; we charge a flat per-serviced-packet cost.
XSCALE_CYCLES_PER_PACKET = 2000.0


class XScaleCore(Interpreter):
    """Interprets XScale-mapped aggregates against simulated memory."""

    def __init__(self, mod: IRModule, chip, layout,
                 input_channels: List[str]):
        super().__init__(mod)
        self.chip = chip
        self.globals = GlobalMemory.on_chip(mod, chip.memory, layout)
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
        free_packet(self.chip.rings["ring.__meta_free"],
                    self.chip.rings["ring.__buf_free"], pkt.handle, pkt.base)
        pkt.dropped = True

    def _new_packet(self, size: int):
        chip = self.chip
        got = alloc_packet(chip.rings["ring.__meta_free"],
                           chip.rings["ring.__buf_free"])
        if got is None:
            raise RuntimeError("packet pool exhausted during XScale create")
        meta, buf = got
        write_packet(chip, meta, buf, bytes(size), 0)
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
