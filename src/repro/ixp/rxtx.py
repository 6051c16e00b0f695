"""Rx/Tx engines and the traffic source (the IXIA substitute).

On the real IXP2400 two of the eight MEs run Rx and Tx microblocks. We
model them as dedicated engines: Rx paces packets in at the offered line
rate (up to 3x1 Gbps), allocates a buffer + metadata from the free
rings, deposits the frame in DRAM and the handle on the ``rx`` ring; Tx
drains the ``tx`` ring at line rate, captures payloads for verification
and recycles buffers. Both read and write packets through
:mod:`repro.ixp.packets`. Their packet-data DMA does not contend on the
modeled ME memory channels (see DESIGN.md), and their accesses are not
counted in the per-packet access profile -- matching how the paper's
Table 1 counts application accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baker.packetmodel import META_BUF_ADDR, META_PKT_LEN, META_RX_PORT
from repro.ixp.memory import ME_HZ
from repro.ixp.packets import alloc_packet, free_packet, read_packet, write_packet
from repro.profiler.trace import Trace

GBPS = 1e9


@dataclass
class TxRecord:
    time: float  # ME cycles
    payload: bytes
    rx_port: int


class RxEngine:
    """Paces trace packets onto the rx ring at the offered load."""

    def __init__(self, chip, trace: Trace, offered_gbps: float = 3.0,
                 max_packets: Optional[int] = None, repeat: bool = True):
        self.chip = chip
        self.packets = list(trace.packets)
        self.offered_gbps = offered_gbps
        self.max_packets = max_packets
        self.repeat = repeat
        self.sent = 0
        # Drops by cause (free pool exhausted vs. rx ring backlogged);
        # ``dropped`` is the total the measurement code reports.
        self.dropped_freelist = 0
        self.dropped_ring_full = 0
        # Handles lost while recycling into a full free ring (must stay
        # zero: the free rings are sized to hold the whole pool).
        self.leaked_buffers = 0
        self.leaked_meta = 0
        # Ring objects, bound on first delivery (the loader creates them
        # after the engine is constructed).
        self._rx_ring = None
        self._meta_free = None
        self._buf_free = None

    @property
    def dropped(self) -> int:
        return self.dropped_freelist + self.dropped_ring_full

    def interval_cycles(self, frame_bytes: int) -> float:
        seconds = frame_bytes * 8 / (self.offered_gbps * GBPS)
        return seconds * ME_HZ

    def inject_next(self) -> Optional[float]:
        """Inject one packet now; returns the delay until the next
        injection (None when the trace is exhausted).

        All exhaustion guards (``max_packets`` budget, empty trace,
        one-shot trace fully sent) run *before* a packet is selected, so
        ``sent`` is exactly the number of injected packets under every
        combination of ``repeat`` and ``max_packets``."""
        if self.max_packets is not None and self.sent >= self.max_packets:
            return None
        if not self.packets:
            return None
        if not self.repeat and self.sent >= len(self.packets):
            return None
        tp = self.packets[self.sent % len(self.packets)]
        self.sent += 1
        self._deliver(tp)
        return self.interval_cycles(len(tp.data))

    def _deliver(self, tp) -> None:
        chip = self.chip
        tracer = chip.tracer
        meta_free = self._meta_free
        if meta_free is None:
            meta_free = self._meta_free = chip.rings["ring.__meta_free"]
            self._buf_free = chip.rings["ring.__buf_free"]
            self._rx_ring = chip.rings["ring.rx"]
        buf_free = self._buf_free
        rx_ring = self._rx_ring
        got = alloc_packet(meta_free, buf_free)
        if got is not None and len(rx_ring.items) < rx_ring.capacity:
            meta, buf = got
            write_packet(chip, meta, buf, tp.data, tp.rx_port)
            rx_ring.put(meta)
            if tracer is not None:
                tracer.rx_packet(meta, chip.now, tp.rx_port, len(tp.data))
            return
        if got is None:
            self.dropped_freelist += 1
            cause = "freelist_empty"
        else:
            self.dropped_ring_full += 1
            cause = "ring_full"
            buf_lost, meta_lost = free_packet(meta_free, buf_free, *got)
            self.leaked_buffers += buf_lost
            self.leaked_meta += meta_lost
        if tracer is not None:
            tracer.rx_drop(chip.now, cause)


class TxEngine:
    """Drains the tx ring at line rate; records transmitted payloads."""

    def __init__(self, chip, line_gbps: float = 3.0):
        self.chip = chip
        self.line_gbps = line_gbps
        self.busy_until = 0.0
        self.records: List[TxRecord] = []
        self.bytes_out = 0
        # Handles lost recycling into a full free ring (must stay zero).
        self.leaked_buffers = 0
        self.leaked_meta = 0
        # Ring objects, bound on the first poll that finds them (the
        # loader creates them after the engine is constructed).
        self._tx_ring = None
        self._buf_free = None
        self._meta_free = None

    def poll(self, now: float) -> None:
        ring = self._tx_ring
        if ring is None:
            ring = self._tx_ring = self.chip.rings["ring.tx"]
            self._buf_free = self.chip.rings["ring.__buf_free"]
            self._meta_free = self.chip.rings["ring.__meta_free"]
        if not ring.items or self.busy_until > now:
            return
        memory = self.chip.memory
        tracer = self.chip.tracer
        while ring.items and self.busy_until <= now:
            meta = ring.get()
            words, payload = read_packet(memory, meta)
            length, port = words[META_PKT_LEN], words[META_RX_PORT]
            if tracer is not None:
                tracer.tx_packet(meta, now, port, length)
            self.records.append(TxRecord(now, payload, port))
            self.bytes_out += length
            tx_cycles = length * 8 / (self.line_gbps * GBPS) * ME_HZ
            self.busy_until = max(self.busy_until, now) + tx_cycles
            buf_lost, meta_lost = free_packet(self._meta_free, self._buf_free,
                                              meta, words[META_BUF_ADDR])
            self.leaked_buffers += buf_lost
            self.leaked_meta += meta_lost

    def packets_out(self) -> int:
        return len(self.records)
