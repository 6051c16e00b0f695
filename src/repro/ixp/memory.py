"""Memory subsystem model: storage plus latency/bandwidth channels.

Each level (Scratch / SRAM / DRAM) is a single command channel with

* an **occupancy** per access (the channel is busy for that long -- the
  reciprocal of bandwidth), growing sub-linearly with access width, and
* a **latency** until the data returns to the issuing thread.

Threads hide latency by swapping; occupancy is what saturates and caps
the forwarding rate. The constants are calibrated so the paper's own
memory-characterization experiment (Figure 6) reproduces: at 4.88 Mpps
(2.5 Gbps of 64 B packets) the system sustains about 2 DRAM, 8 SRAM or
64 Scratch accesses per packet across six MEs.

Rx/Tx packet-data DMA does not contend on these modeled channels (see
DESIGN.md): the paper's per-packet budgets are for ME-issued accesses.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.ixp.counters import SLOT, Counters

ME_HZ = 600e6  # ME clock; all times below are in ME cycles


@dataclass
class ChannelParams:
    """An access of ``w`` words holds the channel for ``occupancy_base +
    occupancy_per_word * w`` cycles; its data arrives ``latency`` later."""

    latency: float
    occupancy_base: float
    occupancy_per_word: float


# Calibrated parameters (see module docstring / DESIGN.md section 5).
# Per-access overhead dominates; width adds only fractional cost (Figure
# 6's wide-access curves sit slightly below the narrow ones at equal
# access counts):
#   DRAM  8 B access ~ 57 cycles (2 of them per 64 B packet = 2.67 Gbps),
#         64 B access ~ 74 cycles (+30%);
#   SRAM  4 B ~ 15.4 cycles (8 per packet = 2.5 Gbps), 32 B ~ 23.8;
#   Scratch 4 B ~ 1.9 cycles (64 per packet = 2.5 Gbps).
SCRATCH = ChannelParams(latency=60, occupancy_base=1.8, occupancy_per_word=0.12)
SRAM = ChannelParams(latency=90, occupancy_base=14.8, occupancy_per_word=0.5)
DRAM = ChannelParams(latency=120, occupancy_base=55.0, occupancy_per_word=0.35)
#: Space -> its channel parameters (both SRAM channels share SRAM's), as
#: :class:`MemorySystem` wires them; the ME core folds them at decode.
PARAMS = {"scratch": SCRATCH, "sram": SRAM, "dram": DRAM}

SIZES = {
    "scratch": 16 * 1024,
    "sram": 4 * 1024 * 1024,
    "dram": 16 * 1024 * 1024,
}


@lru_cache(maxsize=None)
def word_struct(n: int) -> struct.Struct:
    """``n`` big-endian 32-bit words: one ``unpack_from`` / ``pack_into``
    call moves a whole wide access. Callers bounds-check first --
    ``unpack_from`` wraps a negative offset instead of raising."""
    return struct.Struct(">%dI" % n)


class MemoryChannel:
    """One command channel: a FIFO server with occupancy + latency,
    charged by :meth:`MemorySystem.timed_access`."""

    def __init__(self, name: str, params: ChannelParams):
        self.name = name
        self.params = params
        self.next_free = 0.0
        self.busy_time = 0.0


class MemorySystem:
    """Storage arrays plus the command channels, with access accounting.

    SRAM is served by two QDR channels interleaved on 64 B granules
    (the IXP2400 has two SRAM channels): traffic spread over many
    addresses enjoys twice the single-channel bandwidth, while a
    microbenchmark hammering one location (Figure 6's loop) sees one
    channel -- matching how the paper's budget numbers and application
    rates coexist."""

    SRAM_INTERLEAVE_SHIFT = 6

    def __init__(self):
        # Anonymous maps are zero pages until first touched: a chip pays
        # for the memory its run writes, not for all 20 MiB up front.
        # They index, slice and take struct calls like a bytearray
        # (compare ``bytes(store)``, not the maps), cannot grow, and
        # raise once IXP2400.close() has released them. Private, like a
        # bytearray's pages: a forked child copies on write, and a first
        # touch costs less than on a shared map.
        self.stores: Dict[str, mmap.mmap] = {
            name: mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
            for name, size in SIZES.items()
        }
        self.channels: Dict[str, MemoryChannel] = {
            "scratch": MemoryChannel("scratch", SCRATCH),
            "sram": MemoryChannel("sram0", SRAM),
            "sram1": MemoryChannel("sram1", SRAM),
            "dram": MemoryChannel("dram", DRAM),
        }
        self.counters = Counters()
        # Optional repro.obs.profile.StallProfiler: records per-request
        # channel queueing delay. Pure observation -- every timed entry
        # point guards with ``is not None`` and only feeds profiler-side
        # accumulators, so attaching one cannot change completion times.
        self.profiler = None

    # -- data access (big-endian words) ------------------------------------------

    def read_words(self, space: str, addr: int, nwords: int) -> list:
        store = self.stores[space]
        end = addr + nwords * 4
        if addr < 0 or end > len(store):
            raise IndexError("%s read out of range at %#x" % (space, addr))
        return list(word_struct(nwords).unpack_from(store, addr))

    def write_words(self, space: str, addr: int, values: list,
                    byte_mask: int = None) -> None:
        store = self.stores[space]
        if addr < 0 or addr + len(values) * 4 > len(store):
            raise IndexError("%s write out of range at %#x" % (space, addr))
        if byte_mask is None:
            word_struct(len(values)).pack_into(
                store, addr, *[value & 0xFFFFFFFF for value in values])
            return
        for i, value in enumerate(values):
            data = (value & 0xFFFFFFFF).to_bytes(4, "big")
            for b in range(4):
                if (byte_mask >> (i * 4 + b)) & 1:
                    store[addr + i * 4 + b] = data[b]

    def read_bytes(self, space: str, addr: int, n: int) -> bytes:
        store = self.stores[space]
        if addr < 0 or addr + n > len(store):
            # Unchecked, an out-of-range slice silently *truncates* (a
            # short Tx payload instead of an error) and a negative one
            # wraps. Same contract as read_words.
            raise IndexError("%s read out of range at %#x" % (space, addr))
        return store[addr : addr + n]  # a slice of an mmap is bytes

    def write_bytes(self, space: str, addr: int, data: bytes) -> None:
        store = self.stores[space]
        if addr < 0 or addr + len(data) > len(store):
            # Unchecked, a negative address wraps to the end of the
            # store. Same contract as write_words.
            raise IndexError("%s write out of range at %#x" % (space, addr))
        store[addr : addr + len(data)] = data

    # -- timed access from MEs -----------------------------------------------------

    def timed_access(self, now: float, space: str, words: int,
                     category: str, addr: int = 0) -> float:
        """Charge a channel and the counters; returns the completion time
        (data available / write retired). The ME core's
        ``predecode._charge_lines`` inlines the same arithmetic."""
        counters = self.counters
        slot = SLOT[(space, category)]
        counters.n_accesses[slot] += 1
        counters.n_words[slot] += words
        if space == "sram" and (addr >> self.SRAM_INTERLEAVE_SHIFT) & 1:
            ch = self.channels["sram1"]
        else:
            ch = self.channels[space]
        p = ch.params
        occupancy = p.occupancy_base + p.occupancy_per_word * words
        start = ch.next_free
        if now > start:
            start = now
        ch.next_free = start + occupancy
        ch.busy_time += occupancy
        prof = self.profiler
        if prof is not None:
            prof.note_mem(ch.name, start - now)
        return start + occupancy + p.latency
