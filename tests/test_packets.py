"""One packet model for host and chip.

The functional profiler's :class:`HostPacket` and :class:`GlobalMemory`
are also what the XScale runs over simulated chip memory
(:class:`repro.ixp.packets.SimPacket`, ``GlobalMemory.on_chip``), and
every fresh packet on the chip -- Rx, XScale create -- is written by
one function that clears the whole buffer, as a new host packet's is.
These tests hold the chip to the host's checks and to the host's buffer
contents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baker.lowering import lower_program
from repro.baker.packetmodel import BUFFER_BYTES, HEADROOM_BYTES
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.packets import SimPacket, alloc_packet, read_packet, write_packet
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.options import options_for
from repro.profiler.hostpackets import HostPacket
from repro.profiler.interpreter import InterpError, run_reference
from repro.profiler.trace import ipv4_trace
from repro.rts.loader import load_system
from tests.samples import ETHER_IPV4_PROTOCOLS

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]

ADD_TAIL = ETHER_IPV4_PROTOCOLS + """
u32 first[2] = { 1, 2 };
u32 second = 5;
module m { ppf go(ether_pkt *ph) from rx {
  ph->type = (first[ph->type & 1] + second) & 0xffff;
  packet_add_tail(ph, 8);
  channel_put(tx, ph);
} }"""


def _loaded(level="BASE"):
    trace = ipv4_trace(30, [0xC0A80101, 0xC0A80202], MACS, seed=21)
    result = compile_baker(ADD_TAIL, options_for(level), trace)
    chip = IXP2400(n_programmable_mes=1)
    load_system(result, chip, n_mes=1)
    return result, chip, trace


def test_add_tail_appends_zeros_to_a_reused_buffer():
    """``packet_add_tail`` appends zero bytes, whatever the buffer held
    before. Rx used to write only the frame, so on a recycled buffer the
    tail showed the previous frame's bytes (every pool buffer is reused
    within 1024 packets): here the pool starts out all 0xFF."""
    result, chip, trace = _loaded()
    dram = chip.memory.stores["dram"]
    for buf in chip.rings["ring.__buf_free"].items:
        dram[buf : buf + BUFFER_BYTES] = b"\xff" * BUFFER_BYTES
    rx = RxEngine(chip, trace, offered_gbps=1.0, repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run_for(5e6, stop=lambda: tx.packets_out() >= len(trace))
    got = sorted(r.payload for r in tx.records)
    chip.close()
    ref = run_reference(lower_program(result.checked), trace)
    assert len(got) == len(trace)
    assert got == ref.tx_signature()


def test_xscale_global_store_is_bounded_by_its_global():
    """The XScale's globals are the profiler's ``GlobalMemory`` placed
    in chip memory, so a store one past a global's end raises as it
    does on the host -- it used to land in the next global."""
    _, chip, _ = _loaded()
    g = chip.xscale.globals
    assert g.load("first", 4, 4) == 2
    with pytest.raises(InterpError, match="out-of-bounds store of first"):
        g.store("first", 8, 0xDEAD, 4)
    with pytest.raises(InterpError, match="out-of-bounds load of second"):
        g.load("second", 2, 4)
    assert g.load("second", 0, 4) == 5
    chip.close()


def _sim_packet(chip, frame: bytes) -> SimPacket:
    meta, buf = alloc_packet(chip.rings["ring.__meta_free"],
                             chip.rings["ring.__buf_free"])
    write_packet(chip, meta, buf, frame, 0)
    return SimPacket(chip, meta)


def test_xscale_packet_keeps_the_host_checks():
    """decap past the length, add_tail past the buffer and remove_tail
    past the length raise on the chip as on the host, and leave the
    packet as it was."""
    _, chip, _ = _loaded()
    for pkt in (HostPacket(bytes(60)), _sim_packet(chip, bytes(60))):
        for op, n in (("decap", 61), ("remove_tail", 61),
                      ("add_tail", BUFFER_BYTES - HEADROOM_BYTES - 59)):
            with pytest.raises(ValueError):
                getattr(pkt, op)(n)
        assert (pkt.head, pkt.length) == (HEADROOM_BYTES, 60)
    chip.close()


def test_fresh_packet_clears_its_whole_buffer_and_reads_back():
    _, chip, _ = _loaded()
    dram = chip.memory.stores["dram"]
    meta, buf = alloc_packet(chip.rings["ring.__meta_free"],
                             chip.rings["ring.__buf_free"])
    dram[buf : buf + BUFFER_BYTES] = b"\xff" * BUFFER_BYTES
    write_packet(chip, meta, buf, b"frame", 2)
    assert dram[buf : buf + BUFFER_BYTES] == bytes(HostPacket(b"frame").data)
    words, payload = read_packet(chip.memory, meta)
    assert (words, payload) == ([buf, HEADROOM_BYTES, 5, 2], b"frame")
    chip.memory.write_words("sram", meta + 8, [BUFFER_BYTES])
    assert read_packet(chip.memory, meta)[1] == \
        b"<invalid geometry head=%d len=%d>" % (HEADROOM_BYTES, BUFFER_BYTES)
    with pytest.raises(ValueError, match="larger than buffer"):
        write_packet(chip, meta, buf, bytes(BUFFER_BYTES), 0)
    chip.close()


_OPS = st.one_of(
    st.tuples(st.sampled_from(["encap", "decap", "add_tail", "remove_tail"]),
              st.integers(0, 96)),
    st.tuples(st.just("store_bits"), st.integers(-96, 160),
              st.integers(1, 64), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("store_bytes"), st.integers(-8, 96), st.binary(max_size=12)),
)

@pytest.fixture(scope="module")
def chip():
    chip = _loaded()[1]
    yield chip
    chip.close()


@settings(max_examples=60, deadline=None)
@given(frame=st.binary(max_size=80), ops=st.lists(_OPS, max_size=8))
def test_chip_packet_behaves_as_the_host_packet(chip, frame, ops):
    """Any sequence of head, tail and field operations leaves a
    SimPacket where it leaves a HostPacket: same geometry, same bytes,
    and the same operations refused."""
    made = [_sim_packet(chip, frame)]
    sim, host = made[0], HostPacket(frame)
    try:
        for op, *args in ops:
            outcomes = []
            for pkt in (host, sim):
                try:
                    getattr(pkt, op)(*args)
                    outcomes.append(None)
                except (ValueError, IndexError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (op, args)
            assert (sim.head, sim.length) == (host.head, host.length)
            assert sim.payload() == host.payload()
        assert sim.load_bytes(-sim.head, BUFFER_BYTES) == bytes(host.data)
        made.append(sim.copy())
        assert made[1].load_bytes(-sim.head, BUFFER_BYTES) == bytes(host.data)
    finally:
        for pkt in made:
            chip.xscale._drop_packet(pkt)
