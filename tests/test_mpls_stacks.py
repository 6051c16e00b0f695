"""Soundness of the packet optimizations on MPLS label stacks.

MPLS's label loop pops, swaps and pushes through packet_decap /
packet_encap, so the head moves by a different amount on every path:
the shape SOAR, PHR and PAC must get right or give up on. Hypothesis
draws short traces of label stacks (1-7 entries deep; 7 runs the loop's
``guard`` out), each entry a pop, swap, push or unmapped label with a
TTL of 0, 1, 2 or 64, mixed with IPv4 ingress packets to a mapped or an
unmapped FTN prefix (the path whose ``packet_decap`` of the Ethernet
header is followed by a label push, not by the label loop). At every level
from PAC up the packets the simulator transmits, payload and metadata,
must be the reference interpreter's (``verify_against_reference``).
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps import get_app, tables
from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.trace import (
    ETH_TYPE_IP, ETH_TYPE_MPLS, Trace, TracePacket, build_ethernet, build_ipv4,
    build_mpls_label,
)
from repro.rts.system import verify_against_reference

LEVELS = ("PAC", "SOAR", "PHR", "SWC")
OPS = (tables.MPLS_OP_POP, tables.MPLS_OP_SWAP, tables.MPLS_OP_PUSH,
       tables.MPLS_OP_INVALID)


@lru_cache(maxsize=None)
def _compiled(level):
    """One compile per level, profiled on the app's own trace. (Not a
    fixture: Hypothesis renders every argument of an explicit example,
    and rendering four compiles took a second per level.)"""
    app = get_app("mpls")
    return compile_baker(app.source, options_for(level),
                         app.make_trace(120, seed=5))


def _labels_by_op():
    ilm = get_app("mpls").config.ilm
    by_op = {op: sorted(l for l, (o, _, _) in ilm.items() if o == op)
             for op in OPS}
    by_op[tables.MPLS_OP_INVALID] = [l for l in range(1, 64) if l not in ilm]
    assert all(by_op.values()), "the ILM lost an op: the draw would skip it"
    return by_op


_BY_OP = _labels_by_op()

entries = st.tuples(
    st.sampled_from(OPS).flatmap(lambda op: st.sampled_from(_BY_OP[op])),
    st.sampled_from((0, 1, 2, 64)),
)
stacks = st.lists(entries, min_size=1, max_size=7)
#: FTN prefixes (dst /16): every mapped one, and one the FTN leaves at 0.
_PREFIXES = sorted(get_app("mpls").config.ftn) + [0xC0B0]
ingress = st.tuples(st.sampled_from(_PREFIXES), st.sampled_from((0, 1, 2, 64)))


def _sixteen_stacks():
    """Every depth 1-7 under pops, ending in each op at each TTL, then
    IPv4 ingress to a mapped and to an unmapped prefix."""
    pop = _BY_OP[tables.MPLS_OP_POP][0]
    return [[(pop, 64)] * (i % 7)
            + [(_BY_OP[OPS[i % 4]][0], (0, 1, 2, 64)[(i // 4) % 4])]
            for i in range(16)] + [(_PREFIXES[0], 64), (_PREFIXES[-1], 64)]


def _trace(packets) -> Trace:
    trace = Trace()
    for i, packet in enumerate(packets):
        port = i % tables.N_PORTS
        if isinstance(packet, tuple):  # IPv4 ingress: (dst /16, TTL)
            prefix, ttl = packet
            eth_type = ETH_TYPE_IP
            payload = build_ipv4(0x0A000001 + i, prefix << 16 | i, ttl=ttl,
                                 total_length=46)
        else:
            eth_type = ETH_TYPE_MPLS
            payload = b"".join(
                build_mpls_label(label, bottom=(k == len(packet) - 1), ttl=ttl)
                for k, (label, ttl) in enumerate(packet))
            payload += build_ipv4(0x0A000001 + i, 0xC0A80101, total_length=26)
        frame = build_ethernet(tables.ROUTER_MACS[port], 0x020000000000 | i,
                               eth_type, payload)
        trace.packets.append(TracePacket(frame, port))
    return trace


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(packets=st.lists(stacks | ingress, min_size=1, max_size=16))
@example(packets=_sixteen_stacks())
def test_label_stacks_forward_as_the_reference(level, packets):
    result = _compiled(level)
    trace = _trace(packets)
    assert verify_against_reference(result, trace, packets=len(packets))
