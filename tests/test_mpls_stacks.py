"""Soundness of the packet optimizations on MPLS label stacks.

MPLS's label loop pops, swaps and pushes through packet_decap /
packet_encap, so the head moves by a different amount on every path:
the shape SOAR, PHR and PAC must get right or give up on. Hypothesis
draws short traces of label stacks (1-7 entries deep; 7 runs the loop's
``guard`` out), each entry a pop, swap, push or unmapped label with a
TTL of 0, 1, 2 or 64, and both oracles must agree with the reference
interpreter at every level from PAC up: the payloads the simulator
transmits (``verify_against_reference``) and each image's effects,
metadata and tables included (``repro.analyze.validate``).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analyze import validate
from repro.apps import get_app, tables
from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.trace import (
    ETH_TYPE_MPLS, Trace, TracePacket, build_ethernet, build_ipv4,
    build_mpls_label,
)
from repro.rts.system import verify_against_reference

LEVELS = ("PAC", "SOAR", "PHR", "SWC")
OPS = (tables.MPLS_OP_POP, tables.MPLS_OP_SWAP, tables.MPLS_OP_PUSH,
       tables.MPLS_OP_INVALID)


@pytest.fixture(scope="module")
def compiled():
    """One compile per level, profiled on the app's own trace."""
    app = get_app("mpls")
    trace = app.make_trace(120, seed=5)
    return {level: compile_baker(app.source, options_for(level), trace)
            for level in LEVELS}


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


def _sixteen_stacks():
    """Every depth 1-7 under pops, ending in each op at each TTL."""
    pop = _BY_OP[tables.MPLS_OP_POP][0]
    return [[(pop, 64)] * (i % 7)
            + [(_BY_OP[OPS[i % 4]][0], (0, 1, 2, 64)[(i // 4) % 4])]
            for i in range(16)]


def _trace(packets) -> Trace:
    trace = Trace()
    for i, stack in enumerate(packets):
        port = i % tables.N_PORTS
        payload = b"".join(
            build_mpls_label(label, bottom=(k == len(stack) - 1), ttl=ttl)
            for k, (label, ttl) in enumerate(stack))
        payload += build_ipv4(0x0A000001 + i, 0xC0A80101, total_length=26)
        frame = build_ethernet(tables.ROUTER_MACS[port], 0x020000000000 | i,
                               ETH_TYPE_MPLS, payload)
        trace.packets.append(TracePacket(frame, port))
    return trace


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(packets=st.lists(stacks, min_size=1, max_size=16))
@example(packets=_sixteen_stacks())
def test_label_stacks_forward_as_the_reference(compiled, level, packets):
    result = compiled[level]
    trace = _trace(packets)
    assert verify_against_reference(result, trace, packets=len(packets))
    section = validate.check("mpls", result, trace)
    errors = [f for f in section["findings"] if f["severity"] == "error"]
    assert not errors, errors
