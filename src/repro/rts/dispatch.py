"""Dispatch-loop synthesis.

Every thread of an ME runs the aggregate's dispatch loop: poll each
input channel's scratch ring, call the consuming PPF for any packet
found, yield, repeat. (Paper section 5.4: "an aggregate's dispatch loop
calls PPFs that have packets arriving on its input CCs", which is why
the call graph is flat and top-level frames deserve Local Memory.)
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cg import abi
from repro.cg.isa import (
    Bal, Br, Cmp, CtxArb, Imm, LIRFunction, Mov, RingGet, SymRef, VReg,
)

DISPATCH_NAME = "__dispatch"


def build_dispatch(inputs: List[Tuple[str, str]]) -> LIRFunction:
    """``inputs``: (ring symbol name, consumer function entry label)."""
    fn = LIRFunction(DISPATCH_NAME)
    entry = fn.new_block(fn.entry_label)
    loop = fn.new_block(fn.entry_label + "__loop")
    entry.emit(Br("always", loop.label))

    cur = loop
    for i, (ring, consumer_entry) in enumerate(inputs):
        handle = VReg("pkt%d" % i)
        cur.emit(RingGet(handle, SymRef(ring)))
        skip = "%s__skip%d" % (fn.entry_label, i)
        cur.emit(Cmp(handle, Imm(0)))
        cur.emit(Br("eq", skip))
        cur.emit(Mov(abi.ARG_REGS[0], handle))
        cur.emit(Bal(consumer_entry, abi.LINK,
                     arg_regs=[abi.ARG_REGS[0]],
                     ret_regs=[abi.RET_LO, abi.RET_HI]))
        cur = fn.new_block(skip)
    cur.emit(CtxArb())
    cur.emit(Br("always", loop.label))
    return fn
