"""Calling convention and reserved registers.

Baker has no recursion, so frames are statically placed (section 5.4)
and the convention can stay minimal:

* up to six 32-bit arguments in ``a0,b0,a1,b1,a2,b2`` (64-bit values use
  two consecutive slots, high word first);
* 32-bit results in ``a0``; 64-bit results in ``b0`` (high) / ``a0`` (low);
* the return address is deposited in ``b15`` by ``bal``; non-leaf
  functions save it to frame slot 0;
* calls clobber every GPR: values live across a call live in the frame
  (which is what makes frame placement -- Local Memory vs SRAM -- so
  performance-critical, and why -O2 inlining pays);
* ``a15`` is reserved for post-allocation bank-conflict fixups.
"""

from __future__ import annotations

from typing import List

from repro.cg.isa import PReg

ARG_REGS: List[PReg] = [
    PReg("a", 0), PReg("b", 0), PReg("a", 1),
    PReg("b", 1), PReg("a", 2), PReg("b", 2),
]
RET_LO = PReg("a", 0)
RET_HI = PReg("b", 0)
LINK = PReg("b", 15)
FIXUP_A = PReg("a", 15)  # bank-conflict fixup temp (A bank)
FIXUP_B = PReg("b", 14)  # bank-conflict fixup temp (B bank)

RESERVED = {LINK, FIXUP_A, FIXUP_B}

LINK_SLOT = 0  # frame slot for the saved return address (non-leaf only)
