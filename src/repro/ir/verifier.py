"""IR structural verifier.

Run after lowering and between optimization passes (in tests) to catch
malformed IR early: unterminated blocks, dangling block references, use
of temps from other functions, calls to unknown functions, etc.
"""

from __future__ import annotations

from typing import Set

from repro.ir.instructions import (
    Branch, Call, ChanPut, Jump, LmFill, LoadG, LoadResident, StoreG,
)
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Temp


class IRVerifyError(AssertionError):
    pass


def verify_function(fn: IRFunction, mod: IRModule = None) -> None:
    if not fn.blocks:
        raise IRVerifyError("%s: function has no blocks" % fn.name)
    block_set = set(fn.blocks)
    labels: Set[str] = set()
    for bb in fn.blocks:
        if bb.label in labels:
            raise IRVerifyError("%s: duplicate block label %s" % (fn.name, bb.label))
        labels.add(bb.label)
        if bb.terminator is None:
            raise IRVerifyError("%s: block %s is unterminated" % (fn.name, bb.label))
        for instr in bb.instrs:
            if instr.is_terminator:
                raise IRVerifyError(
                    "%s: terminator %r in block body of %s" % (fn.name, instr, bb.label)
                )
        for succ in bb.successors():
            if succ not in block_set:
                raise IRVerifyError(
                    "%s: block %s references dangling block %s"
                    % (fn.name, bb.label, getattr(succ, "label", succ))
                )

    # Defs must precede uses in straight-line order within a block, or the
    # temp must be defined in some other block (we don't enforce full
    # SSA-style dominance, but we do catch temps never defined anywhere).
    defined: Set[Temp] = set(fn.params)
    for bb in fn.blocks:
        for instr in bb.all_instrs():
            defined.update(instr.defs())
    for bb in fn.blocks:
        for instr in bb.all_instrs():
            for use in instr.uses():
                if isinstance(use, Temp) and use not in defined:
                    raise IRVerifyError(
                        "%s: use of undefined temp %r in %r" % (fn.name, use, instr)
                    )

    if mod is not None:
        for bb in fn.blocks:
            for instr in bb.all_instrs():
                if isinstance(instr, Call) and instr.func not in mod.functions:
                    raise IRVerifyError(
                        "%s: call to unknown function %r" % (fn.name, instr.func)
                    )
                if (isinstance(instr, (LoadG, StoreG, LoadResident, LmFill))
                        and instr.g not in mod.globals):
                    raise IRVerifyError(
                        "%s: access to unknown global %r" % (fn.name, instr.g)
                    )
                if isinstance(instr, ChanPut) and instr.channel not in mod.channels:
                    raise IRVerifyError(
                        "%s: put to unknown channel %r" % (fn.name, instr.channel)
                    )


def verify_module(mod: IRModule) -> None:
    for fn in mod.functions.values():
        verify_function(fn, mod)
