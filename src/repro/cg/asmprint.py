"""LIR / ME assembly pretty-printing."""

from __future__ import annotations

from repro.cg import isa


def format_insn(insn: isa.Insn) -> str:
    if isinstance(insn, isa.Alu):
        return "alu %r = %r %s %r" % (insn.dst, insn.a, insn.op, insn.b)
    if isinstance(insn, isa.Immed):
        return "immed %r = %#x" % (insn.dst, insn.value)
    if isinstance(insn, isa.LoadSym):
        return "load_sym %r = %r" % (insn.dst, insn.sym)
    if isinstance(insn, isa.Mov):
        return "mov %r = %r" % (insn.dst, insn.src)
    if isinstance(insn, isa.Cmp):
        return "cmp %r, %r" % (insn.a, insn.b)
    if isinstance(insn, isa.Br):
        return "br.%s %s" % (insn.cond, insn.target)
    if isinstance(insn, isa.Bal):
        return "bal %s, link=%r" % (insn.target, insn.link)
    if isinstance(insn, isa.Rtn):
        return "rtn %r" % insn.addr
    if isinstance(insn, isa.Mem):
        mask = " mask=%#x" % insn.byte_mask if insn.byte_mask is not None else ""
        return "%s_%s [%s] @%r+%r x%d (%s)%s" % (
            insn.space, insn.rw,
            ", ".join(repr(r) for r in insn.regs),
            insn.addr_a, insn.addr_b, insn.units, insn.category, mask,
        )
    if isinstance(insn, isa.RingGet):
        return "ring_get %r <- %r" % (insn.dst, insn.ring)
    if isinstance(insn, isa.RingPut):
        return "ring_put %r -> %r" % (insn.src, insn.ring)
    if isinstance(insn, isa.TestAndSet):
        return "test_and_set %r @%r" % (insn.dst, insn.addr_a)
    if isinstance(insn, isa.AtomicRelease):
        return "atomic_release @%r" % insn.addr_a
    if isinstance(insn, isa.LmRead):
        return "lm_read %r = LM[%r + %d]" % (insn.dst, insn.base, insn.offset)
    if isinstance(insn, isa.LmWrite):
        return "lm_write LM[%r + %d] = %r" % (insn.base, insn.offset, insn.src)
    if isinstance(insn, isa.CtxArb):
        return "ctx_arb"
    if isinstance(insn, isa.Halt):
        return "halt"
    if isinstance(insn, isa.StackRead):
        return "stack_read %r = frame[%d%s]" % (
            insn.dst, insn.slot, "+%r" % insn.index if insn.index is not None else "")
    if isinstance(insn, isa.StackWrite):
        return "stack_write frame[%d%s] = %r" % (
            insn.slot, "+%r" % insn.index if insn.index is not None else "", insn.src)
    return "<%s>" % type(insn).__name__


def format_function(fn: isa.LIRFunction) -> str:
    lines = ["; function %s (frame=%d words)" % (fn.name, fn.frame_slots)]
    for bb in fn.blocks:
        lines.append("%s:" % bb.label)
        for insn in bb.insns:
            lines.append("    %s" % format_insn(insn))
    return "\n".join(lines)
