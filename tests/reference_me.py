"""Reference ME core: the original per-instruction handler-table
interpreter, kept test-side as the oracle the product's one core
(:mod:`repro.ixp.predecode` under :meth:`Microengine.run_slice`) is
compared against bit for bit (tests/test_fastpath.py,
tests/test_profile.py).

It is deliberately naive -- one dict lookup, one handler call and one
deadline compare per instruction, operands decoded on every execution --
and shares nothing with the predecoder but :class:`Thread`, the memory
system and the observer hooks, so an ISA bug has to be made twice to
slip through. Tests select it with :func:`core`, which swaps the class
the loader instantiates; the product has no option that reaches it.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

from repro.cg import isa
from repro.cg.isa import Imm, PReg, SymRef
from repro.cg.melayout import LM_WORDS, SRAM_STACK_BYTES_PER_THREAD
from repro.ixp.microengine import Microengine, SimError, Thread, _signed
from repro.rts import loader

_U32 = 0xFFFFFFFF


class ReferenceMicroengine(Microengine):
    """A :class:`Microengine` whose slice loop dispatches through
    ``_HANDLERS`` instead of the predecoded program."""

    # -- scheduling ----------------------------------------------------------------

    def ready_thread(self) -> Optional[Thread]:
        t = self.resume_thread
        if t is not None:
            self.resume_thread = None
            if not t.halted:
                return t
        threads = self.threads
        n = len(threads)
        k = self.rr_next
        time = self.time
        for _ in range(n):
            t = threads[k]
            k += 1
            if k == n:
                k = 0
            if not t.halted and t.wake <= time:
                self.rr_next = k
                return t
        return None

    def next_wake(self) -> Optional[float]:
        nxt = None
        for t in self.threads:
            if not t.halted:
                w = t.wake
                if nxt is None or w < nxt:
                    nxt = w
        return nxt

    def run_slice(self, max_cycles: float = 400.0) -> Optional[float]:
        """Run ready threads until none is ready or the slice budget is
        spent. Returns the absolute time of the next event on this ME
        (None when all threads halted)."""
        deadline = self.time + max_cycles
        run_thread = self._run_thread
        while self.time < deadline:
            t = self.ready_thread()
            if t is None:
                nxt = self.next_wake()
                if nxt is None:
                    return None
                if nxt > self.time:
                    self.idle_time += nxt - self.time
                    return nxt
                # No thread is ready yet the earliest wake is not in the
                # future: looping would spin forever at a frozen clock.
                # Surface the stuck state instead of hanging.
                raise self._stuck_error(nxt)
            run_thread(t, deadline)
        return self.time

    def _run_thread(self, t: Thread, deadline: float) -> None:
        """Reference dispatch core: execute ``t`` until it blocks, yields,
        or halts. If the slice budget runs out first, the thread is
        remembered and continues before any other (hardware threads are
        non-preemptive).

        ``time`` is charged before the handler runs (memory completion
        times include the issue cycles) but rolled back if the handler
        raises, and ``executed_instrs`` counts only successfully
        dispatched instructions -- a failing instruction must not corrupt
        either counter."""
        insns = self.image.insns
        executed = 0
        cycles = 0
        prof = self.chip.profiler
        t0 = self.time
        try:
            while True:
                insn = insns[t.pc]
                cycles = 0
                handler = _HANDLERS.get(insn.__class__)
                if handler is None:
                    raise SimError("cannot execute %r" % insn)
                cycles = insn.cycles
                self.time += cycles
                stop = handler(self, t, insn)
                executed += 1
                if stop:
                    return  # thread blocked / yielded / halted
                if self.time >= deadline:
                    self.resume_thread = t
                    return
        except SimError:
            self.time -= cycles
            raise
        finally:
            self.executed_instrs += executed
            if prof is not None:
                prof.note_burst(self.index, t.index, t0, self.time)

    # -- operand helpers ----------------------------------------------------------------

    def value(self, t: Thread, op) -> int:
        if type(op) is Imm:
            return op.value
        if type(op) is PReg:
            return t.get(op)
        if type(op) is SymRef:
            return self.chip.symbol(op.name) + op.addend
        raise SimError("bad operand %r" % (op,))


# -- instruction handlers (return True if the thread stops running) ---------------------


def _h_alu(me: Microengine, t: Thread, insn) -> bool:
    a = me.value(t, insn.a)
    b = me.value(t, insn.b)
    op = insn.op
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "and":
        r = a & b
    elif op == "or":
        r = a | b
    elif op == "xor":
        r = a ^ b
    elif op == "shl":
        r = a << (b & 31)
    elif op == "lshr":
        r = (a & _U32) >> (b & 31)
    elif op == "ashr":
        r = _signed(a) >> (b & 31)
    elif op == "mul":
        r = a * b
    else:  # pragma: no cover
        raise SimError("bad alu op %s" % op)
    t.set(insn.dst, r)
    t.pc += 1
    return False


def _h_immed(me, t, insn) -> bool:
    t.set(insn.dst, insn.value)
    t.pc += 1
    return False


def _h_loadsym(me, t, insn) -> bool:
    t.set(insn.dst, me.chip.symbol(insn.sym.name) + insn.sym.addend)
    t.pc += 1
    return False


def _h_mov(me, t, insn) -> bool:
    t.set(insn.dst, me.value(t, insn.src))
    t.pc += 1
    return False


def _h_cmp(me, t, insn) -> bool:
    t.cmp_a = me.value(t, insn.a) & _U32
    t.cmp_b = me.value(t, insn.b) & _U32
    t.pc += 1
    return False


def _cond_true(t: Thread, cond: str) -> bool:
    a, b = t.cmp_a, t.cmp_b
    if cond == "always":
        return True
    if cond == "eq":
        return a == b
    if cond == "ne":
        return a != b
    if cond == "lt_u":
        return a < b
    if cond == "le_u":
        return a <= b
    if cond == "gt_u":
        return a > b
    if cond == "ge_u":
        return a >= b
    sa, sb = _signed(a), _signed(b)
    if cond == "lt_s":
        return sa < sb
    if cond == "le_s":
        return sa <= sb
    if cond == "gt_s":
        return sa > sb
    if cond == "ge_s":
        return sa >= sb
    raise SimError("bad condition %s" % cond)


def _h_br(me, t, insn) -> bool:
    if _cond_true(t, insn.cond):
        t.pc = insn.resolved
        me.time += 1  # taken-branch abort cycle
    else:
        t.pc += 1
    return False


def _h_bal(me, t, insn) -> bool:
    t.set(insn.link, t.pc + 1)
    t.pc = insn.resolved
    me.time += 1
    return False


def _h_rtn(me, t, insn) -> bool:
    t.pc = me.value(t, insn.addr)
    me.time += 1
    return False


def _h_mem(me, t, insn) -> bool:
    addr = me.value(t, insn.addr_a) + me.value(t, insn.addr_b)
    mem = me.chip.memory
    done = mem.timed_access(me.time, insn.space, insn.words, insn.category,
                            addr=addr)
    if insn.rw == "read":
        values = mem.read_words(insn.space, addr, insn.words)
        for reg, v in zip(insn.regs_out, values):
            t.set(reg, v)
    else:
        values = [me.value(t, r) for r in insn.regs_in]
        mask = insn.byte_mask
        if insn.mask_reg is not None:
            mask = me.value(t, insn.mask_reg)
        mem.write_words(insn.space, addr, values, mask)
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index, "mem_" + insn.space,
                        me.time, done)
    t.pc += 1
    t.wake = done
    return True  # swap out until the reference completes


def _h_ring_get(me, t, insn) -> bool:
    ring = me.chip.ring_by_symbol(insn.ring.name)
    done = me.chip.memory.timed_access(me.time, "scratch", 1, insn.category)
    value = ring.get()
    t.set(insn.dst, value)
    tracer = me.chip.tracer
    if tracer is not None:
        tracer.me_ring_get(me.index, t.index, insn.ring.name, value, me.time)
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index,
                        "ring_empty" if value == 0 else "mem_scratch",
                        me.time, done)
    t.pc += 1
    t.wake = done
    return True


def _h_ring_put(me, t, insn) -> bool:
    ring = me.chip.ring_by_symbol(insn.ring.name)
    done = me.chip.memory.timed_access(me.time, "scratch", 1, insn.category)
    value = me.value(t, insn.src)
    ok = ring.put(value)
    tracer = me.chip.tracer
    if tracer is not None:
        tracer.me_ring_put(me.index, t.index, insn.ring.name, value,
                           me.time, ok)
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index,
                        "mem_scratch" if ok else "ring_full",
                        me.time, done)
    t.pc += 1
    t.wake = done
    return True


def _h_tas(me, t, insn) -> bool:
    addr = me.value(t, insn.addr_a)
    done = me.chip.memory.timed_access(me.time, "scratch", 1, isa.CAT_APP)
    old = me.chip.memory.read_words("scratch", addr, 1)[0]
    me.chip.memory.write_words("scratch", addr, [1])
    t.set(insn.dst, old)
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index, "mem_scratch", me.time, done)
    t.pc += 1
    t.wake = done
    return True


def _h_release(me, t, insn) -> bool:
    addr = me.value(t, insn.addr_a)
    done = me.chip.memory.timed_access(me.time, "scratch", 1, isa.CAT_APP)
    me.chip.memory.write_words("scratch", addr, [0])
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index, "mem_scratch", me.time, done)
    t.pc += 1
    t.wake = done
    return True


def _lm_index(me, t, insn) -> int:
    idx = insn.offset
    if insn.base is not None:
        idx += me.value(t, insn.base)
    if insn.thread_rel:
        idx += t.lm_base
    if not (0 <= idx < LM_WORDS):
        raise SimError("Local Memory index %d out of range" % idx)
    return idx


def _h_lm_read(me, t, insn) -> bool:
    t.set(insn.dst, me.lm[_lm_index(me, t, insn)])
    t.pc += 1
    return False


def _h_lm_write(me, t, insn) -> bool:
    me.lm[_lm_index(me, t, insn)] = me.value(t, insn.src) & _U32
    t.pc += 1
    return False


def _h_cam_lookup(me, t, insn) -> bool:
    t.set(insn.dst, me.cam.lookup(me.value(t, insn.key)))
    t.pc += 1
    return False


def _h_cam_write(me, t, insn) -> bool:
    me.cam.write(me.value(t, insn.entry), me.value(t, insn.key))
    t.pc += 1
    return False


def _h_cam_clear(me, t, insn) -> bool:
    me.cam.clear()
    t.pc += 1
    return False


def _h_ctx_arb(me, t, insn) -> bool:
    prof = me.chip.profiler
    if prof is not None:
        prof.note_block(me.index, t.index, "ctx_arb", me.time, me.time + 1)
    t.pc += 1
    t.wake = me.time + 1
    return True  # voluntary yield


def _h_halt(me, t, insn) -> bool:
    t.halted = True
    return True


def _h_thread_stack_addr(me, t, insn) -> bool:
    base = me.chip.symbol("__stack")
    slot = (me.index * len(me.threads) + t.index) * SRAM_STACK_BYTES_PER_THREAD
    t.set(insn.dst, base + slot)
    t.pc += 1
    return False


_HANDLERS: Dict[type, object] = {
    isa.Alu: _h_alu,
    isa.Immed: _h_immed,
    isa.LoadSym: _h_loadsym,
    isa.Mov: _h_mov,
    isa.Cmp: _h_cmp,
    isa.Br: _h_br,
    isa.Bal: _h_bal,
    isa.Rtn: _h_rtn,
    isa.Mem: _h_mem,
    isa.RingGet: _h_ring_get,
    isa.RingPut: _h_ring_put,
    isa.TestAndSet: _h_tas,
    isa.AtomicRelease: _h_release,
    isa.LmRead: _h_lm_read,
    isa.LmWrite: _h_lm_write,
    isa.CamLookup: _h_cam_lookup,
    isa.CamWrite: _h_cam_write,
    isa.CamClear: _h_cam_clear,
    isa.CtxArb: _h_ctx_arb,
    isa.Halt: _h_halt,
    isa.ThreadStackAddr: _h_thread_stack_addr,
}

# -- selecting a core from a test -------------------------------------------------------

#: Core name (test parametrization id) -> Microengine class.
CORES = {"reference": ReferenceMicroengine, "fast": Microengine}


@contextlib.contextmanager
def core(name: str):
    """Make ``load_system`` (and so ``run_on_simulator``) build its MEs
    from ``CORES[name]`` for the duration of the block."""
    saved = loader.Microengine
    loader.Microengine = CORES[name]
    try:
        yield
    finally:
        loader.Microengine = saved
