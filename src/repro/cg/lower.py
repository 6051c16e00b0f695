"""IR -> LIR lowering (the code generator's main stage).

Turns the optimized, aggregated IR into ME instructions over virtual
registers. 64-bit IR values are expanded into register pairs (high word
first, matching big-endian memory order); packet primitives are expanded
by :mod:`repro.cg.pktlower`; calls follow the convention in
:mod:`repro.cg.abi`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

from repro.baker import types as T
from repro.cg import abi
from repro.cg import isa
from repro.cg.isa import (
    Alu, Bal, Br, Cmp, CtxArb, Imm, Immed, Insn, LIRBlock, LIRFunction,
    LoadSym, Mem, Mov, RingPut, Rtn, StackRead, StackWrite, SymRef,
    TestAndSet, AtomicRelease, VReg,
)
from repro.cg.melayout import SWC_REGION_BASE
from repro.ir import instructions as I
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.opt.aliases import AliasClasses
from repro.options import CompilerOptions

MAX_ALU_IMM = 0xFF  # largest constant an ALU/cmp instruction embeds
LM_FILL_WORDS = 8  # widest SRAM read
_RESULT_REGS = [abi.RET_HI, abi.RET_LO]  # a one-word result takes the last


class CodegenError(Exception):
    pass


def _is64_type(t: T.Type) -> bool:
    return isinstance(t, T.IntType) and t.bits > 32


def _is64(v: Operand) -> bool:
    if isinstance(v, Temp):
        return _is64_type(v.type)
    return _is64_type(v.type) or v.value > 0xFFFFFFFF


class LowerContext:
    """Shared state for lowering all functions of one ME image."""

    def __init__(self, mod: IRModule, opts: CompilerOptions):
        self.mod = mod
        self.opts = opts
        self.helpers: Dict[str, LIRFunction] = {}  # packet helper routines

    def ring_sym(self, channel: str) -> SymRef:
        return SymRef("ring.%s" % channel)

    def lock_sym(self, lock: str) -> SymRef:
        return SymRef("lock.%s" % lock)

    def global_sym(self, name: str, addend: int = 0) -> SymRef:
        return SymRef(name, addend)

    def global_space(self, name: str) -> str:
        return self.mod.globals[name].memory


class Emitter:
    """Appends ME code to one function: fresh virtual registers, local
    labels, fall-through blocks and immediates, starting in its entry
    block. The out-of-line packet helpers (:mod:`repro.cg.pktlower`)
    are built with an Emitter alone; a :class:`FunctionLowerer` is one
    that lowers an IR function into it, so the same packet emission
    code builds inline sequences and helper bodies."""

    def __init__(self, name: str):
        self.fn = LIRFunction(name)
        self.cur: LIRBlock = self.fn.new_block(self.fn.entry_label)
        self._label_n = 0

    def vreg(self, hint: str = "") -> VReg:
        return VReg(hint)

    def emit(self, insn: Insn) -> Insn:
        return self.cur.emit(insn)

    def label(self, hint: str) -> str:
        self._label_n += 1
        return "%s__%s%d" % (self.fn.entry_label, hint, self._label_n)

    def new_block(self, label: Optional[str] = None, hint: str = "l") -> LIRBlock:
        """Create a block and fall through into it: inserted immediately
        after the current block (LIR fallthrough is positional)."""
        bb = LIRBlock(label or self.label(hint))
        blocks = self.fn.blocks
        blocks.insert(blocks.index(self.cur) + 1, bb)
        self.cur = bb
        return bb

    def materialize(self, value: int, hint: str = "c") -> VReg:
        r = self.vreg(hint)
        self.emit(Immed(r, value & 0xFFFFFFFF))
        return r


class FunctionLowerer(Emitter):
    def __init__(self, ctx: LowerContext, ir_fn: IRFunction):
        super().__init__(ir_fn.name)
        self.ctx = ctx
        self.ir_fn = ir_fn
        self.aliases = AliasClasses(ir_fn)
        self.t32: Dict[Temp, VReg] = {}
        self.t64: Dict[Temp, Tuple[VReg, VReg]] = {}
        self.array_base: Dict[str, int] = {}
        # Where the function's packets keep buf/head/len.
        self.pkt = pktlower.PacketMeta(self)
        self._use_counts: Counter = Counter()
        self._single_defs: Dict[Temp, I.Instr] = {}
        self._has_calls = (any(isinstance(i, I.Call) for i in ir_fn.all_instrs())
                           or pktlower.calls_helpers(ctx.opts, ir_fn))

    # -- small helpers ----------------------------------------------------------

    def ir_block_label(self, bb) -> str:
        return "%s__%s" % (self.fn.entry_label, bb.label)

    def reg32(self, op: Operand) -> VReg:
        """IR operand -> a 32-bit register (low half of 64-bit values)."""
        if isinstance(op, Const):
            return self.materialize(op.value & 0xFFFFFFFF)
        if _is64(op):
            return self.pair(op)[1]
        if op not in self.t32:
            self.t32[op] = self.vreg(op.hint)
        return self.t32[op]

    def val32(self, op: Operand) -> Union[VReg, Imm]:
        """Like reg32 but small constants stay immediate operands."""
        if isinstance(op, Const) and 0 <= op.value <= MAX_ALU_IMM:
            return Imm(op.value)
        return self.reg32(op)

    def pair(self, op: Operand) -> Tuple[VReg, VReg]:
        """IR operand -> (hi, lo) register pair."""
        if isinstance(op, Const):
            hi = self.materialize((op.value >> 32) & 0xFFFFFFFF, "chi")
            lo = self.materialize(op.value & 0xFFFFFFFF, "clo")
            return hi, lo
        if not _is64(op):
            hi = self.materialize(0, "zext")
            return hi, self.reg32(op)
        if op not in self.t64:
            self.t64[op] = (self.vreg(op.hint + ".hi"), self.vreg(op.hint + ".lo"))
        return self.t64[op]

    def dst32(self, temp: Temp) -> VReg:
        if temp not in self.t32:
            self.t32[temp] = self.vreg(temp.hint)
        return self.t32[temp]

    def dst_pair(self, temp: Temp) -> Tuple[VReg, VReg]:
        if temp not in self.t64:
            self.t64[temp] = (self.vreg(temp.hint + ".hi"), self.vreg(temp.hint + ".lo"))
        return self.t64[temp]

    def words(self, op: Operand, wide: bool) -> List[VReg]:
        """The registers of a value read as one word or, ``wide``, two
        (high word first)."""
        return list(self.pair(op)) if wide else [self.reg32(op)]

    def dst_words(self, temp: Temp, wide: bool) -> List[VReg]:
        """The registers a one- or (``wide``) two-word result goes to."""
        return list(self.dst_pair(temp)) if wide else [self.dst32(temp)]

    def global_addr(self, name: str, offset: Operand) -> Tuple[VReg, Union[Imm, VReg]]:
        """(addr_a, addr_b) operands for a global access."""
        if isinstance(offset, Const):
            base = self.vreg("gaddr")
            self.emit(LoadSym(base, self.ctx.global_sym(name, offset.value)))
            return base, Imm(0)
        base = self.vreg("gaddr")
        self.emit(LoadSym(base, self.ctx.global_sym(name)))
        return base, self.reg32(offset)

    # -- driver -----------------------------------------------------------------

    def lower(self) -> LIRFunction:
        self._count_uses()
        self._assign_arrays()
        self._emit_prologue()
        self.pkt.enter()
        # Pre-create one LIR block per IR block for stable branch targets.
        for bb in self.ir_fn.blocks:
            self.fn.new_block(self.ir_block_label(bb))
        self.emit(Br("always", self.ir_block_label(self.ir_fn.entry)))
        from repro.ir.cfg import compute_cfg

        compute_cfg(self.ir_fn)
        for bb in self.ir_fn.blocks:
            self.cur = next(
                b for b in self.fn.blocks if b.label == self.ir_block_label(bb)
            )
            self.pkt.begin_block(bb)
            fused = self._fused_cmp(bb)
            for instr in bb.instrs:
                if instr is not fused:
                    self.lower_instr(instr)
            self._lower_terminator(bb, fused)
        return self.fn

    def _fused_cmp(self, bb) -> Optional[I.Cmp]:
        """The ``Cmp`` of this block that only its ``Branch`` reads: the
        terminator evaluates it as compare-and-branch, so it is never
        materialised as a 0/1 value."""
        term = bb.terminator
        if isinstance(term, I.Branch) and isinstance(term.cond, Temp):
            def_instr = self._single_defs.get(term.cond)
            if (isinstance(def_instr, I.Cmp)
                    and self._use_counts[term.cond] == 1
                    and def_instr in bb.instrs):
                return def_instr
        return None

    def _count_uses(self) -> None:
        defs: Counter = Counter()
        for instr in self.ir_fn.all_instrs():
            for u in instr.uses():
                if isinstance(u, Temp):
                    self._use_counts[u] += 1
            for d in instr.defs():
                defs[d] += 1
        for instr in self.ir_fn.all_instrs():
            ds = instr.defs()
            if len(ds) == 1 and defs[ds[0]] == 1:
                self._single_defs[ds[0]] = instr

    def _assign_arrays(self) -> None:
        # Slot 0 is the saved link register for non-leaf functions.
        next_slot = abi.LINK_SLOT + 1 if self._has_calls else 0
        for name, arr in self.ir_fn.local_arrays.items():
            self.array_base[name] = next_slot
            next_slot += arr.size_bytes // 4
        self.fn.frame_slots = next_slot

    def _emit_prologue(self) -> None:
        if self._has_calls:
            self.emit(StackWrite(abi.LINK_SLOT, abi.LINK))
        # Semantic analysis keeps the parameters within the argument words.
        regs = [r for p in self.ir_fn.params for r in self.dst_words(p, _is64(p))]
        for slot, reg in enumerate(regs):
            self.emit(Mov(reg, abi.ARG_REGS[slot]))

    def _emit_epilogue_and_return(self, value: Optional[Operand]) -> None:
        results = []
        if value is not None:
            regs = self.words(value, _is64_type(self.ir_fn.ret_type))
            results = _RESULT_REGS[-len(regs):]
            for result, reg in zip(results, regs):
                self.emit(Mov(result, reg))
        if self._has_calls:
            tmp = self.vreg("ra")
            self.emit(StackRead(tmp, abi.LINK_SLOT))
            self.emit(Rtn(tmp, result_regs=results))
        else:
            self.emit(Rtn(abi.LINK, result_regs=results))

    # -- terminators -------------------------------------------------------------

    def _lower_terminator(self, bb, fused: Optional[I.Cmp]) -> None:
        term = bb.terminator
        if isinstance(term, I.Jump):
            self.emit(Br("always", self.ir_block_label(term.target)))
        elif isinstance(term, I.Branch):
            then_l = self.ir_block_label(term.then_bb)
            else_l = self.ir_block_label(term.else_bb)
            if fused is not None:
                self.emit_cmp_branch(fused.op, fused.a, fused.b, then_l, else_l)
            else:
                self.emit(Cmp(self.reg32(term.cond), Imm(0)))
                self.emit(Br("ne", then_l))
                self.emit(Br("always", else_l))
        elif isinstance(term, I.Ret):
            self._emit_epilogue_and_return(term.value)
        else:  # pragma: no cover
            raise CodegenError("bad terminator %r" % term)

    def emit_cmp_branch(self, op: str, a: Operand, b: Operand,
                        then_l: str, else_l: str) -> None:
        if _is64(a) or _is64(b):
            self._emit_cmp_branch64(op, a, b, then_l, else_l)
            return
        self.emit(Cmp(self.reg32(a), self.val32(b)))
        self.emit(Br(op, then_l))
        self.emit(Br("always", else_l))

    def _emit_cmp_branch64(self, op: str, a: Operand, b: Operand,
                           then_l: str, else_l: str) -> None:
        ahi, alo = self.pair(a)
        bhi, blo = self.pair(b)
        if op == "eq":
            self.emit(Cmp(ahi, bhi))
            self.emit(Br("ne", else_l))
            self.new_block(hint="eq64")
            self.emit(Cmp(alo, blo))
            self.emit(Br("eq", then_l))
            self.emit(Br("always", else_l))
        elif op == "ne":
            self.emit(Cmp(ahi, bhi))
            self.emit(Br("ne", then_l))
            self.new_block(hint="ne64")
            self.emit(Cmp(alo, blo))
            self.emit(Br("ne", then_l))
            self.emit(Br("always", else_l))
        elif op in ("lt_u", "le_u", "gt_u", "ge_u"):
            strict = "lt_u" if op.startswith("l") else "gt_u"
            self.emit(Cmp(ahi, bhi))
            self.emit(Br(strict, then_l))
            self.new_block(hint="ord64a")
            self.emit(Cmp(ahi, bhi))
            self.emit(Br("ne", else_l))
            self.new_block(hint="ord64b")
            self.emit(Cmp(alo, blo))
            self.emit(Br(op, then_l))
            self.emit(Br("always", else_l))
        else:
            raise CodegenError("signed 64-bit comparison is not supported")

    # -- instructions ------------------------------------------------------------------

    def lower_instr(self, instr: I.Instr) -> None:
        if isinstance(instr, I.Assign):
            self._lower_assign(instr)
        elif isinstance(instr, I.BinOp):
            self._lower_binop(instr)
        elif isinstance(instr, I.Cmp):
            self._lower_cmp_value(instr)
        elif isinstance(instr, I.Call):
            self._lower_call(instr)
        elif isinstance(instr, (I.LoadG, I.StoreG, I.LoadGWords)):
            self._lower_global(instr)
        elif isinstance(instr, (I.LoadL, I.StoreL)):
            self._lower_local(instr)
        elif isinstance(instr, I.ChanPut):
            self.pkt.escape(instr)
            self.emit(RingPut(self.ctx.ring_sym(instr.channel), self.reg32(instr.ph)))
        elif isinstance(instr, I.LockAcquire):
            self._lower_lock_acquire(instr)
        elif isinstance(instr, I.LockRelease):
            self.emit(AtomicRelease(self._lock_addr(instr.lock)))
        elif isinstance(instr, I.LmLoad):
            self._lower_lm(instr, read=True)
        elif isinstance(instr, I.LmStore):
            self._lower_lm(instr, read=False)
        elif isinstance(instr, I.LoadResident):
            self._lower_load_resident(instr)
        elif isinstance(instr, I.LmFill):
            self._lower_lm_fill(instr)
        elif isinstance(instr, I.PktInstr):
            pktlower.lower_packet_instr(self, instr)
        else:  # pragma: no cover
            raise CodegenError("cannot lower %r" % instr)

    def _lower_assign(self, instr: I.Assign) -> None:
        if _is64(instr.dst):
            hi, lo = self.dst_pair(instr.dst)
            shi, slo = self.pair(instr.src)
            self.emit(Mov(hi, shi))
            self.emit(Mov(lo, slo))
        else:
            self.emit(Mov(self.dst32(instr.dst), self.val32(instr.src)))

    def _lower_binop(self, instr: I.BinOp) -> None:
        wide = _is64(instr.dst)
        if not wide:
            if instr.op in ("div_u", "div_s", "rem_u", "rem_s"):
                raise CodegenError(
                    "the microengine has no divide instruction; "
                    "division reached code generation in %s" % self.ir_fn.name
                )
            if instr.op in ("lshr", "ashr") and _is64(instr.a):
                # Conversions narrow with ``and``; no pass shifts a u64
                # straight into a u32, and one word would be wrong here.
                raise CodegenError(
                    "a 32-bit %s of a 64-bit value reached code generation "
                    "in %s" % (instr.op, self.ir_fn.name))
            a = self.reg32(instr.a)
            b = self.val32(instr.b)
            self.emit(Alu(instr.op, self.dst32(instr.dst), a, b))
            return
        self._lower_binop64(instr)

    def _lower_binop64(self, instr: I.BinOp) -> None:
        op = instr.op
        dhi, dlo = self.dst_pair(instr.dst)
        if op in ("and", "or", "xor"):
            ahi, alo = self.pair(instr.a)
            bhi, blo = self.pair(instr.b)
            self.emit(Alu(op, dhi, ahi, bhi))
            self.emit(Alu(op, dlo, alo, blo))
            return
        if op in ("shl", "lshr") and isinstance(instr.b, Const):
            k = instr.b.value & 63
            ahi, alo = self.pair(instr.a)
            if k == 0:
                self.emit(Mov(dhi, ahi))
                self.emit(Mov(dlo, alo))
            elif op == "shl":
                if k >= 32:
                    self.emit(Alu("shl", dhi, alo, Imm(k - 32)) if k > 32
                              else Mov(dhi, alo))
                    self.emit(Immed(dlo, 0))
                else:
                    t1, t2 = self.vreg(), self.vreg()
                    self.emit(Alu("shl", t1, ahi, Imm(k)))
                    self.emit(Alu("lshr", t2, alo, Imm(32 - k)))
                    self.emit(Alu("or", dhi, t1, t2))
                    self.emit(Alu("shl", dlo, alo, Imm(k)))
            else:  # lshr
                if k >= 32:
                    self.emit(Alu("lshr", dlo, ahi, Imm(k - 32)) if k > 32
                              else Mov(dlo, ahi))
                    self.emit(Immed(dhi, 0))
                else:
                    t1, t2 = self.vreg(), self.vreg()
                    self.emit(Alu("lshr", t1, alo, Imm(k)))
                    self.emit(Alu("shl", t2, ahi, Imm(32 - k)))
                    self.emit(Alu("or", dlo, t1, t2))
                    self.emit(Alu("lshr", dhi, ahi, Imm(k)))
            return
        if op in ("shl", "lshr"):
            # Dynamic 64-bit shift: branch on amount >= 32.
            ahi, alo = self.pair(instr.a)
            amount = self.reg32(instr.b)
            k = self.vreg("sh64")
            self.emit(Alu("and", k, amount, Imm(63)))
            big_l = self.label("sh64big")
            done_l = self.label("sh64done")
            self.emit(Cmp(k, Imm(32)))
            self.emit(Br("ge_u", big_l))
            # k < 32: funnel between the halves (guard k == 0).
            inv = self.vreg()
            self.emit(Alu("sub", inv, Imm(32), k))
            if op == "lshr":
                t1 = self.vreg()
                self.emit(Alu("lshr", t1, alo, k))
                t2 = self.vreg()
                self.emit(Alu("shl", t2, ahi, inv))
            else:
                t1 = self.vreg()
                self.emit(Alu("shl", t1, ahi, k))
                t2 = self.vreg()
                self.emit(Alu("lshr", t2, alo, inv))
            nz_l = self.label("sh64nz")
            self.emit(Cmp(k, Imm(0)))
            self.emit(Br("ne", nz_l))
            self.emit(Immed(t2, 0))
            self.new_block(nz_l)
            if op == "lshr":
                self.emit(Alu("or", dlo, t1, t2))
                self.emit(Alu("lshr", dhi, ahi, k))
            else:
                self.emit(Alu("or", dhi, t1, t2))
                self.emit(Alu("shl", dlo, alo, k))
            self.emit(Br("always", done_l))
            self.new_block(big_l)
            kk = self.vreg()
            self.emit(Alu("sub", kk, k, Imm(32)))
            if op == "lshr":
                self.emit(Alu("lshr", dlo, ahi, kk))
                self.emit(Immed(dhi, 0))
            else:
                self.emit(Alu("shl", dhi, alo, kk))
                self.emit(Immed(dlo, 0))
            self.new_block(done_l)
            return
        if op in ("add", "sub"):
            ahi, alo = self.pair(instr.a)
            bhi, blo = self.pair(instr.b)
            carry = self.vreg("carry")
            lo_tmp = self.vreg("lo64")
            self.emit(Alu(op, lo_tmp, alo, blo))
            # carry/borrow via an unsigned compare + branch.
            self.emit(Immed(carry, 0))
            done = self.label("carry")
            ref = alo if op == "add" else blo
            self.emit(Cmp(lo_tmp if op == "add" else alo,
                          alo if op == "add" else blo))
            self.emit(Br("ge_u" if op == "add" else "ge_u", done))
            self.emit(Immed(carry, 1))
            self.new_block(done)
            hi_tmp = self.vreg("hi64")
            self.emit(Alu(op, hi_tmp, ahi, bhi))
            self.emit(Alu(op, dhi, hi_tmp, carry))
            self.emit(Mov(dlo, lo_tmp))
            return
        raise CodegenError("64-bit %s is not supported by the ME code generator" % op)

    def _lower_cmp_value(self, instr: I.Cmp) -> None:
        dst = self.dst32(instr.dst)
        true_l = self.label("cmpt")
        self.emit(Immed(dst, 1))
        done_l = self.label("cmpd")
        set0_l = self.label("cmpf")
        self.emit_cmp_branch(instr.op, instr.a, instr.b, done_l, set0_l)
        self.new_block(set0_l)
        self.emit(Immed(dst, 0))
        self.new_block(done_l)

    def _lower_call(self, instr: I.Call) -> None:
        shared_ph = self.pkt.escape(instr)
        values = [r for arg in instr.args for r in self.words(arg, _is64(arg))]
        for slot, value in enumerate(values):
            self.emit(Mov(abi.ARG_REGS[slot], value))
        target = LIRFunction(instr.func).entry_label
        self.emit(Bal(target, abi.LINK, arg_regs=abi.ARG_REGS[:len(values)],
                      ret_regs=[abi.RET_LO, abi.RET_HI]))
        if instr.dst is not None:
            regs = self.dst_words(instr.dst, _is64(instr.dst))
            for reg, result in zip(regs, _RESULT_REGS[-len(regs):]):
                self.emit(Mov(reg, result))
        if shared_ph is not None:
            self.pkt.reload(shared_ph)

    # -- memory ------------------------------------------------------------------------

    def _lower_global(self, instr: Union[I.LoadG, I.StoreG, I.LoadGWords]) -> None:
        """One SRAM/Scratch access of a global: a 32- or 64-bit load or
        store, or PAC's wide load."""
        space = self.ctx.global_space(instr.g)
        addr_a, addr_b = self.global_addr(instr.g, instr.offset)
        if isinstance(instr, I.StoreG):
            rw, regs = "write", self.words(instr.value, instr.width == 8)
        elif isinstance(instr, I.LoadG):
            rw, regs = "read", self.dst_words(instr.dst, instr.width == 8)
        else:
            rw, regs = "read", [self.dst32(d) for d in instr.dsts]
        self.emit(Mem(space, rw, regs, addr_a, addr_b, len(regs),
                      category=isa.CAT_APP))

    def _lower_local(self, instr: Union[I.LoadL, I.StoreL]) -> None:
        """A 32- or 64-bit load or store of a stack-local array: one frame
        slot per word, the second one slot further."""
        base = self.array_base[instr.array]
        if isinstance(instr.offset, Const):
            slot, idx = base + instr.offset.value // 4, None
        else:
            slot, idx = base, self.vreg("aidx")
            self.emit(Alu("lshr", idx, self.reg32(instr.offset), Imm(2)))
        store = isinstance(instr, I.StoreL)
        regs = (self.words(instr.value, instr.width == 8) if store
                else self.dst_words(instr.dst, instr.width == 8))
        for k, reg in enumerate(regs):
            at, index = slot + k, idx
            if k and idx is not None:
                at, index = slot, self.vreg()
                self.emit(Alu("add", index, idx, Imm(1)))
            self.emit(StackWrite(at, reg, index) if store else StackRead(reg, at, index))

    def _lower_lm(self, instr, read: bool) -> None:
        offset = SWC_REGION_BASE + instr.index.value  # SWC's words are constant
        if read:
            self.emit(isa.LmRead(self.dst32(instr.dst), None, offset))
        else:
            self.emit(isa.LmWrite(None, offset, self.reg32(instr.value)))

    def _lower_load_resident(self, instr: I.LoadResident) -> None:
        """One indexed ``lm_read`` per word: the index in the base
        register, the replica and the constant word in the offset."""
        offset = SWC_REGION_BASE + instr.replica + instr.word
        base = None
        if isinstance(instr.index, Const):
            offset += instr.index.value
        else:
            base = self.reg32(instr.index)
        for k, reg in enumerate(self.dst_words(instr.dst, instr.width == 8)):
            self.emit(isa.LmRead(reg, base, offset + k))

    def _lower_lm_fill(self, instr: I.LmFill) -> None:
        """A loop of widest (8-word) reads of the global, each word
        written to the replica, then one read for the words left over."""
        space = self.ctx.global_space(instr.g)
        replica = SWC_REGION_BASE + instr.replica
        chunks, rest = divmod(instr.words, LM_FILL_WORDS)
        if chunks:
            word = self.materialize(0, "fillw")
            top = self.label("lmfill")
            self.new_block(top)
            off = self.vreg("filloff")
            self.emit(Alu("shl", off, word, Imm(2)))
            base = self.vreg("gaddr")
            self.emit(LoadSym(base, self.ctx.global_sym(instr.g)))
            vals = [self.vreg("fill") for _ in range(LM_FILL_WORDS)]
            self.emit(Mem(space, "read", vals, base, off, LM_FILL_WORDS,
                          category=isa.CAT_APP))
            for k, val in enumerate(vals):
                self.emit(isa.LmWrite(word, replica + k, val))
            self.emit(Alu("add", word, word, Imm(LM_FILL_WORDS)))
            end = chunks * LM_FILL_WORDS
            self.emit(Cmp(word, Imm(end) if end <= MAX_ALU_IMM
                          else self.materialize(end)))
            self.emit(Br("lt_u", top))
            self.new_block(hint="lmfilled")
        if rest:
            done = chunks * LM_FILL_WORDS
            base = self.vreg("gaddr")
            self.emit(LoadSym(base, self.ctx.global_sym(instr.g, done * 4)))
            vals = [self.vreg("fill") for _ in range(rest)]
            self.emit(Mem(space, "read", vals, base, Imm(0), rest,
                          category=isa.CAT_APP))
            for k, val in enumerate(vals):
                self.emit(isa.LmWrite(None, replica + done + k, val))

    # -- locks ------------------------------------------------------------------------

    def _lock_addr(self, lock: str) -> VReg:
        r = self.vreg("lock")
        self.emit(LoadSym(r, self.ctx.lock_sym(lock)))
        return r

    def _lower_lock_acquire(self, instr: I.LockAcquire) -> None:
        self.pkt.escape(instr)
        spin = self.label("lockspin")
        got = self.label("lockgot")
        addr = self._lock_addr(instr.lock)
        self.new_block(spin)
        t = self.vreg("tas")
        self.emit(TestAndSet(t, addr))
        self.emit(Cmp(t, Imm(0)))
        self.emit(Br("eq", got))
        self.emit(CtxArb())
        self.emit(Br("always", spin))
        self.new_block(got)


# pktlower builds its helpers with an Emitter, so it imports this module.
from repro.cg import pktlower  # noqa: E402


def lower_function(ctx: LowerContext, ir_fn: IRFunction) -> LIRFunction:
    """Lower one IR function to LIR (virtual registers)."""
    return FunctionLowerer(ctx, ir_fn).lower()
