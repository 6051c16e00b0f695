"""The target instruction set: a faithful-in-spirit model of the IXP2400
microengine (MEv2) ISA.

The code generator emits these instruction objects with *virtual*
registers; register allocation rewrites them to *physical* registers
(two banks of 16 GPRs per thread -- an ALU instruction with two register
sources must take one from each bank); the assembler resolves labels and
checks the 4096-instruction control store limit. The simulator executes
the same objects directly -- there is no binary encoding, but each
instruction knows its control-store ``size`` and issue ``cycles`` so
code-store pressure and execution time are modeled honestly.

Simplifications relative to real MEv2 (documented in DESIGN.md):

* transfer registers are not allocated separately -- memory operations
  read/write GPRs directly; the extra xfer-to-GPR moves are folded into
  the instruction-count constants used by the packet-access lowering;
* ``immed`` of a >16-bit constant occupies 2 control-store words (like
  the real immed / immed_w1 pair) but is one object;
* branches take a 1-cycle taken penalty (the real pipeline aborts 1-3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

# -- registers -------------------------------------------------------------------

N_PER_BANK = 16


class VReg:
    """Virtual register (32-bit)."""

    __slots__ = ("id", "hint")
    _next = 0

    def __init__(self, hint: str = ""):
        self.id = VReg._next
        VReg._next += 1
        self.hint = hint

    def __repr__(self) -> str:
        return "v%d%s" % (self.id, ("<%s>" % self.hint) if self.hint else "")


@dataclass(frozen=True)
class PReg:
    """Physical GPR: bank 'a' or 'b', index 0..15."""

    bank: str
    index: int

    def __repr__(self) -> str:
        return "%s%d" % (self.bank, self.index)


@dataclass(frozen=True)
class Imm:
    value: int

    def __repr__(self) -> str:
        return "#%d" % self.value if 0 <= self.value < 4096 else "#%#x" % (self.value & 0xFFFFFFFF)


@dataclass(frozen=True)
class SymRef:
    """Link-time address of a global / lock / ring (resolved by the loader)."""

    name: str
    addend: int = 0

    def __repr__(self) -> str:
        if self.addend:
            return "&%s+%d" % (self.name, self.addend)
        return "&%s" % self.name


Reg = Union[VReg, PReg]
Operand = Union[VReg, PReg, Imm, SymRef]

ALU_OPS = ("add", "sub", "and", "or", "xor", "shl", "lshr", "ashr", "mul")
BR_CONDS = ("always", "eq", "ne", "lt_u", "le_u", "gt_u", "ge_u",
            "lt_s", "le_s", "gt_s", "ge_s")
SPACES = ("scratch", "sram", "dram")

# Memory-access categories for the Table-1 accounting.
CAT_PACKET = "pkt"  # packet data (DRAM) / packet metadata (SRAM) / rings
CAT_APP = "app"  # application globals, locks, stack overflow


class Insn:
    """Base instruction. ``size`` = control-store words; ``cycles`` =
    issue cycles charged by the simulator (memory wait time is separate).
    ``kind`` is the stable decode tag the simulator's predecode stage
    keys its step compilers on (:mod:`repro.ixp.predecode`); pseudo
    instructions that never reach the simulator leave it ``None``."""

    size = 1
    cycles = 1
    kind: Optional[str] = None
    _reads: Sequence[str] = ()
    _writes: Sequence[str] = ()

    def reads(self) -> List[Operand]:
        out: List[Operand] = []
        for attr in self._reads:
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                out.extend(v)
            else:
                out.append(v)
        return out

    def writes(self) -> List[Reg]:
        out: List[Reg] = []
        for attr in self._writes:
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                out.extend(v)
            else:
                out.append(v)
        return out

    def map_regs(self, fn) -> None:
        """Apply ``fn`` to every register operand (for regalloc rewrite)."""
        for attr in list(self._reads) + list(self._writes):
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                setattr(self, attr, [fn(x) if isinstance(x, (VReg, PReg)) else x for x in v])
            elif isinstance(v, (VReg, PReg)):
                setattr(self, attr, fn(v))

    def __repr__(self) -> str:
        from repro.cg.asmprint import format_insn

        return format_insn(self)


class Alu(Insn):
    kind = "alu"
    _reads = ("a", "b")
    _writes = ("dst",)

    def __init__(self, op: str, dst: Reg, a: Operand, b: Operand):
        assert op in ALU_OPS, op
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b

    @property
    def cycles(self) -> int:  # type: ignore[override]
        return 5 if self.op == "mul" else 1  # mul is a multi-step op on MEv2


class Immed(Insn):
    """Load a 32-bit constant (2 control-store words when >16 bits)."""
    kind = "immed"

    _writes = ("dst",)

    def __init__(self, dst: Reg, value: int):
        self.dst = dst
        self.value = value & 0xFFFFFFFF

    @property
    def size(self) -> int:  # type: ignore[override]
        return 1 if self.value < 0x10000 else 2

    @property
    def cycles(self) -> int:  # type: ignore[override]
        return self.size


class LoadSym(Insn):
    """Load a link-time symbol address. Two control-store words (the
    address is not known to fit 16 bits)."""
    kind = "loadsym"

    size = 2
    cycles = 2
    _writes = ("dst",)

    def __init__(self, dst: Reg, sym: SymRef):
        self.dst = dst
        self.sym = sym


class Mov(Insn):
    kind = "mov"
    _reads = ("src",)
    _writes = ("dst",)

    def __init__(self, dst: Reg, src: Operand):
        self.dst = dst
        self.src = src


class Cmp(Insn):
    """ALU compare: sets the thread's condition state to (a - b)."""
    kind = "cmp"

    _reads = ("a", "b")

    def __init__(self, a: Operand, b: Operand):
        self.a = a
        self.b = b


class Br(Insn):
    kind = "br"
    _reads = ()

    def __init__(self, cond: str, target: str):
        assert cond in BR_CONDS, cond
        self.cond = cond
        self.target = target
        self.resolved: Optional[int] = None  # instruction index after assembly


class Bal(Insn):
    """Branch and link: save the return index into ``link`` and jump.

    ``arg_regs`` are the ABI registers the callee consumes (reads, so
    nothing may clobber them between the argument moves and the call);
    ``ret_regs`` are the ABI result registers the call defines."""
    kind = "bal"

    _reads = ("arg_regs",)
    _writes = ("link", "ret_regs")

    def __init__(self, target: str, link: Reg, arg_regs: Optional[List[Reg]] = None,
                 ret_regs: Optional[List[Reg]] = None):
        self.target = target
        self.link = link
        self.arg_regs: List[Reg] = list(arg_regs or [])
        self.ret_regs: List[Reg] = list(ret_regs or [])
        self.resolved: Optional[int] = None


class Rtn(Insn):
    """Indirect jump through a register (function return). ``result_regs``
    keeps the ABI return registers live through the jump."""
    kind = "rtn"

    _reads = ("addr", "result_regs")

    def __init__(self, addr: Operand, result_regs: Optional[List[Reg]] = None):
        self.addr = addr
        self.result_regs: List[Reg] = list(result_regs or [])


class Mem(Insn):
    """A scratch/SRAM/DRAM reference. ``units`` counts words for scratch
    and SRAM (1..8 words = 4..32 B) and quadwords for DRAM (1..8 = 8..64
    B). ``regs`` receives (read) or supplies (write) one 32-bit register
    per *word* moved. ``byte_mask`` (writes only) enables partial-byte
    writes within the transfer. The issuing thread always swaps out until
    completion (``ctx_swap``), which is how IXP code hides latency."""
    kind = "mem"

    _reads = ("addr_a", "addr_b", "regs_in", "mask_reg")
    _writes = ("regs_out",)

    def __init__(self, space: str, rw: str, regs: List[Reg], addr_a: Operand,
                 addr_b: Operand, units: int, category: str = CAT_APP,
                 byte_mask=None):
        assert space in SPACES and rw in ("read", "write")
        words = units * 2 if space == "dram" else units
        assert 1 <= units <= 8
        assert len(regs) == words, (space, units, len(regs))
        regs = list(regs)  # the caller may go on to rebind its list's slots
        self.space = space
        self.rw = rw
        self.addr_a = addr_a
        self.addr_b = addr_b
        self.units = units
        self.category = category
        # Static masks stay integers; dynamic masks (indirect_ref on real
        # hardware) are a register operand.
        if byte_mask is None or isinstance(byte_mask, int):
            self.byte_mask: Optional[int] = byte_mask
            self.mask_reg = None
        else:
            self.byte_mask = None
            self.mask_reg = byte_mask
        if rw == "read":
            self.regs_out = regs
            self.regs_in: List[Reg] = []
        else:
            self.regs_in = regs
            self.regs_out = []

    @property
    def regs(self) -> List[Reg]:
        return self.regs_out if self.rw == "read" else self.regs_in

    @property
    def words(self) -> int:
        return self.units * 2 if self.space == "dram" else self.units


class RingGet(Insn):
    """Pop one word from a scratch ring; 0 if the ring is empty."""
    kind = "ring_get"

    _writes = ("dst",)

    def __init__(self, dst: Reg, ring: SymRef, category: str = CAT_PACKET):
        self.dst = dst
        self.ring = ring
        self.category = category


class RingPut(Insn):
    kind = "ring_put"
    _reads = ("src",)

    def __init__(self, ring: SymRef, src: Operand, category: str = CAT_PACKET):
        self.ring = ring
        self.src = src
        self.category = category


class TestAndSet(Insn):
    """Atomic scratch test-and-set (returns the previous value)."""
    kind = "tas"

    _reads = ("addr_a",)
    _writes = ("dst",)

    def __init__(self, dst: Reg, addr_a: Operand):
        self.dst = dst
        self.addr_a = addr_a


class AtomicRelease(Insn):
    """Scratch atomic write of zero (lock release)."""
    kind = "release"

    _reads = ("addr_a",)

    def __init__(self, addr_a: Operand):
        self.addr_a = addr_a


class LmRead(Insn):
    """Local Memory read. With a constant index (``base`` None) this is
    offset-addressed and single-cycle; an indexed access costs the
    3-cycle LM pointer latency. ``thread_rel`` makes the address relative
    to the thread's private LM window (the per-context LM_ADDR CSR set at
    boot) -- that is how stack frames are addressed."""
    kind = "lm_read"

    _reads = ("base",)
    _writes = ("dst",)

    def __init__(self, dst: Reg, base: Optional[Operand], offset: int,
                 thread_rel: bool = False):
        self.dst = dst
        self.base = base
        self.offset = offset
        self.thread_rel = thread_rel

    @property
    def cycles(self) -> int:  # type: ignore[override]
        return 1 if self.base is None else 3


class LmWrite(Insn):
    kind = "lm_write"
    _reads = ("base", "src")

    def __init__(self, base: Optional[Operand], offset: int, src: Operand,
                 thread_rel: bool = False):
        self.base = base
        self.offset = offset
        self.src = src
        self.thread_rel = thread_rel

    @property
    def cycles(self) -> int:  # type: ignore[override]
        return 1 if self.base is None else 3


class ThreadStackAddr(Insn):
    """Materialize this thread's SRAM stack-overflow base address (a
    local_csr read plus address arithmetic)."""
    kind = "thread_stack_addr"

    size = 2
    cycles = 2
    _writes = ("dst",)

    def __init__(self, dst: Reg):
        self.dst = dst


class CtxArb(Insn):
    """Voluntarily yield to the next ready thread."""
    kind = "ctx_arb"


class Halt(Insn):
    kind = "halt"
    pass


# -- containers ----------------------------------------------------------------------


class LIRBlock:
    def __init__(self, label: str):
        self.label = label
        self.insns: List[Insn] = []

    def emit(self, insn: Insn) -> Insn:
        self.insns.append(insn)
        return insn


class LIRFunction:
    """One function in LIR form. Blocks execute in list order with
    explicit branches; fallthrough to the next block is implicit."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: List[LIRBlock] = []
        self.frame_slots = 0  # stack words (assigned by regalloc/lowering)
        self.entry_label = "%s__entry" % _mangle(name)

    def new_block(self, label: str) -> LIRBlock:
        bb = LIRBlock(label)
        self.blocks.append(bb)
        return bb

    def all_insns(self):
        for bb in self.blocks:
            yield from bb.insns


def _mangle(name: str) -> str:
    return name.replace(".", "_").replace("<", "_").replace(">", "_")


# Pseudo-instructions resolved by the stack layout stage -----------------------------


class StackRead(Insn):
    """Read a 32-bit stack slot of the current function's frame. The
    stack layout stage turns this into an offset-addressed LmRead (fast)
    or an SRAM access (overflow)."""

    _reads = ("index",)
    _writes = ("dst",)

    def __init__(self, dst: Reg, slot: int, index: Optional[Operand] = None):
        self.dst = dst
        self.slot = slot  # word offset within the frame
        self.index = index  # optional dynamic word index (local arrays)


class StackWrite(Insn):
    _reads = ("index", "src")

    def __init__(self, slot: int, src: Operand, index: Optional[Operand] = None):
        self.slot = slot
        self.src = src
        self.index = index
