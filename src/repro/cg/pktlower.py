"""Packet-primitive lowering: IR packet instructions -> ME code.

Three code shapes, matching the paper's cost discussion (section 5.3):

* **generic** -- the handle's head offset is unknown at compile time: read
  the packet metadata (SRAM) for ``buf``/``head``, compute a dynamic DRAM
  address, read a 16 B window and extract with *dynamic* shifts (the
  ``38 + 5*words``-instruction path);
* **static** (SOAR resolved) -- the absolute offset is a compile-time
  constant: one metadata word (``buf``), constant address arithmetic and
  constant-shift extraction;
* **wide** (PAC) -- ``PktLoadWords``/``PktStoreWords`` move many words per
  DRAM instruction; byte-masked writes avoid read-modify-write.

At BASE/-O1 (``opts.inline`` false) the generic field access and
head-movement sequences are emitted once as shared out-of-line helper
routines and called via ``bal`` -- these are the "base packet handling
routines" that -O2 inlines.

Where ``buf``/``head``/``len`` come from is a second axis. Under PHR the
PPF parameter's packet keeps them in registers for the whole function
(:class:`PacketRegs`, planned by :func:`repro.opt.phr.plan_packet_state`):
one metadata read at entry, head movement is ALU work, and SRAM sees
head/len again only at the escape sites the plan marks. Every other
packet (created, copied, a support function's parameter) and every other
level reads them from SRAM, memoized per basic block (``meta_memo``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.baker.packetmodel import (
    HEADROOM_BYTES,
    META_BUF_ADDR,
    META_HEAD_OFF,
    META_PKT_LEN,
    META_RX_PORT,
    META_USER_BASE,
)
from repro.cg import abi
from repro.cg import isa
from repro.cg.isa import (
    Alu, Bal, Br, Cmp, Imm, Immed, LIRFunction, Mem, Mov, RingGet, RingPut,
    Rtn, SymRef, VReg,
)
from repro.ir import instructions as I
from repro.ir.values import Const, Operand, Temp

PKT = isa.CAT_PACKET

# Test-only fault injection (tests/test_analyze_mutations.py): when set
# to "skip_writeback", a moved head/len stays in registers at escape
# sites -- whoever reads the packet's metadata next sees the stale words;
# when set to "meta_store_dropped", stores to user metadata words emit
# nothing. Never set outside tests.
_TEST_MUTATION = None


# ---------------------------------------------------------------------------
# Emitter interface: FunctionLowerer provides these; HelperBuilder mirrors it
# so the same emission code builds both inline sequences and helper bodies.
# ---------------------------------------------------------------------------


class HelperBuilder:
    """Builds an out-of-line helper routine (leaf, bal/rtn convention)."""

    def __init__(self, name: str):
        self.fn = LIRFunction(name)
        self.cur = self.fn.new_block(self.fn.entry_label)
        self._label_n = 0

    def vreg(self, hint: str = "") -> VReg:
        return VReg(hint)

    def emit(self, insn):
        return self.cur.emit(insn)

    def label(self, hint: str) -> str:
        self._label_n += 1
        return "%s__%s%d" % (self.fn.entry_label, hint, self._label_n)

    def new_block(self, label: Optional[str] = None, hint: str = "l"):
        from repro.cg.isa import LIRBlock

        bb = LIRBlock(label or self.label(hint))
        blocks = self.fn.blocks
        if self.cur is not None and self.cur in blocks:
            blocks.insert(blocks.index(self.cur) + 1, bb)
        else:
            blocks.append(bb)
        self.cur = bb
        return bb

    def materialize(self, value: int, hint: str = "c") -> VReg:
        r = self.vreg(hint)
        self.emit(Immed(r, value & 0xFFFFFFFF))
        return r


# -- dispatch --------------------------------------------------------------------


def lower_packet_instr(fl, instr: I.PktInstr) -> None:
    """Entry point called by the function lowerer."""
    if isinstance(instr, I.MetaLoad):
        regs = _regs(fl, instr.ph)
        if regs is not None and regs.rx_port is not None \
                and instr.word == META_RX_PORT:
            fl.emit(Mov(fl.dst32(instr.dst), regs.rx_port))
        else:
            _meta_word_read(fl, fl.reg32(instr.ph), instr.word, fl.dst32(instr.dst))
    elif isinstance(instr, I.MetaStore):
        _meta_word_write(fl, fl.reg32(instr.ph), instr.word, fl.reg32(instr.value))
    elif isinstance(instr, I.PktLength):
        regs = _regs(fl, instr.ph)
        if regs is not None:
            fl.emit(Mov(fl.dst32(instr.dst), regs.length))
        else:
            _meta_word_read(fl, fl.reg32(instr.ph), META_PKT_LEN, fl.dst32(instr.dst))
    elif isinstance(instr, I.PktLoadField):
        _lower_field_load(fl, instr)
    elif isinstance(instr, I.PktStoreField):
        _lower_field_store(fl, instr)
    elif isinstance(instr, I.PktLoadWords):
        _lower_wide_load(fl, instr)
    elif isinstance(instr, I.PktStoreWords):
        _lower_wide_store(fl, instr)
    elif isinstance(instr, (I.PktEncap, I.PktDecap)):
        _lower_headmove(fl, instr)
    elif isinstance(instr, I.PktSyncHead):
        _emit_headmove(
            fl, instr.ph,
            Imm(instr.delta_bytes & 0xFFFFFFFF)
            if 0 <= instr.delta_bytes <= 0xFF
            else fl.materialize(instr.delta_bytes & 0xFFFFFFFF))
    elif isinstance(instr, I.PktAdjust):
        _lower_adjust(fl, instr)
    elif isinstance(instr, I.PktDrop):
        _lower_drop(fl, instr)
    elif isinstance(instr, I.PktCreate):
        _lower_create(fl, instr)
    elif isinstance(instr, I.PktCopy):
        _lower_copy(fl, instr)
    else:  # pragma: no cover
        raise NotImplementedError(type(instr).__name__)


# -- register-resident packet state (PHR) -----------------------------------------


class PacketRegs(NamedTuple):
    """The PPF parameter's metadata words, in registers that hold the
    packet's state for the whole function."""

    cls: Temp  # the parameter's alias class
    buf: VReg
    head: VReg
    length: VReg
    rx_port: Optional[VReg]
    # escape instruction -> (handle it passes on, head/len may be newer
    # than SRAM there); see repro.opt.phr.PacketStatePlan.
    escapes: Dict[I.Instr, Tuple[Temp, bool]]

    def mutable_words(self) -> List[VReg]:
        """Metadata words 1.. in order: what a callee may change."""
        tail = [] if self.rx_port is None else [self.rx_port]
        return [self.head, self.length] + tail


def load_packet_state(fl, cls: Temp) -> PacketRegs:
    """Function entry, after the prologue: the one metadata read of the
    function's plan, for the parameter's alias class ``cls``. It is
    addressed through the argument register, which still holds the
    handle: the parameter's own register may already be spilled under
    pressure (l3switch), and the read would wait for its reload."""
    plan = fl.ir_fn.packet_state
    regs = PacketRegs(cls, fl.vreg("buf"), fl.vreg("head"), fl.vreg("len"),
                      fl.vreg("rxport") if plan.hoist_rx_port else None,
                      plan.escapes)
    words = [regs.buf] + regs.mutable_words()
    assert len(fl.ir_fn.params) == 1  # a PPF's signature: the packet
    fl.emit(Mem("sram", "read", words, abi.ARG_REGS[0], Imm(META_BUF_ADDR * 4),
                len(words), category=PKT))
    fl.persistent_buf[cls] = regs.buf
    return regs


def _regs(fl, ph: Operand) -> Optional[PacketRegs]:
    """The register-resident state ``ph`` refers to, if it does."""
    regs = fl.pkt_regs
    if regs is not None and isinstance(ph, Temp) \
            and fl.aliases.class_of(ph) is regs.cls:
        return regs
    return None


def writeback_state(fl, instr: I.Instr) -> Optional[Temp]:
    """``instr`` lets someone else read the packet's metadata (a
    channel's consumer, ``packet_copy``, a callee): store head/len first
    if a head movement can reach here unstored. Returns the handle when
    the packet is the register-resident one."""
    regs = fl.pkt_regs
    if regs is None or instr not in regs.escapes:
        return None
    ph, dirty = regs.escapes[instr]
    if dirty and _TEST_MUTATION != "skip_writeback":
        fl.emit(Mem("sram", "write", [regs.head, regs.length], fl.reg32(ph),
                    Imm(META_HEAD_OFF * 4), 2, category=PKT))
    return ph


def reload_state(fl, ph: Temp) -> None:
    """A callee that was handed the packet has returned: it worked on
    SRAM and may have moved the head."""
    words = fl.pkt_regs.mutable_words()
    fl.emit(Mem("sram", "read", words, fl.reg32(ph), Imm(META_HEAD_OFF * 4),
                len(words), category=PKT))


# -- metadata access with per-block memoization ----------------------------------


def _memo_key(fl, ph: Operand, what: str):
    if isinstance(ph, Temp):
        return (fl.aliases.class_of(ph), what)
    return (id(ph), what)


def _meta_word_read(fl, ph_reg, word: int, dst) -> None:
    fl.emit(Mem("sram", "read", [dst], ph_reg, Imm(word * 4), 1, category=PKT))


def _meta_word_write(fl, ph_reg, word: int, src) -> None:
    if _TEST_MUTATION == "meta_store_dropped" and word >= META_USER_BASE:
        return
    fl.emit(Mem("sram", "write", [src], ph_reg, Imm(word * 4), 1, category=PKT))


def _get_buf(fl, instr) -> VReg:
    ph = instr.ph if hasattr(instr, "ph") else instr.src
    if isinstance(ph, Temp):
        persistent = fl.persistent_buf.get(fl.aliases.class_of(ph))
        if persistent is not None:
            return persistent
    key = _memo_key(fl, ph, "buf")
    cached = fl.meta_memo.get(key)
    if cached is not None:
        return cached
    buf = fl.vreg("buf")
    _meta_word_read(fl, fl.reg32(ph), META_BUF_ADDR, buf)
    fl.meta_memo[key] = buf
    return buf


def _get_buf_head(fl, instr) -> Tuple[VReg, VReg]:
    ph = instr.ph if hasattr(instr, "ph") else instr.src
    regs = _regs(fl, ph)
    if regs is not None:
        return regs.buf, regs.head
    bkey = _memo_key(fl, ph, "buf")
    hkey = _memo_key(fl, ph, "head")
    buf = fl.meta_memo.get(bkey)
    if buf is None and isinstance(ph, Temp):
        buf = fl.persistent_buf.get(fl.aliases.class_of(ph))
    head = fl.meta_memo.get(hkey)
    if buf is not None and head is not None:
        return buf, head
    if buf is not None:
        head = fl.vreg("head")
        _meta_word_read(fl, fl.reg32(ph), META_HEAD_OFF, head)
        fl.meta_memo[hkey] = head
        return buf, head
    if head is not None:
        buf = fl.vreg("buf")
        _meta_word_read(fl, fl.reg32(ph), META_BUF_ADDR, buf)
        fl.meta_memo[bkey] = buf
        return buf, head
    buf, head = _read_buf_head(fl, fl.reg32(ph))
    fl.meta_memo[bkey] = buf
    fl.meta_memo[hkey] = head
    return buf, head


def _read_buf_head(E, ph_reg) -> Tuple[VReg, VReg]:
    buf = E.vreg("buf")
    head = E.vreg("head")
    E.emit(Mem("sram", "read", [buf, head], ph_reg, Imm(0), 2, category=PKT))
    return buf, head


def _private_buf_head(fl, ph: Operand) -> Tuple[VReg, VReg]:
    """buf/head for an inlined generic field access: the register-resident
    state, else a read of its own (these bodies never shared the memo)."""
    regs = _regs(fl, ph)
    if regs is not None:
        return regs.buf, regs.head
    return _read_buf_head(fl, fl.reg32(ph))


def _is_static(fl, instr) -> bool:
    return fl.ctx.opts.soar and getattr(instr, "c_offset_bits", None) is not None


# -- constant-shift extraction from a word window ----------------------------------


def _extract_const32(E, window: List[VReg], rel_bit: int, width: int, dst) -> None:
    """dst = ``width``(<=32) bits of the window starting at ``rel_bit``."""
    wi = rel_bit // 32
    sh = rel_bit % 32
    if sh == 0:
        aligned = window[wi]
    elif sh + width <= 32:
        aligned = window[wi]
    else:
        t1 = E.vreg()
        E.emit(Alu("shl", t1, window[wi], Imm(sh)))
        t2 = E.vreg()
        E.emit(Alu("lshr", t2, window[wi + 1], Imm(32 - sh)))
        aligned = E.vreg()
        E.emit(Alu("or", aligned, t1, t2))
        sh = 0
    # aligned holds the field starting at bit `sh`.
    right = 32 - sh - width
    if right == 0 and width == 32:
        E.emit(Mov(dst, aligned))
        return
    if right:
        t = E.vreg()
        E.emit(Alu("lshr", t, aligned, Imm(right)))
        aligned = t
    if width < 32:
        mask = (1 << width) - 1
        m = Imm(mask) if mask <= 0xFF else E.materialize(mask, "mask")
        E.emit(Alu("and", dst, aligned, m))
    else:
        E.emit(Mov(dst, aligned))


def _extract_const64(E, window: List[VReg], rel_bit: int, width: int,
                     dst_hi, dst_lo) -> None:
    _extract_const32(E, window, rel_bit + width - 32, 32, dst_lo)
    _extract_const32(E, window, rel_bit, width - 32, dst_hi)


# -- static (SOAR-resolved) data access ---------------------------------------------


def _static_window_read(fl, instr, abs_bit: int, width: int) -> Tuple[List[VReg], int]:
    """Read the 8B-aligned DRAM window covering [abs_bit, abs_bit+width).
    Returns (window words, rel_bit of abs_bit within the window). The
    absolute offset is relative to packet-data start; the buffer address
    is 2 KiB aligned so alignment folds into constants. Encapsulation can
    move the head *before* data start (into the headroom), so addresses
    are biased by HEADROOM_BYTES."""
    abs_bit += HEADROOM_BYTES * 8
    first_byte = (abs_bit // 8) & ~7
    last_byte = (abs_bit + width - 1) // 8
    units = (last_byte - first_byte) // 8 + 1
    buf = _get_buf(fl, instr)
    window = [fl.vreg("w%d" % i) for i in range(units * 2)]
    # A DRAM instruction moves at most 8 quadwords; split larger windows.
    done = 0
    while done < units:
        chunk = min(8, units - done)
        fl.emit(Mem("dram", "read", window[done * 2 : (done + chunk) * 2], buf,
                    Imm(first_byte + done * 8), chunk, category=PKT))
        done += chunk
    return window, abs_bit - first_byte * 8


def _static_field_load(fl, instr: I.PktLoadField) -> None:
    abs_bit = instr.c_offset_bits + instr.bit_off
    window, rel = _static_window_read(fl, instr, abs_bit, instr.bit_width)
    if instr.bit_width > 32:
        hi, lo = fl.dst_pair(instr.dst)
        _extract_const64(fl, window, rel, instr.bit_width, hi, lo)
    else:
        _extract_const32(fl, window, rel, instr.bit_width, fl.dst32(instr.dst))


# -- generic (dynamic-offset) data access --------------------------------------------


def _generic_addr(E, buf, head, f_byte: int) -> VReg:
    """A = buf + head + f_byte + HEADROOM bias folded into head by Rx."""
    t = E.vreg("A")
    E.emit(Alu("add", t, buf, head))
    if f_byte:
        t2 = E.vreg("A")
        E.emit(Alu("add", t2, t, Imm(f_byte) if f_byte <= 0xFF
                   else E.materialize(f_byte)))
        return t2
    return t


def _generic_window_read(E, addr: VReg) -> Tuple[List[VReg], VReg, VReg]:
    """Read the 16 B window at addr&~7; returns (w0..w3, woff, bitpos)
    where woff = (addr>>2)&1 and bitpos = (addr&3)*8."""
    base = E.vreg("base")
    t = E.vreg()
    E.emit(Alu("lshr", t, addr, Imm(3)))
    E.emit(Alu("shl", base, t, Imm(3)))
    window = [E.vreg("gw%d" % i) for i in range(4)]
    E.emit(Mem("dram", "read", window, base, Imm(0), 2, category=PKT))
    woff = E.vreg("woff")
    t2 = E.vreg()
    E.emit(Alu("lshr", t2, addr, Imm(2)))
    E.emit(Alu("and", woff, t2, Imm(1)))
    bitpos = E.vreg("bitpos")
    t3 = E.vreg()
    E.emit(Alu("and", t3, addr, Imm(3)))
    E.emit(Alu("shl", bitpos, t3, Imm(3)))
    return window, woff, bitpos


def _select_words(E, window: List[VReg], woff: VReg, count: int) -> List[VReg]:
    """p[0..count) = window[woff..woff+count) via a branch (no indexed
    register file on the ME)."""
    picks = [E.vreg("p%d" % i) for i in range(count)]
    l_zero = E.label("sel0")
    l_done = E.label("seld")
    E.emit(Cmp(woff, Imm(0)))
    E.emit(Br("eq", l_zero))
    for i in range(count):
        E.emit(Mov(picks[i], window[i + 1]))
    E.emit(Br("always", l_done))
    E.new_block(l_zero)
    for i in range(count):
        E.emit(Mov(picks[i], window[i]))
    E.new_block(l_done)
    return picks


def _dyn_funnel(E, w0: VReg, w1: VReg, shift: VReg) -> VReg:
    """(w0 << shift) | (w1 >> (32-shift)), correct for shift == 0."""
    hi = E.vreg()
    E.emit(Alu("shl", hi, w0, shift))
    rsh = E.vreg()
    E.emit(Alu("sub", rsh, Imm(32), shift))
    lo = E.vreg()
    E.emit(Alu("lshr", lo, w1, rsh))
    l_nz = E.label("fz")
    E.emit(Cmp(shift, Imm(0)))
    E.emit(Br("ne", l_nz))
    E.emit(Immed(lo, 0))
    E.new_block(l_nz)
    out = E.vreg()
    E.emit(Alu("or", out, hi, lo))
    return out


def _generic_load_body(E, buf: VReg, head: VReg, byte_off: Union[VReg, Imm],
                       f_bit: int, width: int,
                       out_lo: VReg, out_hi: Optional[VReg]) -> None:
    """The generic field-load sequence (used inline at -O2+, or as a
    helper body at BASE/-O1). ``byte_off`` is the field's byte offset
    relative to the (dynamic) head."""
    addr = E.vreg("A")
    E.emit(Alu("add", addr, buf, head))
    if not (isinstance(byte_off, Imm) and byte_off.value == 0):
        addr2 = E.vreg("A")
        E.emit(Alu("add", addr2, addr, byte_off))
        addr = addr2
    window, woff, bitpos = _generic_window_read(E, addr)
    if f_bit:
        bp2 = E.vreg("bitpos")
        E.emit(Alu("add", bp2, bitpos, Imm(f_bit)))
        bitpos = bp2
        # f_bit < 8 keeps bitpos < 32, so the funnel still works.
    if width <= 32:
        p = _select_words(E, window, woff, 2)
        v = _dyn_funnel(E, p[0], p[1], bitpos)
        if width < 32:
            t = E.vreg()
            E.emit(Alu("lshr", t, v, Imm(32 - width)))
            E.emit(Mov(out_lo, t))
        else:
            E.emit(Mov(out_lo, v))
        return
    p = _select_words(E, window, woff, 3)
    hi64 = _dyn_funnel(E, p[0], p[1], bitpos)
    lo64 = _dyn_funnel(E, p[1], p[2], bitpos)
    if width == 64:
        E.emit(Mov(out_hi, hi64))
        E.emit(Mov(out_lo, lo64))
        return
    # 33..63 bits: shift the 64-bit value right by (64 - width), constant.
    k = 64 - width
    t1 = E.vreg()
    E.emit(Alu("lshr", t1, lo64, Imm(k)))
    t2 = E.vreg()
    E.emit(Alu("shl", t2, hi64, Imm(32 - k)))
    E.emit(Alu("or", out_lo, t1, t2))
    E.emit(Alu("lshr", out_hi, hi64, Imm(k)))


def _lower_field_load(fl, instr: I.PktLoadField) -> None:
    if _is_static(fl, instr):
        _static_field_load(fl, instr)
        return
    f_byte = instr.bit_off // 8
    f_bit = instr.bit_off % 8
    width = instr.bit_width
    if width > 32:
        out_hi, out_lo = fl.dst_pair(instr.dst)
    else:
        out_hi, out_lo = None, fl.dst32(instr.dst)
    if fl.ctx.opts.inline:
        byte_op = Imm(f_byte) if f_byte <= 0xFF else fl.materialize(f_byte)
        buf, head = _private_buf_head(fl, instr.ph)
        _generic_load_body(fl, buf, head, byte_op, f_bit, width, out_lo, out_hi)
        fl.meta_memo.clear()  # the body used private regs; keep it simple
        return
    # BASE/-O1: call the shared out-of-line helper.
    helper = _field_load_helper(fl.ctx, f_bit, width)
    fl.emit(Mov(abi.ARG_REGS[0], fl.reg32(instr.ph)))
    off = fl.vreg("boff")
    fl.emit(Immed(off, f_byte))
    fl.emit(Mov(abi.ARG_REGS[1], off))
    fl.emit(Bal(helper.entry_label, abi.LINK,
                arg_regs=[abi.ARG_REGS[0], abi.ARG_REGS[1]],
                ret_regs=[abi.RET_LO, abi.RET_HI]))
    fl.fn.is_leaf = False
    if width > 32:
        fl.emit(Mov(out_hi, abi.RET_HI))
    fl.emit(Mov(out_lo, abi.RET_LO))
    fl.meta_memo.clear()


def _field_load_helper(ctx, f_bit: int, width: int) -> LIRFunction:
    name = "__pkt_load_f%d_w%d" % (f_bit, width)
    fn = ctx.helpers.get(name)
    if fn is not None:
        return fn
    hb = HelperBuilder(name)
    ph = hb.vreg("ph")
    hb.emit(Mov(ph, abi.ARG_REGS[0]))
    off = hb.vreg("off")
    hb.emit(Mov(off, abi.ARG_REGS[1]))
    out_lo = hb.vreg("lo")
    out_hi = hb.vreg("hi") if width > 32 else None
    buf, head = _read_buf_head(hb, ph)
    _generic_load_body(hb, buf, head, off, f_bit, width, out_lo, out_hi)
    results = [abi.RET_LO]
    if out_hi is not None:
        hb.emit(Mov(abi.RET_HI, out_hi))
        results.append(abi.RET_HI)
    hb.emit(Mov(abi.RET_LO, out_lo))
    hb.emit(Rtn(abi.LINK, result_regs=results))
    ctx.helpers[name] = hb.fn
    return hb.fn


# -- field stores -------------------------------------------------------------------


def _value_parts(E, value_lo, value_hi, width: int, rel_bit: int,
                 window_words: int) -> Tuple[List[Tuple[int, object]], int]:
    """Constant-shift placement: returns ([(word_index, operand)], mask)
    where each operand contributes (ORed) to that window word, and
    ``mask`` has bit (window_byte) set for every byte written (bit 0 =
    first byte of the window)."""
    parts: List[Tuple[int, object]] = []
    # Process as up to two 32-bit chunks, low chunk last.
    chunks = []
    if width > 32:
        chunks.append((rel_bit, width - 32, value_hi))
        chunks.append((rel_bit + width - 32, 32, value_lo))
    else:
        chunks.append((rel_bit, width, value_lo))
    mask = 0
    for bit0, w, val in chunks:
        for byte in range(bit0 // 8, (bit0 + w - 1) // 8 + 1):
            mask |= 1 << byte
        wi = bit0 // 32
        sh = bit0 % 32
        right = 32 - sh - w  # >=0 when the chunk fits this word
        if right >= 0:
            part = val
            if right:
                t = E.vreg()
                E.emit(Alu("shl", t, val, Imm(right)))
                part = t
            parts.append((wi, part))
        else:
            # Chunk crosses into the next word.
            spill = -right
            t1 = E.vreg()
            E.emit(Alu("lshr", t1, val, Imm(spill)))
            parts.append((wi, t1))
            t2 = E.vreg()
            E.emit(Alu("shl", t2, val, Imm(32 - spill)))
            parts.append((wi + 1, t2))
    return parts, mask


def _emit_masked_write(fl, instr, buf, first_byte: int, units: int,
                       parts, mask: int) -> None:
    words: List[VReg] = []
    for wi in range(units * 2):
        contribs = [p for i, p in parts if i == wi]
        if not contribs:
            words.append(fl.materialize(0, "z"))
            continue
        acc = contribs[0]
        for extra in contribs[1:]:
            t = fl.vreg()
            fl.emit(Alu("or", t, acc, extra))
            acc = t
        if not isinstance(acc, VReg):
            acc = fl.reg32(acc) if isinstance(acc, (Temp, Const)) else acc
        words.append(acc)
    done = 0
    while done < units:
        chunk = min(8, units - done)
        chunk_mask = (mask >> (done * 8)) & ((1 << (chunk * 8)) - 1)
        fl.emit(Mem("dram", "write", words[done * 2 : (done + chunk) * 2], buf,
                    Imm(first_byte + done * 8), chunk,
                    category=PKT, byte_mask=chunk_mask))
        done += chunk


def _static_field_store(fl, instr: I.PktStoreField) -> None:
    abs_bit = instr.c_offset_bits + instr.bit_off + HEADROOM_BYTES * 8
    width = instr.bit_width
    first_byte = (abs_bit // 8) & ~7
    last_byte = (abs_bit + width - 1) // 8
    units = (last_byte - first_byte) // 8 + 1
    rel = abs_bit - first_byte * 8
    buf = _get_buf(fl, instr)
    if instr.bit_off % 8 == 0 and width % 8 == 0:
        if width > 32:
            vhi, vlo = fl.pair(instr.value)
        else:
            vhi, vlo = None, fl.reg32(instr.value)
        parts, mask = _value_parts(fl, vlo, vhi, width, rel, units * 2)
        _emit_masked_write(fl, instr, buf, first_byte, units, parts, mask)
        return
    # Sub-byte field: read-modify-write the window (constant shifts).
    # Sub-byte-aligned fields are at most 32 bits in real protocols; they
    # may still span two words.
    if width > 32:
        raise NotImplementedError("sub-byte-aligned fields wider than 32 bits")
    window = [fl.vreg("rmw%d" % i) for i in range(units * 2)]
    fl.emit(Mem("dram", "read", window, buf, Imm(first_byte), units, category=PKT))
    vlo = fl.reg32(instr.value)
    for wi in range(rel // 32, (rel + width - 1) // 32 + 1):
        lo = max(rel, wi * 32)
        hi = min(rel + width, (wi + 1) * 32)
        nbits = hi - lo
        lshift = 32 - (hi - wi * 32)
        clear = (~(((1 << nbits) - 1) << lshift)) & 0xFFFFFFFF
        cleared = fl.vreg()
        fl.emit(Alu("and", cleared, window[wi], fl.materialize(clear)))
        # Field bits [lo-rel, hi-rel) of the value, right-aligned:
        drop = width - (hi - rel)
        part: Operand = vlo
        if drop:
            t = fl.vreg()
            fl.emit(Alu("lshr", t, part, Imm(drop)))
            part = t
        masked = fl.vreg()
        mval = (1 << nbits) - 1
        fl.emit(Alu("and", masked, part,
                    Imm(mval) if mval <= 0xFF else fl.materialize(mval)))
        placed = fl.vreg()
        if lshift:
            fl.emit(Alu("shl", placed, masked, Imm(lshift)))
        else:
            fl.emit(Mov(placed, masked))
        merged = fl.vreg()
        fl.emit(Alu("or", merged, cleared, placed))
        window[wi] = merged
    fl.emit(Mem("dram", "write", window, buf, Imm(first_byte), units, category=PKT))


def _generic_store_body(E, buf: VReg, head: VReg, byte_off, f_bit: int,
                        width: int, value_lo, value_hi) -> None:
    """Generic store: byte-aligned byte-multiple fields use a dynamically
    masked write; sub-byte fields do a read-modify-write window."""
    addr = E.vreg("A")
    E.emit(Alu("add", addr, buf, head))
    if not (isinstance(byte_off, Imm) and byte_off.value == 0):
        t = E.vreg()
        E.emit(Alu("add", t, addr, byte_off))
        addr = t
    base = E.vreg("base")
    t = E.vreg()
    E.emit(Alu("lshr", t, addr, Imm(3)))
    E.emit(Alu("shl", base, t, Imm(3)))
    inoff = E.vreg("inoff")  # byte offset of the field within the window
    E.emit(Alu("and", inoff, addr, Imm(7)))

    if f_bit == 0 and width % 8 == 0:
        # Value words, left-aligned at the stream start (as if inoff==0):
        vw: List[VReg] = []
        if width > 32:
            # Left-align the 64-bit (hi:lo) pair by k = 64 - width bits.
            k = 64 - width
            if k == 0:
                vw = [value_hi, value_lo]
            else:
                w0a = E.vreg()
                E.emit(Alu("shl", w0a, value_hi, Imm(k)))
                w0b = E.vreg()
                E.emit(Alu("lshr", w0b, value_lo, Imm(32 - k)))
                w0 = E.vreg()
                E.emit(Alu("or", w0, w0a, w0b))
                w1 = E.vreg()
                E.emit(Alu("shl", w1, value_lo, Imm(k)))
                vw = [w0, w1]
        elif width < 32:
            va = E.vreg()
            E.emit(Alu("shl", va, value_lo, Imm(32 - width)))
            vw.append(va)
        else:
            vw.append(value_lo)
        _generic_store_stream(E, base, inoff, vw, width // 8)
        return

    # Sub-byte / unaligned-width generic store: full read-modify-write.
    # The field may straddle two words (e.g. a 20-bit MPLS label at a
    # misaligned head), so clear + insert across the selected word pair.
    window = [E.vreg("gsw%d" % i) for i in range(4)]
    E.emit(Mem("dram", "read", window, base, Imm(0), 2, category=PKT))
    bitsh = E.vreg()
    t3 = E.vreg()
    E.emit(Alu("and", t3, inoff, Imm(3)))
    E.emit(Alu("shl", bitsh, t3, Imm(3)))
    bp = E.vreg("bp")
    E.emit(Alu("add", bp, bitsh, Imm(f_bit)))
    woff = E.vreg("woff")
    E.emit(Alu("lshr", woff, inoff, Imm(2)))
    p = _select_words(E, window, woff, 2)
    fmask = ((1 << width) - 1) << (32 - width)
    vpos = E.vreg()
    E.emit(Alu("shl", vpos, value_lo, Imm(32 - width)))
    # Word 0 of the pair: clear (fmask >> bp), insert (vpos >> bp).
    cm0 = E.vreg()
    E.emit(Alu("lshr", cm0, E.materialize(fmask, "fm"), bp))
    inv0 = E.vreg()
    E.emit(Alu("xor", inv0, cm0, E.materialize(0xFFFFFFFF)))
    m0 = E.vreg()
    E.emit(Alu("and", m0, p[0], inv0))
    v0 = E.vreg()
    E.emit(Alu("lshr", v0, vpos, bp))
    new0 = E.vreg("smw0v")
    E.emit(Alu("or", new0, m0, v0))
    # Word 1 of the pair: the spill bits (fmask << (32-bp)); zero at bp==0.
    sh1 = E.vreg()
    E.emit(Alu("sub", sh1, Imm(32), bp))
    cm1 = E.vreg()
    E.emit(Alu("shl", cm1, E.materialize(fmask, "fm1"), sh1))
    v1 = E.vreg()
    E.emit(Alu("shl", v1, vpos, sh1))
    l_nz = E.label("ssz")
    E.emit(Cmp(bp, Imm(0)))
    E.emit(Br("ne", l_nz))
    E.emit(Immed(cm1, 0))
    E.emit(Immed(v1, 0))
    E.new_block(l_nz)
    inv1 = E.vreg()
    E.emit(Alu("xor", inv1, cm1, E.materialize(0xFFFFFFFF)))
    m1 = E.vreg()
    E.emit(Alu("and", m1, p[1], inv1))
    new1 = E.vreg("smw1v")
    E.emit(Alu("or", new1, m1, v1))
    # Place the merged pair back into the window and store both units.
    l0 = E.label("smw0")
    ld = E.label("smwd")
    E.emit(Cmp(woff, Imm(0)))
    E.emit(Br("eq", l0))
    E.emit(Mov(window[1], new0))
    E.emit(Mov(window[2], new1))
    E.emit(Br("always", ld))
    E.new_block(l0)
    E.emit(Mov(window[0], new0))
    E.emit(Mov(window[1], new1))
    E.new_block(ld)
    E.emit(Mem("dram", "write", window, base, Imm(0), 2, category=PKT))


def _generic_store_stream(E, base: VReg, inoff: VReg, stream: List[VReg],
                          nbytes: int) -> None:
    """One dynamically-masked DRAM write of a byte-aligned value stream
    (``nbytes`` <= 16, left-aligned in ``stream``) at window byte offset
    ``inoff`` (0..7) within the 8 B-aligned window at ``base``."""
    assert 1 <= nbytes <= 16
    units = max(2, ((7 + nbytes) + 7) // 8)
    nwords = units * 2
    bitsh = E.vreg("bitsh")
    t2 = E.vreg()
    E.emit(Alu("and", t2, inoff, Imm(3)))
    E.emit(Alu("shl", bitsh, t2, Imm(3)))
    zero = E.materialize(0, "z")
    padded = [zero] + stream + [zero]
    # Shift the stream right by bitsh across word boundaries; this aligns
    # the value to (inoff & 3) within its word.
    out_words: List[VReg] = []
    for k in range(len(stream) + 1):
        out_words.append(_dyn_funnel_right(E, padded[k], padded[k + 1], bitsh))
    # Place the aligned words at window word (inoff >> 2): inoff is 0..7,
    # so placement is a two-way branch.
    woff = E.vreg("woff")
    E.emit(Alu("lshr", woff, inoff, Imm(2)))
    final = [E.vreg("fw%d" % k) for k in range(nwords)]
    l_hi = E.label("place1")
    l_done = E.label("placed")
    padded0 = (out_words + [zero] * nwords)[:nwords]
    padded1 = ([zero] + out_words + [zero] * nwords)[:nwords]
    E.emit(Cmp(woff, Imm(0)))
    E.emit(Br("ne", l_hi))
    for k in range(nwords):
        E.emit(Mov(final[k], padded0[k]))
    E.emit(Br("always", l_done))
    E.new_block(l_hi)
    for k in range(nwords):
        E.emit(Mov(final[k], padded1[k]))
    E.new_block(l_done)
    # Dynamic byte mask: nbytes ones at window bytes [inoff, inoff+nbytes)
    # (mask bit k = transfer byte k, byte 0 = MSB of word 0).
    ones = (1 << nbytes) - 1
    maskv = E.materialize(ones, "bmask") if ones > 0xFF else None
    shifted_mask = E.vreg("bmask")
    E.emit(Alu("shl", shifted_mask, maskv if maskv is not None else Imm(ones),
               inoff))
    E.emit(Mem("dram", "write", final, base, Imm(0), units,
               category=PKT, byte_mask=shifted_mask))


def _dyn_funnel_right(E, w_prev: VReg, w_cur: VReg, shift: VReg) -> VReg:
    """(w_prev << (32-shift)) | (w_cur >> shift), correct for shift==0."""
    lo = E.vreg()
    E.emit(Alu("lshr", lo, w_cur, shift))
    lsh = E.vreg()
    E.emit(Alu("sub", lsh, Imm(32), shift))
    hi = E.vreg()
    E.emit(Alu("shl", hi, w_prev, lsh))
    l_nz = E.label("fr")
    E.emit(Cmp(shift, Imm(0)))
    E.emit(Br("ne", l_nz))
    E.emit(Immed(hi, 0))
    E.new_block(l_nz)
    out = E.vreg()
    E.emit(Alu("or", out, hi, lo))
    return out


def _lower_field_store(fl, instr: I.PktStoreField) -> None:
    if _is_static(fl, instr):
        _static_field_store(fl, instr)
        return
    f_byte = instr.bit_off // 8
    f_bit = instr.bit_off % 8
    width = instr.bit_width
    if width > 32:
        vhi, vlo = fl.pair(instr.value)
    else:
        vhi, vlo = None, fl.reg32(instr.value)
    if fl.ctx.opts.inline:
        byte_op = Imm(f_byte) if f_byte <= 0xFF else fl.materialize(f_byte)
        buf, head = _private_buf_head(fl, instr.ph)
        _generic_store_body(fl, buf, head, byte_op, f_bit, width, vlo, vhi)
        fl.meta_memo.clear()
        return
    helper = _field_store_helper(fl.ctx, f_bit, width)
    fl.emit(Mov(abi.ARG_REGS[0], fl.reg32(instr.ph)))
    off = fl.vreg("boff")
    fl.emit(Immed(off, f_byte))
    fl.emit(Mov(abi.ARG_REGS[1], off))
    fl.emit(Mov(abi.ARG_REGS[2], vlo))
    args = [abi.ARG_REGS[0], abi.ARG_REGS[1], abi.ARG_REGS[2]]
    if vhi is not None:
        fl.emit(Mov(abi.ARG_REGS[3], vhi))
        args.append(abi.ARG_REGS[3])
    fl.emit(Bal(helper.entry_label, abi.LINK, arg_regs=args,
                ret_regs=[abi.RET_LO, abi.RET_HI]))
    fl.fn.is_leaf = False
    fl.meta_memo.clear()


def _field_store_helper(ctx, f_bit: int, width: int) -> LIRFunction:
    name = "__pkt_store_f%d_w%d" % (f_bit, width)
    fn = ctx.helpers.get(name)
    if fn is not None:
        return fn
    hb = HelperBuilder(name)
    ph = hb.vreg("ph")
    hb.emit(Mov(ph, abi.ARG_REGS[0]))
    off = hb.vreg("off")
    hb.emit(Mov(off, abi.ARG_REGS[1]))
    vlo = hb.vreg("vlo")
    hb.emit(Mov(vlo, abi.ARG_REGS[2]))
    vhi = None
    if width > 32:
        vhi = hb.vreg("vhi")
        hb.emit(Mov(vhi, abi.ARG_REGS[3]))
    buf, head = _read_buf_head(hb, ph)
    _generic_store_body(hb, buf, head, off, f_bit, width, vlo, vhi)
    hb.emit(Rtn(abi.LINK))
    ctx.helpers[name] = hb.fn
    return hb.fn


# -- PAC wide accesses ---------------------------------------------------------------


def _lower_wide_load(fl, instr: I.PktLoadWords) -> None:
    width = instr.nwords * 32
    if _is_static(fl, instr):
        abs_bit = instr.c_offset_bits + instr.byte_off * 8
        window, rel = _static_window_read(fl, instr, abs_bit, width)
        for i, dst in enumerate(instr.dsts):
            _extract_const32(fl, window, rel + 32 * i, 32, fl.dst32(dst))
        return
    # Generic wide load: dynamic window + per-word dynamic funnels.
    buf, head = _get_buf_head(fl, instr)
    addr = _generic_addr(fl, buf, head, instr.byte_off)
    base = fl.vreg("base")
    t = fl.vreg()
    fl.emit(Alu("lshr", t, addr, Imm(3)))
    fl.emit(Alu("shl", base, t, Imm(3)))
    units = min(8, instr.nwords // 2 + 2)
    window = [fl.vreg("ww%d" % i) for i in range(units * 2)]
    fl.emit(Mem("dram", "read", window, base, Imm(0), units, category=PKT))
    inoff = fl.vreg("inoff")
    fl.emit(Alu("and", inoff, addr, Imm(7)))
    woff = fl.vreg("woff")
    fl.emit(Alu("lshr", woff, inoff, Imm(2)))
    bitsh = fl.vreg("bitsh")
    t2 = fl.vreg()
    fl.emit(Alu("and", t2, inoff, Imm(3)))
    fl.emit(Alu("shl", bitsh, t2, Imm(3)))
    picks = _select_words(fl, window, woff, instr.nwords + 1)
    for i, dst in enumerate(instr.dsts):
        v = _dyn_funnel(fl, picks[i], picks[i + 1], bitsh)
        fl.emit(Mov(fl.dst32(dst), v))


def _lower_wide_store(fl, instr: I.PktStoreWords) -> None:
    # Word values with per-word byte masks (bit 3 = MSB byte of the word).
    if _is_static(fl, instr):
        abs_bit = instr.c_offset_bits + instr.byte_off * 8 + HEADROOM_BYTES * 8
        first_byte = (abs_bit // 8) & ~7
        units = ((abs_bit // 8 + instr.nwords * 4 - 1) - first_byte) // 8 + 1
        rel = abs_bit - first_byte * 8
        buf = _get_buf(fl, instr)
        parts: List[Tuple[int, object]] = []
        mask = 0
        for i in range(instr.nwords):
            wmask = instr.byte_masks[i]
            if wmask == 0:
                continue
            vreg = fl.reg32(instr.values[i])
            p, _ = _value_parts(fl, vreg, None, 32, rel + 32 * i, units * 2)
            parts.extend(p)
            # Window-byte mask restricted to the bytes this word covers
            # (rel is always a whole number of bytes).
            for b in range(4):
                if wmask & (1 << (3 - b)):
                    mask |= 1 << (rel // 8 + 4 * i + b)
        _emit_masked_write(fl, instr, buf, first_byte, units, parts, mask)
        return
    # Generic wide store: coalesce the covered bytes into maximal runs
    # and emit one dynamically-masked write per <=8-byte run.
    covered: List[Optional[Tuple[int, int]]] = []  # byte -> (word, byte_in_word)
    for i in range(instr.nwords):
        wmask = instr.byte_masks[i]
        for b in range(4):
            covered.append((i, b) if wmask & (1 << (3 - b)) else None)
    runs: List[Tuple[int, int]] = []  # (start_byte, length)
    pos = 0
    while pos < len(covered):
        if covered[pos] is None:
            pos += 1
            continue
        start = pos
        while pos < len(covered) and covered[pos] is not None:
            pos += 1
        length = pos - start
        while length > 16:
            runs.append((start, 16))
            start += 16
            length -= 16
        runs.append((start, length))
    buf, head = _get_buf_head(fl, instr)
    for start, length in runs:
        byte_off = instr.byte_off + start
        addr = _generic_addr(fl, buf, head, byte_off)
        base = fl.vreg("base")
        t = fl.vreg()
        fl.emit(Alu("lshr", t, addr, Imm(3)))
        fl.emit(Alu("shl", base, t, Imm(3)))
        inoff = fl.vreg("inoff")
        fl.emit(Alu("and", inoff, addr, Imm(7)))
        stream = _gather_run_words(fl, instr, start, length)
        _generic_store_stream(fl, base, inoff, stream, length)
    fl.meta_memo.clear()


def _gather_run_words(fl, instr: I.PktStoreWords, start: int,
                      length: int) -> List[VReg]:
    """Assemble ``length`` (<=16) consecutive value bytes starting at word
    byte ``start`` into a left-aligned word stream using constant shifts."""

    def word_at(byte0: int) -> VReg:
        """4 stream bytes starting at ``byte0`` (beyond-end bytes zero)."""
        w0 = byte0 // 4
        off = byte0 % 4
        if off == 0:
            if w0 < instr.nwords:
                return fl.reg32(instr.values[w0])
            return fl.materialize(0, "z")
        hi = fl.vreg()
        fl.emit(Alu("shl", hi, fl.reg32(instr.values[w0]), Imm(off * 8)))
        if w0 + 1 >= instr.nwords:
            return hi
        lo = fl.vreg()
        fl.emit(Alu("lshr", lo, fl.reg32(instr.values[w0 + 1]),
                    Imm(32 - off * 8)))
        out = fl.vreg()
        fl.emit(Alu("or", out, hi, lo))
        return out

    return [word_at(start + 4 * k) for k in range((length + 3) // 4)]


# -- head movement -------------------------------------------------------------------


def _emit_headmove(fl, ph: Operand, delta_op) -> None:
    """head += delta; len -= delta: two ALU operations on register-resident
    state, else one metadata read-modify-write whose new head stays
    memoized for the accesses that follow."""
    regs = _regs(fl, ph)
    if regs is not None:
        fl.emit(Alu("add", regs.head, regs.head, delta_op))
        fl.emit(Alu("sub", regs.length, regs.length, delta_op))
        return
    ph_reg = fl.reg32(ph)
    head = fl.vreg("head")
    length = fl.vreg("len")
    fl.emit(Mem("sram", "read", [head, length], ph_reg, Imm(4), 2, category=PKT))
    nh = fl.vreg("head")
    fl.emit(Alu("add", nh, head, delta_op))
    nl = fl.vreg("len")
    fl.emit(Alu("sub", nl, length, delta_op))
    fl.emit(Mem("sram", "write", [nh, nl], ph_reg, Imm(4), 2, category=PKT))
    fl.meta_memo[_memo_key(fl, ph, "head")] = nh


def _lower_headmove(fl, instr) -> None:
    fl.emit(Mov(fl.dst32(instr.dst), fl.reg32(instr.src)))
    if isinstance(instr, I.PktEncap):
        delta = fl.materialize(-instr.header_bytes & 0xFFFFFFFF, "enc")
    elif instr.header_bytes is not None:
        delta = fl.val32(Const(instr.header_bytes))
    else:
        delta = fl.val32(instr.delta)
    _emit_headmove(fl, instr.src, delta)


# -- adjust / drop / create / copy -----------------------------------------------------


def _lower_adjust(fl, instr: I.PktAdjust) -> None:
    amt = fl.val32(instr.amount)
    if instr.op in ("add_tail", "remove_tail"):
        op = "add" if instr.op == "add_tail" else "sub"
        regs = _regs(fl, instr.ph)
        if regs is not None:
            fl.emit(Alu(op, regs.length, regs.length, amt))
            return
        ph = fl.reg32(instr.ph)
        length = fl.vreg("len")
        _meta_word_read(fl, ph, META_PKT_LEN, length)
        nl = fl.vreg("len")
        fl.emit(Alu(op, nl, length, amt))
        _meta_word_write(fl, ph, META_PKT_LEN, nl)
        return
    # extend = move head back; shorten = move head forward.
    if isinstance(amt, Imm):
        if instr.op == "extend":
            delta_op = fl.materialize((-amt.value) & 0xFFFFFFFF)
        else:
            delta_op = amt
    else:
        if instr.op == "extend":
            neg = fl.vreg()
            fl.emit(Alu("sub", neg, Imm(0), amt))
            delta_op = neg
        else:
            delta_op = amt
    _emit_headmove(fl, instr.ph, delta_op)


def _lower_drop(fl, instr: I.PktDrop) -> None:
    ph = fl.reg32(instr.ph)
    buf = _get_buf(fl, instr)
    fl.emit(RingPut(SymRef("ring.__buf_free"), buf))
    fl.emit(RingPut(SymRef("ring.__meta_free"), ph))


def _lower_create(fl, instr: I.PktCreate) -> None:
    meta = fl.dst32(instr.dst)
    fl.emit(RingGet(meta, SymRef("ring.__meta_free")))
    buf = fl.vreg("nbuf")
    fl.emit(RingGet(buf, SymRef("ring.__buf_free")))
    head = fl.materialize(HEADROOM_BYTES, "nh")
    length = fl.vreg("nlen")
    fl.emit(Alu("add", length, fl.val32(instr.length), Imm(instr.header_bytes)))
    zero = fl.materialize(0, "z")
    meta_words = fl.ctx.mod.meta_words
    regs = [buf, head, length] + [zero] * (meta_words - 3)
    fl.emit(Mem("sram", "write", regs[:8], meta, Imm(0), min(8, meta_words),
                category=PKT))
    # Zero the header + payload area (8 B units).
    _emit_dram_fill_zero(fl, buf, length)
    fl.meta_memo[_memo_key(fl, instr.dst, "buf")] = buf


def _emit_dram_fill_zero(fl, buf: VReg, length: VReg) -> None:
    zero = fl.materialize(0, "z")
    i = fl.vreg("zi")
    fl.emit(Immed(i, 0))
    loop = fl.label("zfill")
    done = fl.label("zfilld")
    fl.new_block(loop)
    fl.emit(Cmp(i, length))
    fl.emit(Br("ge_u", done))
    addr = fl.vreg()
    fl.emit(Alu("add", addr, buf, i))
    addr2 = fl.vreg()
    fl.emit(Alu("add", addr2, addr, Imm(HEADROOM_BYTES)))
    fl.emit(Mem("dram", "write", [zero, zero], addr2, Imm(0), 1, category=PKT))
    fl.emit(Alu("add", i, i, Imm(8)))
    fl.emit(Br("always", loop))
    fl.new_block(done)


def _lower_copy(fl, instr: I.PktCopy) -> None:
    writeback_state(fl, instr)  # the copy reads the source's metadata block
    src = fl.reg32(instr.src)
    dst_meta = fl.dst32(instr.dst)
    fl.emit(RingGet(dst_meta, SymRef("ring.__meta_free")))
    new_buf = fl.vreg("cbuf")
    fl.emit(RingGet(new_buf, SymRef("ring.__buf_free")))
    meta_words = min(8, fl.ctx.mod.meta_words)
    window = [fl.vreg("cm%d" % i) for i in range(meta_words)]
    fl.emit(Mem("sram", "read", window, src, Imm(0), meta_words, category=PKT))
    out = [new_buf] + window[1:]
    fl.emit(Mem("sram", "write", out, dst_meta, Imm(0), meta_words, category=PKT))
    # Copy the live data region: head..head+len in 64 B chunks.
    old_buf, head, length = window[0], window[1], window[2]
    i = fl.vreg("ci")
    fl.emit(Immed(i, 0))
    loop = fl.label("copy")
    done = fl.label("copyd")
    fl.new_block(loop)
    fl.emit(Cmp(i, length))
    fl.emit(Br("ge_u", done))
    soff = fl.vreg()
    fl.emit(Alu("add", soff, head, i))
    saddr = fl.vreg()
    fl.emit(Alu("add", saddr, old_buf, soff))
    daddr = fl.vreg()
    fl.emit(Alu("add", daddr, new_buf, soff))
    chunk = [fl.vreg("cw%d" % k) for k in range(16)]
    fl.emit(Mem("dram", "read", chunk, saddr, Imm(0), 8, category=PKT))
    fl.emit(Mem("dram", "write", chunk, daddr, Imm(0), 8, category=PKT))
    fl.emit(Alu("add", i, i, Imm(64)))
    fl.emit(Br("always", loop))
    fl.new_block(done)
    fl.meta_memo[_memo_key(fl, instr.dst, "buf")] = new_buf
