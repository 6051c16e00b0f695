"""Packet-primitive lowering: IR packet instructions -> ME code.

Every packet access takes one of three shapes, matching the paper's cost
discussion (section 5.3); each shape has one implementation here, which
loads and stores share:

* **generic** -- the handle's head offset is unknown at compile time: read
  the packet metadata (SRAM) for ``buf``/``head``, compute a dynamic DRAM
  address, read a 16 B window and extract (or merge) with *dynamic*
  shifts (the ``38 + 5*words``-instruction path). At BASE/-O1
  (``opts.inline`` false) a field access calls one shared out-of-line
  routine per (direction, bit, width) via ``bal`` -- the "base packet
  handling routines" that -O2 inlines;
* **static** (SOAR resolved) -- the absolute offset is a compile-time
  constant: one metadata word (``buf``), constant address arithmetic and
  constant-shift extraction;
* **wide** (PAC) -- ``PktLoadWords``/``PktStoreWords`` move many words per
  DRAM instruction; byte-masked writes avoid read-modify-write.

Head movement (encap, decap, extend, shorten and PHR's sync) is always
inline: one metadata read-modify-write, or two ALU operations on
registers.

Where ``buf``/``head``/``len`` come from is a second axis, and only this
module decides it (:class:`PacketMeta`, one per function lowered). Under
PHR the PPF parameter's packet keeps them in registers for the whole
function (:class:`PacketRegs`, planned by
:func:`repro.opt.phr.plan_packet_state`): one metadata read at entry,
head movement is ALU work, and SRAM sees head/len again only at the
escape sites the plan marks. Below PHR a PPF whose accesses SOAR
resolved reads its parameter's ``buf`` once at entry. Every other packet
(created, copied, a support function's parameter) and every other level
reads them from SRAM, memoized per basic block.
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
from repro.cg.lower import MAX_ALU_IMM, Emitter
from repro.ir import instructions as I
from repro.ir.values import Const, Operand, Temp

PKT = isa.CAT_PACKET

# Test-only fault injection (tests/test_analyze_mutations.py): when set
# to "skip_writeback", a moved head/len stays in registers at escape
# sites -- whoever reads the packet's metadata next sees the stale words;
# when set to "meta_store_dropped", stores to user metadata words emit
# nothing. Never set outside tests.
_TEST_MUTATION = None

_FIELDS = (I.PktLoadField, I.PktStoreField)


# -- dispatch --------------------------------------------------------------------


def lower_packet_instr(fl, instr: I.PktInstr) -> None:
    """Entry point called by the function lowerer."""
    if isinstance(instr, I.MetaLoad):
        regs = fl.pkt.regs_of(instr.ph)
        if regs is not None and regs.rx_port is not None \
                and instr.word == META_RX_PORT:
            fl.emit(Mov(fl.dst32(instr.dst), regs.rx_port))
        else:
            _meta_word_read(fl, fl.reg32(instr.ph), instr.word, fl.dst32(instr.dst))
    elif isinstance(instr, I.MetaStore):
        _meta_word_write(fl, fl.reg32(instr.ph), instr.word, fl.reg32(instr.value))
    elif isinstance(instr, I.PktLength):
        regs = fl.pkt.regs_of(instr.ph)
        if regs is not None:
            fl.emit(Mov(fl.dst32(instr.dst), regs.length))
        else:
            _meta_word_read(fl, fl.reg32(instr.ph), META_PKT_LEN, fl.dst32(instr.dst))
    elif isinstance(instr, _FIELDS):
        _lower_field(fl, instr)
    elif isinstance(instr, I.PktWords):
        (_lower_wide_store if instr.stores else _lower_wide_load)(fl, instr)
    elif isinstance(instr, (I.PktEncap, I.PktDecap)):
        fl.emit(Mov(fl.dst32(instr.dst), fl.reg32(instr.src)))
        fl.pkt.move_head(instr.src, _head_delta(fl, instr))
    elif isinstance(instr, I.PktAdjust) and instr.op in ("add_tail", "remove_tail"):
        _lower_tail(fl, instr)
    elif isinstance(instr, (I.PktSyncHead, I.PktAdjust)):
        fl.pkt.move_head(instr.ph, _head_delta(fl, instr))
    elif isinstance(instr, I.PktDrop):
        _lower_drop(fl, instr)
    elif isinstance(instr, I.PktCreate):
        _lower_create(fl, instr)
    elif isinstance(instr, I.PktCopy):
        _lower_copy(fl, instr)
    else:  # pragma: no cover
        raise NotImplementedError(type(instr).__name__)


def calls_helpers(opts, ir_fn) -> bool:
    """Whether lowering ``ir_fn`` calls an out-of-line packet routine (it
    clobbers the link register, so the function is no leaf). Only field
    accesses have routines, and only below -O2; the wide accesses of PAC
    never do."""
    return not opts.inline and any(isinstance(i, _FIELDS)
                                   for i in ir_fn.all_instrs())


def _is_static(fl, instr) -> bool:
    return fl.ctx.opts.soar and instr.c_offset_bits is not None


def _imm(E, value: int, hint: str = "c") -> Union[Imm, VReg]:
    """``value`` as an ALU operand: embedded when it fits, else an immed."""
    return Imm(value) if value <= MAX_ALU_IMM else E.materialize(value, hint)


# -- where buf/head/len live ---------------------------------------------------------


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


class PacketMeta:
    """Where the packets of the function ``fl`` lowers keep ``buf``,
    ``head`` and ``len``: the PHR registers (``regs``), the parameter's
    ``buf`` read at entry (``entry_buf``), or the words this basic block
    has already read (``memo``). The function lowerer calls ``enter``
    after its prologue, ``begin_block`` at each IR block, ``escape`` where
    someone else may read or change a packet's metadata and ``reload``
    after a call that was handed the register-resident packet."""

    def __init__(self, fl):
        self.fl = fl
        self.regs: Optional[PacketRegs] = None
        # `buf` never changes for a given packet and the entry block
        # dominates everything, so one read serves the whole function.
        self.entry_buf: Dict[Temp, VReg] = {}
        self.memo: Dict[tuple, VReg] = {}
        self._block = None
        self._end_memos: Dict[object, Dict[tuple, VReg]] = {}

    def enter(self) -> None:
        """Read at a PPF's entry what the whole function shares of its
        packet parameter's metadata. With a PHR plan that is everything:
        ``[buf, head, len]`` (and ``rx_port``) in one access, held in
        registers from here on. Otherwise, for a body with
        statically-resolved packet accesses (which need only ``buf``,
        not ``head``), the buffer address."""
        fl = self.fl
        ir_fn, opts = fl.ir_fn, fl.ctx.opts
        if ir_fn.kind != "ppf" or not opts.inline:
            return
        params = [p for p in ir_fn.params if p.type.is_packet]
        if not params:
            return
        cls = fl.aliases.class_of(params[0])
        if not fl.aliases.one_packet(cls):
            return  # no one buf/head is true of every handle in the class
        if opts.phr and ir_fn.packet_state is not None:
            self._load_registers(cls)
            return
        if not (opts.soar and any(isinstance(i, I.PktAccess)
                                  and i.c_offset_bits is not None
                                  for i in ir_fn.all_instrs())):
            return
        buf = fl.vreg("buf")
        _meta_word_read(fl, fl.reg32(params[0]), META_BUF_ADDR, buf)
        self.entry_buf[cls] = buf

    def _load_registers(self, cls: Temp) -> None:
        """The one metadata read of the function's PHR plan. It is
        addressed through the argument register, which still holds the
        handle: the parameter's own register may already be spilled under
        pressure (l3switch), and the read would wait for its reload."""
        fl = self.fl
        plan = fl.ir_fn.packet_state
        regs = PacketRegs(cls, fl.vreg("buf"), fl.vreg("head"), fl.vreg("len"),
                          fl.vreg("rxport") if plan.hoist_rx_port else None,
                          plan.escapes)
        words = [regs.buf] + regs.mutable_words()
        assert len(fl.ir_fn.params) == 1  # a PPF's signature: the packet
        fl.emit(Mem("sram", "read", words, abi.ARG_REGS[0], Imm(META_BUF_ADDR * 4),
                    len(words), category=PKT))
        self.entry_buf[cls] = regs.buf
        self.regs = regs

    def begin_block(self, bb) -> None:
        """The memo survives into a single-predecessor block: every path
        there runs through that predecessor, so words read at its end are
        still valid."""
        if self._block is not None:
            self._end_memos[self._block] = self.memo
        self._block = bb
        preds = bb.preds
        if len(preds) == 1 and preds[0] in self._end_memos and preds[0] is not bb:
            self.memo = dict(self._end_memos[preds[0]])
        else:
            self.memo = {}

    def escape(self, instr: I.Instr) -> Optional[Temp]:
        """``instr`` lets someone else read or change packet metadata (a
        channel's consumer, a callee, another thread past a lock): forget
        what this block read, and store head/len first if the plan says a
        head movement can reach here unstored. Returns the handle when the
        register-resident packet is handed on."""
        self.memo.clear()
        return self.writeback(instr)

    def writeback(self, instr: I.Instr) -> Optional[Temp]:
        regs = self.regs
        if regs is None or instr not in regs.escapes:
            return None
        ph, dirty = regs.escapes[instr]
        if dirty and _TEST_MUTATION != "skip_writeback":
            self.fl.emit(Mem("sram", "write", [regs.head, regs.length],
                             self.fl.reg32(ph), Imm(META_HEAD_OFF * 4), 2,
                             category=PKT))
        return ph

    def reload(self, ph: Temp) -> None:
        """A callee that was handed the packet has returned: it worked on
        SRAM and may have moved the head."""
        words = self.regs.mutable_words()
        self.fl.emit(Mem("sram", "read", words, self.fl.reg32(ph),
                         Imm(META_HEAD_OFF * 4), len(words), category=PKT))

    def regs_of(self, ph: Operand) -> Optional[PacketRegs]:
        """The register-resident state ``ph`` refers to, if it does."""
        regs = self.regs
        if regs is not None and isinstance(ph, Temp) \
                and self.fl.aliases.class_of(ph) is regs.cls:
            return regs
        return None

    def key(self, ph: Operand, word: int) -> tuple:
        if isinstance(ph, Temp):
            return (self.fl.aliases.class_of(ph), word)
        return (id(ph), word)

    def words(self, ph: Operand, count: int) -> List[VReg]:
        """``[buf]`` or ``[buf, head]`` of ``ph``'s packet: from registers
        or the memo, and one SRAM read of whichever words are missing."""
        regs = self.regs_of(ph)
        if regs is not None:
            return [regs.buf, regs.head][:count]
        fl = self.fl
        have = [self.memo.get(self.key(ph, w)) for w in range(count)]
        if have[META_BUF_ADDR] is None and isinstance(ph, Temp):
            have[META_BUF_ADDR] = self.entry_buf.get(fl.aliases.class_of(ph))
        missing = [w for w in range(count) if have[w] is None]
        if missing:
            read = [fl.vreg(("buf", "head")[w]) for w in missing]
            fl.emit(Mem("sram", "read", read, fl.reg32(ph), Imm(missing[0] * 4),
                        len(read), category=PKT))
            for w, reg in zip(missing, read):
                have[w] = self.memo[self.key(ph, w)] = reg
        return have

    def private_buf_head(self, ph: Operand) -> Tuple[VReg, VReg]:
        """buf/head for an inlined generic field access: the register-resident
        state, else a read of its own (these bodies never shared the memo)."""
        regs = self.regs_of(ph)
        if regs is not None:
            return regs.buf, regs.head
        return _read_buf_head(self.fl, self.fl.reg32(ph))

    def move_head(self, ph: Operand, delta) -> None:
        """head += delta; len -= delta: two ALU operations on register-resident
        state, else one metadata read-modify-write whose new head stays
        memoized for the accesses that follow."""
        fl = self.fl
        regs = self.regs_of(ph)
        if regs is not None:
            fl.emit(Alu("add", regs.head, regs.head, delta))
            fl.emit(Alu("sub", regs.length, regs.length, delta))
            return
        ph_reg = fl.reg32(ph)
        head = fl.vreg("head")
        length = fl.vreg("len")
        fl.emit(Mem("sram", "read", [head, length], ph_reg, Imm(META_HEAD_OFF * 4),
                    2, category=PKT))
        nh = fl.vreg("head")
        fl.emit(Alu("add", nh, head, delta))
        nl = fl.vreg("len")
        fl.emit(Alu("sub", nl, length, delta))
        fl.emit(Mem("sram", "write", [nh, nl], ph_reg, Imm(META_HEAD_OFF * 4), 2,
                    category=PKT))
        self.memo[self.key(ph, META_HEAD_OFF)] = nh


def _meta_word_read(E, ph_reg, word: int, dst) -> None:
    E.emit(Mem("sram", "read", [dst], ph_reg, Imm(word * 4), 1, category=PKT))


def _meta_word_write(fl, ph_reg, word: int, src) -> None:
    if _TEST_MUTATION == "meta_store_dropped" and word >= META_USER_BASE:
        return
    fl.emit(Mem("sram", "write", [src], ph_reg, Imm(word * 4), 1, category=PKT))


def _read_buf_head(E, ph_reg) -> Tuple[VReg, VReg]:
    buf = E.vreg("buf")
    head = E.vreg("head")
    E.emit(Mem("sram", "read", [buf, head], ph_reg, Imm(META_BUF_ADDR * 4), 2,
               category=PKT))
    return buf, head


# -- head and tail movement ----------------------------------------------------------


def _head_delta(fl, instr) -> Union[Imm, VReg]:
    """How far ``instr`` moves its packet's head toward the payload (a
    move toward the front is negative), as an ALU operand."""
    if isinstance(instr, I.PktSyncHead):
        return fl.val32(Const(instr.delta_bytes))
    if isinstance(instr, I.PktEncap):
        return _negated(fl, Imm(instr.header_bytes), "enc")
    if isinstance(instr, I.PktDecap):
        return fl.val32(instr.delta if instr.header_bytes is None
                        else Const(instr.header_bytes))
    amount = fl.val32(instr.amount)  # packet_extend / packet_shorten
    return _negated(fl, amount) if instr.op == "extend" else amount


def _negated(fl, amount: Union[Imm, VReg], hint: str = "c") -> VReg:
    """-amount: a constant folds into one immed, a register is subtracted
    from zero."""
    if isinstance(amount, Imm):
        return fl.materialize(-amount.value, hint)
    neg = fl.vreg()
    fl.emit(Alu("sub", neg, Imm(0), amount))
    return neg


def _lower_tail(fl, instr: I.PktAdjust) -> None:
    amt = fl.val32(instr.amount)
    op = "add" if instr.op == "add_tail" else "sub"
    regs = fl.pkt.regs_of(instr.ph)
    if regs is not None:
        fl.emit(Alu(op, regs.length, regs.length, amt))
        return
    ph = fl.reg32(instr.ph)
    length = fl.vreg("len")
    _meta_word_read(fl, ph, META_PKT_LEN, length)
    nl = fl.vreg("len")
    fl.emit(Alu(op, nl, length, amt))
    _meta_word_write(fl, ph, META_PKT_LEN, nl)


# -- field accesses: one driver, one helper builder ------------------------------------


def _lower_field(fl, instr) -> None:
    """A field load or store: the static shape when SOAR resolved its
    offset, else the generic body inline (-O2 and up) or a ``bal`` to the
    out-of-line routine for its (direction, bit, width)."""
    load = not instr.stores
    if _is_static(fl, instr):
        (_static_field_load if load else _static_field_store)(fl, instr)
        return
    f_byte, f_bit = divmod(instr.bit_off, 8)
    width = instr.bit_width
    # The field's registers: its destination for a load, its value for a
    # store; (hi, lo) over 32 bits.
    if width > 32:
        hi, lo = fl.dst_pair(instr.dst) if load else fl.pair(instr.value)
    else:
        hi, lo = None, fl.dst32(instr.dst) if load else fl.reg32(instr.value)
    body = _generic_load_body if load else _generic_store_body
    if fl.ctx.opts.inline:
        byte_off = f_byte if f_byte <= MAX_ALU_IMM else fl.materialize(f_byte)
        buf, head = fl.pkt.private_buf_head(instr.ph)
        body(fl, buf, head, byte_off, f_bit, width, lo, hi)
        fl.pkt.memo.clear()  # the body used private regs; keep it simple
        return
    helper = _field_helper(fl.ctx, load, f_bit, width)
    fl.emit(Mov(abi.ARG_REGS[0], fl.reg32(instr.ph)))
    off = fl.vreg("boff")
    fl.emit(Immed(off, f_byte))
    fl.emit(Mov(abi.ARG_REGS[1], off))
    values = [] if load else [lo] if hi is None else [lo, hi]
    args = abi.ARG_REGS[:2 + len(values)]
    for arg, value in zip(args[2:], values):
        fl.emit(Mov(arg, value))
    fl.emit(Bal(helper.entry_label, abi.LINK, arg_regs=args,
                ret_regs=[abi.RET_LO, abi.RET_HI]))
    if load:
        if hi is not None:
            fl.emit(Mov(hi, abi.RET_HI))
        fl.emit(Mov(lo, abi.RET_LO))
    fl.pkt.memo.clear()


def _field_helper(ctx, load: bool, f_bit: int, width: int) -> LIRFunction:
    """The out-of-line routine ``__pkt_{load,store}_f<bit>_w<width>``: the
    handle in arg 0, the field's byte offset from the head in arg 1, a
    stored value in args 2 (low) and 3 (high); a loaded one returns in
    the result registers."""
    name = "__pkt_%s_f%d_w%d" % ("load" if load else "store", f_bit, width)
    fn = ctx.helpers.get(name)
    if fn is not None:
        return fn
    hb = Emitter(name)
    ph = hb.vreg("ph")
    hb.emit(Mov(ph, abi.ARG_REGS[0]))
    off = hb.vreg("off")
    hb.emit(Mov(off, abi.ARG_REGS[1]))
    lo = hb.vreg("lo" if load else "vlo")
    if not load:
        hb.emit(Mov(lo, abi.ARG_REGS[2]))
    hi = None
    if width > 32:
        hi = hb.vreg("hi" if load else "vhi")
        if not load:
            hb.emit(Mov(hi, abi.ARG_REGS[3]))
    buf, head = _read_buf_head(hb, ph)
    (_generic_load_body if load else _generic_store_body)(
        hb, buf, head, off, f_bit, width, lo, hi)
    results = []
    if load:
        results = [abi.RET_LO]
        if hi is not None:
            hb.emit(Mov(abi.RET_HI, hi))
            results.append(abi.RET_HI)
        hb.emit(Mov(abi.RET_LO, lo))
    hb.emit(Rtn(abi.LINK, result_regs=results))
    ctx.helpers[name] = hb.fn
    return hb.fn


# -- static (SOAR-resolved) shape -----------------------------------------------------


def _static_span(instr: I.PktAccess) -> Tuple[int, int, int]:
    """The 8 B-aligned DRAM window covering the access's bits: (first
    byte, quadwords, bit of the access within it).
    The absolute offset is relative to packet-data start; the buffer
    address is 2 KiB aligned so alignment folds into constants.
    Encapsulation can move the head *before* data start (into the
    headroom), so addresses are biased by HEADROOM_BYTES."""
    abs_bit = instr.c_offset_bits + instr.bit_off + HEADROOM_BYTES * 8
    first_byte = (abs_bit // 8) & ~7
    last_byte = (abs_bit + instr.bit_width - 1) // 8
    return first_byte, (last_byte - first_byte) // 8 + 1, abs_bit - first_byte * 8


def _dram_chunks(E, rw: str, words: List[VReg], buf, first_byte: int,
                 units: int, mask: Optional[int] = None) -> None:
    """Move ``units`` quadwords at buf + first_byte; a DRAM instruction
    moves at most 8, so larger windows take several."""
    done = 0
    while done < units:
        chunk = min(8, units - done)
        E.emit(Mem("dram", rw, words[done * 2 : (done + chunk) * 2], buf,
                   Imm(first_byte + done * 8), chunk, category=PKT,
                   byte_mask=None if mask is None
                   else (mask >> (done * 8)) & ((1 << (chunk * 8)) - 1)))
        done += chunk


def _static_window_read(fl, instr: I.PktAccess) -> Tuple[List[VReg], int]:
    """Read the window covering the access's bits. Returns (window
    words, bit of the access within the window)."""
    first_byte, units, rel = _static_span(instr)
    buf = fl.pkt.words(instr.ph, 1)[0]
    window = [fl.vreg("w%d" % i) for i in range(units * 2)]
    _dram_chunks(fl, "read", window, buf, first_byte, units)
    return window, rel


def _extract_const32(E, window: List[VReg], rel_bit: int, width: int, dst) -> None:
    """dst = ``width``(<=32) bits of the window starting at ``rel_bit``."""
    wi, sh = divmod(rel_bit, 32)
    if sh + width <= 32:
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
    if right:
        t = E.vreg()
        E.emit(Alu("lshr", t, aligned, Imm(right)))
        aligned = t
    if width < 32:
        E.emit(Alu("and", dst, aligned, _imm(E, (1 << width) - 1, "mask")))
    else:
        E.emit(Mov(dst, aligned))


def _static_field_load(fl, instr: I.PktLoadField) -> None:
    width = instr.bit_width
    window, rel = _static_window_read(fl, instr)
    if width > 32:
        hi, lo = fl.dst_pair(instr.dst)
        _extract_const32(fl, window, rel + width - 32, 32, lo)
        _extract_const32(fl, window, rel, width - 32, hi)
    else:
        _extract_const32(fl, window, rel, width, fl.dst32(instr.dst))


def _value_parts(E, value_lo, value_hi, width: int,
                 rel_bit: int) -> Tuple[List[Tuple[int, object]], int]:
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
        wi, sh = divmod(bit0, 32)
        right = 32 - sh - w  # >=0 when the chunk fits this word
        if right >= 0:
            part = val
            if right:
                part = E.vreg()
                E.emit(Alu("shl", part, val, Imm(right)))
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


def _emit_masked_write(fl, buf, first_byte: int, units: int, parts,
                       mask: int) -> None:
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
    _dram_chunks(fl, "write", words, buf, first_byte, units, mask)


def _static_field_store(fl, instr: I.PktStoreField) -> None:
    width = instr.bit_width
    first_byte, units, rel = _static_span(instr)
    buf = fl.pkt.words(instr.ph, 1)[0]
    if instr.bit_off % 8 == 0 and width % 8 == 0:
        if width > 32:
            vhi, vlo = fl.pair(instr.value)
        else:
            vhi, vlo = None, fl.reg32(instr.value)
        parts, mask = _value_parts(fl, vlo, vhi, width, rel)
        _emit_masked_write(fl, buf, first_byte, units, parts, mask)
        return
    # Sub-byte field (at most 32 bits: semantic analysis rejects a store
    # to a wider one): read-modify-write the window with constant shifts.
    # It may still span two words.
    window = [fl.vreg("rmw%d" % i) for i in range(units * 2)]
    _dram_chunks(fl, "read", window, buf, first_byte, units)
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
        fl.emit(Alu("and", masked, part, _imm(fl, (1 << nbits) - 1)))
        placed = fl.vreg()
        if lshift:
            fl.emit(Alu("shl", placed, masked, Imm(lshift)))
        else:
            fl.emit(Mov(placed, masked))
        merged = fl.vreg()
        fl.emit(Alu("or", merged, cleared, placed))
        window[wi] = merged
    _dram_chunks(fl, "write", window, buf, first_byte, units)


# -- generic (dynamic-offset) shape ---------------------------------------------------


def _generic_addr(E, buf, head, byte_off: Union[int, VReg]) -> VReg:
    """A = buf + head + byte_off (the HEADROOM bias is folded into head by
    Rx); ``byte_off`` is a constant, or the register of a helper's."""
    addr = E.vreg("A")
    E.emit(Alu("add", addr, buf, head))
    if isinstance(byte_off, int) and not byte_off:
        return addr
    out = E.vreg("A")
    E.emit(Alu("add", out, addr, _imm(E, byte_off)
               if isinstance(byte_off, int) else byte_off))
    return out


def _window_base(E, addr: VReg) -> VReg:
    """addr & ~7: the 8 B-aligned DRAM window that holds ``addr``."""
    base = E.vreg("base")
    t = E.vreg()
    E.emit(Alu("lshr", t, addr, Imm(3)))
    E.emit(Alu("shl", base, t, Imm(3)))
    return base


def _bit_in_word(E, byte: VReg, hint: str = "bitsh") -> VReg:
    """(byte & 3) << 3: the bit at which byte offset ``byte`` starts
    within its word."""
    out = E.vreg(hint)
    t = E.vreg()
    E.emit(Alu("and", t, byte, Imm(3)))
    E.emit(Alu("shl", out, t, Imm(3)))
    return out


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


def _dyn_funnel(E, w0: VReg, w1: VReg, shift: VReg, right: bool = False) -> VReg:
    """The 32 bits at bit ``shift`` of w0:w1, (w0 << shift) | (w1 >> (32 -
    shift)); or, ``right``, at bit 32 - ``shift``: (w0 << (32 - shift)) |
    (w1 >> shift). Correct for shift == 0."""
    kept = E.vreg()
    E.emit(Alu("lshr", kept, w1, shift) if right else Alu("shl", kept, w0, shift))
    inv = E.vreg()
    E.emit(Alu("sub", inv, Imm(32), shift))
    spill = E.vreg()
    E.emit(Alu("shl", spill, w0, inv) if right else Alu("lshr", spill, w1, inv))
    l_nz = E.label("fr" if right else "fz")
    E.emit(Cmp(shift, Imm(0)))
    E.emit(Br("ne", l_nz))
    E.emit(Immed(spill, 0))
    E.new_block(l_nz)
    out = E.vreg()
    E.emit(Alu("or", out, *((spill, kept) if right else (kept, spill))))
    return out


def _generic_load_body(E, buf: VReg, head: VReg, byte_off, f_bit: int,
                       width: int, out_lo: VReg, out_hi: Optional[VReg]) -> None:
    """The generic field-load sequence (inline at -O2+, or a helper body
    at BASE/-O1). ``byte_off`` is the field's byte offset relative to the
    (dynamic) head."""
    addr = _generic_addr(E, buf, head, byte_off)
    base = _window_base(E, addr)
    window = [E.vreg("gw%d" % i) for i in range(4)]
    E.emit(Mem("dram", "read", window, base, Imm(0), 2, category=PKT))
    woff = E.vreg("woff")
    t = E.vreg()
    E.emit(Alu("lshr", t, addr, Imm(2)))
    E.emit(Alu("and", woff, t, Imm(1)))
    bitpos = _bit_in_word(E, addr, "bitpos")
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
            v = t
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


def _generic_store_body(E, buf: VReg, head: VReg, byte_off, f_bit: int,
                        width: int, value_lo, value_hi) -> None:
    """Generic store: byte-aligned byte-multiple fields use a dynamically
    masked write; sub-byte fields do a read-modify-write window."""
    addr = _generic_addr(E, buf, head, byte_off)
    base = _window_base(E, addr)
    inoff = E.vreg("inoff")  # byte offset of the field within the window
    E.emit(Alu("and", inoff, addr, Imm(7)))

    if f_bit == 0 and width % 8 == 0:
        # Value words, left-aligned at the stream start (as if inoff==0):
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
            vw = [va]
        else:
            vw = [value_lo]
        _generic_store_stream(E, base, inoff, vw, width // 8)
        return

    # Sub-byte / unaligned-width generic store: full read-modify-write.
    # The field may straddle two words (e.g. a 20-bit MPLS label at a
    # misaligned head), so clear + insert across the selected word pair.
    window = [E.vreg("gsw%d" % i) for i in range(4)]
    E.emit(Mem("dram", "read", window, base, Imm(0), 2, category=PKT))
    bitsh = _bit_in_word(E, inoff, "")
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
    bitsh = _bit_in_word(E, inoff)
    zero = E.materialize(0, "z")
    padded = [zero] + stream + [zero]
    # Shift the stream right by bitsh across word boundaries; this aligns
    # the value to (inoff & 3) within its word.
    out_words = [_dyn_funnel(E, padded[k], padded[k + 1], bitsh, right=True)
                 for k in range(len(stream) + 1)]
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
    maskv = E.materialize(ones, "bmask") if ones > MAX_ALU_IMM else Imm(ones)
    shifted_mask = E.vreg("bmask")
    E.emit(Alu("shl", shifted_mask, maskv, inoff))
    E.emit(Mem("dram", "write", final, base, Imm(0), units,
               category=PKT, byte_mask=shifted_mask))


# -- PAC wide accesses ---------------------------------------------------------------


def _lower_wide_load(fl, instr: I.PktLoadWords) -> None:
    if _is_static(fl, instr):
        window, rel = _static_window_read(fl, instr)
        for i, dst in enumerate(instr.dsts):
            _extract_const32(fl, window, rel + 32 * i, 32, fl.dst32(dst))
        return
    # Generic wide load: dynamic window + per-word dynamic funnels.
    buf, head = fl.pkt.words(instr.ph, 2)
    addr = _generic_addr(fl, buf, head, instr.byte_off)
    base = _window_base(fl, addr)
    units = min(8, instr.nwords // 2 + 2)
    window = [fl.vreg("ww%d" % i) for i in range(units * 2)]
    fl.emit(Mem("dram", "read", window, base, Imm(0), units, category=PKT))
    inoff = fl.vreg("inoff")
    fl.emit(Alu("and", inoff, addr, Imm(7)))
    woff = fl.vreg("woff")
    fl.emit(Alu("lshr", woff, inoff, Imm(2)))
    bitsh = _bit_in_word(fl, inoff)
    picks = _select_words(fl, window, woff, instr.nwords + 1)
    for i, dst in enumerate(instr.dsts):
        v = _dyn_funnel(fl, picks[i], picks[i + 1], bitsh)
        fl.emit(Mov(fl.dst32(dst), v))


def _lower_wide_store(fl, instr: I.PktStoreWords) -> None:
    # Word values with per-word byte masks (bit 3 = MSB byte of the word).
    if _is_static(fl, instr):
        first_byte, units, rel = _static_span(instr)
        buf = fl.pkt.words(instr.ph, 1)[0]
        parts: List[Tuple[int, object]] = []
        mask = 0
        for i in range(instr.nwords):
            wmask = instr.byte_masks[i]
            if wmask == 0:
                continue
            vreg = fl.reg32(instr.values[i])
            p, _ = _value_parts(fl, vreg, None, 32, rel + 32 * i)
            parts.extend(p)
            # Window-byte mask restricted to the bytes this word covers
            # (rel is always a whole number of bytes).
            for b in range(4):
                if wmask & (1 << (3 - b)):
                    mask |= 1 << (rel // 8 + 4 * i + b)
        _emit_masked_write(fl, buf, first_byte, units, parts, mask)
        return
    # Generic wide store: coalesce the covered bytes into maximal runs
    # and emit one dynamically-masked write per <=16-byte run.
    covered = [bool(wmask & (1 << (3 - b)))
               for wmask in instr.byte_masks[:instr.nwords] for b in range(4)]
    runs: List[Tuple[int, int]] = []  # (start_byte, length)
    pos = 0
    while pos < len(covered):
        if not covered[pos]:
            pos += 1
            continue
        start = pos
        while pos < len(covered) and covered[pos]:
            pos += 1
        length = pos - start
        while length > 16:
            runs.append((start, 16))
            start += 16
            length -= 16
        runs.append((start, length))
    buf, head = fl.pkt.words(instr.ph, 2)
    for start, length in runs:
        addr = _generic_addr(fl, buf, head, instr.byte_off + start)
        base = _window_base(fl, addr)
        inoff = fl.vreg("inoff")
        fl.emit(Alu("and", inoff, addr, Imm(7)))
        stream = _gather_run_words(fl, instr, start, length)
        _generic_store_stream(fl, base, inoff, stream, length)
    fl.pkt.memo.clear()


def _gather_run_words(fl, instr: I.PktStoreWords, start: int,
                      length: int) -> List[VReg]:
    """Assemble ``length`` (<=16) consecutive value bytes starting at word
    byte ``start`` into a left-aligned word stream using constant shifts."""

    def word_at(byte0: int) -> VReg:
        """4 stream bytes starting at ``byte0`` (beyond-end bytes zero)."""
        w0, off = divmod(byte0, 4)
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


# -- drop / create / copy --------------------------------------------------------------


def _lower_drop(fl, instr: I.PktDrop) -> None:
    ph = fl.reg32(instr.ph)
    buf = fl.pkt.words(instr.ph, 1)[0]
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
    _emit_dram_fill_zero(fl, buf, length)
    fl.pkt.memo[fl.pkt.key(instr.dst, META_BUF_ADDR)] = buf


def _emit_dram_fill_zero(fl, buf: VReg, length: VReg) -> None:
    """Zero the header + payload area of a created packet (8 B units)."""
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
    fl.pkt.writeback(instr)  # the copy reads the source's metadata block
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
    fl.pkt.memo[fl.pkt.key(instr.dst, META_BUF_ADDR)] = new_buf
