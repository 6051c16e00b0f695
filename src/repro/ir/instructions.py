"""IR instruction set.

Instructions are small mutable objects. Each class declares which of its
attributes are operand uses (``_uses``) and which are definitions
(``_defs``); generic passes use :meth:`Instr.uses`, :meth:`Instr.defs` and
:meth:`Instr.replace_uses` so they never need to know concrete classes.

Packet primitives (``PktLoadField`` etc.) are first-class instructions --
this is the property the paper's packet optimizations (PAC, SOAR, PHR)
rely on. Each instruction also states, once, what it does to the packets
it acts through (its packet-typed operands) -- the optimizer's one
packet-head model, which SOAR, PHR, PAC and CSE all read:

* ``moves_head`` / :meth:`Instr.head_delta` -- whether the head moves,
  and by how many bytes toward the payload (``None`` = not a constant);
* ``moves_tail`` -- whether the tail moves (the extent changes even
  where the head stays);
* ``hands_on`` -- someone else reads the packet's metadata words next
  (a channel's consumer, a copy, a callee);
* ``releases`` -- the packet leaves this code's hands (put, dropped, or
  maybe by a callee);
* ``renames`` -- the result is the same packet with its head moved
  (encap/decap), which PHR may leave in registers.

Packet instructions carry optional SOAR annotations:

* ``c_offset_bits`` -- statically resolved bit offset of the handle's head
  relative to the start of packet data (``None`` = unknown / ``-offset``);
* ``c_alignment`` -- statically resolved byte alignment of the head
  (``None`` = unknown / ``-alignment``).

A late pass (:mod:`repro.cg.pktlower`) expands surviving packet
instructions into explicit metadata (SRAM) and packet-data (DRAM)
accesses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baker import types as T
from repro.ir.values import Const, Operand, Temp

# Binary opcodes. Shift/divide have signed/unsigned variants where it
# matters; Baker's checker picks based on operand signedness.
BINOPS = {
    "add", "sub", "mul", "div_u", "div_s", "rem_u", "rem_s",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
CMPOPS = {"eq", "ne", "lt_u", "le_u", "gt_u", "ge_u", "lt_s", "le_s", "gt_s", "ge_s"}


class Instr:
    """Base instruction. Subclasses set ``_uses``/``_defs`` to attribute
    names; attributes may hold a single operand, a list of operands, or
    None."""

    _uses: Sequence[str] = ()
    _defs: Sequence[str] = ()
    side_effects = True
    is_terminator = False
    # The packet effects (module docstring); none by default.
    moves_head = moves_tail = hands_on = releases = renames = False

    loc = None  # optional source location

    def head_delta(self) -> Optional[int]:
        """Bytes the head moves toward the payload (negative: toward the
        front); None when that is not a compile-time constant."""
        return 0

    @property
    def touches_packet(self) -> bool:
        """Whether the instruction moves, hands on or releases a packet."""
        return self.moves_head or self.moves_tail or self.hands_on or self.releases

    def uses(self) -> List[Operand]:
        out: List[Operand] = []
        for attr in self._uses:
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                out.extend(x for x in v if x is not None)
            else:
                out.append(v)
        return out

    def defs(self) -> List[Temp]:
        out: List[Temp] = []
        for attr in self._defs:
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                out.extend(v)
            else:
                out.append(v)
        return out

    def replace_uses(self, mapping: Dict[Temp, Operand]) -> None:
        """Substitute operands according to ``mapping`` (keyed by Temp)."""
        for attr in self._uses:
            v = getattr(self, attr)
            if v is None:
                continue
            if isinstance(v, list):
                setattr(
                    self,
                    attr,
                    [mapping.get(x, x) if isinstance(x, Temp) else x for x in v],
                )
            elif isinstance(v, Temp) and v in mapping:
                setattr(self, attr, mapping[v])

    def copy_annotations_from(self, other: "Instr") -> None:
        self.loc = other.loc

    def __repr__(self) -> str:
        from repro.ir.printer import format_instr

        return format_instr(self)


# -- core ---------------------------------------------------------------------


class Assign(Instr):
    """dst = src (move)."""

    _uses = ("src",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, src: Operand):
        self.dst = dst
        self.src = src


class BinOp(Instr):
    """dst = a <op> b. Results wrap to the dst type width."""

    _uses = ("a", "b")
    _defs = ("dst",)
    side_effects = False

    def __init__(self, op: str, dst: Temp, a: Operand, b: Operand):
        assert op in BINOPS, op
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b


class Cmp(Instr):
    """dst = a <cmp> b (bool result)."""

    _uses = ("a", "b")
    _defs = ("dst",)
    side_effects = False

    def __init__(self, op: str, dst: Temp, a: Operand, b: Operand):
        assert op in CMPOPS, op
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b


class Call(Instr):
    """Direct call to a user function (qualified name)."""

    _uses = ("args",)
    _defs = ("dst",)
    # The callee may do anything to any packet it is handed.
    moves_head = moves_tail = hands_on = releases = True

    def __init__(self, dst: Optional[Temp], func: str, args: List[Operand]):
        self.dst = dst
        self.func = func
        self.args = args

    def head_delta(self) -> Optional[int]:
        return None


# -- terminators -----------------------------------------------------------------


class Jump(Instr):
    is_terminator = True

    def __init__(self, target: "object"):
        self.target = target  # BasicBlock

    def successors(self) -> List[object]:
        return [self.target]


class Branch(Instr):
    """Conditional branch: if cond != 0 goto then_bb else else_bb."""

    _uses = ("cond",)
    is_terminator = True

    def __init__(self, cond: Operand, then_bb: "object", else_bb: "object"):
        self.cond = cond
        self.then_bb = then_bb
        self.else_bb = else_bb

    def successors(self) -> List[object]:
        return [self.then_bb, self.else_bb]


class Ret(Instr):
    _uses = ("value",)
    is_terminator = True

    def __init__(self, value: Optional[Operand] = None):
        self.value = value

    def successors(self) -> List[object]:
        return []


# -- global / stack memory ----------------------------------------------------------


class LoadG(Instr):
    """dst = load(global g, byte offset, width bytes). ``g`` is the
    qualified global name; the symbol lives in the IR module's global
    table (memory space + address assigned there)."""

    _uses = ("offset",)
    _defs = ("dst",)
    side_effects = False  # reads memory; kept ordered by passes that care

    def __init__(self, dst: Temp, g: str, offset: Operand, width: int):
        assert width in (4, 8)
        self.dst = dst
        self.g = g
        self.offset = offset
        self.width = width


class StoreG(Instr):
    _uses = ("offset", "value")

    def __init__(self, g: str, offset: Operand, value: Operand, width: int):
        assert width in (4, 8)
        self.g = g
        self.offset = offset
        self.value = value
        self.width = width


class LoadGWords(Instr):
    """PAC result for application data: one wide SRAM/Scratch access
    loading ``nwords`` consecutive words of a global into ``dsts``
    (memory coalescing, Davidson & Jinturkar style -- the paper notes PAC
    'aids the scalar optimizer' on Firewall's rule table this way)."""

    _uses = ("offset",)
    _defs = ("dsts",)
    side_effects = False

    def __init__(self, dsts: List[Temp], g: str, offset: Operand, nwords: int):
        self.dsts = dsts
        self.g = g
        self.offset = offset
        self.nwords = nwords


class LoadL(Instr):
    """dst = load from a stack-local array (name is function-unique)."""

    _uses = ("offset",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, array: str, offset: Operand, width: int):
        self.dst = dst
        self.array = array
        self.offset = offset
        self.width = width


class StoreL(Instr):
    _uses = ("offset", "value")

    def __init__(self, array: str, offset: Operand, value: Operand, width: int):
        self.array = array
        self.offset = offset
        self.value = value
        self.width = width


# -- packet primitives -----------------------------------------------------------------


class PktInstr(Instr):
    """Base for packet instructions; carries SOAR annotations."""

    c_offset_bits: Optional[int] = None
    c_alignment: Optional[int] = None


class PktAccess(PktInstr):
    """A packet data access: the ``bit_width`` bits at ``bit_off`` from
    the handle's head, read into ``dst``/``dsts`` or, when ``stores``,
    written. PAC, SOAR, PHR, the layout check, ``cg.codesize`` and
    ``cg.pktlower`` read an access through this model alone."""

    stores = False

    @property
    def bit_end(self) -> int:
        return self.bit_off + self.bit_width

    def rebase(self, delta_bytes: int) -> None:
        """Address the same bits from a head ``delta_bytes`` nearer the
        front (PHR's deferred head): the offset grows by that much and
        SOAR's head annotation moves back by the same."""
        self.bit_off += 8 * delta_bytes
        if self.c_offset_bits is not None:
            self.c_offset_bits -= 8 * delta_bytes


class PktLoadField(PktAccess):
    """dst = packet field (protocol bit-field relative to the handle's
    head)."""

    _uses = ("ph",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, ph: Operand, proto: str, field: str,
                 bit_off: int, bit_width: int):
        self.dst = dst
        self.ph = ph
        self.proto = proto
        self.field = field
        self.bit_off = bit_off  # relative to the handle's head
        self.bit_width = bit_width


class PktStoreField(PktAccess):
    _uses = ("ph", "value")
    stores = True

    def __init__(self, ph: Operand, proto: str, field: str, bit_off: int,
                 bit_width: int, value: Operand):
        self.ph = ph
        self.proto = proto
        self.field = field
        self.bit_off = bit_off
        self.bit_width = bit_width
        self.value = value


class PktWords(PktAccess):
    """A PAC wide access: ``nwords`` 32-bit words from ``byte_off``
    relative to the handle's head, in one DRAM instruction. Its bits
    follow from those two, and it starts on a byte."""

    @property
    def bit_off(self) -> int:
        return self.byte_off * 8

    @bit_off.setter
    def bit_off(self, value: int) -> None:
        if value % 8:
            raise ValueError("a word access starts on a byte, not at bit %d" % value)
        self.byte_off = value // 8

    @property
    def bit_width(self) -> int:
        return self.nwords * 32


class PktLoadWords(PktWords):
    """PAC result: loads the words into ``dsts``."""

    _uses = ("ph",)
    _defs = ("dsts",)
    side_effects = False

    def __init__(self, dsts: List[Temp], ph: Operand, byte_off: int, nwords: int):
        self.dsts = dsts
        self.ph = ph
        self.byte_off = byte_off
        self.nwords = nwords


class PktStoreWords(PktWords):
    """PAC result: writes ``values``. ``byte_masks[i]`` gives which bytes
    of word i are actually defined (0b1111 = full word); partial words
    require merge-with-memory."""

    _uses = ("ph", "values")
    stores = True

    def __init__(self, ph: Operand, byte_off: int, nwords: int,
                 values: List[Operand], byte_masks: List[int]):
        self.ph = ph
        self.byte_off = byte_off
        self.nwords = nwords
        self.values = values
        self.byte_masks = byte_masks


class MetaLoad(PktInstr):
    """dst = packet metadata word (SRAM)."""

    _uses = ("ph",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, ph: Operand, field: str, word: int):
        self.dst = dst
        self.ph = ph
        self.field = field
        self.word = word


class MetaStore(PktInstr):
    _uses = ("ph", "value")

    def __init__(self, ph: Operand, field: str, word: int, value: Operand):
        self.ph = ph
        self.field = field
        self.word = word
        self.value = value


class PktEncap(PktInstr):
    """dst_ph = encapsulate src_ph with a new (constant-size) header."""

    _uses = ("src",)
    _defs = ("dst",)
    moves_head = renames = True

    def __init__(self, dst: Temp, src: Operand, proto: str, header_bytes: int):
        self.dst = dst
        self.src = src
        self.proto = proto
        self.header_bytes = header_bytes

    def head_delta(self) -> Optional[int]:
        return -self.header_bytes


class PktDecap(PktInstr):
    """dst_ph = strip the current header of src_ph. ``src_proto`` is the
    protocol being stripped; its demux gives the header size:
    ``header_bytes`` when it is a constant, otherwise the ``delta``
    operand, which the front end computes from the header's own fields
    with ordinary loads and arithmetic in front of this instruction."""

    _uses = ("src", "delta")
    _defs = ("dst",)
    moves_head = renames = True

    def __init__(self, dst: Temp, src: Operand, src_proto: str,
                 result_proto: Optional[str], header_bytes: Optional[int],
                 delta: Optional[Operand] = None):
        assert (header_bytes is None) != (delta is None)
        self.dst = dst
        self.src = src
        self.src_proto = src_proto
        self.result_proto = result_proto
        self.header_bytes = header_bytes
        self.delta = delta

    def head_delta(self) -> Optional[int]:
        return self.header_bytes


class PktCopy(PktInstr):
    _uses = ("src",)
    _defs = ("dst",)
    hands_on = True  # the copy starts from the source's metadata

    def __init__(self, dst: Temp, src: Operand):
        self.dst = dst
        self.src = src


class PktDrop(PktInstr):
    _uses = ("ph",)
    releases = True

    def __init__(self, ph: Operand):
        self.ph = ph


class PktCreate(PktInstr):
    _uses = ("length",)
    _defs = ("dst",)

    def __init__(self, dst: Temp, proto: str, header_bytes: int, length: Operand):
        self.dst = dst
        self.proto = proto
        self.header_bytes = header_bytes
        self.length = length  # payload bytes beyond the header


class PktLength(PktInstr):
    _uses = ("ph",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, ph: Operand):
        self.dst = dst
        self.ph = ph


class PktAdjust(PktInstr):
    """Tail/head adjustment primitives: op in {'add_tail', 'remove_tail',
    'extend', 'shorten'}."""

    _uses = ("ph", "amount")
    moves_tail = True  # every op changes the extent

    def __init__(self, op: str, ph: Operand, amount: Operand):
        assert op in ("add_tail", "remove_tail", "extend", "shorten")
        self.op = op
        self.ph = ph
        self.amount = amount

    @property
    def moves_head(self) -> bool:
        return self.op in ("extend", "shorten")

    def head_delta(self) -> Optional[int]:
        if not self.moves_head:
            return 0
        if not isinstance(self.amount, Const):
            return None
        return -self.amount.value if self.op == "extend" else self.amount.value


class PktSyncHead(PktInstr):
    """Inserted by PHR: apply a deferred head movement to the packet's
    metadata (head_off += delta, len -= delta). Elided encap/decap
    primitives accumulate into one of these (or none, when the net
    movement is zero -- the paper's paired encap/decap elimination)."""

    _uses = ("ph",)
    moves_head = True

    def __init__(self, ph: Operand, delta_bytes: int):
        self.ph = ph
        self.delta_bytes = delta_bytes

    def head_delta(self) -> Optional[int]:
        return self.delta_bytes


class ChanPut(Instr):
    """Release a packet onto a channel (immediate-release endpoint)."""

    _uses = ("ph",)
    hands_on = releases = True

    def __init__(self, channel: str, ph: Operand):
        self.channel = channel
        self.ph = ph


class LockAcquire(Instr):
    def __init__(self, lock: str):
        self.lock = lock


class LockRelease(Instr):
    def __init__(self, lock: str):
        self.lock = lock


# -- SWC / ME-specific (inserted by the SWC pass, post-aggregation) ----------------


class LmLoad(Instr):
    """dst = ME Local Memory word at index (ME-shared across threads)."""

    _uses = ("index",)
    _defs = ("dst",)

    def __init__(self, dst: Temp, index: Operand):
        self.dst = dst
        self.index = index


class LmStore(Instr):
    _uses = ("index", "value")

    def __init__(self, index: Operand, value: Operand):
        self.index = index
        self.value = value


class LoadResident(Instr):
    """dst = the ``width`` bytes of global ``g`` at word ``index + word``,
    read from the copy of the whole table SWC keeps in every ME's Local
    Memory from SWC-region word ``replica`` on. It means exactly the
    ``LoadG`` it replaced, at byte offset ``(index + word) * 4``; only
    the code generator reads ``replica``."""

    _uses = ("index",)
    _defs = ("dst",)
    side_effects = False

    def __init__(self, dst: Temp, g: str, index: Operand, word: int,
                 width: int, replica: int):
        assert width in (4, 8)
        self.dst = dst
        self.g = g
        self.index = index
        self.word = word
        self.width = width
        self.replica = replica


class LmFill(Instr):
    """Copy all ``words`` words of global ``g`` from memory into Local
    Memory from SWC-region word ``replica`` on: the refresh of a
    resident table's replica."""

    def __init__(self, g: str, replica: int, words: int):
        self.g = g
        self.replica = replica
        self.words = words


INSTR_CLASSES = [
    Assign, BinOp, Cmp, Call, Jump, Branch, Ret,
    LoadG, LoadGWords, StoreG, LoadL, StoreL,
    PktLoadField, PktStoreField, PktLoadWords, PktStoreWords,
    MetaLoad, MetaStore, PktEncap, PktDecap, PktCopy, PktDrop, PktCreate,
    PktLength, PktAdjust, PktSyncHead, ChanPut, LockAcquire, LockRelease,
    LmLoad, LmStore, LoadResident, LmFill,
]
