"""Human-readable IR printing (for debugging and golden tests)."""

from __future__ import annotations

from typing import List

from repro.ir import instructions as I
from repro.ir.module import IRFunction, IRModule


def _fmt(v) -> str:
    return repr(v)


def format_instr(instr: I.Instr) -> str:
    if isinstance(instr, I.Assign):
        return "%s = %s" % (_fmt(instr.dst), _fmt(instr.src))
    if isinstance(instr, I.BinOp):
        return "%s = %s %s, %s" % (_fmt(instr.dst), instr.op, _fmt(instr.a), _fmt(instr.b))
    if isinstance(instr, I.Cmp):
        return "%s = cmp.%s %s, %s" % (_fmt(instr.dst), instr.op, _fmt(instr.a), _fmt(instr.b))
    if isinstance(instr, I.Call):
        args = ", ".join(_fmt(a) for a in instr.args)
        if instr.dst is not None:
            return "%s = call %s(%s)" % (_fmt(instr.dst), instr.func, args)
        return "call %s(%s)" % (instr.func, args)
    if isinstance(instr, I.Jump):
        return "jump %s" % instr.target.label
    if isinstance(instr, I.Branch):
        return "br %s ? %s : %s" % (_fmt(instr.cond), instr.then_bb.label, instr.else_bb.label)
    if isinstance(instr, I.Ret):
        return "ret %s" % _fmt(instr.value) if instr.value is not None else "ret"
    if isinstance(instr, I.LoadG):
        return "%s = loadg %s[%s] w%d" % (_fmt(instr.dst), instr.g, _fmt(instr.offset), instr.width)
    if isinstance(instr, I.LoadGWords):
        dsts = ", ".join(_fmt(d) for d in instr.dsts)
        return "[%s] = loadg_words %s[%s] x%d" % (dsts, instr.g, _fmt(instr.offset),
                                                  instr.nwords)
    if isinstance(instr, I.StoreG):
        return "storeg %s[%s] = %s w%d" % (instr.g, _fmt(instr.offset), _fmt(instr.value), instr.width)
    if isinstance(instr, I.LoadL):
        return "%s = loadl %s[%s] w%d" % (_fmt(instr.dst), instr.array, _fmt(instr.offset), instr.width)
    if isinstance(instr, I.StoreL):
        return "storel %s[%s] = %s w%d" % (instr.array, _fmt(instr.offset), _fmt(instr.value), instr.width)
    if isinstance(instr, I.PktLoadField):
        return "%s = pkt_load %s %s.%s [+%db w%d]%s" % (
            _fmt(instr.dst), _fmt(instr.ph), instr.proto, instr.field,
            instr.bit_off // 8, instr.bit_width, _soar(instr),
        )
    if isinstance(instr, I.PktStoreField):
        return "pkt_store %s %s.%s = %s [+%db w%d]%s" % (
            _fmt(instr.ph), instr.proto, instr.field, _fmt(instr.value),
            instr.bit_off // 8, instr.bit_width, _soar(instr),
        )
    if isinstance(instr, I.PktLoadWords):
        dsts = ", ".join(_fmt(d) for d in instr.dsts)
        return "[%s] = pkt_load_words %s +%d x%d%s" % (
            dsts, _fmt(instr.ph), instr.byte_off, instr.nwords, _soar(instr))
    if isinstance(instr, I.PktStoreWords):
        vals = ", ".join(_fmt(v) for v in instr.values)
        return "pkt_store_words %s +%d x%d = [%s] masks=%s%s" % (
            _fmt(instr.ph), instr.byte_off, instr.nwords, vals,
            [bin(m) for m in instr.byte_masks], _soar(instr))
    if isinstance(instr, I.MetaLoad):
        return "%s = meta_load %s.%s [w%d]" % (_fmt(instr.dst), _fmt(instr.ph), instr.field, instr.word)
    if isinstance(instr, I.MetaStore):
        return "meta_store %s.%s [w%d] = %s" % (_fmt(instr.ph), instr.field, instr.word, _fmt(instr.value))
    if isinstance(instr, I.PktEncap):
        return "%s = pkt_encap %s %s (+%dB)%s" % (
            _fmt(instr.dst), _fmt(instr.src), instr.proto, instr.header_bytes, _soar(instr))
    if isinstance(instr, I.PktDecap):
        size = ("%dB" % instr.header_bytes if instr.header_bytes is not None
                else _fmt(instr.delta))
        return "%s = pkt_decap %s %s->%s (-%s)%s" % (
            _fmt(instr.dst), _fmt(instr.src), instr.src_proto,
            instr.result_proto or "raw", size, _soar(instr))
    if isinstance(instr, I.PktCopy):
        return "%s = pkt_copy %s" % (_fmt(instr.dst), _fmt(instr.src))
    if isinstance(instr, I.PktDrop):
        return "pkt_drop %s" % _fmt(instr.ph)
    if isinstance(instr, I.PktCreate):
        return "%s = pkt_create %s len=%s" % (_fmt(instr.dst), instr.proto, _fmt(instr.length))
    if isinstance(instr, I.PktLength):
        return "%s = pkt_length %s" % (_fmt(instr.dst), _fmt(instr.ph))
    if isinstance(instr, I.PktAdjust):
        return "pkt_%s %s %s" % (instr.op, _fmt(instr.ph), _fmt(instr.amount))
    if isinstance(instr, I.PktSyncHead):
        return "pkt_sync_head %s delta=%+d" % (_fmt(instr.ph), instr.delta_bytes)
    if isinstance(instr, I.ChanPut):
        return "chan_put %s, %s" % (instr.channel, _fmt(instr.ph))
    if isinstance(instr, I.LockAcquire):
        return "lock_acquire %s" % instr.lock
    if isinstance(instr, I.LockRelease):
        return "lock_release %s" % instr.lock
    if isinstance(instr, I.LmLoad):
        return "%s = lm_load [%s]" % (_fmt(instr.dst), _fmt(instr.index))
    if isinstance(instr, I.LmStore):
        return "lm_store [%s] = %s" % (_fmt(instr.index), _fmt(instr.value))
    if isinstance(instr, I.LoadResident):
        return "%s = loadg_resident %s[%s + %d] w%d @lm%d" % (
            _fmt(instr.dst), instr.g, _fmt(instr.index), instr.word,
            instr.width, instr.replica)
    if isinstance(instr, I.LmFill):
        return "lm_fill [%d..%d] = %s" % (
            instr.replica, instr.replica + instr.words - 1, instr.g)
    return "<%s>" % type(instr).__name__


def _soar(instr: I.PktInstr) -> str:
    parts = []
    if getattr(instr, "c_offset_bits", None) is not None:
        parts.append("off=%d" % instr.c_offset_bits)
    if getattr(instr, "c_alignment", None) is not None:
        parts.append("align=%d" % instr.c_alignment)
    return " {%s}" % ", ".join(parts) if parts else ""


def format_function(fn: IRFunction) -> str:
    lines: List[str] = []
    params = ", ".join(repr(p) for p in fn.params)
    lines.append("%s %s(%s):  ; kind=%s" % (fn.ret_type, fn.name, params, fn.kind))
    for arr in fn.local_arrays.values():
        lines.append("  local %s: %s[%d]" % (arr.name, arr.element, arr.length))
    for bb in fn.blocks:
        lines.append("%s:" % bb.label)
        for instr in bb.all_instrs():
            lines.append("  %s" % format_instr(instr))
    return "\n".join(lines)


def format_module(mod: IRModule) -> str:
    return "\n\n".join(format_function(fn) for fn in mod.functions.values())
