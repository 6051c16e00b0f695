"""PHR: packet handling removal (paper section 5.3.3).

Three transformations:

1. **Metadata localization** -- a user metadata field whose every access
   occurs in one aggregate function (through one alias class) never needs
   its SRAM metadata slot: accesses become moves through a temp.

2. **Encapsulation elimination** -- a ``packet_encap``/``packet_decap``
   whose incoming head offset is statically known (SOAR) does not need to
   update the packet's ``head_ptr`` in SRAM metadata. The head movement
   is *deferred*: downstream accesses are re-based onto the stale head
   (their offsets adjusted by the pending delta) and a single
   ``PktSyncHead`` materializes the net movement right before the packet
   escapes (``channel_put``, a dynamic-offset primitive, a call...).
   Paired encap/decap with net delta zero vanish entirely -- the paper's
   paired-elimination special case falls out for free.

3. **Register-resident packet state** -- the packet a PPF receives keeps
   its ``buf``/``head``/``len`` (and ``rx_port``) in registers for the
   whole merged aggregate: one metadata read at entry, head movements
   that survive transformation 2 become ALU operations, and head/len go
   back to SRAM only where someone else reads them (a channel's
   consumer, ``packet_copy``, a callee) on a path that moved them.
   :func:`plan_packet_state` decides per function, on the final IR; the
   code generator (:mod:`repro.cg.pktlower`) realizes the plan.

Run after SOAR (consumes its annotations), before packet lowering.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baker import types as T
from repro.baker.packetmodel import META_RX_PORT, META_USER_BASE
from repro.ir import instructions as I
from repro.ir.cfg import solve_forward
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import AliasClasses, packet_handles

# Test-only fault injection (tests/test_analyze_mutations.py): when set
# to "rebase_skew", deferred-head re-basing shifts PAC's word accesses
# one word past the true pending delta -- a deliberately broken elision
# the differential oracle must catch. Never set outside tests.
_TEST_MUTATION = None


@dataclass
class PhrResult:
    localized_meta_fields: List[str] = field(default_factory=list)
    elided_encaps: int = 0
    syncs_inserted: int = 0
    # Register-resident packet state (plan_packet_state):
    state_functions: int = 0
    state_writebacks: int = 0  # escape sites that store head/len first
    state_clean_sites: int = 0  # escape sites no head movement reaches


def run(mod: IRModule) -> PhrResult:
    result = PhrResult()
    _localize_metadata(mod, result)
    for fn in mod.functions.values():
        _elide_encaps(fn, result)
    return result


# -- metadata localization -----------------------------------------------------------


def _localize_metadata(mod: IRModule, result: PhrResult) -> None:
    # field name -> list of (function, instr); builtin words are never localized.
    sites: Dict[str, List[Tuple[IRFunction, I.Instr]]] = {}
    for fn in mod.functions.values():
        for instr in fn.all_instrs():
            if isinstance(instr, (I.MetaLoad, I.MetaStore)) and instr.word >= META_USER_BASE:
                sites.setdefault(instr.field, []).append((fn, instr))

    for fname, accesses in sites.items():
        fns = {fn for fn, _ in accesses}
        if len(fns) != 1:
            obs_ledger.record("phr", "meta:%s" % fname, "kept_in_sram",
                              reason="accessed from %d functions" % len(fns),
                              functions=len(fns), sites=len(accesses))
            continue
        fn = next(iter(fns))
        aliases = AliasClasses(fn)
        classes = {
            aliases.class_of(instr.ph)
            for _, instr in accesses
            if isinstance(instr.ph, Temp)
        }
        if len(classes) != 1:
            obs_ledger.record("phr", "meta:%s" % fname, "kept_in_sram",
                              reason="accessed through %d alias classes" % len(classes),
                              alias_classes=len(classes), sites=len(accesses))
            continue
        # Copies inherit metadata; if the class's packets are ever copied,
        # the single temp would incorrectly couple the two packets.
        if any(isinstance(i, I.PktCopy) for i in fn.all_instrs()):
            obs_ledger.record("phr", "meta:%s" % fname, "kept_in_sram",
                              reason="packets of this class are copied",
                              sites=len(accesses))
            continue
        local = fn.new_temp(T.U32, "meta_%s" % fname)
        init = I.Assign(local, Const(0))
        fn.entry.instrs.insert(0, init)
        for bb in fn.blocks:
            for idx, instr in enumerate(bb.instrs):
                if isinstance(instr, I.MetaLoad) and instr.field == fname:
                    bb.instrs[idx] = I.Assign(instr.dst, local)
                elif isinstance(instr, I.MetaStore) and instr.field == fname:
                    bb.instrs[idx] = I.Assign(local, instr.value)
        result.localized_meta_fields.append(fname)
        obs_ledger.record("phr", "meta:%s" % fname, "localized",
                          reason="all accesses in %s through one alias class" % fn.name,
                          sites=len(accesses))


# -- encap/decap elision ---------------------------------------------------------------


#: A class whose pending deltas disagree at a block's entry: the block
#: starts synced, so every predecessor syncs the class at its end.
_CONFLICT = object()


def _elide_encaps(fn: IRFunction, result: PhrResult) -> None:
    aliases = AliasClasses(fn)
    classes = aliases.classes()
    if not classes:
        return

    # Phase 1: per-block-entry pending deltas (per class): the deferred
    # head movement not yet in metadata.
    ins: Dict[BasicBlock, Dict[Temp, object]] = {}

    def transfer(bb: BasicBlock, state: Dict[Temp, object]) -> Dict[Temp, int]:
        out = _pending_at_entry(state)
        for instr in bb.instrs:
            delta = _deferred_delta(instr)
            if delta is None and not instr.touches_packet:
                continue
            for cls in _touched(instr, aliases):
                if cls in out:
                    out[cls] = 0 if delta is None else out[cls] + delta
        for cls in _forced_syncs(bb, ins):
            if cls in out:
                out[cls] = 0
        return out

    def join(a: Dict[Temp, object], b: Dict[Temp, object]) -> Dict[Temp, object]:
        out = dict(a)
        for cls, v in b.items():
            out[cls] = v if out.get(cls, v) == v else _CONFLICT
        return out

    solve_forward(fn, {c: 0 for c in classes}, transfer, join, ins)

    # Phase 2: rewrite.
    for bb, state in ins.items():
        pending = _pending_at_entry(state)
        forced = _forced_syncs(bb, ins)
        new_instrs: List[I.Instr] = []
        for instr in bb.instrs:
            _rewrite_instr(fn, instr, pending, aliases, new_instrs, result)
        for c in classes:
            if c in forced and pending.get(c, 0):
                ph = _handle_for_class(fn, aliases, c)
                if ph is not None:
                    new_instrs.append(I.PktSyncHead(ph, pending[c]))
                    result.syncs_inserted += 1
                    obs_ledger.record(
                        "phr", fn.name, "sync_inserted",
                        reason="join mismatch forces sync at block end",
                        delta_bytes=pending[c])
                    pending[c] = 0
        bb.instrs = new_instrs


def _pending_at_entry(state: Dict[Temp, object]) -> Dict[Temp, int]:
    """A class in conflict starts the block synced."""
    return {c: 0 if v is _CONFLICT else v for c, v in state.items()}


def _forced_syncs(bb: BasicBlock, ins) -> set:
    """Classes ``bb`` syncs at its end: those some successor starts
    synced because its predecessors disagree."""
    return {c for succ in bb.succs
            for c, v in ins.get(succ, {}).items() if v is _CONFLICT}


def _touched(instr: I.Instr, aliases: AliasClasses) -> Dict[Temp, Temp]:
    """alias class -> the first handle of it ``instr`` acts through. Only
    a call can name more than one class."""
    touched: Dict[Temp, Temp] = {}
    for ph in packet_handles(instr):
        touched.setdefault(aliases.class_of(ph), ph)
    return touched


def _deferred_delta(instr: I.Instr) -> Optional[int]:
    """Bytes an encap/decap moves the head by when its head movement can
    stay out of metadata: the header size is a constant and SOAR knows
    the incoming head offset. None for any other instruction."""
    if instr.renames and instr.c_offset_bits is not None:
        return instr.head_delta()
    return None


def _rewrite_instr(fn: IRFunction, instr: I.Instr, pending: Dict[Temp, int],
                   aliases: AliasClasses, out: List[I.Instr],
                   result: PhrResult) -> None:
    delta = _deferred_delta(instr)
    if delta is not None:
        cls = aliases.class_of(instr.src)
        pending[cls] = pending.get(cls, 0) + delta
        out.append(I.Assign(instr.dst, instr.src))
        result.elided_encaps += 1
        obs_ledger.record("phr", fn.name, "elided",
                          reason="%s with statically known head offset"
                                 % type(instr).__name__,
                          loc=obs_ledger.loc_str(instr.loc),
                          delta_bytes=delta, pending_bytes=pending[cls])
        return

    touched = _touched(instr, aliases)
    if instr.touches_packet:
        # Every packet the instruction acts on must have its real head in
        # metadata first (a released packet no one reads no longer matters).
        for cls, handle in touched.items():
            d = pending.get(cls, 0)
            if d != 0 and (instr.hands_on or not instr.releases):
                out.append(I.PktSyncHead(handle, d))
                result.syncs_inserted += 1
                obs_ledger.record("phr", fn.name, "sync_inserted",
                                  reason="pending head delta materialized before %s"
                                         % type(instr).__name__,
                                  loc=obs_ledger.loc_str(instr.loc), delta_bytes=d)
            pending[cls] = 0
        out.append(instr)
        return

    d = next((pending.get(cls, 0) for cls in touched), 0)
    if d != 0:
        if isinstance(instr, I.PktAccess):
            # Re-base onto the stale (synced) head.
            instr.rebase(d)
            if _TEST_MUTATION == "rebase_skew" and isinstance(instr, I.PktWords):
                instr.byte_off += 4
        elif isinstance(instr, I.PktLength):
            raw = fn.new_temp(T.U32)
            length_instr = I.PktLength(raw, instr.ph)
            length_instr.copy_annotations_from(instr)
            out.append(length_instr)
            out.append(I.BinOp("sub", instr.dst, raw, Const(d)))
            return
    out.append(instr)


def _handle_for_class(fn: IRFunction, aliases: AliasClasses, cls: Temp) -> Optional[Temp]:
    for t in aliases.parent:
        if aliases.class_of(t) is cls:
            return t
    return None


# -- register-resident packet state ----------------------------------------------------

@dataclass
class PacketStatePlan:
    """How one PPF keeps its packet parameter's metadata in registers."""

    hoist_rx_port: bool  # loaded here and never stored: read it at entry too
    # Instructions after which someone else reads the packet's metadata
    # -> (the handle they get, may head/len in registers differ from SRAM).
    escapes: Dict[I.Instr, Tuple[Temp, bool]]


def plan_packet_state(mod: IRModule, fast_functions, result: PhrResult) -> None:
    """Set ``fn.packet_state`` on every PPF that runs on the MEs (named
    in ``fast_functions``; the XScale interprets its PPFs against SRAM).
    Must run last: the plan names instructions of the IR the code
    generator will see."""
    for fn in mod.ppfs():
        if fn.name not in fast_functions:
            continue
        fn.packet_state = plan = _plan_function(fn)
        if plan is None:
            continue
        dirty = sum(1 for _, d in plan.escapes.values() if d)
        clean = len(plan.escapes) - dirty
        result.state_functions += 1
        result.state_writebacks += dirty
        result.state_clean_sites += clean
        obs_ledger.record("phr", fn.name, "state_in_registers",
                          reason="buf/head/len of the packet parameter read once "
                                 "at entry; head/len stored only where a moved "
                                 "head escapes",
                          entry_words=4 if plan.hoist_rx_port else 3,
                          writeback_sites=dirty, clean_sites=clean)


def _plan_function(fn: IRFunction) -> Optional[PacketStatePlan]:
    params = [p for p in fn.params if p.type.is_packet]
    if not params:
        return None
    aliases = AliasClasses(fn)
    cls = aliases.class_of(params[0])
    if not aliases.one_packet(cls):
        return None  # registers can hold one packet's state

    def handle(instr: I.Instr) -> Optional[Temp]:
        """The handle of the parameter's packet ``instr`` acts through."""
        return next((ph for ph in packet_handles(instr)
                     if aliases.same(ph, cls)), None)

    through = {i: ph for i in fn.all_instrs() if (ph := handle(i)) is not None}
    if not any(isinstance(i, I.PktInstr)
               and not isinstance(i, (I.MetaLoad, I.MetaStore)) for i in through):
        return None  # nothing here needs buf, head or len
    rx_port = [i for i in fn.all_instrs()
               if isinstance(i, (I.MetaLoad, I.MetaStore)) and i.word == META_RX_PORT]
    hoist_rx_port = bool(rx_port) and all(
        isinstance(i, I.MetaLoad) and i in through for i in rx_port)

    # Forward may-dirty: True where some path has moved the head (or the
    # tail) since head/len last agreed with SRAM.
    def walk(bb: BasicBlock, dirty: bool, escapes=None) -> bool:
        for instr in bb.instrs:
            ph = through.get(instr)
            if ph is None:
                continue
            if instr.hands_on:
                if escapes is not None:
                    escapes[instr] = (ph, dirty)
                dirty = False  # stored before, re-read after
            elif instr.moves_head or instr.moves_tail:
                dirty = True
        return dirty

    escapes: Dict[I.Instr, Tuple[Temp, bool]] = {}
    for bb, dirty in solve_forward(fn, False, walk, operator.or_).items():
        walk(bb, dirty, escapes)
    return PacketStatePlan(hoist_rx_port, escapes)
