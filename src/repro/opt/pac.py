"""PAC: packet access combining (paper section 5.3.1).

Folds narrow accesses into wide ones: protocol fields through one packet
handle into one DRAM access (the IXP moves up to 64 B per memory
instruction), and 32-bit loads of one record of an application table
(``fw_rules[row + k]``) into one SRAM access. Loads of both kinds combine
by one rule, the paper's (``_form_groups``):

* same key -- the handles' must-alias class (see :mod:`repro.opt.aliases`),
  or the table record ``(g, leaf, shift)``;
* the accessed ranges fall within one maximum-width window;
* dominance: a load is only absorbed into one that dominates it;
* no data dependence is violated: within a block, nothing between the two
  kills the follower (a head movement, release or overlapping store; for
  a table, a store, call, lock or new index); across blocks, both sit in
  one epoch, and the wide load is a safe speculative widening.

Epochs are counted from *anchor* blocks -- the function entry and every
join whose predecessors disagree, loop headers of head-moving loops in
particular -- so the loads of one loop iteration combine like
straight-line code. Stores are combined within a basic block, which is
where back-to-back header rewrites occur in practice: no intervening load
may read already-buffered bytes, and the merged store sits at the last
member.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.cfg import compute_cfg, reverse_postorder
from repro.ir.dominators import DomTree, dominator_tree
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import AliasClasses, mutates_class

# One DRAM instruction moves at most 64 B; the combining window is kept
# slightly narrower so a misaligned window (the head need not be 8 B
# aligned) still fits one instruction in the common case.
MAX_COMBINE_BYTES = 56

# Test-only fault injection (tests/test_analyze_mutations.py), each a
# deliberately broken combine the differential oracle must catch:
# "extract_skew" -- absorbed field extractions read 8 bits past their
# true offset; "anchor_ignores_bump" -- epochs stop counting bumps (head
# movements and stores; for application loads, stores and redefinitions
# of the index), so loads combine across them. Never set outside tests.
_TEST_MUTATION = None


@dataclass
class PacResult:
    combined_loads: int = 0  # original field loads folded into wide loads
    anchored_loads: int = 0  # ... of them, in groups anchored past the entry
    combined_stores: int = 0
    wide_loads: int = 0
    wide_stores: int = 0
    combined_global_loads: int = 0  # application loads coalesced
    wide_global_loads: int = 0

    def __iadd__(self, other: "PacResult") -> "PacResult":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


# Widest single SRAM instruction: 8 words.
MAX_GLOBAL_COMBINE_BYTES = 32


def run(mod: IRModule, narrow: Set[str] = frozenset()) -> PacResult:
    """Combine packet accesses and application-table loads in every
    function; the loads of a global in ``narrow`` (the ones SWC selected,
    whose every read it rewrites) are left as they are."""
    result = PacResult()
    for fn in mod.functions.values():
        compute_cfg(fn)
        _combine_function(fn, mod, narrow, result)
    return result


# -- per-function driver ---------------------------------------------------------


@dataclass
class _Access:
    """One packet load, packet store or table load. Two loads may combine
    only under one ``key``: the alias class of a packet access, ``(g, leaf,
    shift)`` of a table load. ``lo``/``hi`` are the bits accessed, from the
    head or from ``leaf << shift``; ``epoch`` is ``(anchor block, bumps
    since)``; ``fresh`` says every temp of the offset was computed in that
    epoch (``j = i + 1; i = i + 8; tbl[j]`` is stale: its key says "i", its
    address is the old i's). A packet offset is a constant, so always."""
    bb: BasicBlock
    index: int
    instr: I.Instr
    key: object
    lo: int
    hi: int
    epoch: Tuple[BasicBlock, int]
    fresh: bool = True

    @property
    def wide(self) -> bool:
        """A word access from an earlier pass."""
        return isinstance(self.instr, I.PktWords)

    def covered_bits(self):
        """Bits actually accessed (wide stores may be byte-masked)."""
        if self.wide and self.instr.stores:
            bits = set()
            for i, mask in enumerate(self.instr.byte_masks):
                for b in range(4):
                    if mask & (1 << (3 - b)):
                        byte = self.instr.byte_off + i * 4 + b
                        bits.update(range(byte * 8, byte * 8 + 8))
            return bits
        return set(range(self.lo, self.hi))


def _combine_function(fn: IRFunction, mod: IRModule, narrow: Set[str],
                      result: PacResult) -> None:
    order = reverse_postorder(fn)  # execution order: a dominator comes first
    dom = dominator_tree(fn)
    aliases = AliasClasses(fn)
    # Distinct alias classes are provably distinct packets only when each
    # roots at the (single) PPF parameter, a packet_copy or packet_create.
    # A support function taking two handle parameters could be called with
    # aliases of one packet; skip combining there (cold code anyway).
    param_classes = {aliases.class_of(p) for p in fn.params if p.type.is_packet}
    packet_epochs = {} if len(param_classes) > 1 else {
        cls: _class_epochs(fn, _packet_bumps(aliases, cls))
        for cls in aliases.classes()}
    single_defs = single_defs_of(fn)

    loads: Dict[Temp, List[_Access]] = {}
    stores: Dict[BasicBlock, Dict[Temp, List[_Access]]] = {}
    tables: Dict[tuple, list] = {}
    for bb in order:
        for idx, instr in enumerate(bb.instrs):
            if isinstance(instr, I.PktAccess) and isinstance(instr.ph, Temp):
                cls = aliases.class_of(instr.ph)
                if cls in packet_epochs:
                    acc = _Access(bb, idx, instr, cls, instr.bit_off, instr.bit_end,
                                  _epoch_at(bb, idx, packet_epochs[cls]))
                    if instr.stores:
                        stores.setdefault(bb, {}).setdefault(cls, []).append(acc)
                    else:
                        loads.setdefault(cls, []).append(acc)
            elif (isinstance(instr, I.LoadG) and instr.width == 4
                    and instr.g not in narrow):
                key, delta, chain = normalize_offset(instr.offset, single_defs)
                if delta % 4 == 0:
                    tables.setdefault((instr.g,) + key, []).append(
                        (bb, idx, instr, delta, chain))

    replacements: Dict[BasicBlock, Dict[int, List[I.Instr]]] = {}
    # Rewrites number their temps in turn: packet loads by leader, then
    # packet stores, then table records.
    groups = [group for cls, accs in loads.items()
              for group in _form_groups(accs, dom, MAX_COMBINE_BYTES,
                                        _packet_kills(aliases, cls), fn.name)]
    rank = {bb: n for n, bb in enumerate(order)}
    groups.sort(key=lambda group: (rank[group[0][0].bb], group[0][0].index))
    for members, lo, hi in groups:
        _rewrite_load_group(fn, members, lo, hi, replacements, result)
    _combine_stores(fn, stores, aliases, replacements, result)
    _combine_table_loads(fn, mod, tables, dom, replacements, result)
    _apply(replacements)


def _apply(replacements: Dict[BasicBlock, Dict[int, List[I.Instr]]]) -> None:
    for bb, repl in replacements.items():
        new_instrs: List[I.Instr] = []
        for idx, instr in enumerate(bb.instrs):
            if idx in repl:
                new_instrs.extend(repl[idx])
            else:
                new_instrs.append(instr)
        bb.instrs = new_instrs


# -- epochs: how many head-moving/packet-mutating events precede a point -----------


class _Epochs(NamedTuple):
    entry: Dict[BasicBlock, Tuple[BasicBlock, int]]  # reachable blocks only
    bumps: Callable[[I.Instr], bool]


def _packet_bumps(aliases: AliasClasses, cls: Temp) -> Callable[[I.Instr], bool]:
    """What ends an epoch of one alias class: a head movement, a release
    or a field store."""

    def bumps(instr: I.Instr) -> bool:
        if mutates_class(instr, aliases, cls):
            return True
        return (isinstance(instr, I.PktAccess) and instr.stores
                and isinstance(instr.ph, Temp) and aliases.same(instr.ph, cls))

    return bumps


def _class_epochs(fn: IRFunction, bumps: Callable[[I.Instr], bool]) -> _Epochs:
    """Block-entry epochs under one bump predicate, as ``(anchor block,
    bumps since)``: on every path to the block, exactly that many bumps
    follow the last visit of the anchor, which therefore dominates the
    block. A bump is whatever may change what a load of the class reads
    (``_packet_bumps`` for a packet, ``_global_bumps`` for an indexed
    global), so equal epochs imply no interference. The function entry is
    an anchor; a join whose predecessors disagree becomes one (it restarts
    the count) instead of losing its epoch, which is what gives the body of
    a head-moving or index-stepping loop epochs at all."""
    if _TEST_MUTATION == "anchor_ignores_bump":
        def bumps(instr: I.Instr) -> bool:
            return False

    order = reverse_postorder(fn)
    block_bumps = {bb: sum(1 for i in bb.all_instrs() if bumps(i)) for bb in order}

    def out(bb: BasicBlock) -> Tuple[BasicBlock, int]:
        anchor, n = entry[bb]
        return anchor, n + block_bumps[bb]

    # One anchor at a time, each time propagating afresh: joining in place
    # would hand the blocks below a new anchor the stale epoch they saw
    # first and make every one of them disagree (and an anchor) as well.
    anchors = {fn.entry}
    while True:
        entry = {bb: (bb, 0) for bb in anchors}
        for bb in order:  # a block's DFS parent comes first in RPO
            for succ in bb.succs:
                entry.setdefault(succ, out(bb))
        disagreeing = next(
            (bb for bb in order if bb not in anchors
             and any(out(p) != entry[bb] for p in bb.preds if p in entry)), None)
        if disagreeing is None:
            return _Epochs(entry, bumps)
        anchors.add(disagreeing)


def _epoch_at(bb: BasicBlock, index: int, epochs: _Epochs) -> Tuple[BasicBlock, int]:
    anchor, n = epochs.entry[bb]
    return anchor, n + sum(1 for i in bb.instrs[:index] if epochs.bumps(i))


# -- load combining: one rule for packet fields and table records ------------------


def _form_groups(loads: List[_Access], dom: DomTree, window: int,
                 kills: Callable[[I.Instr, _Access], bool], subject: str,
                 bound: Optional[int] = None):
    """Yield ``(members, lo, hi)`` for each wide load over ``loads``, the
    loads of one key in execution order. Each load not yet taken leads a
    group and absorbs every later load that

    * in its own block: no instruction from the leader (itself included)
      up to the follower ``kills``;
    * in another block: sits in a block the leader's strictly dominates,
      in the leader's epoch;
    * either way: both offsets are fresh, and the group's span fits
      ``window`` bytes;
    * in another block, when a ``bound`` is given: the span lies within
      its first ``bound`` bits (a follower there may not execute, so the
      bits it would read must exist).

    A follower in another block turned down for its epoch, a stale chain
    or the bound is a ``pac/not_combined`` decision; one turned down for
    width is not, since the next leader may take it. Each refusal is
    recorded before its leader's group is yielded, so a caller that
    rewrites each group as it comes keeps the ledger in scan order."""
    used = set()
    for i, leader in enumerate(loads):
        if i in used:
            continue
        members, lo, hi = [leader], leader.lo, leader.hi
        for j in range(i + 1, len(loads)):
            if j in used:
                continue
            follower = loads[j]
            local = follower.bb is leader.bb
            if local:
                if any(kills(instr, follower)
                       for instr in leader.bb.instrs[leader.index:follower.index]):
                    continue
            elif not dom.strictly_dominates(leader.bb, follower.bb):
                continue
            new_lo, new_hi = min(lo, follower.lo), max(hi, follower.hi)
            if not local and follower.epoch != leader.epoch:
                refused = "epoch"
            elif not (leader.fresh and follower.fresh):
                refused = "stale chain"
            elif _span_bytes(new_lo, new_hi) > window:
                continue  # the next leader's window may hold it
            elif not local and bound is not None and not 0 <= new_lo < new_hi <= bound:
                refused = "window not provably in bounds"
            else:
                members.append(follower)
                used.add(j)
                lo, hi = new_lo, new_hi
                continue
            if not local:
                obs_ledger.record(
                    "pac", subject, "not_combined", reason=refused,
                    loc=obs_ledger.loc_str(follower.instr.loc),
                    leader=obs_ledger.loc_str(leader.instr.loc))
        if len(members) >= 2:
            yield members, lo, hi


def _packet_kills(aliases: AliasClasses,
                  cls: Temp) -> Callable[[I.Instr, _Access], bool]:
    """What stops a packet load absorbing a later one of its block: a head
    movement or release of the class, or a store overlapping the
    follower's bits."""
    return lambda instr, follower: mutates_class(instr, aliases, cls) or (
        isinstance(instr, I.PktAccess) and instr.stores
        and instr.bit_off < follower.hi and follower.lo < instr.bit_end)


def _span_bytes(lo_bit: int, hi_bit: int) -> int:
    start = (lo_bit // 32) * 4
    end = ((hi_bit + 31) // 32) * 4
    return end - start


def _rewrite_load_group(fn: IRFunction, group: List[_Access], lo: int, hi: int,
                        replacements, result: PacResult) -> None:
    leader = group[0]
    start_byte = (lo // 32) * 4
    end_byte = ((hi + 31) // 32) * 4
    nwords = (end_byte - start_byte) // 4
    words = [fn.new_temp(T.U32, "pac_w%d" % k) for k in range(nwords)]
    wide = I.PktLoadWords(words, leader.instr.ph, start_byte, nwords)
    wide.copy_annotations_from(leader.instr)
    wide.c_offset_bits = leader.instr.c_offset_bits
    wide.c_alignment = leader.instr.c_alignment

    for acc in group:
        seq: List[I.Instr] = []
        if acc is leader:
            seq.append(wide)
        if acc.wide:
            for i, dst in enumerate(acc.instr.dsts):
                extract_into(fn, seq, words, start_byte * 8,
                             acc.lo + 32 * i, 32, dst)
        else:
            bit_off = acc.lo
            if (_TEST_MUTATION == "extract_skew"
                    and bit_off + 8 + acc.instr.bit_width <= end_byte * 8):
                bit_off += 8
            extract_into(fn, seq, words, start_byte * 8,
                         bit_off, acc.instr.bit_width, acc.instr.dst)
        replacements.setdefault(acc.bb, {})[acc.index] = seq
    result.wide_loads += 1
    result.combined_loads += len(group)
    evidence = dict(members=len(group), nwords=nwords, start_byte=start_byte)
    anchor = leader.epoch[0]
    if anchor is not fn.entry:
        result.anchored_loads += len(group)
        evidence["anchor"] = anchor.label
    obs_ledger.record(
        "pac", fn.name, "combined_loads",
        reason="%d packet loads folded into one %d-word access"
               % (len(group), nwords),
        loc=obs_ledger.loc_str(leader.instr.loc), **evidence)


def extract_into(fn: IRFunction, out: List[I.Instr], words: List[Temp],
                 span_start_bits: int, bit_off: int, width: int, dst: Temp) -> None:
    """Emit shift/mask IR computing a bit-field from preloaded words."""
    rel = bit_off - span_start_bits
    first = rel // 32
    last = (rel + width - 1) // 32
    wide = width > 32
    vtype = T.U64 if wide else T.U32

    def temp() -> Temp:
        return fn.new_temp(vtype)

    if first == last:
        w = words[first]
        shift = 32 - (rel % 32) - width
        if width == 32:
            out.append(I.Assign(dst, w))
            return
        t1 = temp()
        if shift:
            out.append(I.BinOp("lshr", t1, w, Const(shift)))
        else:
            out.append(I.Assign(t1, w))
        out.append(I.BinOp("and", dst, t1, Const((1 << width) - 1, vtype)))
        return

    # Multi-word: accumulate big-endian into a (possibly 64-bit) value.
    acc: Optional[Temp] = None
    covered = 0  # bits of the field produced so far
    pos = rel
    remaining = width
    for wi in range(first, last + 1):
        word_lo = wi * 32
        word_hi = word_lo + 32
        take_lo = max(pos, word_lo)
        take_hi = min(rel + width, word_hi)
        nbits = take_hi - take_lo
        # Extract nbits from this word, right-aligned.
        part = temp()
        shift_right = word_hi - take_hi
        if shift_right:
            out.append(I.BinOp("lshr", part, words[wi], Const(shift_right)))
        else:
            out.append(I.Assign(part, words[wi]))
        if nbits < 32:
            masked = temp()
            out.append(I.BinOp("and", masked, part, Const((1 << nbits) - 1, vtype)))
            part = masked
        if acc is None:
            acc = part
        else:
            shifted = temp()
            out.append(I.BinOp("shl", shifted, acc, Const(nbits)))
            merged = temp()
            out.append(I.BinOp("or", merged, shifted, part))
            acc = merged
        covered += nbits
        pos = take_hi
    assert acc is not None and covered == width
    out.append(I.Assign(dst, acc))


# -- store combining ----------------------------------------------------------------


def _combine_stores(fn, stores: Dict[BasicBlock, Dict[Temp, List[_Access]]],
                    aliases, replacements, result: PacResult) -> None:
    """One run per (block, alias class), blocks in ``fn.blocks`` order and
    a block's classes in order of their first store there."""
    for accs in [run for bb in fn.blocks for run in stores.get(bb, {}).values()]:
        bb = accs[0].bb
        i = 0
        while i < len(accs):
            group = [accs[i]]
            span = [accs[i].lo, accs[i].hi]
            j = i + 1
            while j < len(accs):
                cand = accs[j]
                if not _store_path_clear(bb, group, cand, aliases):
                    break
                new_lo = min(span[0], cand.lo)
                new_hi = max(span[1], cand.hi)
                if _span_bytes(new_lo, new_hi) > MAX_COMBINE_BYTES:
                    break
                group.append(cand)
                span[0], span[1] = new_lo, new_hi
                j += 1
            if len(group) >= 2 and _byte_coverage_ok(group):
                _rewrite_store_group(fn, bb, group, span, replacements, result)
                i = j
            else:
                i += 1


def _store_path_clear(bb: BasicBlock, group: List[_Access], cand: _Access,
                      aliases) -> bool:
    """No head movement / release between the group's first store and the
    candidate, and no load reading bytes buffered by earlier members
    (their memory write is deferred to the merged store's position)."""
    first = group[0].index
    buffered = [(g.lo, g.hi) for g in group]
    cls = group[0].key
    for instr in bb.instrs[first + 1 : cand.index]:
        if mutates_class(instr, aliases, cls):
            return False
        if (isinstance(instr, I.PktAccess) and not instr.stores
                and isinstance(instr.ph, Temp) and aliases.same(instr.ph, cls)):
            for blo, bhi in buffered:
                if instr.bit_off < bhi and blo < instr.bit_end:
                    return False
    return True


def _byte_coverage_ok(group: List[_Access]) -> bool:
    """Every byte touched by the group must be fully covered (the merged
    store masks at byte granularity)."""
    bits = set()
    for acc in group:
        bits.update(acc.covered_bits())
    for byte in {b // 8 for b in bits}:
        if not all(byte * 8 + k in bits for k in range(8)):
            return False
    return True


def _store_segments(fn: IRFunction, seq: List[I.Instr], acc: _Access):
    """Decompose one store access into (bit_off, width, value, value_width)
    segments. Field stores are one segment; wide stores contribute one
    segment per maximal run of masked bytes in each word (the run is
    pre-extracted into a temp)."""
    if not acc.wide:
        width = acc.instr.bit_width
        return [(acc.lo, width, acc.instr.value, width)]
    segments = []
    instr: I.PktStoreWords = acc.instr  # type: ignore[assignment]
    for i in range(instr.nwords):
        mask = instr.byte_masks[i]
        if mask == 0:
            continue
        covered = [b for b in range(4) if mask & (1 << (3 - b))]
        runs = []
        start = covered[0]
        prev = covered[0]
        for b in covered[1:]:
            if b == prev + 1:
                prev = b
            else:
                runs.append((start, prev))
                start = prev = b
        runs.append((start, prev))
        for b0, b1 in runs:
            width = (b1 - b0 + 1) * 8
            # Right-align the run's bits within the word.
            shift = (3 - b1) * 8
            value: Operand = instr.values[i]
            if shift:
                t = fn.new_temp(T.U32)
                seq.append(I.BinOp("lshr", t, value, Const(shift)))
                value = t
            bit = (instr.byte_off + i * 4 + b0) * 8
            segments.append((bit, width, value, width))
    return segments


def _rewrite_store_group(fn: IRFunction, bb: BasicBlock, group: List[_Access],
                         span, replacements, result: PacResult) -> None:
    start_byte = (span[0] // 32) * 4
    end_byte = ((span[1] + 31) // 32) * 4
    nwords = (end_byte - start_byte) // 4
    last = group[-1]

    seq: List[I.Instr] = []
    all_segments = []
    for acc in group:
        all_segments.extend(_store_segments(fn, seq, acc))

    values: List[Operand] = []
    masks: List[int] = []
    for wi in range(nwords):
        acc_parts: List[Operand] = []
        word_lo = start_byte * 8 + wi * 32
        word_hi = word_lo + 32
        mask = 0
        for seg_off, seg_width, seg_value, _vw in all_segments:
            ov_lo = max(seg_off, word_lo)
            ov_hi = min(seg_off + seg_width, word_hi)
            if ov_lo >= ov_hi:
                continue
            part = _segment_part(fn, seq, seg_off, seg_width, seg_value,
                                 ov_lo, ov_hi, word_lo)
            acc_parts.append(part)
            for bit in range(ov_lo, ov_hi):
                byte_in_word = (bit - word_lo) // 8
                mask |= 1 << (3 - byte_in_word)
        if not acc_parts:
            values.append(Const(0))
            masks.append(0)
            continue
        word_val = acc_parts[0]
        for part in acc_parts[1:]:
            merged = fn.new_temp(T.U32)
            seq.append(I.BinOp("or", merged, word_val, part))
            word_val = merged
        values.append(word_val)
        masks.append(mask)

    wide = I.PktStoreWords(last.instr.ph, start_byte, nwords, values, masks)
    wide.copy_annotations_from(last.instr)
    wide.c_offset_bits = last.instr.c_offset_bits
    wide.c_alignment = last.instr.c_alignment
    seq.append(wide)

    for acc in group:
        replacements.setdefault(bb, {})[acc.index] = [] if acc is not last else seq
    result.wide_stores += 1
    result.combined_stores += len(group)
    obs_ledger.record(
        "pac", fn.name, "combined_stores",
        reason="%d packet stores merged into one %d-word masked store"
               % (len(group), nwords),
        loc=obs_ledger.loc_str(last.instr.loc),
        members=len(group), nwords=nwords, start_byte=start_byte)


def _segment_part(fn: IRFunction, seq: List[I.Instr], seg_off: int,
                  seg_width: int, value: Operand,
                  ov_lo: int, ov_hi: int, word_lo: int) -> Operand:
    """The contribution of one stored segment to one 32-bit word: the
    segment's bits in [ov_lo, ov_hi) positioned at the right bit offsets.
    ``value`` holds the segment right-aligned (LSBs)."""
    width = seg_width
    # Bits of the segment (0 = MSB) that land in this word:
    f_hi = ov_hi - seg_off
    nbits = ov_hi - ov_lo
    wide = width > 32
    vtype = T.U64 if wide else T.U32

    # part = (value >> (width - f_hi)) & mask(nbits)
    drop = width - f_hi
    part: Operand = value
    if drop:
        t = fn.new_temp(vtype)
        seq.append(I.BinOp("lshr", t, part, Const(drop)))
        part = t
    if nbits < 32 or wide:
        t = fn.new_temp(T.U32)
        seq.append(I.BinOp("and", t, part,
                           Const((1 << nbits) - 1, T.U64 if wide else T.U32)))
        part = t
    # Position within the word (MSB-first): left shift by 32 - (ov_hi - word_lo).
    lshift = 32 - (ov_hi - word_lo)
    if lshift:
        t = fn.new_temp(T.U32)
        seq.append(I.BinOp("shl", t, part, Const(lshift)))
        part = t
    return part


# -- table records --------------------------------------------------------------------
#
# A 32-bit load of a global at ``(leaf << shift) + delta`` is keyed by
# ``(g, leaf, shift)``: the loads of one record of a table, read once.


def single_defs_of(fn: IRFunction):
    """temp -> (block, index, instruction) for temps defined exactly once
    (a parameter assigned in the body has two definitions)."""
    defs = {}
    multiple = set(fn.params)
    for bb in fn.blocks:
        for idx, instr in enumerate(bb.instrs):
            for d in instr.defs():
                if d in defs:
                    multiple.add(d)
                defs[d] = (bb, idx, instr)
    return {t: site for t, site in defs.items() if t not in multiple}


def normalize_offset(op, single_defs, max_shift: int = 31):
    """Decompose an offset operand into ``(leaf, shift), delta, chain`` with
    offset = (leaf << shift) + delta mod 2**32: walks single-definition
    temps through `+ const` and `<< const` (while ``shift`` stays within
    ``max_shift``), so ``(row + 3) << 2`` and ``(row + 7) << 2`` share a
    key and differ by a known 16 bytes. The leaf is None for a constant
    offset; ``chain`` lists the definition sites walked."""
    shift, delta, chain = 0, 0, []
    while isinstance(op, Temp) and len(chain) <= 6:
        site = single_defs.get(op)
        d = site[2] if site else None
        if not isinstance(d, I.BinOp) or d.op not in ("add", "shl"):
            break
        if isinstance(d.b, Const):
            const, inner = d.b.value, d.a
        elif d.op == "add" and isinstance(d.a, Const):
            const, inner = d.a.value, d.b
        else:
            break
        if d.op == "add":
            delta += const << shift
        elif 0 <= const <= max_shift - shift:
            shift += const
        else:
            break  # shifted out of the word: not an index any more
        op = inner
        chain.append(site)
    if isinstance(op, Const):
        return (None, 0), delta + (op.value << shift), chain
    return (op, shift), delta, chain


def _global_bumps(leaf: Optional[Temp]) -> Callable[[I.Instr], bool]:
    """What ends an epoch of the loads indexed by ``leaf``: a store, call
    or lock operation, or a new value of the index."""
    return lambda instr: (
        isinstance(instr, (I.StoreG, I.Call, I.LockAcquire, I.LockRelease))
        or leaf in instr.defs())


def _combine_table_loads(fn: IRFunction, mod: IRModule, tables: Dict[tuple, list],
                         dom: DomTree, replacements, result: PacResult) -> None:
    epochs_of: Dict[Optional[Temp], _Epochs] = {}
    for (g, leaf, shift), members in tables.items():
        if len(members) < 2:
            continue  # nothing to combine with: no epochs computed
        if leaf not in epochs_of:
            epochs_of[leaf] = _class_epochs(fn, _global_bumps(leaf))
        epochs = epochs_of[leaf]
        loads = []
        for bb, idx, instr, delta, chain in members:
            epoch = _epoch_at(bb, idx, epochs)
            fresh = all(dbb in epochs.entry and _epoch_at(dbb, didx, epochs) == epoch
                        for dbb, didx, _ in chain)
            loads.append(_Access(bb, idx, instr, (g, leaf, shift), 8 * delta,
                                 8 * delta + 32, epoch, fresh))
        # A follower in another block may not execute, so its words must
        # provably lie in the global: the base is a multiple of the record
        # (the whole global for a constant offset), the record divides the
        # global, and the window stays inside one record.
        size = mod.globals[g].type.size_bytes()
        record = size if leaf is None else 1 << shift
        if size % record:
            record = 0  # no whole number of records: nothing is provable
        for group, lo, hi in _form_groups(
                loads, dom, MAX_GLOBAL_COMBINE_BYTES,
                lambda instr, _: epochs.bumps(instr), "%s/%s" % (fn.name, g),
                8 * record):
            _rewrite_global_group(fn, g, group, lo, hi, replacements, result)


def _rewrite_global_group(fn: IRFunction, g: str, group: List[_Access],
                          lo: int, hi: int, replacements, result: PacResult) -> None:
    leader = group[0]
    nwords = (hi - lo) // 32
    words = [fn.new_temp(T.U32, "gac_w%d" % i) for i in range(nwords)]
    seq: List[I.Instr] = []
    base = leader.instr.offset
    if leader.lo != lo:
        # The wide load sits at the leader, where only the leader's own
        # offset is known to be computed.
        base = fn.new_temp(T.U32, "gac_off")
        seq.append(I.BinOp("sub", base, leader.instr.offset,
                           Const((leader.lo - lo) // 8)))
    seq.append(I.LoadGWords(words, g, base, nwords))
    for load in group:
        replacements.setdefault(load.bb, {})[load.index] = (
            seq if load is leader else []) + [
            I.Assign(load.instr.dst, words[(load.lo - lo) // 32])]
    result.wide_global_loads += 1
    result.combined_global_loads += len(group)
    obs_ledger.record(
        "pac", "%s/%s" % (fn.name, g), "combined_global_loads",
        reason="%d loads of %s coalesced into one %d-word access"
               % (len(group), g, nwords),
        loc=obs_ledger.loc_str(leader.instr.loc),
        members=len(group), nwords=nwords, anchor=leader.epoch[0].label,
        blocks=len({load.bb for load in group}),
        speculative=sum(load.bb is not leader.bb for load in group))
