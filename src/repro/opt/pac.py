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
* no data dependence is violated: both sit in one epoch, no packet store
  between the two overlaps the follower, and across blocks the wide load
  is a safe speculative widening.

An epoch is ``(anchor, bumps, offset)``. Anchors are the function entry
and every join whose predecessors disagree -- loop headers of head-moving
loops in particular -- so the loads of one loop iteration combine like
straight-line code. A bump is what no offset describes: a release, a tail
movement, a head movement of unknown size, and, before PHR, an encap or
decap (``run``); for a table, a store, call, lock or new index. A head
movement of constant size only adds to the offset, so accesses either
side of it compare in the anchor's coordinates. A packet store is not a
bump: it refuses only a follower whose bits it overlaps, on some path
between the two.

Stores combine within one block: each store takes the later stores of
its class there, in one epoch, with nothing between that hands the packet
on, redefines a stored value or reads buffered bytes from memory; the
merged, byte-masked store sits at the last member.
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
from repro.opt.aliases import AliasClasses, mutates_class, packet_handles

# One DRAM instruction moves at most 64 B; the combining window is kept
# slightly narrower so a misaligned window (the head need not be 8 B
# aligned) still fits one instruction in the common case.
MAX_COMBINE_BYTES = 56

# Test-only fault injection (tests/test_analyze_mutations.py,
# tests/test_opt_packet.py), each a deliberately broken combine the
# differential oracle must catch: "extract_skew" -- absorbed field
# extractions read 8 bits past their true offset; "anchor_ignores_bump"
# -- epochs stop counting bumps and head movements, and packet stores stop
# refusing the loads they overlap (for application loads, stores and
# redefinitions of the index stop bumping), so loads combine across them;
# "offset_dropped" -- a follower is extracted at its own offset, as if
# the head had not moved since the leader; "sink_unforwarded" -- a store
# waits past a load that reads its bytes from memory. Never set outside
# tests.
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


def run(mod: IRModule, narrow: Set[str] = frozenset(),
        renames_bump: bool = True) -> PacResult:
    """Combine packet accesses and application-table loads in every
    function; the loads of a global in ``narrow`` (the ones SWC selected,
    whose every read it rewrites) are left as they are. Before PHR an
    encap or decap ends an epoch (``renames_bump``): PHR elides those of
    the fast path and re-bases their accesses onto one head, and reading
    through them first would change what it sees. The run after PHR
    reads through the ones it left."""
    result = PacResult()
    for fn in mod.functions.values():
        _combine_function(fn, mod, narrow, result, renames_bump)
    return result


# -- per-function driver ---------------------------------------------------------


@dataclass
class _Access:
    """One packet load, packet store or table load. Two loads may combine
    only under one ``key``: the alias class of a packet access, ``(g, leaf,
    shift)`` of a table load. ``lo``/``hi`` are the bits accessed in the
    coordinates of the epoch's anchor: from the head as it stood there
    (the access's own offset plus ``8 * offset``), or from ``leaf <<
    shift``; ``epoch`` is ``(anchor block, bumps since, offset)``, the
    offset being the bytes the head moved toward the payload since the
    anchor; ``fresh`` says every temp of the offset was computed in that
    epoch (``j = i + 1; i = i + 8; tbl[j]`` is stale: its key says "i",
    its address is the old i's). A packet offset is a constant, so
    always."""
    bb: BasicBlock
    index: int
    instr: I.Instr
    key: object
    lo: int
    hi: int
    epoch: Tuple[BasicBlock, int, int]
    fresh: bool = True

    @property
    def wide(self) -> bool:
        """A word access from an earlier pass."""
        return isinstance(self.instr, I.PktWords)

    @property
    def shift(self) -> int:
        """Bits from the access's own head to its anchor's."""
        return 8 * self.epoch[2]

    def covered_bits(self) -> Set[int]:
        """Bits actually accessed (wide stores may be byte-masked)."""
        if self.wide and self.instr.stores:
            bits = set()
            for i, mask in enumerate(self.instr.byte_masks):
                for b in range(4):
                    if mask & (1 << (3 - b)):
                        bit = self.lo + (i * 4 + b) * 8
                        bits.update(range(bit, bit + 8))
            return bits
        return set(range(self.lo, self.hi))

    def overlaps(self, lo: int, hi: int) -> bool:
        return any(lo <= b < hi for b in self.covered_bits())


def _combine_function(fn: IRFunction, mod: IRModule, narrow: Set[str],
                      result: PacResult, renames_bump: bool) -> None:
    compute_cfg(fn)
    order = reverse_postorder(fn)  # execution order: a dominator comes first
    dom = dominator_tree(fn)
    aliases = AliasClasses(fn)
    # Distinct alias classes are provably distinct packets only when each
    # roots at the (single) PPF parameter, a packet_copy or packet_create.
    # A support function taking two handle parameters could be called with
    # aliases of one packet; skip combining there (cold code anyway).
    param_classes = {aliases.class_of(p) for p in fn.params if p.type.is_packet}
    packet_epochs = {} if len(param_classes) > 1 else {
        cls: _class_epochs(fn, _packet_steps(aliases, cls, renames_bump))
        for cls in aliases.classes()}
    single_defs = single_defs_of(fn)

    loads: Dict[Temp, List[_Access]] = {}
    stores: Dict[Temp, List[_Access]] = {}
    tables: Dict[tuple, list] = {}
    for bb in order:
        for idx, instr in enumerate(bb.instrs):
            if isinstance(instr, I.PktAccess) and isinstance(instr.ph, Temp):
                cls = aliases.class_of(instr.ph)
                if cls in packet_epochs:
                    epoch = _epoch_at(bb, idx, packet_epochs[cls])
                    acc = _Access(bb, idx, instr, cls, instr.bit_off + 8 * epoch[2],
                                  instr.bit_end + 8 * epoch[2], epoch)
                    (stores if instr.stores else loads).setdefault(cls, []).append(acc)
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
              for group in _form_groups(accs, dom, MAX_COMBINE_BYTES, fn.name,
                                        clobbered=_clobbered(stores.get(cls, [])))]
    rank = {bb: n for n, bb in enumerate(order)}
    groups.sort(key=lambda group: (rank[group[0][0].bb], group[0][0].index))
    # What still reads packet memory once loads combine: each wide load
    # over its whole span, and every load left alone.
    absorbed = {id(acc) for members, _, _ in groups for acc in members[1:]}
    reads = {(members[0].bb, members[0].index): (lo, hi)
             for members, lo, hi in groups}
    reads.update({(acc.bb, acc.index): (acc.lo, acc.hi)
                  for accs in loads.values() for acc in accs
                  if id(acc) not in absorbed and (acc.bb, acc.index) not in reads})
    for members, lo, hi in groups:
        _rewrite_load_group(fn, members, lo, hi, replacements, result)
    _combine_stores(fn, stores, reads, aliases, replacements, result)
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


# -- epochs: where the head stands, and what may have changed, at a point ---------


class _Epochs(NamedTuple):
    entry: Dict[BasicBlock, Tuple[BasicBlock, int, int]]  # reachable blocks only
    step: Callable[[I.Instr], Optional[int]]


def _packet_steps(aliases: AliasClasses, cls: Temp,
                  renames_bump: bool) -> Callable[[I.Instr], Optional[int]]:
    """How an instruction moves one alias class: by the bytes of a head
    movement of constant size, or by something no offset states -- None,
    a bump: a release, a tail movement, a head movement of unknown size,
    and, when ``renames_bump``, an encap or decap."""

    def step(instr: I.Instr) -> Optional[int]:
        if not mutates_class(instr, aliases, cls):
            return 0
        if instr.releases or instr.moves_tail or (instr.renames and renames_bump):
            return None
        return instr.head_delta()

    return step


def _class_epochs(fn: IRFunction, step: Callable[[I.Instr], Optional[int]]) -> _Epochs:
    """Block-entry epochs under one step function, as ``(anchor block,
    bumps since, offset)``: on every path to the block, exactly that many
    bumps and head movements summing to that offset follow the last visit
    of the anchor, which therefore dominates the block. A bump is whatever
    may change what a load of the class reads other than a store
    (``_packet_steps`` for a packet, ``_global_steps`` for an indexed
    global), so equal ``(anchor, bumps)`` imply one frame of coordinates.
    The function entry is an anchor; a join whose predecessors disagree
    becomes one (it restarts the count) instead of losing its epoch, which
    is what gives the body of a head-moving or index-stepping loop epochs
    at all."""
    if _TEST_MUTATION == "anchor_ignores_bump":
        def step(instr: I.Instr) -> Optional[int]:
            return 0

    order = reverse_postorder(fn)
    block_step = {}
    for bb in order:
        steps = [step(i) for i in bb.all_instrs()]
        block_step[bb] = (sum(s is None for s in steps),
                          sum(s for s in steps if s is not None))

    def out(bb: BasicBlock) -> Tuple[BasicBlock, int, int]:
        anchor, n, offset = entry[bb]
        bumps, delta = block_step[bb]
        return anchor, n + bumps, offset + delta

    # One anchor at a time, each time propagating afresh: joining in place
    # would hand the blocks below a new anchor the stale epoch they saw
    # first and make every one of them disagree (and an anchor) as well.
    anchors = {fn.entry}
    while True:
        entry = {bb: (bb, 0, 0) for bb in anchors}
        for bb in order:  # a block's DFS parent comes first in RPO
            for succ in bb.succs:
                entry.setdefault(succ, out(bb))
        disagreeing = next(
            (bb for bb in order if bb not in anchors
             and any(out(p) != entry[bb] for p in bb.preds if p in entry)), None)
        if disagreeing is None:
            return _Epochs(entry, step)
        anchors.add(disagreeing)


def _epoch_at(bb: BasicBlock, index: int,
              epochs: _Epochs) -> Tuple[BasicBlock, int, int]:
    anchor, n, offset = epochs.entry[bb]
    for instr in bb.instrs[:index]:
        delta = epochs.step(instr)
        if delta is None:
            n += 1
        else:
            offset += delta
    return anchor, n, offset


def _between(a: _Access, x: _Access, b: _Access) -> bool:
    """Some path from access ``a`` to access ``b`` that does not pass
    ``a`` again passes ``x``."""
    return _reaches(a, x, a) and _reaches(x, b, a)


def _reaches(p: _Access, q: _Access, guard: _Access) -> bool:
    """A path from just after ``p`` to ``q`` that avoids ``guard``."""
    if p.bb is q.bb and p.index < q.index:
        return not (guard.bb is p.bb and p.index < guard.index < q.index)
    if guard.bb is p.bb and guard.index > p.index:
        return False
    seen: Set[BasicBlock] = set()
    work = list(p.bb.succs)
    while work:
        bb = work.pop()
        if bb in seen:
            continue
        seen.add(bb)
        if bb is q.bb and not (guard.bb is bb and guard.index < q.index):
            return True
        if bb is not guard.bb:
            work.extend(bb.succs)
    return False


# -- load combining: one rule for packet fields and table records ------------------


def _form_groups(loads: List[_Access], dom: DomTree, window: int, subject: str,
                 bound: Optional[int] = None, clobbered=None):
    """Yield ``(members, lo, hi)`` for each wide load over ``loads``, the
    loads of one key in execution order. Each load not yet taken leads a
    group and absorbs every later load that

    * sits in its own block, or in a block the leader's strictly
      dominates;
    * shares its epoch's anchor and bumps (the offsets may differ: both
      are read in anchor coordinates);
    * with it, has fresh offsets, and keeps the group's span within
      ``window`` bytes;
    * in another block, when a ``bound`` is given: the span lies within
      its first ``bound`` bits (a follower there may not execute, so the
      bits it would read must exist);
    * when ``clobbered`` is given, is not ``clobbered(leader, follower)``
      by a store between the two.

    A follower in another block turned down for its epoch, a stale chain,
    the bound or a store is a ``pac/not_combined`` decision; one turned
    down for width is not, since the next leader may take it. Each refusal
    is recorded before its leader's group is yielded, so a caller that
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
            if not local and not dom.strictly_dominates(leader.bb, follower.bb):
                continue
            new_lo, new_hi = min(lo, follower.lo), max(hi, follower.hi)
            base = leader.shift  # words align to the leader's head
            if follower.epoch[:2] != leader.epoch[:2]:
                refused = "epoch"
            elif not (leader.fresh and follower.fresh):
                refused = "stale chain"
            elif _span_bytes(new_lo - base, new_hi - base) > window:
                continue  # the next leader's window may hold it
            elif not local and bound is not None and not 0 <= new_lo < new_hi <= bound:
                refused = "window not provably in bounds"
            elif clobbered is not None and clobbered(leader, follower):
                refused = "store"
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


def _clobbered(stores: List[_Access]):
    """Whether a store of one alias class, between a packet leader and
    its follower, overlaps the follower's bits. Only a store of the
    leader's epoch can lie between the two, and only there do the anchor
    coordinates compare."""

    def clobbered(leader: _Access, follower: _Access) -> bool:
        if _TEST_MUTATION == "anchor_ignores_bump":
            return False
        return any(store.epoch[:2] == leader.epoch[:2]
                   and store.overlaps(follower.lo, follower.hi)
                   and _between(leader, store, follower)
                   for store in stores)

    return clobbered


def _span_bytes(lo_bit: int, hi_bit: int) -> int:
    start = (lo_bit // 32) * 4
    end = ((hi_bit + 31) // 32) * 4
    return end - start


def _lines(group: List[_Access]) -> str:
    """The Baker lines of a group's members, for its ledger record."""
    return ",".join(str(n) for n in sorted(
        {acc.instr.loc.line for acc in group if acc.instr.loc is not None}))


def _rewrite_load_group(fn: IRFunction, group: List[_Access], lo: int, hi: int,
                        replacements, result: PacResult) -> None:
    leader = group[0]
    # Words align to the leader's head, where the wide load sits: placed
    # in anchor coordinates, it is addressed from there.
    span_lo = (lo - leader.shift) // 32 * 32 + leader.shift
    nwords = (hi - span_lo + 31) // 32
    words = [fn.new_temp(T.U32, "pac_w%d" % k) for k in range(nwords)]
    wide = I.PktLoadWords(words, leader.instr.ph, span_lo // 8, nwords)
    wide.rebase(-leader.epoch[2])
    wide.copy_annotations_from(leader.instr)
    wide.c_offset_bits = leader.instr.c_offset_bits
    wide.c_modulus = leader.instr.c_modulus
    wide.c_residue = leader.instr.c_residue

    for acc in group:
        seq: List[I.Instr] = []
        if acc is leader:
            seq.append(wide)
        bit_off = acc.lo
        if _TEST_MUTATION == "offset_dropped":
            bit_off += leader.shift - acc.shift  # read as if at the leader's head
        if acc.wide:
            for i, dst in enumerate(acc.instr.dsts):
                extract_into(fn, seq, words, span_lo, bit_off + 32 * i, 32, dst)
        else:
            if (_TEST_MUTATION == "extract_skew"
                    and bit_off + 8 + acc.instr.bit_width <= span_lo + 32 * nwords):
                bit_off += 8
            extract_into(fn, seq, words, span_lo,
                         bit_off, acc.instr.bit_width, acc.instr.dst)
        replacements.setdefault(acc.bb, {})[acc.index] = seq

    result.wide_loads += 1
    result.combined_loads += len(group)
    evidence = dict(members=len(group), nwords=nwords, start_byte=wide.byte_off,
                    lines=_lines(group))
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


def _combine_stores(fn, stores: Dict[Temp, List[_Access]], reads, aliases,
                    replacements, result: PacResult) -> None:
    """Each store not yet merged leads a group, blocks in ``fn.blocks``
    order and a block's classes in order of their first store there. It
    takes the later stores of its class in its block in turn, while each
    keeps the path clear (``_sink_clear``) and the group's span fits one
    access; the merged store sits at the last member. Stores merge within
    one block only: jump threading is what brings a header's stores
    together."""
    by_block: Dict[BasicBlock, Dict[Temp, List[_Access]]] = {}
    for cls, accs in stores.items():
        for acc in accs:
            by_block.setdefault(acc.bb, {}).setdefault(cls, []).append(acc)
    used: Set[int] = set()
    for run in [run for bb in fn.blocks for run in by_block.get(bb, {}).values()]:
        for k, first in enumerate(run):
            if id(first) in used:
                continue
            group, lo, hi = [first], first.lo, first.hi
            for cand in run[k + 1:]:
                new_lo, new_hi = min(lo, cand.lo), max(hi, cand.hi)
                if (cand.epoch[:2] != first.epoch[:2]
                        or _span_bytes(new_lo - first.shift,
                                       new_hi - first.shift) > MAX_COMBINE_BYTES
                        or not _sink_clear(group, cand, reads, aliases)):
                    break
                group.append(cand)
                lo, hi = new_lo, new_hi
            if len(group) >= 2 and _byte_coverage_ok(group):
                _rewrite_store_group(fn, group, lo, hi, replacements, result)
                used.update(id(acc) for acc in group)


def _sink_clear(group: List[_Access], cand: _Access, reads, aliases) -> bool:
    """Whether the group's stores may wait for ``cand``, later in their
    block: between each and it, nothing hands the packet on (a copy would
    miss the bytes), nothing redefines a value it stores, and nothing
    reads packet memory the group has buffered. A load absorbed into a
    wide one reads that load's words, not memory: no store it overlaps
    lies between the two."""
    cls = group[0].key
    bb = cand.bb
    for acc in group:
        values = {v for v in acc.instr.uses()
                  if isinstance(v, Temp) and v is not acc.instr.ph}
        for instr in bb.instrs[acc.index + 1:cand.index]:
            if instr.hands_on and any(aliases.same(ph, cls)
                                      for ph in packet_handles(instr)):
                return False
            if values & set(instr.defs()):
                return False
    if _TEST_MUTATION == "sink_unforwarded":
        return True
    buffered = set().union(*(acc.covered_bits() for acc in group))
    return not any(read_bb is bb and group[0].index < index < cand.index
                   and any(lo <= b < hi for b in buffered)
                   for (read_bb, index), (lo, hi) in reads.items())


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
    segments in anchor coordinates. Field stores are one segment; wide
    stores contribute one segment per maximal run of masked bytes in each
    word (the run is pre-extracted into a temp)."""
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
            bit = acc.lo + (i * 4 + b0) * 8
            segments.append((bit, width, value, width))
    return segments


def _rewrite_store_group(fn: IRFunction, group: List[_Access], lo: int, hi: int,
                         replacements, result: PacResult) -> None:
    last = group[-1]
    # Words align to the last member's head, where the merged store sits.
    span_lo = (lo - last.shift) // 32 * 32 + last.shift
    nwords = (hi - span_lo + 31) // 32

    seq: List[I.Instr] = []
    all_segments = []
    for acc in group:
        all_segments.extend(_store_segments(fn, seq, acc))

    values: List[Operand] = []
    masks: List[int] = []
    for wi in range(nwords):
        acc_parts: List[Operand] = []
        word_lo = span_lo + wi * 32
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

    # Placed in anchor coordinates, then addressed from the last member's
    # head.
    wide = I.PktStoreWords(last.instr.ph, span_lo // 8, nwords, values, masks)
    wide.rebase(-last.epoch[2])
    wide.copy_annotations_from(last.instr)
    wide.c_offset_bits = last.instr.c_offset_bits
    wide.c_modulus = last.instr.c_modulus
    wide.c_residue = last.instr.c_residue
    seq.append(wide)

    for acc in group:
        replacements.setdefault(acc.bb, {})[acc.index] = [] if acc is not last else seq
    result.wide_stores += 1
    result.combined_stores += len(group)
    evidence = dict(members=len(group), nwords=nwords, start_byte=wide.byte_off,
                    lines=_lines(group))
    obs_ledger.record(
        "pac", fn.name, "combined_stores",
        reason="%d packet stores merged into one %d-word masked store"
               % (len(group), nwords),
        loc=obs_ledger.loc_str(last.instr.loc), **evidence)


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


def _global_steps(leaf: Optional[Temp]) -> Callable[[I.Instr], Optional[int]]:
    """What ends an epoch of the loads indexed by ``leaf`` (a bump, None):
    a store, call or lock operation, or a new value of the index."""
    return lambda instr: None if (
        isinstance(instr, (I.StoreG, I.Call, I.LockAcquire, I.LockRelease))
        or leaf in instr.defs()) else 0


def _combine_table_loads(fn: IRFunction, mod: IRModule, tables: Dict[tuple, list],
                         dom: DomTree, replacements, result: PacResult) -> None:
    epochs_of: Dict[Optional[Temp], _Epochs] = {}
    for (g, leaf, shift), members in tables.items():
        if len(members) < 2:
            continue  # nothing to combine with: no epochs computed
        if leaf not in epochs_of:
            epochs_of[leaf] = _class_epochs(fn, _global_steps(leaf))
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
                loads, dom, MAX_GLOBAL_COMBINE_BYTES, "%s/%s" % (fn.name, g),
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
