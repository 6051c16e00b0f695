"""Loop peeling: the first iteration of a head-moving loop, in straight code.

A loop that moves a packet's head (MPLS's label-stack walk decaps one
label per trip) defeats every packet optimization that needs a constant
head: PAC does not combine across it, SOAR cannot resolve the offsets in
it, PHR cannot elide the decap. Most packets leave such a loop after one
trip, so a copy of its first iteration in front of it -- where the head
is known on entry -- is what those passes can work on.

The pass peels one iteration of every loop of the ME functions that the
profile saw run and whose body moves the head itself (a ``moves_head``
instruction that is not a ``Call``: a call the inliner kept says it may
move anything, which names no head a copy could know). The
copy branches back into the original loop, which stays in place as the
remainder, so the program means what it meant: the copy is one trip of
the same loop. The IR is not in SSA form, so the copy reads and writes
the original's temps, except that a temp no edge out of the copy
carries gets a fresh one in the copy, where the scalar passes can fold
and delete it on its own. It runs after aggregation and the merge inlining
(the loop is then in the function the ME runs) and before PAC.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir import instructions as I
from repro.ir.cfg import compute_cfg, reverse_postorder
from repro.ir.dominators import dominator_tree
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Temp
from repro.obs import ledger as obs_ledger
from repro.opt.inline import clone_instr
from repro.profiler.stats import ProfileData

# Test-only fault injection (tests/test_analyze_mutations.py): with
# "unguarded" the peeled copy continues into the remainder's body past
# its loop-condition guard, a miscompile the differential oracle must
# catch. Never set outside tests.
_TEST_MUTATION = None


def run(mod: IRModule, profile: ProfileData, functions: Set[str]) -> None:
    """Peel the head-moving loops of ``functions`` that the profile saw
    run."""
    total = sum(profile.line_instrs.values()) or 1
    for fname in sorted(functions):
        fn = mod.functions.get(fname)
        if fn is None:
            continue
        # Outer loops first: peeling one leaves the blocks of the loops
        # inside it where they were, so their bodies stay valid.
        for header, body in _loops(fn):
            if not any(i.moves_head and not isinstance(i, I.Call)
                       for bb in body for i in bb.instrs):
                continue
            lines = {(i.loc.filename, i.loc.line) for bb in body
                     for i in bb.instrs if i.loc is not None}
            header_lines = {(i.loc.filename, i.loc.line)
                            for i in header.instrs if i.loc is not None}
            if not any(profile.line_instrs.get(l) for l in header_lines):
                continue
            added = _peel(fn, header, body)
            loc = min(header_lines)
            obs_ledger.record(
                "peel", fn.name, "peeled",
                reason="first iteration of a head-moving loop copied in "
                       "front of it",
                loc="%s:%d" % loc, header=header.label, blocks=len(body),
                instrs_added=added,
                profile_share=sum(profile.line_instrs.get(l, 0)
                                  for l in lines) / total)


def _loops(fn: IRFunction) -> List[Tuple[BasicBlock, List[BasicBlock]]]:
    """``(header, body)`` of every natural loop, the body in reverse
    postorder from the header; the largest first."""
    dom = dominator_tree(fn)
    order = {bb: k for k, bb in enumerate(reverse_postorder(fn))}
    bodies: Dict[BasicBlock, Set[BasicBlock]] = {}
    for bb in order:
        for succ in bb.succs:
            if dom.dominates(succ, bb):  # a back edge bb -> succ
                body = bodies.setdefault(succ, {succ})
                stack = [bb]
                while stack:
                    node = stack.pop()
                    if node not in body:
                        body.add(node)
                        stack.extend(p for p in node.preds if p in order)
    loops = [(h, sorted(b, key=order.__getitem__)) for h, b in bodies.items()]
    loops.sort(key=lambda hb: (-len(hb[1]), order[hb[0]]))
    return loops


def _peel(fn: IRFunction, header: BasicBlock, body: List[BasicBlock]) -> int:
    """Copy ``body`` in front of the loop: entries into the loop enter
    the copy, whose edges back to ``header`` enter the original. Returns
    the instructions added."""
    in_loop = set(body)
    block_map = {bb: bb for bb in fn.blocks}
    copies = {bb: fn.new_block("peel") for bb in body}
    block_map.update((bb, copies[bb]) for bb in body if bb is not header)
    back_to = header
    if _TEST_MUTATION == "unguarded":
        back_to = next(t for bb in body if isinstance(bb.terminator, I.Branch)
                       for t, other in ((bb.terminator.then_bb, bb.terminator.else_bb),
                                        (bb.terminator.else_bb, bb.terminator.then_bb))
                       if t in in_loop and other not in in_loop)
    block_map[header] = back_to

    live = _live_in(fn)
    carried = set(live[header]).union(
        *(live[s] for bb in body for s in bb.succs if s not in in_loop))
    temps = {d: fn.new_temp(d.type, d.hint) for bb in body for i in bb.instrs
             for d in i.defs() if d not in carried}

    def clone(instr: I.Instr) -> I.Instr:
        return clone_instr(instr, temps, block_map, lambda t: t)

    for bb in body:
        copy = copies[bb]
        copy.instrs = [clone(i) for i in bb.instrs]
        copy.terminator = clone(bb.terminator)
    # Every entry into the loop enters the copy.
    outside = {bb: (copies[header] if bb is header else bb) for bb in fn.blocks}
    for pred in header.preds:
        if pred not in in_loop:
            pred.terminator = clone_instr(pred.terminator, {}, outside,
                                          lambda t: t)
    # The copy sits where the loop did, so the layout reads in order.
    at = fn.blocks.index(header)
    new = set(copies.values())
    fn.blocks = (fn.blocks[:at] + [copies[bb] for bb in body]
                 + [bb for bb in fn.blocks[at:] if bb not in new])
    compute_cfg(fn)
    return sum(len(bb.instrs) + 1 for bb in body)


def _live_in(fn: IRFunction) -> Dict[BasicBlock, Set[Temp]]:
    """The temps live on entry to each block (``compute_cfg`` has run)."""
    used: Dict[BasicBlock, Set[Temp]] = {}
    defined: Dict[BasicBlock, Set[Temp]] = {}
    for bb in fn.blocks:
        u = used[bb] = set()
        d = defined[bb] = set()
        for instr in bb.all_instrs():
            u.update(v for v in instr.uses() if isinstance(v, Temp) and v not in d)
            d.update(instr.defs())
    live = {bb: set(used[bb]) for bb in fn.blocks}
    changed = True
    while changed:
        changed = False
        for bb in reversed(fn.blocks):
            new = used[bb].union(*(live[s] - defined[bb] for s in bb.succs))
            if new != live[bb]:
                live[bb] = new
                changed = True
    return live
