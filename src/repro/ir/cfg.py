"""CFG utilities: edge computation, orderings, dataflow, cleanup."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.ir.instructions import Branch, Jump
from repro.ir.module import BasicBlock, IRFunction
from repro.ir.values import Const, Temp


def compute_cfg(fn: IRFunction) -> None:
    """(Re)compute pred/succ lists for every block."""
    for bb in fn.blocks:
        bb.preds = []
        bb.succs = []
    for bb in fn.blocks:
        for succ in bb.successors():
            bb.succs.append(succ)
            succ.preds.append(bb)


def reverse_postorder(fn: IRFunction) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable blocks
    excluded). Assumes compute_cfg has run."""
    visited: Set[BasicBlock] = set()
    post: List[BasicBlock] = []

    def visit(bb: BasicBlock) -> None:
        stack = [(bb, iter(bb.succs))]
        visited.add(bb)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.succs)))
                    advanced = True
                    break
            if not advanced:
                post.append(node)
                stack.pop()

    visit(fn.entry)
    return list(reversed(post))


def natural_loops(fn: IRFunction) -> List[Tuple[BasicBlock, List[BasicBlock]]]:
    """``(header, body)`` of every natural loop, the body in reverse
    postorder from the header; the largest first. Every CFG here is
    reducible -- Baker has no ``goto``, and jump threading never gives a
    loop a second entry -- so every cycle lies in some loop's body and
    the bodies' union is the set of blocks on a cycle."""
    from repro.ir.dominators import dominator_tree  # it builds on this module

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


S = TypeVar("S")


def solve_forward(fn: IRFunction, boundary: S,
                  transfer: Callable[[BasicBlock, S], S],
                  join: Callable[[S, S], S],
                  ins: Optional[Dict[BasicBlock, S]] = None) -> Dict[BasicBlock, S]:
    """Block-entry states of a forward dataflow problem: ``boundary`` at
    the entry, ``transfer(bb, state)`` the state at the block's end, and
    ``join(a, b)`` where paths meet -- each block's state joins what it
    held before with its predecessors' ends, so a value that changes at a
    join is met, not replaced. Reverse postorder, to a fixpoint or
    ``4*n+16`` rounds. The result lists the blocks in reverse postorder;
    one no path reaches has no state. ``ins`` is filled as the solver
    goes, for a transfer that reads its successors' states."""
    compute_cfg(fn)
    order = reverse_postorder(fn)
    ins = {} if ins is None else ins
    ins[fn.entry] = boundary
    outs: Dict[BasicBlock, S] = {}
    for _ in range(4 * len(order) + 16):
        changed = False
        for bb in order:
            state = ins.get(bb)
            for pred in bb.preds:
                if pred in outs:
                    state = outs[pred] if state is None else join(state, outs[pred])
            if state is None:
                continue
            if ins.get(bb) != state:
                ins[bb] = state
                changed = True
            out = transfer(bb, state)
            if outs.get(bb) != out:
                outs[bb] = out
                changed = True
        if not changed:
            break
    return ins


def live_in(fn: IRFunction) -> Dict[BasicBlock, Set[Temp]]:
    """The temps live on entry to each block (``compute_cfg`` has run):
    the one backward dataflow problem the passes solve, beside
    :func:`solve_forward`."""
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


def remove_unreachable(fn: IRFunction) -> int:
    """Delete blocks not reachable from the entry. Returns removal count."""
    compute_cfg(fn)
    reachable = set(reverse_postorder(fn))
    removed = [bb for bb in fn.blocks if bb not in reachable]
    if removed:
        fn.blocks = [bb for bb in fn.blocks if bb in reachable]
        compute_cfg(fn)
    return len(removed)


def simplify_cfg(fn: IRFunction) -> bool:
    """Classic CFG cleanup, iterated to fixpoint:

    * constant branches become jumps;
    * jump-to-jump (empty block) threading;
    * merge a block into its unique predecessor when that pred has a
      single successor.

    Returns True if anything changed.
    """
    changed_any = False
    while True:
        changed = False
        remove_unreachable(fn)

        # Constant branches -> jumps.
        for bb in fn.blocks:
            term = bb.terminator
            if isinstance(term, Branch) and isinstance(term.cond, Const):
                target = term.then_bb if term.cond.value != 0 else term.else_bb
                bb.terminator = Jump(target)
                changed = True
            elif isinstance(term, Branch) and term.then_bb is term.else_bb:
                bb.terminator = Jump(term.then_bb)
                changed = True

        compute_cfg(fn)

        # Thread jumps through empty forwarding blocks.
        forward: Dict[BasicBlock, BasicBlock] = {}
        for bb in fn.blocks:
            if bb is not fn.entry and not bb.instrs and isinstance(bb.terminator, Jump):
                forward[bb] = bb.terminator.target

        def resolve(bb: BasicBlock) -> BasicBlock:
            seen = set()
            while bb in forward and bb not in seen:
                seen.add(bb)
                bb = forward[bb]
            return bb

        if forward:
            for bb in fn.blocks:
                term = bb.terminator
                if isinstance(term, Jump):
                    target = resolve(term.target)
                    if target is not term.target:
                        term.target = target
                        changed = True
                elif isinstance(term, Branch):
                    t, e = resolve(term.then_bb), resolve(term.else_bb)
                    if t is not term.then_bb or e is not term.else_bb:
                        term.then_bb, term.else_bb = t, e
                        changed = True
            remove_unreachable(fn)

        # Merge straight-line pairs.
        compute_cfg(fn)
        merged = False
        for bb in list(fn.blocks):
            if isinstance(bb.terminator, Jump):
                succ = bb.terminator.target
                if succ is not fn.entry and succ is not bb and len(succ.preds) == 1:
                    bb.instrs.extend(succ.instrs)
                    bb.terminator = succ.terminator
                    fn.blocks.remove(succ)
                    compute_cfg(fn)
                    merged = True
                    changed = True
                    break  # restart scan; block list changed
        if merged:
            continue

        changed_any = changed_any or changed
        if not changed:
            break
    compute_cfg(fn)
    return changed_any
