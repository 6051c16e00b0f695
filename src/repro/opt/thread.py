"""Jump threading on known constants, ahead of each PAC run (paper 5.3.1).

A block ending in a jump whose known constants decide the branches ahead
copies that path into itself -- the tests alone, or, when it wrote a
packet's header, through to where the packet escapes -- and jumps where
the copy leaves off. So sequential ``if (op == ..)`` arms and a finished
loop trip do not rejoin at joins the head-moving arms would make PAC's
anchors, and a header rewrite and the escape's rewrite of the same
header end up in one block, where PAC merges them into one masked store.

A branch the known constants leave open is no end of the path when its
arms are plain arithmetic that jump to one join and leave every temp
live there with the same known constant: the path takes the two arms as
one test, and the copy assigns those constants (MPLS's loop exit
``failed || guard == 0 && !done`` after a swap or push, where ``done``
is known and ``guard`` is not). The edge into each arm decides its
condition, and the copies the branching block made of it.

A copy keeps only what its path needs (Mueller & Whalley, "Avoiding
Conditional Branches by Code Replication", PLDI 1995): an instruction
with a side effect, one a later kept copy reads, or one whose result is
live where the copy leaves off. The tests the path decided, and the
short-circuit values they combined, stay behind. Each threaded jump is a
``thread``/``threaded`` ledger decision with the path's length and what
was copied and dropped.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Set

from repro.ir import instructions as I
from repro.ir.cfg import live_in, natural_loops, reverse_postorder, solve_forward
from repro.ir.eval import EvalError, bits_of, eval_binop, eval_cmp
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import packet_handles

# The most instructions one path may hold (the loop-exit tests and a
# header rewrite, in MPLS), with the constants a diamond's arms assign,
# counted before the copy drops what it does not need.
MAX_THREAD_INSTRS = 48

# Test-only fault injection (tests/test_analyze_mutations.py): with
# "drops_pure_copies" a copy keeps only the instructions with side
# effects, so a value the target reads keeps the one it had before the
# path; with "diamond_ignores_liveness" a diamond is threaded although
# its arms leave a live temp different, which then keeps the value it
# had before the diamond. Never set outside tests.
_TEST_MUTATION = None


def run(mod: IRModule) -> None:
    """Thread the jumps of every function."""
    for fn in mod.functions.values():
        _thread_known_paths(fn)


def _thread_known_paths(fn: IRFunction) -> None:
    """A block ending in a jump follows the path its known constants
    decide -- those every path to its end agrees on, and ``x == k`` on
    the then edge of a branch on that test -- through blocks of plain
    arithmetic and diamonds whose arms agree, or, when the block stores
    to a packet, on through the block that releases that packet. It
    then jumps where the copy leaves off: never to a block on a cycle it
    was not already jumping to, which could give a loop a second entry. Rounds repeat while they
    thread something, since a threaded jump can leave a join whose
    constants now agree. Liveness is taken once a round, at its first
    thread or at the first diamond whose arms leave a temp different:
    threading only shrinks it, so that is a safe superset."""
    for _ in range(8):
        known = solve_forward(fn, {}, _known_after, _agreeing)
        cyclic = set().union(*(body for _, body in natural_loops(fn)))
        live: Dict[BasicBlock, Set[Temp]] = {}  # filled by the first thread
        changed = False
        for bb in reverse_postorder(fn):
            if bb in known and isinstance(bb.terminator, I.Jump):
                changed |= _thread(fn, bb, _known_after(bb, known[bb]),
                                   cyclic, live)
        if not changed:
            return


def _thread(fn: IRFunction, bb: BasicBlock, env: Dict[Temp, int], cyclic,
            live: Dict[BasicBlock, Set[Temp]]) -> bool:
    """Thread ``bb``'s jump, ``env`` being what ``bb`` knows at its end;
    whether it moved."""
    start = target = bb.terminator.target
    copies: List[I.Instr] = []
    best = None  # (target, number of copies) of the last place to stop
    seen = {bb}
    stored = {i.ph for i in bb.instrs if isinstance(i, I.PktAccess) and i.stores}
    pure = True
    while target not in seen and isinstance(target.terminator, (I.Jump, I.Branch)):
        seen.add(target)
        env = _known_after(target, env, edge=False)
        term = target.terminator
        agreed: List[I.Instr] = []
        if isinstance(term, I.Branch):
            cond = _value(term.cond, env)
            if cond is not None:
                nxt = term.then_bb if cond else term.else_bb
            else:
                diamond = _agreeing_diamond(fn, target, env, live)
                if diamond is None:
                    break
                nxt, env, agreed = diamond
        else:
            nxt = term.target
        if len(copies) + len(target.instrs) + len(agreed) > MAX_THREAD_INSTRS:
            break
        copies.extend(_clone(i) for i in target.instrs)
        copies.extend(agreed)
        pure = pure and all(isinstance(i, (I.Assign, I.BinOp, I.Cmp))
                            for i in target.instrs)
        escapes = any(i.releases and any(
            ph is h or _renamed_from(ph, h, copies)
            for ph in packet_handles(i) for h in stored) for i in target.instrs)
        target = nxt
        if (pure or escapes) and (target not in cyclic or target is start):
            best = (target, len(copies))
        if not pure and not escapes:
            break
    if best is None or best[0] is start:
        return False
    target, n = best
    if not live:
        live.update(live_in(fn))
    kept = _needed(copies[:n], live[target])
    bb.instrs.extend(kept)
    bb.terminator.target = target
    obs_ledger.record("thread", fn.name, "threaded", block=bb.label,
                      old=start.label, new=target.label, path=n,
                      copied=len(kept), dropped=n - len(kept))
    return True


def _agreeing_diamond(fn: IRFunction, bb: BasicBlock, env: Dict[Temp, int],
                      live: Dict[BasicBlock, Set[Temp]]):
    """``bb``'s branch, which ``env`` leaves undecided, taken as one test
    when both arms are plain arithmetic jumping to one join and leave
    every temp live there with the same known constant: ``(join, what is
    known there, the assignments that stand for the arms)``, else None.
    A temp the arms leave differently must be dead at the join."""
    term = bb.terminator
    arms = (term.then_bb, term.else_bb)
    if arms[0] is arms[1] or not all(
            isinstance(arm.terminator, I.Jump) and all(
                isinstance(i, (I.Assign, I.BinOp, I.Cmp)) for i in arm.instrs)
            for arm in arms):
        return None
    join = arms[0].terminator.target
    if arms[1].terminator.target is not join or join in arms:
        return None
    after = [_known_after(arm, {**env, **_branch_facts(bb, arm)}, edge=False)
             for arm in arms]
    known = _agreeing(*after)
    defs = {d for arm in arms for i in arm.instrs for d in i.defs()}
    unsettled = {d for d in defs if d not in known}
    if unsettled and _TEST_MUTATION != "diamond_ignores_liveness":
        if not live:
            live.update(live_in(fn))
        differ = unsettled & live[join]
        if differ:
            obs_ledger.record(
                "thread", fn.name, "not_threaded", block=bb.label,
                reason="its arms leave %s different at %s" % (
                    ", ".join(sorted(map(repr, differ))), join.label))
            return None
    assigns = [I.Assign(d, Const(known[d], d.type))
               for d in sorted(defs - unsettled, key=lambda t: t.id)]
    return join, known, assigns


def _needed(path: List[I.Instr], live: Set[Temp]) -> List[I.Instr]:
    """The instructions of ``path`` that matter where it ends, ``live``
    being the temps read there: those with a side effect, and those
    whose result a later kept one or the end reads."""
    live = set(live)
    kept: List[I.Instr] = []
    for instr in reversed(path):
        read_later = _TEST_MUTATION != "drops_pure_copies" and any(
            d in live for d in instr.defs())
        if instr.side_effects or read_later:
            live.difference_update(instr.defs())
            live.update(u for u in instr.uses() if isinstance(u, Temp))
            kept.append(instr)
    kept.reverse()
    return kept


def _renamed_from(ph, handle, instrs) -> bool:
    """``ph`` is ``handle`` renamed (encap/decap) by ``instrs``."""
    for instr in reversed(instrs):
        if instr.renames and instr.dst is ph:
            ph = instr.src
    return ph is handle


def _clone(instr: I.Instr) -> I.Instr:
    new = copy.copy(instr)
    for attr, value in vars(new).items():
        if isinstance(value, list):
            setattr(new, attr, list(value))
    return new


def _value(op: Operand, env: Dict[Temp, int]) -> Optional[int]:
    return op.value if isinstance(op, Const) else env.get(op)


def _known_after(bb: BasicBlock, env: Dict[Temp, int], edge: bool = True):
    """The constants known at ``bb``'s end, from ``env`` at its entry
    and, when ``edge``, what the branch into it decided."""
    env = dict(env)
    if edge:
        env.update(_edge_facts(bb))
    for instr in bb.instrs:
        value = None
        if isinstance(instr, I.Assign):
            value = _value(instr.src, env)
        elif isinstance(instr, (I.BinOp, I.Cmp)):
            a, b = _value(instr.a, env), _value(instr.b, env)
            if a is not None and b is not None:
                try:
                    if isinstance(instr, I.Cmp):
                        bits = max(bits_of(instr.a.type), bits_of(instr.b.type))
                        value = eval_cmp(instr.op, a, b, bits)
                    else:
                        value = eval_binop(instr.op, a, b, bits_of(instr.dst.type))
                except EvalError:
                    pass  # left for run time
        for d in instr.defs():
            env.pop(d, None)
        if value is not None:
            env[instr.dst] = value
    return env


def _edge_facts(bb: BasicBlock) -> Dict[Temp, int]:
    """What entering ``bb`` from its only predecessor's branch decides."""
    if len(bb.preds) != 1:
        return {}
    return _branch_facts(bb.preds[0], bb)


def _branch_facts(pred: BasicBlock, succ: BasicBlock) -> Dict[Temp, int]:
    """What taking ``pred``'s branch to ``succ`` decides: the condition,
    the copies ``pred`` made of it after its test, and ``x`` on the then
    edge of ``x == k``."""
    term = pred.terminator
    if (not isinstance(term, I.Branch) or term.then_bb is term.else_bb
            or not isinstance(term.cond, Temp)):
        return {}
    taken = term.then_bb is succ
    facts = {term.cond: int(taken)}
    redefined: Set[Temp] = set()  # by the instructions after the test
    test = None
    for instr in reversed(pred.instrs):
        if term.cond in instr.defs():
            test = instr
            break
        if (isinstance(instr, I.Assign) and instr.src is term.cond
                and instr.dst not in redefined):
            facts[instr.dst] = int(taken)
        redefined.update(instr.defs())
    if (taken and isinstance(test, I.Cmp) and test.op == "eq"
            and isinstance(test.a, Temp) and isinstance(test.b, Const)
            and test.a not in redefined and test.a is not test.dst):
        facts[test.a] = test.b.value
    return facts


def _agreeing(a: Dict[Temp, int], b: Dict[Temp, int]) -> Dict[Temp, int]:
    return {t: v for t, v in a.items() if b.get(t) == v}
