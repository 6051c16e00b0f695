"""Load-time predecode: bind instructions to specialized step closures
once, so the per-instruction interpreter loop does no dict dispatch,
isinstance/type tests, or operand attribute chasing.

Every instruction index ``i`` of an :class:`~repro.cg.assemble.MEImage`
gets a ``step(me, t, deadline)`` closure that executes the *straight-line
run* starting at ``i``: the instruction itself plus following fusable
instructions, inlined into one generated function body. Source code is
generated per run *shape* (opcodes, operand kinds, register banks,
positions) and ``exec``-compiled once per shape -- shape sources are
cached globally, so re-decoding the same image for a new chip only
re-instantiates closures. The varying parts (register indices, folded
immediates, resolved symbol addresses, branch targets, bound ring and
memory objects) enter as closure parameters.

Fusion changes *nothing* observable. A multi-instruction run opens with
one worst-case guard::

    if tm + CMAX >= deadline:  # CMAX = the run's maximum possible charge
        <execute only the first instruction, then return to the loop>

When the guard fails, *no* per-sub-instruction deadline check could have
fired either (each would compare a partial charge, and every partial
charge is <= CMAX), so the body runs **unchecked**: cycle charges fold
into compile-time constants applied at the exits, and the slice pacing
near a deadline is handled by the guard's solo path plus the ordinary
single-instruction steps that follow it -- exactly the cadence of
checking the deadline after every instruction.
Conditional branches bail to the target on the taken path (charging the
abort cycle) and continue inline on fallthrough; a failing
sub-instruction (Local Memory bounds) raises with ``time``, ``pc`` and
``executed_instrs`` as they were before it: every earlier
sub-instruction charged and counted, the failing one not. Runs end
inclusively at control transfers and blocking instructions (memory,
rings, ``ctx_arb``, ``halt``) and exclusively before unfusable
instructions or the length cap -- where they bail to the next
instruction's own step, so a thread resuming at *any* pc finds a valid
entry.

Step protocol: a step returns the new ``me.time`` while the thread keeps
running, or ``None`` when the thread stopped (blocked, yielded, or
halted). The dispatch loop in :meth:`Microengine.run_slice` adds one to
``executed_instrs`` per call; multi-instruction runs account for the
remainder themselves.

Programs are chip-specific (symbol addresses and ring objects live on
the chip) and cached per ``(image, chip)`` by
:meth:`MEImage.predecoded`. Any instruction the predecoder cannot bind
(virtual registers that escaped regalloc, unresolved branches, symbols
missing from a hand-built chip, classes with no emitter) *punts*: it
gets a step that raises :class:`SimError` naming the instruction and
the reason -- lazily, only if a thread actually reaches it, and before
anything is charged.

Equivalence with the test-side handler-table interpreter
(``tests/reference_me.py``) is asserted bit-for-bit (Tx signatures,
cycle counts, executed_instrs, metrics) by ``tests/test_fastpath.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cg.isa import CAT_APP, Imm, PReg, SymRef
from repro.cg.melayout import LM_WORDS, SRAM_STACK_BYTES_PER_THREAD
from repro.ixp.memory import MemorySystem
from repro.ixp.microengine import SimError, _signed

_U32 = 0xFFFFFFFF
#: Spelled into generated source so stores mask exactly like Thread.set.
_MASK = "4294967295"

#: Longest fused run; longer straight-line stretches bail to the next
#: instruction's own step (one extra dispatch per crossing).
RUN_CAP = 24

#: A predecoded step: returns the new me.time (thread continues) or None
#: (thread blocked / yielded / halted).
Step = Callable[[object, object, float], object]
Prog = List[Step]


class DecodePunt(Exception):
    """Raised inside an emitter when an operand cannot be pre-bound; the
    run ends before the instruction, which gets a punt step."""


#: Recorded for a symbol the decode looked up but the chip did not have
#: (the instruction punted); a chip that *does* define it must not reuse
#: the plan.
_SYM_MISSING = object()


class _ChipView:
    """Decode-time facade over a chip: forwards symbol resolution and
    records every name it depended on (value, or a miss). Symbols are
    the *only* chip state baked into generated closures -- memory and
    ring objects are reached through ``me.chip`` at run time -- so a
    program built against one chip is valid on any chip whose symbol
    table agrees on exactly the recorded names (:func:`plan_matches`)."""

    def __init__(self, chip):
        self._symbols = chip.symbols
        self.used: Dict[str, object] = {}

    def symbol(self, name: str) -> int:
        value = self._symbols.get(name, _SYM_MISSING)
        self.used[name] = value
        if value is _SYM_MISSING:
            raise KeyError("unresolved symbol %r (loader bug?)" % name)
        return value


def plan_matches(used: Dict[str, object], chip) -> bool:
    """True when ``chip`` resolves every recorded symbol to the recorded
    value (including recorded misses staying missing)."""
    symbols = chip.symbols
    for name, value in used.items():
        current = symbols.get(name, _SYM_MISSING)
        if current is not value and current != value:
            return False
    return True


# -- shape-template engine --------------------------------------------------------------
#
# _make_step assembles a full factory source
#
#     def _make(PARAM1, PARAM2, ...):
#         def step(me, t, deadline):
#             <body>
#         return step
#
# compiles it once per distinct source (the shape cache key IS the
# source text), and instantiates it with the run's parameters as closure
# cells. Parameter *names* are embedded in the source, so equal shapes
# share one code object no matter which instructions they bind.

_MAKE_CACHE: Dict[str, Callable] = {}

_EXEC_GLOBALS = {
    "SimError": SimError,
    "_signed": _signed,
}


def _make_step(body: str, params: Dict[str, object]) -> Step:
    names = sorted(params)
    src = ("def _make(%s):\n"
           "    def step(me, t, deadline):\n"
           "%s"
           "    return step\n" % (", ".join(names), body))
    make = _MAKE_CACHE.get(src)
    if make is None:
        ns: Dict[str, object] = {}
        exec(compile(src, "<predecode>", "exec"), dict(_EXEC_GLOBALS), ns)
        make = ns["_make"]
        _MAKE_CACHE[src] = make
    return make(*[params[n] for n in names])


# -- run builder -----------------------------------------------------------------------


class _RunBuilder:
    """Accumulates the generated body for one straight-line run.

    The body keeps the entry clock in a local ``tm`` and *defers* all
    cycle charges: ``cyc`` accumulates the straight-line charge as a
    compile-time constant, applied in one addition at each exit (bail,
    terminal, fallthrough close). ``cmax`` tracks the worst possible
    total charge over any path through the run -- the caller's deadline
    guard compares against it, which is what makes the checkless body
    bit-exact (see the module docstring).
    """

    def __init__(self, chip, prefix: str = "", puntable=None,
                 visited=None):
        self.chip = chip
        self.prefix = prefix
        self.lines: List[str] = ["        tm = me.time\n"]
        self.params: Dict[str, object] = {}
        self.k = 0  # sub-instructions emitted so far
        self.cyc = 0  # straight-line cycles charged so far (deferred)
        self.cmax = 0  # worst-case total charge over any exit path
        self.closed = False
        # Closed by an unconditional raise (static Local Memory bounds
        # violation): prior sub-instructions still need the guard so the
        # error surfaces in the same slice as under per-instruction
        # deadline checks.
        self.early_raise = False
        # Fuse-through support: an emitter for an unconditional control
        # transfer with a statically known, not-yet-visited target may
        # defer its charge (cont) and set ``goto`` instead of closing;
        # _emit_run then continues emitting at the target.
        self.goto: Optional[int] = None
        self._puntable = puntable if puntable is not None else {}
        self._visited = visited if visited is not None else set()

    def can_goto(self, target) -> bool:
        return (target is not None and target not in self._visited
                and target not in self._puntable)

    # parameter helpers ------------------------------------------------------

    def p(self, name: str, value) -> str:
        full = "%si%d_%s" % (self.prefix, self.k, name)
        self.params[full] = value
        return full

    def src(self, op, name: str):
        """Bind a source operand: (expr, is_const). Constants fold into
        a closure parameter; registers become direct bank indexing."""
        if type(op) is Imm:
            return self.p(name, op.value), True
        if type(op) is SymRef:
            return self.p(name, self.chip.symbol(op.name) + op.addend), True
        if type(op) is PReg:
            return "t.%s[%s]" % (op.bank, self.p(name, op.index)), False
        raise DecodePunt("operand %r is not a physical register, "
                         "immediate or symbol" % (op,))

    def csrc(self, op, name: str) -> str:
        """Source operand whose constant form must be pre-masked (Cmp,
        Mov, LmWrite destinations mask on use)."""
        expr, const = self.src(op, name)
        if const:
            self.params[expr] &= _U32
            return expr
        return "(%s) & %s" % (expr, _MASK)

    def dst(self, reg, name: str) -> str:
        if type(reg) is not PReg:
            raise DecodePunt("destination %r is not a physical register"
                             % (reg,))
        return "t.%s[%s]" % (reg.bank, self.p(name, reg.index))

    # structure helpers ------------------------------------------------------

    def add(self, line: str) -> None:
        self.lines.append("        " + line + "\n")

    def restore_time(self) -> str:
        """The assignment restoring ``me.time`` to "all *previous*
        sub-instructions charged, the current one not" -- the clock as
        it stood before the failing instruction."""
        if self.cyc:
            return "me.time = tm + %d" % self.cyc
        return "me.time = tm"

    def total(self, cycles: int) -> str:
        """The final charge for a terminal sub-instruction: everything
        accumulated plus this one's own cycles, in one addition."""
        self.cmax += cycles
        return "tm += %d" % (self.cyc + cycles)

    def cont(self, work: List[str], cycles: int) -> None:
        """A fallthrough sub-instruction: emit the work; its charge is
        deferred into ``cyc``."""
        for line in work:
            self.add(line)
        self.cyc += cycles
        self.cmax += cycles
        self.k += 1

    def close_fall(self, next_idx: int) -> None:
        """End the run *before* next_idx (cap or unfusable instruction):
        apply the accumulated charge and bail to that instruction's own
        step."""
        if self.cyc:
            self.add("tm += %d" % self.cyc)
        self.add("me.time = tm")
        self.add("t.pc = %s" % self.p("P", next_idx))
        if self.k > 1:
            self.add("me.executed_instrs += %d" % (self.k - 1))
        self.add("return tm")
        self.closed = True

    def close_terminal(self, tail: List[str]) -> None:
        """End the run with a terminal sub-instruction's own exit
        lines (control transfer / blocking / halt)."""
        for line in tail:
            self.add(line)
        self.k += 1
        self.closed = True

    def build(self) -> Step:
        assert self.closed
        return _make_step("".join(self.lines), self.params)


# -- per-kind emitters -----------------------------------------------------------------
# Each emits one sub-instruction into the builder. ``idx`` is the
# instruction's index in the image (fallthrough pc updates and link
# values fold to constants).


_ALU_EXPR = {
    "add": "(%s) + (%s)",
    "sub": "(%s) - (%s)",
    "and": "(%s) & (%s)",
    "or": "(%s) | (%s)",
    "xor": "(%s) ^ (%s)",
    "shl": "(%s) << ((%s) & 31)",
    "lshr": "((%s) & " + _MASK + ") >> ((%s) & 31)",
    "ashr": "_signed(%s) >> ((%s) & 31)",
    "mul": "(%s) * (%s)",
}

_ALU_FN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "lshr": lambda a, b: (a & _U32) >> (b & 31),
    "ashr": lambda a, b: _signed(a) >> (b & 31),
    "mul": lambda a, b: a * b,
}


def _e_alu(b: _RunBuilder, insn, idx):
    dex = b.dst(insn.dst, "D")
    aex, ac = b.src(insn.a, "A")
    bex, bc = b.src(insn.b, "B")
    if ac and bc:
        # Both operands folded: the whole ALU op becomes a constant.
        cv = _ALU_FN[insn.op](b.params.pop(aex), b.params.pop(bex)) & _U32
        work = ["%s = %s" % (dex, b.p("V", cv))]
    else:
        work = ["%s = (%s) & %s"
                % (dex, _ALU_EXPR[insn.op] % (aex, bex), _MASK)]
    b.cont(work, insn.cycles)


def _e_immed(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    b.cont(["%s = %s" % (dex, b.p("V", insn.value))], insn.cycles)


def _e_loadsym(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    value = (b.chip.symbol(insn.sym.name) + insn.sym.addend) & _U32
    b.cont(["%s = %s" % (dex, b.p("V", value))], insn.cycles)


def _e_mov(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    b.cont(["%s = %s" % (dex, b.csrc(insn.src, "S"))], insn.cycles)


def _e_cmp(b, insn, idx):
    aex = b.csrc(insn.a, "A")
    bex = b.csrc(insn.b, "B")
    b.cont(["t.cmp_a = %s" % aex, "t.cmp_b = %s" % bex], insn.cycles)


_BR_CMP = {"eq": "==", "ne": "!=", "lt_u": "<", "le_u": "<=",
           "gt_u": ">", "ge_u": ">=",
           "lt_s": "<", "le_s": "<=", "gt_s": ">", "ge_s": ">="}


def _e_br(b: _RunBuilder, insn, idx):
    if insn.resolved is None:
        raise DecodePunt("branch target %r was never resolved"
                         % (insn.target,))
    if insn.cond == "always":
        if b.can_goto(insn.resolved):
            # Fuse straight through the jump: charge (incl. the abort
            # cycle) is deferred like any fallthrough sub-instruction
            # and emission continues at the target.
            b.cont([], insn.cycles + 1)
            b.goto = insn.resolved
            return
        b.close_terminal([b.total(insn.cycles + 1),
                          "t.pc = %s" % b.p("T", insn.resolved),
                          "me.time = tm"]
                         + _exec_add(b.k)
                         + ["return tm"])
        return
    if insn.cond.endswith("_s"):
        test = "_signed(t.cmp_a) %s _signed(t.cmp_b)" % _BR_CMP[insn.cond]
    else:
        test = "t.cmp_a %s t.cmp_b" % _BR_CMP[insn.cond]
    tgt = b.p("T", insn.resolved)
    # Taken: bail to the target, charging everything accumulated plus
    # this branch and its abort cycle. Fallthrough: continue the run
    # inline, deferring the (abortless) charge.
    b.add("if %s:" % test)
    b.add("    tm += %d" % (b.cyc + insn.cycles + 1))
    b.add("    t.pc = %s" % tgt)
    b.add("    me.time = tm")
    if b.k:
        b.add("    me.executed_instrs += %d" % b.k)
    b.add("    return tm")
    b.cyc += insn.cycles
    b.cmax += insn.cycles + 1
    b.k += 1


def _exec_add(k: int) -> List[str]:
    return ["me.executed_instrs += %d" % k] if k else []


def _e_bal(b, insn, idx):
    if insn.resolved is None:
        raise DecodePunt("call target %r was never resolved"
                         % (insn.target,))
    lex = b.dst(insn.link, "L")
    if b.can_goto(insn.resolved):
        # Fuse into the callee: write the link register, defer the
        # charge (incl. the taken-branch abort cycle), keep emitting at
        # the callee entry. The return is indirect and still dispatches
        # through the program table at ``idx + 1`` (a run leader).
        b.cont(["%s = %s" % (lex, b.p("R", idx + 1))], insn.cycles + 1)
        b.goto = insn.resolved
        return
    b.close_terminal(["%s = %s" % (lex, b.p("R", idx + 1)),
                      b.total(insn.cycles + 1),
                      "t.pc = %s" % b.p("T", insn.resolved),
                      "me.time = tm"]
                     + _exec_add(b.k)
                     + ["return tm"])


def _e_rtn(b, insn, idx):
    aex, _ = b.src(insn.addr, "A")
    b.close_terminal(["t.pc = %s" % aex,
                      b.total(insn.cycles + 1),
                      "me.time = tm"]
                     + _exec_add(b.k)
                     + ["return tm"])


def _block_tail(b, next_idx: int, cause: str) -> List[str]:
    """Exit lines of a blocking sub-instruction. ``cause`` is a source
    expression for its wait category (repro.obs.profile), stamped beside
    the wake time; :meth:`Microengine.run_slice` reports both."""
    return (["t.pc = %s" % b.p("P", next_idx),
             "t.wake = done",
             "t.cause = %s" % cause]
            + _exec_add(b.k)
            + ["return None"])


def _charge_lines(b, space: str, words: int, category: str) -> List[str]:
    """The inlined body of :meth:`MemorySystem.timed_access`: counter
    bump, channel selection (``addr`` must be in scope for sram) and
    occupancy charge, leaving the completion time in ``done``. ``mem``
    must already be bound; ``tm`` holds the issue clock. Space, width
    and category are decode-time constants, so the per-access dispatch
    on them disappears; arithmetic and side-effect order are identical
    to the out-of-line call."""
    ky = b.p("KY", (space, category))
    lines = ["c = mem.counters",
             "c.accesses[%s] += 1" % ky,
             "c.words[%s] += %d" % (ky, words)]
    if space == "sram":
        lines.append(
            "ch = mem.channels['sram1' if (addr >> %d) & 1 else 'sram']"
            % MemorySystem.SRAM_INTERLEAVE_SHIFT)
    else:
        lines.append("ch = mem.channels['%s']" % space)
    lines += ["pp = ch.params",
              "occ = pp.occupancy_base + pp.occupancy_per_word * %d" % words,
              "start = ch.next_free",
              "if tm > start:",
              "    start = tm",
              "ch.next_free = start + occ",
              "ch.busy_time += occ",
              "mprof = mem.profiler",
              "if mprof is not None:",
              "    mprof.note_mem(ch.name, start - tm)",
              "done = start + occ + pp.latency"]
    return lines


def _e_mem(b: _RunBuilder, insn, idx):
    # Blocking ops charge the clock before issuing: completion times
    # include the issue cycles. The memory system is reached
    # through ``me.chip`` at run time -- blocking ops can afford the two
    # attribute loads, and it keeps the closures chip-independent.
    aex, ac = b.src(insn.addr_a, "A")
    bex, bc = b.src(insn.addr_b, "B")
    if ac and bc:
        addr_expr = b.p("AD", b.params.pop(aex) + b.params.pop(bex))
        addr_lines = ["addr = %s" % addr_expr]
    else:
        addr_lines = ["addr = (%s) + (%s)" % (aex, bex)]
    space, words = insn.space, insn.words
    tail = [b.total(insn.cycles), "me.time = tm",
            "mem = me.chip.memory"] + addr_lines
    if insn.rw == "read":
        tail += _charge_lines(b, space, words, insn.category)
        tail += ["store = mem.stores['%s']" % space,
                 "end = addr + %d" % (words * 4),
                 "if addr < 0 or end > len(store):",
                 "    raise IndexError('%s read out of range at %%#x'"
                 " %% addr)" % space]
        for i, reg in enumerate(insn.regs_out):
            lo = "addr + %d" % (4 * i) if i else "addr"
            hi = "end" if i == words - 1 else "addr + %d" % (4 * i + 4)
            tail.append("%s = int.from_bytes(store[%s : %s], 'big')"
                        % (b.dst(reg, "R%d" % i), lo, hi))
    else:
        exprs = [b.src(reg, "R%d" % i)[0]
                 for i, reg in enumerate(insn.regs_in)]
        if insn.mask_reg is not None or insn.byte_mask is not None:
            # Masked stores are rare: keep the out-of-line calls (charge
            # first, then the bounds-checked byte-lane write).
            if insn.mask_reg is not None:
                mex, _ = b.src(insn.mask_reg, "M")
            else:
                mex = b.p("M", insn.byte_mask)
            tail += ["done = mem.timed_access(tm, '%s', %d, '%s', addr)"
                     % (space, words, insn.category),
                     "mem.write_words('%s', addr, [%s], %s)"
                     % (space, ", ".join(exprs), mex)]
        else:
            tail += _charge_lines(b, space, words, insn.category)
            tail += ["store = mem.stores['%s']" % space,
                     "if addr < 0 or addr + %d > len(store):" % (
                         4 * len(exprs)),
                     "    raise IndexError('%s write out of range at "
                     "%%#x' %% addr)" % space]
            for i, expr in enumerate(exprs):
                lo = "addr + %d" % (4 * i) if i else "addr"
                tail.append("store[%s : addr + %d] = ((%s) & %s)"
                            ".to_bytes(4, 'big')"
                            % (lo, 4 * i + 4, expr, _MASK))
    b.close_terminal(tail + _block_tail(b, idx + 1, "'mem_%s'" % space))


def _e_ring_get(b, insn, idx):
    name = b.p("RN", insn.ring.name)
    dex = b.dst(insn.dst, "D")
    b.close_terminal(
        [b.total(insn.cycles),
         "me.time = tm",
         "chip = me.chip",
         "ring = chip.ring_by_symbol(%s)" % name,
         "mem = chip.memory"]
        + _charge_lines(b, "scratch", 1, insn.category)
        + ["value = ring.get()",
         "%s = value" % dex,
         "tracer = chip.tracer",
         "if tracer is not None:",
         "    tracer.me_ring_get(me.index, t.index, %s, value, tm)" % name]
        + _block_tail(b, idx + 1,
                      "'ring_empty' if value == 0 else 'mem_scratch'"))


def _e_ring_put(b, insn, idx):
    name = b.p("RN", insn.ring.name)
    sex, _ = b.src(insn.src, "S")
    b.close_terminal(
        [b.total(insn.cycles),
         "me.time = tm",
         "chip = me.chip",
         "ring = chip.ring_by_symbol(%s)" % name,
         "mem = chip.memory"]
        + _charge_lines(b, "scratch", 1, insn.category)
        + ["value = %s" % sex,
         "ok = ring.put(value)",
         "tracer = chip.tracer",
         "if tracer is not None:",
         "    tracer.me_ring_put(me.index, t.index, %s, value, tm, ok)"
         % name]
        + _block_tail(b, idx + 1, "'mem_scratch' if ok else 'ring_full'"))


def _e_tas(b, insn, idx):
    aex, _ = b.src(insn.addr_a, "A")
    dex = b.dst(insn.dst, "D")
    b.close_terminal(
        [b.total(insn.cycles),
         "me.time = tm",
         "mem = me.chip.memory",
         "addr = %s" % aex,
         "done = mem.timed_access(tm, 'scratch', 1, '%s')" % CAT_APP,
         "old = mem.read_words('scratch', addr, 1)[0]",
         "mem.write_words('scratch', addr, [1])",
         "%s = old" % dex]
        + _block_tail(b, idx + 1, "'mem_scratch'"))


def _e_release(b, insn, idx):
    aex, _ = b.src(insn.addr_a, "A")
    b.close_terminal(
        [b.total(insn.cycles),
         "me.time = tm",
         "mem = me.chip.memory",
         "addr = %s" % aex,
         "done = mem.timed_access(tm, 'scratch', 1, '%s')" % CAT_APP,
         "mem.write_words('scratch', addr, [0])"]
        + _block_tail(b, idx + 1, "'mem_scratch'"))


def _lm_index(b: _RunBuilder, insn, idx) -> Tuple[str, List[str]]:
    """The Local Memory index expression plus its bounds-check lines.
    The check runs *before* the clock is charged and restores pc and the
    executed count, so a failed access leaves the counters as they were
    before it."""
    off = insn.offset
    terms = []
    if insn.base is not None:
        bex, bc = b.src(insn.base, "LB")
        if bc:
            off += b.params.pop(bex)
        else:
            terms.append(bex)
    if insn.thread_rel:
        terms.append("t.lm_base")
    if not terms:
        if 0 <= off < LM_WORDS:
            return b.p("LO", off), []
        raise_lines = [
            b.restore_time(),
            "t.pc = %s" % b.p("I", idx),
        ] + _exec_add(b.k) + [
            "raise SimError('Local Memory index %%d out of range' %% %s)"
            % b.p("LO", off),
        ]
        return "", raise_lines
    expr = " + ".join([b.p("LO", off)] + terms)
    check = (["li = %s" % expr,
              "if li < 0 or li >= %d:" % LM_WORDS,
              "    " + b.restore_time(),
              "    t.pc = %s" % b.p("I", idx)]
             + ["    " + ln for ln in _exec_add(b.k)]
             + ["    raise SimError('Local Memory index %d out of "
                "range' % li)"])
    return "li", check


def _e_lm_read(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    iex, check = _lm_index(b, insn, idx)
    if not iex:  # constant index, statically out of range
        for line in check:
            b.add(line)
        b.closed = True
        b.early_raise = True
        return
    b.cont(check + ["%s = me.lm[%s]" % (dex, iex)], insn.cycles)


def _e_lm_write(b, insn, idx):
    vex = b.csrc(insn.src, "S")
    iex, check = _lm_index(b, insn, idx)
    if not iex:
        for line in check:
            b.add(line)
        b.closed = True
        b.early_raise = True
        return
    b.cont(check + ["me.lm[%s] = %s" % (iex, vex)], insn.cycles)


def _e_cam_lookup(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    kex, _ = b.src(insn.key, "K")
    b.cont(["%s = me.cam.lookup(%s)" % (dex, kex)], insn.cycles)


def _e_cam_write(b, insn, idx):
    eex, _ = b.src(insn.entry, "E")
    kex, _ = b.src(insn.key, "K")
    b.cont(["me.cam.write(%s, %s)" % (eex, kex)], insn.cycles)


def _e_cam_clear(b, insn, idx):
    b.cont(["me.cam.clear()"], insn.cycles)


def _e_ctx_arb(b, insn, idx):
    b.close_terminal([b.total(insn.cycles),
                      "me.time = tm",
                      "t.pc = %s" % b.p("P", idx + 1),
                      "t.wake = tm + 1",
                      "t.cause = 'ctx_arb'"]
                     + _exec_add(b.k)
                     + ["return None"])


def _e_halt(b, insn, idx):
    b.close_terminal([b.total(insn.cycles),
                      "me.time = tm",
                      "t.halted = True"]
                     + _exec_add(b.k)
                     + ["return None"])


def _e_thread_stack_addr(b, insn, idx):
    dex = b.dst(insn.dst, "D")
    base = b.p("SB", b.chip.symbol("__stack"))
    b.cont(["%s = %s + (me.index * len(me.threads) + t.index) * %d"
            % (dex, base, SRAM_STACK_BYTES_PER_THREAD)],
           insn.cycles)


#: kind tag (see isa.Insn.kind) -> emitter.
_EMITTERS = {
    "alu": _e_alu,
    "immed": _e_immed,
    "loadsym": _e_loadsym,
    "mov": _e_mov,
    "cmp": _e_cmp,
    "br": _e_br,
    "bal": _e_bal,
    "rtn": _e_rtn,
    "mem": _e_mem,
    "ring_get": _e_ring_get,
    "ring_put": _e_ring_put,
    "tas": _e_tas,
    "release": _e_release,
    "lm_read": _e_lm_read,
    "lm_write": _e_lm_write,
    "cam_lookup": _e_cam_lookup,
    "cam_write": _e_cam_write,
    "cam_clear": _e_cam_clear,
    "ctx_arb": _e_ctx_arb,
    "halt": _e_halt,
    "thread_stack_addr": _e_thread_stack_addr,
}


def _punt_step(idx: int, insn, reason: str) -> Step:
    """The step for an instruction the predecoder could not bind. An
    image may carry such instructions on paths no thread takes, so the
    error is raised at execution time -- before anything is charged:
    ``time``, ``pc`` and ``executed_instrs`` stay as they were."""
    def step(me, t, deadline):
        raise SimError("ME%d pc=%d: cannot execute %r: %s"
                       % (me.index, idx, insn, reason))
    return step


#: Instruction kinds after which control re-enters via a prog lookup
#: (the thread blocks / yields and later resumes at ``idx + 1``, or a
#: return jumps to the call's continuation).
_RESUME_AFTER = frozenset((
    "mem", "ring_get", "ring_put", "tas", "release", "ctx_arb", "bal"))


def _emit_run(image, chip, start: int, puntable: Dict[int, str], cap: int,
              prefix: str = "") -> Optional[_RunBuilder]:
    """Emit the body of the run starting at ``start`` (at most ``cap``
    instructions) into a fresh builder; None when the first instruction
    itself cannot be bound. ``puntable`` maps every instruction found
    unbindable so far to the reason (it becomes the punt step's
    diagnostic)."""
    insns = image.insns
    visited = {start}
    b = _RunBuilder(chip, prefix, puntable=puntable, visited=visited)
    idx = start
    while not b.closed:
        if idx >= len(insns) or idx in puntable or b.k >= cap:
            if b.k == 0:
                return None
            b.close_fall(idx)
            break
        insn = insns[idx]
        emitter = _EMITTERS.get(getattr(insn, "kind", None))
        if emitter is None:
            puntable[idx] = ("no ME semantics for %s"
                             % type(insn).__name__)
            if b.k == 0:
                return None
            b.close_fall(idx)
            break
        saved = (len(b.lines), len(b.params), b.k, b.cyc, b.cmax)
        try:
            emitter(b, insn, idx)
        except (DecodePunt, KeyError) as exc:
            # KeyError: a SymRef naming a symbol the loader has not
            # placed (hand-built chips).
            del b.lines[saved[0]:]
            for key in list(b.params)[saved[1]:]:
                del b.params[key]
            b.k, b.cyc, b.cmax = saved[2], saved[3], saved[4]
            puntable[idx] = str(exc.args[0])
            if b.k == 0:
                return None
            b.close_fall(idx)
            break
        if b.goto is not None:
            # Unconditional transfer fused through: continue at the
            # target (can_goto guaranteed it is fresh, so emission
            # cannot loop).
            idx = b.goto
            b.goto = None
        else:
            idx += 1
        visited.add(idx)
    return b


def _compile_run(image, chip, start: int, puntable: Dict[int, str],
                 cap: int) -> Optional[Step]:
    """Build the fused step for the run starting at ``start``. Single
    instruction runs compile as-is (their only charge happens under the
    dispatch loop's own deadline compare). Longer runs get the
    worst-case guard: when the remaining slice cannot fit ``cmax``, the
    guarded branch executes just the first instruction -- emitted by a
    second, solo builder whose parameters are namespaced with an ``s``
    prefix so they cannot collide with the main body's."""
    b = _emit_run(image, chip, start, puntable, cap)
    if b is None:
        return None
    if b.k <= 1 and not (b.early_raise and b.k >= 1):
        return b.build()
    solo = _emit_run(image, chip, start, puntable, 1, prefix="s")
    assert solo is not None and solo.closed  # first insn emitted fine above
    params = dict(solo.params)
    params.update(b.params)
    params["CM"] = b.cmax
    body = ["        tm = me.time\n",
            "        if tm + CM >= deadline:\n"]
    body += ["    " + ln for ln in solo.lines[1:]]
    body += b.lines[1:]
    return _make_step("".join(body), params)


def _run_leaders(image) -> set:
    """Instruction indices where fused execution (re-)starts: the image
    entry, branch/call targets, and the continuation after anything
    control re-enters through the program table. Other indices are
    reached only by rare mid-run slice resumes and keep cheap
    single-instruction steps."""
    leaders = {image.entry, 0}
    for idx, insn in enumerate(image.insns):
        kind = getattr(insn, "kind", None)
        if kind in ("br", "bal"):
            if insn.resolved is not None:
                leaders.add(insn.resolved)
        if kind in _RESUME_AFTER:
            leaders.add(idx + 1)
    return leaders


def predecode_image(image, chip) -> Tuple[Prog, Dict[str, object]]:
    """Compile an MEImage into a step program, one closure per
    instruction index (so a thread can resume at any pc): fused
    straight-line runs at run leaders, single-instruction steps
    elsewhere.

    Returns ``(prog, used_symbols)``. The closures reach memory and
    rings through ``me.chip`` at run time, so the only chip state they
    bake in is resolved symbol values -- ``used_symbols`` records
    exactly those (name -> value, or a recorded miss), and
    :meth:`repro.cg.assemble.MEImage.predecoded` reuses the program on
    any chip for which :func:`plan_matches` accepts it."""
    view = _ChipView(chip)
    leaders = _run_leaders(image)
    puntable: Dict[int, str] = {}
    prog: Prog = []
    for idx, insn in enumerate(image.insns):
        step = None
        if idx not in puntable:
            cap = RUN_CAP if idx in leaders else 1
            step = _compile_run(image, view, idx, puntable, cap)
        if step is None:
            step = _punt_step(idx, insn, puntable[idx])
        prog.append(step)
    return prog, view.used
