"""Microengine execution model.

Each ME runs one :class:`~repro.cg.assemble.MEImage` on eight hardware
thread contexts. Threads are non-preemptive: a thread executes until it
issues a memory reference (which swaps it out until the data returns) or
an explicit ``ctx_arb``; a round-robin arbiter then picks the next ready
thread (paper section 3.1). Instructions cost their ``cycles``; taken
branches add one abort cycle.

There is one execution core. The image is predecoded once per chip into
specialized step closures (:mod:`repro.ixp.predecode`), which own the
instruction semantics; this module owns the thread state, the arbiter
and the slice loop that drives the steps, and binds once the chip state
the steps reach (memory counters, channels and stores, the ring table). An independent
handler-per-instruction interpreter lives test-side
(``tests/reference_me.py``) as the oracle the core is compared against
bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cg.melayout import LM_WORDS, N_THREADS, STACK_WORDS_PER_THREAD

_U32 = 0xFFFFFFFF
_INF = float("inf")

#: Why a thread last blocked. A blocking step stamps ``Thread.cause``
#: with an index into this tuple beside ``wake`` (repro.obs.profile
#: names its wait categories with it; ``ixp`` does not import ``obs``).
WAIT_CATEGORIES = ("mem_scratch", "mem_sram", "mem_dram",
                   "ring_empty", "ring_full", "ctx_arb")
CAUSE = {name: c for c, name in enumerate(WAIT_CATEGORIES)}

#: A stall-profiler row, one per thread: exec cycles at 0, wait cycles
#: by cause at ``1 + c``, block counts by cause at ``BLOCKS + c``.
#: :meth:`Microengine.run_slice` writes it where the thread stops.
BLOCKS = 1 + len(WAIT_CATEGORIES)


def new_row() -> list:
    return [0.0] * BLOCKS + [0] * len(WAIT_CATEGORIES)


def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x80000000 else v


class SimError(RuntimeError):
    pass


class Thread:
    __slots__ = ("index", "pc", "a", "b", "wake", "cause", "halted",
                 "cmp_a", "cmp_b", "lm_base")

    def __init__(self, index: int, entry: int):
        self.index = index
        self.pc = entry
        self.a = [0] * 16
        self.b = [0] * 16
        self.wake = 0.0
        self.cause = None  # CAUSE slot of the last block, set with wake
        self.halted = False
        self.cmp_a = 0
        self.cmp_b = 0
        self.lm_base = index * STACK_WORDS_PER_THREAD

    def get(self, reg) -> int:
        if reg.bank == "a":
            return self.a[reg.index]
        return self.b[reg.index]

    def set(self, reg, value: int) -> None:
        if reg.bank == "a":
            self.a[reg.index] = value & _U32
        else:
            self.b[reg.index] = value & _U32


class Microengine:
    """One ME: instruction store, 8 threads, Local Memory."""

    def __init__(self, index: int, image, chip, n_threads: int = N_THREADS):
        self.index = index
        self.image = image
        self.chip = chip
        self.time = 0.0
        self.threads = [Thread(i, image.entry) for i in range(n_threads)]
        self.lm = [0] * LM_WORDS
        self.rr_next = 0
        self.executed_instrs = 0
        self.idle_time = 0.0
        # Thread paused only by the simulation slice boundary (threads are
        # non-preemptive: it MUST continue before any other runs).
        self.resume_thread: Optional[Thread] = None
        # Predecoded step program; bound lazily on first run so the
        # loader has resolved symbols and created rings by then.
        self._prog = None
        # The arbiter's view of the threads: wakes[i] is threads[i].wake,
        # or inf once it halted. Rebuilt when the program binds, then
        # updated where a thread stops.
        self.wakes: List[float] = []
        self._rebuild_wakes()
        # The chip state the predecoded steps touch, bound once so a
        # memory or ring op pays no attribute chain per access.
        memory = chip.memory
        self.memory = memory
        self.n_accesses = memory.counters.n_accesses
        self.channels = memory.channels
        self.stores = memory.stores
        self.rings = chip.rings.rings

    def run_slice(self, max_cycles: float = 400.0) -> Optional[float]:
        """Run ready threads until none is ready or the slice budget is
        spent. Returns the absolute time of the next event on this ME
        (None when all threads halted).

        The arbiter and the dispatch loop over the predecoded program
        are one body, so a thread burst (run until it blocks or the
        slice ends) pays no intermediate method calls. The arbiter reads
        ``wakes``: its minimum is the ME's next wake, and when that is
        due, a cyclic scan from ``rr_next`` finds the thread. Each step
        executes one or more instructions, charges its own cycles and
        returns the new ``time`` (``None`` when the thread blocked,
        yielded or halted); if the slice budget runs out first, the
        thread is remembered and continues before any other. The loop
        counts one instruction per step -- fused runs add the remainder
        to ``executed_instrs`` themselves -- and a failing step restores
        ``time``, ``pc`` and the executed count to their values before
        the failing instruction."""
        prog = self._prog
        threads = self.threads
        wakes = self.wakes
        if prog is None:
            prog = self._prog = self.image.predecoded(self.chip)
            self._rebuild_wakes()
        time = self.time
        deadline = time + max_cycles
        n = len(threads)
        executed = 0
        prof = self.chip.profiler
        if prof is not None:
            # The stall profiler's per-thread rows for this ME.
            rows = prof.rows_for(self)
            blocks = BLOCKS
        try:
            while time < deadline:
                t = self.resume_thread
                if t is not None:
                    self.resume_thread = None
                    if t.halted:
                        t = None
                if t is None:
                    nxt = min(wakes)
                    if not nxt <= time:
                        # Nothing observes executed_instrs mid-slice, so
                        # the single flush in the finally covers every
                        # return.
                        if nxt == _INF:
                            return None  # every thread halted
                        if nxt > time:
                            self.idle_time += nxt - time
                            return nxt
                        # No thread is ready yet the earliest wake is
                        # not in the future: looping would spin forever
                        # at a frozen clock. Surface the stuck state
                        # instead of hanging.
                        raise self._stuck_error(nxt)
                    k = self.rr_next
                    while not wakes[k] <= time:
                        k += 1
                        if k == n:
                            k = 0
                    t = threads[k]
                    k += 1
                    self.rr_next = k if k < n else 0
                t0 = time
                while True:
                    tm = prog[t.pc](self, t, deadline)
                    executed += 1
                    if tm is None:
                        time = self.time
                        # Thread blocked / yielded / halted.
                        wakes[t.index] = _INF if t.halted else t.wake
                        break
                    if tm >= deadline:
                        self.resume_thread = t
                        time = tm
                        break
                if prof is not None:
                    # The one place a thread stops: charge the burst
                    # and, if it blocked, the wait to its cause slot.
                    acc = rows[t.index]
                    acc[0] += time - t0
                    if tm is None and not t.halted:
                        c = t.cause
                        acc[1 + c] += t.wake - time
                        acc[blocks + c] += 1
            return time
        finally:
            self.executed_instrs += executed

    def _rebuild_wakes(self) -> None:
        # (A thread-less ME reads as all-halted.)
        self.wakes[:] = [_INF if th.halted else th.wake
                         for th in self.threads] or [_INF]

    def _stuck_error(self, nxt) -> SimError:
        states = "; ".join(
            "t%d pc=%d wake=%r%s" % (
                th.index, th.pc, th.wake,
                " halted" if th.halted else "")
            for th in self.threads)
        return SimError(
            "ME%d scheduler stuck at time %r: no ready thread but "
            "next wake %r is not in the future (%s)"
            % (self.index, self.time, nxt, states))
