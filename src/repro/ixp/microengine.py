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
and the slice loop that drives the steps. An independent
handler-per-instruction interpreter lives test-side
(``tests/reference_me.py``) as the oracle the core is compared against
bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.cg.melayout import LM_WORDS, N_THREADS, STACK_WORDS_PER_THREAD
from repro.ixp.cam import CAM

_U32 = 0xFFFFFFFF


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
        self.cause = None  # wait category of the last block, set with wake
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
    """One ME: instruction store, 8 threads, Local Memory, CAM."""

    def __init__(self, index: int, image, chip, n_threads: int = N_THREADS):
        self.index = index
        self.image = image
        self.chip = chip
        self.time = 0.0
        self.threads = [Thread(i, image.entry) for i in range(n_threads)]
        self.lm = [0] * LM_WORDS
        self.cam = CAM()
        self.rr_next = 0
        self.executed_instrs = 0
        self.idle_time = 0.0
        # Thread paused only by the simulation slice boundary (threads are
        # non-preemptive: it MUST continue before any other runs).
        self.resume_thread: Optional[Thread] = None
        # Predecoded step program; bound lazily on first run so the
        # loader has resolved symbols and created rings by then.
        self._prog = None

    def run_slice(self, max_cycles: float = 400.0) -> Optional[float]:
        """Run ready threads until none is ready or the slice budget is
        spent. Returns the absolute time of the next event on this ME
        (None when all threads halted).

        The round-robin scan and the dispatch loop over the predecoded
        program are one body, so a thread burst (run until it blocks or
        the slice ends) pays no intermediate method calls. Each step
        executes one or more instructions, charges its own cycles and
        returns the new ``time`` (``None`` when the thread blocked,
        yielded or halted); if the slice budget runs out first, the
        thread is remembered and continues before any other. The loop
        counts one instruction per step -- fused runs add the remainder
        to ``executed_instrs`` themselves -- and a failing step restores
        ``time``, ``pc`` and the executed count to their values before
        the failing instruction."""
        prog = self._prog
        if prog is None:
            prog = self._prog = self.image.predecoded(self.chip)
        time = self.time
        deadline = time + max_cycles
        threads = self.threads
        n = len(threads)
        executed = 0
        prof = self.chip.profiler
        try:
            while time < deadline:
                t = self.resume_thread
                if t is not None:
                    self.resume_thread = None
                    if t.halted:
                        t = None
                if t is None:
                    # One fused pass: round-robin scan for a ready
                    # thread, tracking the earliest wake of the
                    # non-halted threads seen on the way. When no thread
                    # is ready the scan covered all of them, so ``nxt``
                    # is the ME's next wake.
                    nxt = None
                    k = self.rr_next
                    for _ in range(n):
                        th = threads[k]
                        k += 1
                        if k == n:
                            k = 0
                        if not th.halted:
                            w = th.wake
                            if w <= time:
                                self.rr_next = k
                                t = th
                                break
                            if nxt is None or w < nxt:
                                nxt = w
                    if t is None:
                        # Nothing observes executed_instrs mid-slice, so
                        # the single flush in the finally covers every
                        # return.
                        if nxt is None:
                            return None
                        if nxt > time:
                            self.idle_time += nxt - time
                            return nxt
                        # No thread is ready yet the earliest wake is
                        # not in the future: looping would spin forever
                        # at a frozen clock. Surface the stuck state
                        # instead of hanging.
                        raise self._stuck_error(nxt)
                t0 = time
                while True:
                    tm = prog[t.pc](self, t, deadline)
                    executed += 1
                    if tm is None:
                        time = self.time
                        break  # thread blocked / yielded / halted
                    if tm >= deadline:
                        self.resume_thread = t
                        time = tm
                        break
                if prof is not None:
                    # The one place a thread stops: report the burst
                    # and, if it blocked, what for.
                    prof.note_burst(self.index, t.index, t0, time)
                    if tm is None and not t.halted:
                        prof.note_block(self.index, t.index, t.cause,
                                        time, t.wake)
            return time
        finally:
            self.executed_instrs += executed

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
