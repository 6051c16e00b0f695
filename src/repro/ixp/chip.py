"""The IXP2400 chip model: event-driven top level.

Owns the memory system, the scratch rings, the programmable MEs, the
Rx/Tx engines and the XScale core, and advances them in global time
order with a small event heap. MEs run in bounded slices so cross-ME
memory contention stays causally tight.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.ixp.memory import MemorySystem
from repro.ixp.microengine import Microengine
from repro.ixp.rings import RingSet
from repro.ixp.rxtx import RxEngine, TxEngine


class IXP2400:
    """Configured chip: call :meth:`run` (or the measurement helpers in
    :mod:`repro.rts.system`) after the loader has populated memory,
    rings, symbols and ME images."""

    def __init__(self, n_programmable_mes: int = 6):
        self.n_programmable_mes = n_programmable_mes
        self.memory = MemorySystem()
        self.rings = RingSet()
        self.symbols: Dict[str, int] = {}
        self.mes: List[Microengine] = []
        self.rx: Optional[RxEngine] = None
        self.tx: Optional[TxEngine] = None
        self.xscale = None  # repro.ixp.xscale_core.XScaleCore
        self.meta_words = 8
        self.now = 0.0
        self._events: List[Tuple[float, int, object]] = []
        self._seq = 0
        # Observers (DESIGN.md 7.3): optional, attached by assignment.
        # run() pulls ``window`` (repro.obs.timeseries
        # .TimeseriesCollector) through its ``next_t`` / ``tick(mark)``
        # between event dispatches, never from the heap, so it perturbs
        # neither event order nor the stop-check cadence.
        self.window = None
        # repro.obs.trace.PacketTracer, called at the packet-lifecycle
        # sites; repro.obs.profile.StallProfiler (set by its attach()),
        # called where a thread stops (Microengine.run_slice).
        self.tracer = None
        self.profiler = None

    # -- symbols ------------------------------------------------------------------

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError("unresolved symbol %r (loader bug?)" % name)

    # -- event scheduling -----------------------------------------------------------

    def schedule(self, time: float, action: Callable[[], Optional[float]]) -> None:
        """``action`` runs at ``time``; if it returns a float, it is
        rescheduled at that absolute time."""
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, action))

    def add_me(self, me: Microengine) -> None:
        self.mes.append(me)

        def run() -> Optional[float]:
            if self.now > me.time:
                me.time = self.now
            return me.run_slice()

        self.schedule(0.0, run)

    def attach_traffic(self, rx: RxEngine, tx: TxEngine,
                       tx_poll_cycles: float = 50.0) -> None:
        self.rx = rx
        self.tx = tx

        def rx_event() -> Optional[float]:
            delay = rx.inject_next()
            if delay is None:
                return None
            return self.now + delay

        def tx_event() -> Optional[float]:
            now = self.now
            tx.poll(now)
            # poll() bound (or raised on) the tx ring, so reuse its
            # reference instead of a fresh RingSet lookup.
            ring = tx._tx_ring
            if ring.items and tx.busy_until > now:
                # Packets are waiting on line-rate pacing: wake exactly
                # when the transmitter frees up.
                return max(tx.busy_until, now + 1.0)
            return now + tx_poll_cycles

        self.schedule(0.0, rx_event)
        self.schedule(0.0, tx_event)

    def attach_xscale(self, xscale, poll_cycles: float = 600.0) -> None:
        self.xscale = xscale

        def xscale_event() -> Optional[float]:
            busy = xscale.service(self.now)
            return self.now + max(poll_cycles, busy)

        self.schedule(poll_cycles, xscale_event)

    # -- main loop ----------------------------------------------------------------------

    def run(self, until_cycles: float,
            stop: Optional[Callable[[], bool]] = None,
            stop_check_interval: int = 64) -> None:
        """Advance simulation until the **absolute** simulated time
        ``until_cycles`` (or until ``stop()`` returns true).

        ``until_cycles`` is a deadline on the simulation clock, not a
        budget relative to ``self.now`` -- calling ``run(X)`` twice does
        not advance time past ``X``. Use :meth:`run_for` for a relative
        budget.
        """
        countdown = stop_check_interval
        window = self.window
        events = self._events
        pop = heapq.heappop
        push = heapq.heappush
        now = self.now
        while events:
            time, seq, action = pop(events)
            if time > until_cycles:
                push(events, (time, seq, action))
                # The whole window up to the deadline was granted: advance
                # the clock to it (the next event is beyond it) so repeated
                # run_for drain loops do not re-grant the same window and
                # ``now`` reports the simulated span honestly.
                self.now = max(now, min(until_cycles, time))
                return
            if time > now:
                self.now = now = time
            if window is not None:
                # Catch up past *every* elapsed mark (sparse event
                # periods must not skip grid points); all of them close
                # before this action runs, so one at exactly k*W is in
                # window k.
                while now >= window.next_t:
                    window.tick(window.next_t)
            nxt = action()
            if nxt is not None:
                # Re-arm at the requested time; past-due times collapse to
                # ``now`` and the integer sequence number breaks the tie
                # (no 1e-9 clock-noise bumps).
                self._seq += 1
                push(events, (nxt if nxt > now else now, self._seq, action))
            countdown -= 1
            if countdown == 0:
                countdown = stop_check_interval
                if stop is not None and stop():
                    return
        # Event heap drained before the deadline: the quiet remainder of
        # the window still elapsed.
        self.now = max(now, until_cycles)

    def run_for(self, cycles: float,
                stop: Optional[Callable[[], bool]] = None,
                stop_check_interval: int = 64) -> None:
        """Advance simulation by at most ``cycles`` **relative** to the
        current time (the unambiguous spelling of a drain budget)."""
        self.run(self.now + cycles, stop=stop,
                 stop_check_interval=stop_check_interval)

    def close(self) -> None:
        """Unmap the simulated memories now. A finished chip sits in
        reference cycles (event closures, ME back-pointers) until the next
        full collection, and the touched pages of its stores are most of
        what a sweep keeps resident; how many dead chips pile up otherwise
        depends on when the collector happens to run. Any later access to
        a store raises ``ValueError`` (the map is closed) instead of
        reading as empty; closing twice is harmless."""
        for store in self.memory.stores.values():
            store.close()
