"""Per-packet lifecycle tracing for the simulated IXP2400.

A :class:`PacketTracer` follows every packet *handle* (the SRAM metadata
address) through its full lifecycle:

    Rx arrival -> free-list allocation -> ring enqueue / dequeue
    (queue-wait) -> per-ME dispatch -> PPF execution -> CC transfer ->
    Tx (or drop, with cause)

Each step is a timestamped raw event in **simulated ME cycles**. The
tracer is pure observation: it is attached as ``chip.tracer`` and every
instrumentation site in the simulator guards with ``if tracer is not
None``, so a run with tracing off executes the exact same code paths as
before the tracer existed, and a run with tracing *on* only appends to
Python-side lists -- simulated state, event order and every measured
number stay bit-identical (tested in ``tests/test_trace.py``).

:mod:`repro.obs.export` turns the raw events
(:meth:`PacketTracer.event_dicts`) into Chrome trace-event JSON for
Perfetto / chrome://tracing; ``run_on_simulator(trace_json=)`` is the
one producer of such a file.

Compile-pipeline stages can be recorded onto the same trace file:
:func:`capture_compile_spans` arms a process-global span list that
:func:`compile_stage` (used by ``repro.compiler``) appends to, and
:func:`drain_compile_spans` hands the accumulated spans to the exporter.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

#: Ring-name prefix of the buffer/metadata free lists.
FREE_PREFIX = "ring.__"


class TraceEvent:
    """One raw lifecycle event. ``t`` is simulated ME cycles; ``pkt`` is
    the per-lifetime packet id (None for events before allocation, e.g.
    an Rx drop with no free handle)."""

    __slots__ = ("kind", "t", "pkt", "data")

    def __init__(self, kind: str, t: float, pkt: Optional[int],
                 data: Optional[Dict[str, object]] = None):
        self.kind = kind
        self.t = t
        self.pkt = pkt
        self.data = data

    def to_dict(self) -> Dict[str, object]:
        rec: Dict[str, object] = {"kind": self.kind, "t": self.t}
        if self.pkt is not None:
            rec["pkt"] = self.pkt
        if self.data:
            rec.update(self.data)
        return rec


class PacketTracer:
    """Records packet lifecycle events; attach as ``chip.tracer``.

    Handles are recycled by the free lists, so each *allocation* of a
    handle gets a fresh monotonically increasing packet id; ``active``
    maps the handle to the id of its current lifetime and ``born`` maps
    that id to its first-seen cycles until the lifetime ends, so both
    are bounded by the packet pool. ``events`` keeps the newest
    ``max_events`` (None keeps the whole run, for a Perfetto export).

    Each forwarded packet's Rx->Tx latency rides on its ``pkt_end``
    event and goes to ``latency_sink`` when one is set (a
    :class:`~repro.obs.timeseries.TimeseriesCollector` attached with
    ``tracer=`` sets it). ``drops`` counts lifetimes that ended in a
    drop, by cause; an Rx drop before allocation is an event only, its
    count is the Rx engine's (``dropped_freelist`` /
    ``dropped_ring_full``).

    ``streaming`` is accepted and selects nothing:
    ``benchmarks/pipeline`` passes it, and that directory is frozen
    (ROADMAP item 3).
    """

    def __init__(self, max_events: Optional[int] = 16_384,
                 streaming: bool = False):
        self.active: Dict[int, int] = {}       # handle -> packet id
        self.born: Dict[int, float] = {}       # packet id -> first-seen cycles
        self.drops: Counter = Counter()        # cause -> count
        self.next_id = 1
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.latency_sink: Optional[Callable[[float], None]] = None
        self.finished_at: Optional[float] = None
        # (me, thread) -> (handle, pkt id, start cycles): the packet the
        # thread is currently processing (PPF execution span).
        self._me_cur: Dict[Tuple[int, int], Tuple[int, int, float]] = {}

    # -- low-level ---------------------------------------------------------------

    def _emit(self, kind: str, t: float, pkt: Optional[int],
              **data: object) -> None:
        self.events.append(TraceEvent(kind, t, pkt, data or None))

    def _begin(self, handle: int, t: float, origin: str) -> int:
        if handle in self.active:
            # A handle re-allocated without a visible end: close the
            # stale lifetime so pairs stay balanced.
            self._end_handle(handle, t, "lost", None)
        pkt = self.next_id
        self.next_id += 1
        self.active[handle] = pkt
        self.born[pkt] = t
        self._emit("pkt_begin", t, pkt, origin=origin, handle=handle)
        return pkt

    def _end_handle(self, handle: int, t: float, outcome: str,
                    cause: Optional[str]) -> None:
        pkt = self.active.pop(handle, None)
        if pkt is None:
            return
        born = self.born.pop(pkt)
        data: Dict[str, object] = {"outcome": outcome}
        if cause:
            data["cause"] = cause
        if outcome == "tx":
            lat = t - born
            if self.latency_sink is not None:
                self.latency_sink(lat)
            data["latency_cycles"] = lat
        elif outcome == "drop":
            self.drops[cause or "unknown"] += 1
        self._emit("pkt_end", t, pkt, **data)

    def _close_span(self, me: int, thread: int, t: float,
                    disposition: str) -> None:
        cur = self._me_cur.pop((me, thread), None)
        if cur is None:
            return
        _, pkt, _ = cur
        self._emit("span_end", t, pkt, me=me, thread=thread,
                   disposition=disposition)

    # -- Rx engine ---------------------------------------------------------------

    def rx_packet(self, handle: int, t: float, port: int,
                  length: int) -> None:
        """Rx allocated a buffer+metadata pair and enqueued the handle
        on the rx ring."""
        pkt = self._begin(handle, t, "rx")
        self._emit("ring_enq", t, pkt, ring="ring.rx", port=port,
                   length=length)

    def rx_drop(self, t: float, cause: str) -> None:
        """Rx dropped an offered packet before allocation completed: an
        instant on the trace, not a ``drops`` count (no lifetime began,
        and the Rx engine counts it)."""
        self._emit("rx_drop", t, None, cause=cause)

    # -- microengines ------------------------------------------------------------

    def me_ring_get(self, me: int, thread: int, ring: str, handle: int,
                    t: float) -> None:
        if handle == 0:
            return  # empty poll
        if ring == "ring.__meta_free":
            # Application-side allocation (packet_create / packet copy).
            self._begin(handle, t, "me_alloc")
            return
        if ring.startswith(FREE_PREFIX):
            return  # buffer free list: not a packet identity
        pkt = self.active.get(handle)
        if self._me_cur.get((me, thread)) is not None:
            # Threads process one packet at a time; a new dispatch
            # before the previous hand-off means we missed the close.
            self._close_span(me, thread, t, "preempted")
        if pkt is None:
            return  # a packet allocated before the tracer was attached
        self._emit("ring_deq", t, pkt, ring=ring)
        self._emit("span_begin", t, pkt, me=me, thread=thread, ring=ring)
        self._me_cur[(me, thread)] = (handle, pkt, t)

    def me_ring_put(self, me: int, thread: int, ring: str, value: int,
                    t: float, ok: bool = True) -> None:
        cur = self._me_cur.get((me, thread))
        if ring == "ring.__buf_free":
            return  # buffer recycle: tracked via the metadata handle
        if ring == "ring.__meta_free":
            if value in self.active:
                if cur is not None and cur[0] == value:
                    self._close_span(me, thread, t, "drop")
                self._end_handle(value, t, "drop", "app_drop")
            return
        if ring.startswith(FREE_PREFIX):
            return
        pkt = self.active.get(value)
        if pkt is None:
            return
        if cur is not None and cur[0] == value:
            self._close_span(me, thread, t, "forward")
        if ok:
            self._emit("ring_enq", t, pkt, ring=ring)
        else:
            # The hardware ring rejected the put: the handle is gone.
            self._end_handle(value, t, "drop", "cc_ring_full")

    # -- Tx engine ---------------------------------------------------------------

    def tx_packet(self, handle: int, t: float, port: int,
                  length: int) -> None:
        pkt = self.active.get(handle)
        if pkt is None:
            return
        self._emit("ring_deq", t, pkt, ring="ring.tx")
        self._end_handle(handle, t, "tx", None)

    # -- XScale core -------------------------------------------------------------

    def xscale_get(self, ring: str, handle: int, t: float) -> None:
        pkt = self.active.get(handle)
        if pkt is None:
            return
        self._emit("ring_deq", t, pkt, ring=ring)
        self._emit("xscale", t, pkt, ring=ring)

    def xscale_put(self, ring: str, handle: int, t: float,
                   ok: bool = True) -> None:
        pkt = self.active.get(handle)
        if pkt is None:
            return
        if ok:
            self._emit("ring_enq", t, pkt, ring=ring)
        else:
            self._end_handle(handle, t, "drop", "cc_ring_full")

    def alloc(self, handle: int, t: float, origin: str) -> None:
        """XScale-side allocation (packet_create / packet copy)."""
        self._begin(handle, t, origin)

    def drop(self, handle: int, t: float, cause: str) -> None:
        self._end_handle(handle, t, "drop", cause)

    # -- run end -----------------------------------------------------------------

    def finish(self, t: float) -> None:
        """Close every open span/lifecycle at the final simulated time
        so exported begin/end pairs are balanced even for packets still
        in flight when the run stopped.

        Invariant: nothing ends before it begins. A thread's clock may
        run past the chip's stop time ``t``, so an open span ends at the
        later of ``t`` and its begin, and an open lifetime at the later
        of ``t`` and its birth."""
        for (me, thread), (_, _, begun) in sorted(self._me_cur.items()):
            self._close_span(me, thread, max(t, begun), "unfinished")
        for handle, pkt in sorted(self.active.items()):
            self._end_handle(handle, max(t, self.born[pkt]), "inflight", None)
        self.finished_at = t

    # -- export ------------------------------------------------------------------

    def event_dicts(self) -> Iterator[Dict[str, object]]:
        for ev in self.events:
            yield ev.to_dict()


# -- compile-stage spans ---------------------------------------------------------

#: When armed (a list), ``compile_stage`` appends (stage, labels, t0_s,
#: t1_s) wall-clock spans here for the exporter's compiler track.
_COMPILE_SPANS: Optional[List[Tuple[str, Dict[str, object], float, float]]] = None


def capture_compile_spans(on: bool = True) -> None:
    """Arm (or disarm) process-global capture of compile-stage spans."""
    global _COMPILE_SPANS
    _COMPILE_SPANS = [] if on else None


def drain_compile_spans() -> List[Tuple[str, Dict[str, object], float, float]]:
    """Return and clear the captured spans ([] when capture is off)."""
    global _COMPILE_SPANS
    if not _COMPILE_SPANS:
        return []
    spans, _COMPILE_SPANS = _COMPILE_SPANS, []
    return spans


@contextmanager
def label_compile_spans(**labels):
    """Stamp ``labels`` on the spans captured inside the block. The
    compiler does not know whose source it compiles; the sweep does, and
    wraps each compile so the exporter's compiler track says which
    ``app``/``level`` a stage belongs to."""
    start = len(_COMPILE_SPANS or ())
    try:
        yield
    finally:
        for span in (_COMPILE_SPANS or ())[start:]:
            span[1].update(labels)


@contextmanager
def compile_stage(stage: str):
    """One compiler pipeline stage: a wall-clock span for the trace
    exporter when :func:`capture_compile_spans` is armed, nothing when
    it is not."""
    spans = _COMPILE_SPANS
    t0 = time.perf_counter()
    yield
    if spans is not None:
        spans.append((stage, {}, t0, time.perf_counter()))
