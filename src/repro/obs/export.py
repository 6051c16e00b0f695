"""Chrome trace-event JSON export for packet traces.

Converts the raw events recorded by :class:`repro.obs.trace.PacketTracer`
into the Chrome trace-event format (the JSON flavor Perfetto and
chrome://tracing load directly). Track layout:

* pid 0 ``compiler``  -- compile-pipeline stages (wall clock, B/E pairs)
* pid 1 ``rings``     -- one thread row per ring; queue-wait rendered as
  async ``b``/``e`` spans (FIFO spans overlap without nesting, which
  synchronous B/E events cannot express)
* pid 2 ``packets``   -- one async span per packet lifecycle
  (Rx arrival -> Tx/drop), plus instant events for Rx drops
* pid 3 ``xscale``    -- instant events for XScale dispatches
* pid 10+i ``ME<i>``  -- one thread row per hardware thread; PPF
  execution spans as synchronous B/E pairs (threads are non-preemptive,
  so per-thread spans never overlap)

Timestamps are microseconds (ME cycles at 600 MHz); compile-stage spans
are rebased so the first stage starts at t=0 on the same timeline.

Every begin has a matching end: unmatched opens (packets still in
flight, rings still holding handles when the dump was cut) are closed at
the final timestamp, and the event list is emitted in non-decreasing
timestamp order.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ixp.memory import ME_HZ

COMPILER_PID = 0
RINGS_PID = 1
PACKETS_PID = 2
XSCALE_PID = 3
ME_PID_BASE = 10

#: Simulated-cycles -> trace microseconds.
_US_PER_CYCLE = 1e6 / ME_HZ


def _cycles_us(t: float) -> float:
    return t * _US_PER_CYCLE


def chrome_trace_from_events(
    events: Iterable[Dict[str, object]],
    compile_spans: Optional[List[Tuple[str, Dict[str, object],
                                       float, float]]] = None,
) -> Dict[str, object]:
    """Build a Chrome trace-event document from raw event dicts."""
    out: List[dict] = []
    seq = [0]

    def emit(ev: dict, ts: float) -> None:
        ev["ts"] = ts
        ev["_seq"] = seq[0]
        seq[0] += 1
        out.append(ev)

    meta_done = set()

    def name_track(pid: int, pname: str, tid: Optional[int] = None,
                   tname: Optional[str] = None) -> None:
        if pid not in meta_done:
            meta_done.add(pid)
            out.append({"ph": "M", "name": "process_name", "pid": pid,
                        "tid": 0, "ts": 0, "_seq": -1,
                        "args": {"name": pname}})
        if tid is not None and (pid, tid) not in meta_done:
            meta_done.add((pid, tid))
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": tid, "ts": 0, "_seq": -1,
                        "args": {"name": tname or str(tid)}})

    ring_tids: Dict[str, int] = {}

    def ring_tid(ring: str) -> int:
        tid = ring_tids.get(ring)
        if tid is None:
            tid = len(ring_tids)
            ring_tids[ring] = tid
            name_track(RINGS_PID, "rings", tid, ring)
        return tid

    # -- open-span bookkeeping so every begin gets an end -------------------------
    open_sync: Dict[Tuple[int, int], List[dict]] = {}   # (pid,tid) -> B stack
    open_async: Dict[str, dict] = {}                    # id -> b event
    # (ring, pkt) -> stack of async ids (a packet can re-enter a ring).
    ring_occ: Dict[Tuple[str, int], List[str]] = {}
    ring_seq = [0]
    max_ts = [0.0]

    def sync_begin(pid: int, tid: int, name: str, ts: float,
                   args: Optional[dict] = None) -> None:
        ev = {"ph": "B", "pid": pid, "tid": tid, "name": name}
        if args:
            ev["args"] = args
        emit(ev, ts)
        open_sync.setdefault((pid, tid), []).append(ev)

    def sync_end(pid: int, tid: int, ts: float,
                 args: Optional[dict] = None) -> None:
        stack = open_sync.get((pid, tid))
        if not stack:
            return  # end without begin: drop rather than unbalance
        stack.pop()
        ev = {"ph": "E", "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        emit(ev, ts)

    def async_begin(pid: int, tid: int, cat: str, name: str, aid: str,
                    ts: float, args: Optional[dict] = None) -> None:
        ev = {"ph": "b", "pid": pid, "tid": tid, "cat": cat,
              "name": name, "id": aid}
        if args:
            ev["args"] = args
        emit(ev, ts)
        open_async[aid] = ev

    def async_end(pid: int, tid: int, cat: str, name: str, aid: str,
                  ts: float, args: Optional[dict] = None) -> None:
        if open_async.pop(aid, None) is None:
            return
        ev = {"ph": "e", "pid": pid, "tid": tid, "cat": cat,
              "name": name, "id": aid}
        if args:
            ev["args"] = args
        emit(ev, ts)

    # -- compile-stage spans ------------------------------------------------------
    spans = compile_spans or []
    if spans:
        name_track(COMPILER_PID, "compiler", 0, "pipeline")
        t_base = min(t0 for _, _, t0, _ in spans)
        for stage, labels, t0, t1 in spans:
            args = {"stage": stage}
            args.update({str(k): v for k, v in labels.items()})
            sync_begin(COMPILER_PID, 0, stage, (t0 - t_base) * 1e6, args)
            sync_end(COMPILER_PID, 0, (t1 - t_base) * 1e6)
            max_ts[0] = max(max_ts[0], (t1 - t_base) * 1e6)

    # -- simulator events ---------------------------------------------------------
    name_track(PACKETS_PID, "packets")
    for ev in events:
        kind = ev.get("kind")
        ts = _cycles_us(float(ev.get("t", 0.0)))
        max_ts[0] = max(max_ts[0], ts)
        pkt = ev.get("pkt")

        if kind == "pkt_begin":
            async_begin(PACKETS_PID, 0, "pkt", "pkt", "p%s" % pkt, ts,
                        {"origin": ev.get("origin"),
                         "handle": ev.get("handle")})
        elif kind == "pkt_end":
            args = {"outcome": ev.get("outcome")}
            if "cause" in ev:
                args["cause"] = ev["cause"]
            if "latency_cycles" in ev:
                args["latency_cycles"] = ev["latency_cycles"]
            async_end(PACKETS_PID, 0, "pkt", "pkt", "p%s" % pkt, ts, args)
        elif kind == "ring_enq":
            ring = str(ev.get("ring"))
            tid = ring_tid(ring)
            ring_seq[0] += 1
            aid = "q%s.%d" % (pkt, ring_seq[0])
            ring_occ.setdefault((ring, pkt), []).append(aid)
            async_begin(RINGS_PID, tid, "ring", ring, aid, ts,
                        {"pkt": pkt})
        elif kind == "ring_deq":
            ring = str(ev.get("ring"))
            tid = ring_tid(ring)
            stack = ring_occ.get((ring, pkt))
            if stack:
                async_end(RINGS_PID, tid, "ring", ring, stack.pop(0), ts)
        elif kind == "span_begin":
            me = int(ev.get("me", 0))
            thread = int(ev.get("thread", 0))
            name_track(ME_PID_BASE + me, "ME%d" % me, thread,
                       "thread %d" % thread)
            sync_begin(ME_PID_BASE + me, thread,
                       "ppf@%s" % ev.get("ring"), ts, {"pkt": pkt})
        elif kind == "span_end":
            me = int(ev.get("me", 0))
            thread = int(ev.get("thread", 0))
            sync_end(ME_PID_BASE + me, thread, ts,
                     {"disposition": ev.get("disposition")})
        elif kind == "rx_drop":
            emit({"ph": "i", "pid": PACKETS_PID, "tid": 0, "s": "p",
                  "name": "rx_drop", "args": {"cause": ev.get("cause")}},
                 ts)
        elif kind == "xscale":
            name_track(XSCALE_PID, "xscale", 0, "dispatch")
            emit({"ph": "i", "pid": XSCALE_PID, "tid": 0, "s": "t",
                  "name": "dispatch", "args": {"pkt": pkt,
                                               "ring": ev.get("ring")}},
                 ts)
        # unknown kinds (e.g. trace_meta) are skipped

    # -- balance pass: close anything still open at the last timestamp ------------
    end_ts = max_ts[0]
    for (pid, tid), stack in sorted(open_sync.items()):
        for _ in range(len(stack)):
            stack.pop()
            emit({"ph": "E", "pid": pid, "tid": tid,
                  "args": {"disposition": "cut"}}, end_ts)
    for aid, bev in sorted(open_async.items()):
        emit({"ph": "e", "pid": bev["pid"], "tid": bev["tid"],
              "cat": bev["cat"], "name": bev["name"], "id": aid,
              "args": {"disposition": "cut"}}, end_ts)
    open_async.clear()

    # Metadata first, then events in non-decreasing timestamp order
    # (generation order breaks ties so begins precede their ends).
    out.sort(key=lambda e: (e["ts"], e["_seq"]))
    for ev in out:
        del ev["_seq"]
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated ME cycles @ %g MHz"
                                   % (ME_HZ / 1e6)}}


def write_chrome_trace(
    path: str,
    events: Iterable[Dict[str, object]],
    compile_spans: Optional[List[Tuple[str, Dict[str, object],
                                       float, float]]] = None,
) -> str:
    """Write a Chrome trace-event JSON file; returns the path."""
    doc = chrome_trace_from_events(events, compile_spans)
    d = os.path.dirname(os.path.abspath(path))
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path
