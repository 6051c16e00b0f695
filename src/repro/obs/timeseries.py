"""Windowed, streaming observability over simulated time.

Everything else in ``repro.obs`` is run-to-completion: a profiler
snapshot is taken after the run, and a
:class:`~repro.obs.trace.PacketTracer` records raw events for a
Perfetto export. A long-running service (``python -m repro.serve``)
needs the opposite shape -- forwarding rate, latency percentiles and
drop causes *as functions of sim time, across control-plane updates*
-- in bounded memory. This module provides it, and its sketches are
the only latency percentiles in ``repro.obs``:

* :class:`StreamingQuantile` / :class:`QuantileSketch` -- online
  quantile estimation in O(1) memory (exact up to ``exact_limit``
  observations, then the P^2 algorithm of Jain & Chlamtac, CACM 1985,
  seeded from the exact prefix). Accuracy bounds are documented in
  DESIGN.md section 11 and enforced by ``tests/test_timeseries.py``.
* :class:`TimeseriesCollector` -- closes a window record every
  ``window_cycles`` of simulated time. It is *pulled* by
  :meth:`repro.ixp.chip.IXP2400.run` between event dispatches
  (``next_t`` / ``tick(mark)``, catching up past every elapsed mark), so
  attaching one never perturbs event order (tests/test_obs.py proves
  enabled and disabled runs stay bit-identical). Every counter source
  returns running totals, and a window's counters are what each total
  moved since the previous boundary -- one subtraction, in the
  collector; control-plane events stamp the window containing their
  timestamp (an event exactly *on* a boundary ``kW`` belongs to window
  ``k``: the chip ticks elapsed boundaries before running the event's
  action).
* :func:`update_impact` -- before/during/after deltas (rate, p99,
  drops) in the K windows around each control-plane event.
* Deterministic JSONL export (:meth:`TimeseriesCollector.dump_jsonl`,
  :func:`load_timeseries`), rendered by
  ``python -m repro.obs.report timeline``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.ixp.memory import ME_HZ

#: Quantiles every sketch tracks (the report's standard columns).
SKETCH_QUANTILES = (0.5, 0.95, 0.99)

#: Exact-prefix size before a StreamingQuantile switches to P^2 markers.
DEFAULT_EXACT_LIMIT = 256


def nearest_rank(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (the exact-prefix
    answer of :class:`StreamingQuantile`)."""
    n = len(sorted_vals)
    rank = max(1, min(n, int(-(-q * n // 1))))  # ceil(q*n), clamped
    return sorted_vals[rank - 1]


class StreamingQuantile:
    """One online quantile estimate in O(1) memory.

    Exact (sorted insert, nearest-rank) until ``exact_limit``
    observations, then the five P^2 markers are seeded from the exact
    prefix and updated per observation with the parabolic/linear rules
    of Jain & Chlamtac. Estimates below the limit are *exact*; above it
    the error is bounded in rank (see DESIGN.md section 11).
    """

    __slots__ = ("q", "exact_limit", "count", "_exact", "_hts", "_pos",
                 "_des", "_inc")

    def __init__(self, q: float, exact_limit: int = DEFAULT_EXACT_LIMIT):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1), got %r" % q)
        self.q = q
        self.exact_limit = max(5, exact_limit)
        self.count = 0
        self._exact: Optional[List[float]] = []
        self._hts: List[float] = []   # marker heights
        self._pos: List[float] = []   # marker positions (1-based)
        self._des: List[float] = []   # desired positions
        self._inc: List[float] = []   # desired-position increments

    def _seed(self) -> None:
        """Switch from the exact prefix to P^2 markers placed at the
        ideal positions for the current count."""
        vals = self._exact
        assert vals is not None
        n = len(vals)
        fracs = [0.0, self.q / 2, self.q, (1 + self.q) / 2, 1.0]
        pos = [1.0 + round((n - 1) * f) for f in fracs]
        # Positions must be strictly increasing (n >= 5 guarantees room).
        for i in range(1, 5):
            if pos[i] <= pos[i - 1]:
                pos[i] = pos[i - 1] + 1
        for i in range(3, -1, -1):
            if pos[i] >= pos[i + 1]:
                pos[i] = pos[i + 1] - 1
        self._hts = [vals[int(p) - 1] for p in pos]
        self._pos = pos
        self._des = [1.0 + (n - 1) * f for f in fracs]
        self._inc = fracs
        self._exact = None

    def add(self, x: float) -> None:
        self.count += 1
        if self._exact is not None:
            bisect.insort(self._exact, x)
            if len(self._exact) >= self.exact_limit:
                self._seed()
            return
        hts, pos = self._hts, self._pos
        if x < hts[0]:
            hts[0] = x
            k = 0
        elif x >= hts[4]:
            hts[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if x >= hts[i]:
                    k = i
        for i in range(k + 1, 5):
            pos[i] += 1
        des, inc = self._des, self._inc
        for i in range(5):
            des[i] += inc[i]
        for i in range(1, 4):
            d = des[i] - pos[i]
            if (d >= 1 and pos[i + 1] - pos[i] > 1) or \
               (d <= -1 and pos[i - 1] - pos[i] < -1):
                d = 1.0 if d >= 1 else -1.0
                h = self._parabolic(i, d)
                if hts[i - 1] < h < hts[i + 1]:
                    hts[i] = h
                else:
                    hts[i] = self._linear(i, d)
                pos[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        hts, pos = self._hts, self._pos
        return hts[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (hts[i + 1] - hts[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (hts[i] - hts[i - 1])
            / (pos[i] - pos[i - 1]))

    def _linear(self, i: int, d: float) -> float:
        hts, pos = self._hts, self._pos
        j = i + int(d)
        return hts[i] + d * (hts[j] - hts[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """Current estimate (0.0 before any observation)."""
        if self._exact is not None:
            if not self._exact:
                return 0.0
            return nearest_rank(self._exact, self.q)
        return self._hts[2]


class QuantileSketch:
    """count/min/mean/max plus p50/p95/p99 estimates, O(1) memory."""

    __slots__ = ("count", "total", "min", "max", "_est")

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._est = tuple(StreamingQuantile(q, exact_limit)
                          for q in SKETCH_QUANTILES)

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x
        for est in self._est:
            est.add(x)

    def summary(self) -> Dict[str, float]:
        """count/min/mean/max and p50/p95/p99; all zero when empty."""
        if self.count == 0:
            return {"count": 0, "min": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "mean": 0.0, "max": 0.0}
        out = {"count": self.count, "min": self.min,
               "mean": round(self.total / self.count, 3), "max": self.max}
        for q, est in zip(SKETCH_QUANTILES, self._est):
            out["p%g" % (q * 100)] = round(est.value(), 3)
        return out


class TimeseriesCollector:
    """Closes one window record per ``window_cycles`` of simulated time.

    Attach with ``chip.window = collector`` (or pass ``timeseries=`` to
    :func:`repro.rts.system.run_on_simulator`); the chip calls
    :meth:`tick` once per elapsed ``next_t`` boundary. Window ``k``
    covers ``[k*W, (k+1)*W)``; :meth:`annotate` stamps the window whose
    interval contains ``t``.

    Counter *sources* are callables taking no argument that return
    running totals keyed by ``name{k=v,...}``; at each boundary the
    collector records what every total moved since the previous one.
    """

    def __init__(self, window_cycles: float,
                 exact_limit: int = DEFAULT_EXACT_LIMIT):
        if not (window_cycles > 0 and math.isfinite(window_cycles)):
            raise ValueError("window_cycles must be positive and finite, "
                             "got %r" % (window_cycles,))
        self.window_cycles = float(window_cycles)
        self.exact_limit = exact_limit
        self.next_t = self.window_cycles
        self.windows: List[Dict[str, object]] = []
        self.cumulative = QuantileSketch(exact_limit)
        self.finished_at: Optional[float] = None
        self._index = 0
        self._t_start = 0.0
        self._sketch = QuantileSketch(exact_limit)
        self._sources: List[Callable[[], Dict[str, float]]] = []
        self._totals: Dict[str, float] = {}
        self._pending: Dict[int, List[Dict[str, object]]] = {}

    # -- wiring ------------------------------------------------------------------

    def add_source(self, fn: Callable[[], Dict[str, float]]) -> None:
        """Register a callable returning running totals keyed by
        ``name{k=v,...}``; each window records what they moved."""
        self._sources.append(fn)

    def attach(self, rx=None, tx=None, tracer=None) -> None:
        """Wire the standard engine counters (Rx offered/drops, Tx
        packets/bytes, tracer drop causes) as sources, and make the
        tracer feed its latencies into the window sketches. Each drop
        has one owner: the Rx engine counts what it refused, the tracer
        the lifetimes that ended in a drop."""
        if rx is not None:
            self.add_source(lambda: {
                "rx.offered": rx.sent,
                "rx.dropped{cause=freelist_empty}": rx.dropped_freelist,
                "rx.dropped{cause=ring_full}": rx.dropped_ring_full})
        if tx is not None:
            self.add_source(lambda: {"tx.packets": tx.packets_out(),
                                     "tx.bytes": tx.bytes_out})
        if tracer is not None:
            self.add_source(lambda: {"drop{cause=%s}" % cause: n
                                     for cause, n in tracer.drops.items()})
            tracer.latency_sink = self.observe_latency

    # -- per-event feeds ---------------------------------------------------------

    def observe_latency(self, latency_cycles: float) -> None:
        self._sketch.add(latency_cycles)
        self.cumulative.add(latency_cycles)

    def window_index(self, t: float) -> int:
        return int(t // self.window_cycles)

    def annotate(self, t: float, kind: str, **detail: object) -> None:
        """Stamp an event onto the window containing ``t``. Events land
        in the window's ``events`` list when it closes."""
        ev: Dict[str, object] = {"t": round(t, 3), "kind": kind}
        if detail:
            ev.update(detail)
        self._pending.setdefault(self.window_index(t), []).append(ev)

    # -- window boundaries (pulled by chip.run) ----------------------------------

    def tick(self, boundary: float) -> None:
        """Close the current window at ``boundary`` and start the next.
        Called by the chip's run loop for every elapsed ``next_t``."""
        self._close(boundary, partial=False)
        self.next_t = boundary + self.window_cycles

    def finish(self, t: float) -> None:
        """Close a trailing partial window (flagged ``partial``) and any
        stranded annotations at the end of the run."""
        if t > self._t_start:
            # A run ending exactly on a boundary closed a *full* window
            # (the chip only ticks boundaries strictly before the next
            # event, so the final one falls to us).
            partial = (t - self._t_start) < self.window_cycles - 1e-9
            self._close(t, partial=partial)
        # Annotations for windows that never closed (events scheduled
        # past the end of the run) must not vanish silently.
        if self.windows:
            for idx in sorted(self._pending):
                for ev in self._pending[idx]:
                    self.windows[-1]["events"].append(ev)
        self._pending.clear()
        self.finished_at = t

    def _close(self, t_end: float, partial: bool) -> None:
        totals: Dict[str, float] = {}
        for src in self._sources:
            totals.update(src())
        prev = self._totals
        counters: Dict[str, float] = {}
        for key in sorted(totals):
            moved = round(totals[key] - prev.get(key, 0), 3)
            if moved:
                counters[key] = moved
        prev.update(totals)
        span_s = max((t_end - self._t_start) / ME_HZ, 1e-12)
        rate = counters.get("tx.bytes", 0) * 8 / span_s / 1e9
        rec: Dict[str, object] = {
            "window": self._index,
            "t_start": round(self._t_start, 3),
            "t_end": round(t_end, 3),
            "rate_gbps": round(rate, 6),
            "latency": self._sketch.summary(),
            "counters": counters,
            "events": self._pending.pop(self._index, []),
        }
        if partial:
            rec["partial"] = True
        self.windows.append(rec)
        self._index += 1
        self._t_start = t_end
        self._sketch = QuantileSketch(self.exact_limit)

    # -- export ------------------------------------------------------------------

    def to_records(self,
                   header: Optional[Dict[str, object]] = None
                   ) -> List[Dict[str, object]]:
        head: Dict[str, object] = {
            "type": "timeseries_header",
            "window_cycles": self.window_cycles,
            "windows": len(self.windows),
            "finished_at": self.finished_at,
            "latency_total": self.cumulative.summary(),
        }
        if header:
            head.update(header)
        out: List[Dict[str, object]] = [head]
        for w in self.windows:
            rec = {"type": "window"}
            rec.update(w)
            out.append(rec)
        return out

    def dump_jsonl(self, path: str,
                   header: Optional[Dict[str, object]] = None) -> str:
        d = os.path.dirname(os.path.abspath(path))
        if d:
            os.makedirs(d, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.to_records(header):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path


def load_timeseries(path: str) -> Tuple[Dict[str, object],
                                        List[Dict[str, object]]]:
    """(header, window_records) from a collector's JSONL dump."""
    header: Dict[str, object] = {}
    windows: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "timeseries_header":
                header = rec
            elif rec.get("type") == "window":
                windows.append(rec)
    return header, windows


# -- update-impact analysis -------------------------------------------------------


def window_drops(window: Dict[str, object]) -> float:
    """Total dropped packets recorded in one window: lifetimes the
    tracer saw end in a drop plus packets the Rx engine refused."""
    counters = window.get("counters") or {}
    return sum(v for k, v in counters.items()
               if k == "drop" or k.startswith(("drop{", "rx.dropped")))


def _phase_stats(windows: List[Dict[str, object]]) -> Dict[str, float]:
    if not windows:
        return {"windows": 0, "rate_gbps": 0.0, "p50": 0.0, "p99": 0.0,
                "drops": 0.0}
    n = len(windows)
    return {
        "windows": n,
        "rate_gbps": round(sum(w.get("rate_gbps", 0.0)
                               for w in windows) / n, 6),
        "p50": round(sum((w.get("latency") or {}).get("p50", 0.0)
                         for w in windows) / n, 3),
        "p99": round(sum((w.get("latency") or {}).get("p99", 0.0)
                         for w in windows) / n, 3),
        "drops": sum(window_drops(w) for w in windows),
    }


def update_impact(windows: Iterable[Dict[str, object]],
                  k: int = 2) -> List[Dict[str, object]]:
    """Latency/drop/rate deltas in the ``k`` windows around each
    control-plane event.

    For every event annotated onto a window, compares the mean
    rate/p50/p99 (and summed drops) over the ``k`` windows *before* the
    event's window, the event window itself, and the ``k`` windows
    *after* it. ``delta_*`` fields are during-minus-before; windows off
    either end of the run simply shrink the phase.
    """
    wins = list(windows)
    by_index = {int(w.get("window", i)): w for i, w in enumerate(wins)}
    out: List[Dict[str, object]] = []
    for w in wins:
        idx = int(w.get("window", 0))
        for ev in w.get("events") or []:
            before = [by_index[i] for i in range(idx - k, idx)
                      if i in by_index]
            after = [by_index[i] for i in range(idx + 1, idx + 1 + k)
                     if i in by_index]
            b, d, a = (_phase_stats(before), _phase_stats([w]),
                       _phase_stats(after))
            rec: Dict[str, object] = {"window": idx}
            rec.update(ev)
            rec["before"] = b
            rec["during"] = d
            rec["after"] = a
            rec["delta_p99"] = round(d["p99"] - b["p99"], 3)
            rec["delta_rate_gbps"] = round(d["rate_gbps"] - b["rate_gbps"], 6)
            rec["delta_drops"] = d["drops"] - b["drops"]
            out.append(rec)
    out.sort(key=lambda r: (r["window"], r.get("t", 0.0)))
    return out
