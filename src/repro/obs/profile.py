"""Stall-cycle attribution profiler (`repro.obs.profile`).

Classifies every simulated cycle of every ME thread into one of

* ``exec``        -- the thread was executing instructions,
* ``mem_scratch`` / ``mem_sram`` / ``mem_dram`` -- swapped out waiting on
  a memory reference, split by the *logical* channel the reference used
  (both physical SRAM channels report as ``mem_sram``; successful
  ring/atomic ops are scratch references and count as ``mem_scratch``),
* ``ring_empty``  -- the wait behind a ``ring_get`` that found the ring
  empty (an input-starved consumer polling),
* ``ring_full``   -- the wait behind a ``ring_put`` the ring rejected
  (back-pressure from a full downstream queue),
* ``ctx_arb``     -- voluntary yields,
* ``idle``        -- the residual: the ME clock advanced but this thread
  neither ran nor waited on anything it issued (no work available, or
  other threads held the engine).

Attribution is recorded where a thread stops running
(:meth:`Microengine.run_slice`), into one plain list per thread (a
*row*, laid out by :data:`repro.ixp.microengine.BLOCKS`): the burst adds
its ``me.time`` delta to the exec slot; if the thread blocked, ``wake -
stop_time`` goes to the wait slot of the cause the blocking step stamped
on it and that cause's block count goes up by one.  No method is called
per stop.  ``idle`` is computed as an exact residual against the ME
clock at snapshot time -- so per-thread attribution sums to the ME's
total simulated cycles by construction (the invariant
tests/test_profile.py asserts).  A thread whose final wait extends past
the end of the run has the overshoot clamped off its last cause (still
stamped on the thread).

Memory-channel queueing delay is kept on the channel itself
(``MemoryChannel.queue_stats``, a list :meth:`attach` installs and the
charge sites update inline); ring occupancy, channel busy time and the
ME clocks are counters the simulator keeps for itself, read at snapshot
time.  Off by default, attached via :meth:`attach`; profiled runs are
bit-identical to unprofiled ones (tests/test_profile.py).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ixp.microengine import BLOCKS, WAIT_CATEGORIES, new_row

#: All attribution categories in report order: ``WAIT_CATEGORIES`` (the
#: order of a row's cause slots) bracketed by exec and idle.
CATEGORIES = ("exec",) + WAIT_CATEGORIES + ("idle",)

#: A physical channel is considered saturated (memory-bound) above this
#: busy fraction of the run.
SATURATION_UTILIZATION = 0.75

#: ring_empty share above which a cell is called input-starved.
STARVED_SHARE = 0.30

#: Logical channel -> wait category / display name.
_CHANNEL_WAIT = {"scratch": "mem_scratch", "sram": "mem_sram",
                 "dram": "mem_dram"}
_CHANNEL_LABEL = {"scratch": "Scratch", "sram": "SRAM", "dram": "DRAM"}


def _ring_ops(ring) -> Tuple[int, int]:
    """(operations so far, occupancy summed after each) of a ring."""
    return (ring.puts + ring.gets + ring.drops + ring.empty_gets,
            ring.depth_sum)


def served_busy(ch, now: float) -> float:
    """Cycles a memory channel has spent serving requests by ``now``.
    ``busy_time`` takes a request's whole occupancy when it is issued, so
    the part still queued past ``now`` comes off: a saturated channel
    reads at most 100 % busy."""
    return ch.busy_time - max(0.0, ch.next_free - now)


class StallProfiler:
    """Per-thread stall attribution + channel/ring queue statistics.

    Attach with :meth:`attach`; read back with :meth:`snapshot` (a
    deterministic plain dict) after the run.
    """

    def __init__(self):
        self.chip = None
        # ME index -> one row per thread (repro.ixp.microengine.new_row),
        # written by the ME where a thread stops.
        self.rows: Dict[int, List[list]] = {}
        # ring name -> (operations, depth_sum) when attach() ran
        self.ring_base: Dict[str, Tuple[int, int]] = {}

    # -- attachment --------------------------------------------------------------

    def attach(self, chip) -> "StallProfiler":
        """Install the profiler on ``chip``, starting from zero: fresh
        thread rows, fresh queue statistics on every memory channel, and
        every ring's operation count and depth sum recorded so
        :meth:`snapshot` reports ``mean_depth`` over post-attach
        operations only (the loader's free-list fill stays out; a ring
        created later counts from zero). Attaching the same profiler to
        another chip forgets the previous one's run."""
        self.chip = chip
        chip.profiler = self
        self.rows = {me.index: [new_row() for _ in me.threads]
                     for me in chip.mes}
        for ch in chip.memory.channels.values():
            ch.queue_stats = [0, 0.0, 0.0]
        self.ring_base = {name: _ring_ops(ring)
                          for name, ring in chip.rings.rings.items()}
        return self

    def rows_for(self, me) -> List[list]:
        """``me``'s thread rows (made on first use for an ME the chip
        gained after :meth:`attach`)."""
        rows = self.rows.get(me.index)
        if rows is None:
            rows = self.rows[me.index] = [new_row() for _ in me.threads]
        return rows

    # -- timeseries integration ---------------------------------------------------

    def window_source(self):
        """A :meth:`TimeseriesCollector.add_source` callable returning
        the occupancy totals ``occ.exec{me=i}``, ``occ.idle{me=i}``,
        ``occ.wait{cat=...,me=i}`` (cycles summed over the ME's threads;
        waits attributed to the window the block was *issued* in) and
        ``occ.mem_busy{channel=...}``."""

        def source() -> Dict[str, float]:
            chip = self.chip
            if chip is None:
                return {}
            out: Dict[str, float] = {}
            for me in chip.mes:
                i = me.index
                exec_c = 0.0
                waits: Dict[str, float] = {}
                for acc in self.rows.get(i, ()):
                    exec_c += acc[0]
                    for c, cat in enumerate(WAIT_CATEGORIES):
                        if acc[BLOCKS + c]:
                            waits[cat] = waits.get(cat, 0.0) + acc[1 + c]
                out["occ.exec{me=%d}" % i] = exec_c
                out["occ.idle{me=%d}" % i] = me.idle_time
                for cat, v in waits.items():
                    out["occ.wait{cat=%s,me=%d}" % (cat, i)] = v
            for ch in chip.memory.channels.values():
                out["occ.mem_busy{channel=%s}" % ch.name] = served_busy(
                    ch, chip.now)
            return out
        return source

    # -- snapshot ----------------------------------------------------------------

    def thread_attribution(self, me) -> List[dict]:
        """Per-thread attribution records for one ME, rounded to 3
        decimals with ``idle`` as the compensating residual, so
        ``exec + waits + idle`` recovers ``total`` exactly after a
        3-decimal round (the sums-to-total invariant)."""
        horizon = me.time
        rows = self.rows.get(me.index)
        out = []
        for th in me.threads:
            acc = rows[th.index] if rows is not None else new_row()
            rec = {"me": me.index, "thread": th.index,
                   "total": round(horizon, 3)}
            waits = acc[1:BLOCKS]
            blocks = acc[BLOCKS:]
            if any(blocks) and th.wake > horizon:
                # Only the final block can extend past the end of the
                # run, and its cause is still stamped on the thread;
                # clamp the overshoot off that category.
                waits[th.cause] -= th.wake - horizon
            rec["exec"] = round(acc[0], 3)
            spent = rec["exec"]
            for cat, v in zip(WAIT_CATEGORIES, waits):
                v = round(v, 3)
                rec[cat] = v
                spent += v
            rec["idle"] = round(rec["total"] - spent, 3)
            rec["blocks"] = {cat: n for cat, n in
                             sorted(zip(WAIT_CATEGORIES, blocks)) if n}
            out.append(rec)
        return out

    def snapshot(self, chip=None) -> dict:
        """Deterministic plain-dict summary of the whole run: per-ME /
        per-thread attribution, per-channel queueing + utilization,
        per-ring occupancy."""
        chip = chip if chip is not None else self.chip
        total_cycles = chip.now
        mes = []
        for me in chip.mes:
            mes.append({
                "me": me.index,
                "time": round(me.time, 3),
                "idle_time": round(me.idle_time, 3),
                "threads": self.thread_attribution(me),
            })
        channels = {}
        for key in sorted(chip.memory.channels):
            ch = chip.memory.channels[key]
            st = ch.queue_stats or [0, 0.0, 0.0]
            requests = int(st[0])
            busy = served_busy(ch, total_cycles)
            channels[ch.name] = {
                "requests": requests,
                "busy_cycles": round(busy, 3),
                "utilization": round(busy / total_cycles, 6)
                if total_cycles else 0.0,
                "queue_wait_cycles": round(st[1], 3),
                "mean_queue_wait": round(st[1] / requests, 3)
                if requests else 0.0,
                "max_queue_wait": round(st[2], 3),
            }
        rings = {}
        for name in sorted(chip.rings.rings):
            ring = chip.rings.rings[name]
            ops, depth_sum = _ring_ops(ring)
            base_ops, base_sum = self.ring_base.get(name, (0, 0))
            ops -= base_ops
            rings[name] = {
                "puts": ring.puts,
                "gets": ring.gets,
                "drops": ring.drops,
                "empty_gets": ring.empty_gets,
                "max_depth": ring.max_depth,
                "mean_depth": round((depth_sum - base_sum) / ops, 3)
                if ops else 0.0,
            }
        return {
            "total_cycles": round(total_cycles, 3),
            "mes": mes,
            "channels": channels,
            "rings": rings,
        }


# -- aggregation & verdicts ----------------------------------------------------


def aggregate_attribution(snapshot: dict) -> dict:
    """Sum the per-thread attribution over every thread of every ME.
    ``total`` is the matching sum of per-thread totals (thread-cycles,
    i.e. n_threads x ME cycles -- the denominator for shares)."""
    agg = {cat: 0.0 for cat in CATEGORIES}
    total = 0.0
    for me in snapshot["mes"]:
        for rec in me["threads"]:
            total += rec["total"]
            for cat in CATEGORIES:
                agg[cat] += rec[cat]
    out = {cat: round(agg[cat], 3) for cat in CATEGORIES}
    out["total"] = round(total, 3)
    return out


def attribution_shares(agg: dict) -> dict:
    """Fractions of total thread-cycles per category (0 when idle)."""
    total = agg.get("total") or 0.0
    if not total:
        return {cat: 0.0 for cat in CATEGORIES}
    return {cat: round(agg[cat] / total, 6) for cat in CATEGORIES}


def channel_utilization(snapshot: dict) -> dict:
    """Busy fraction per *logical* channel: scratch, sram (the busier of
    the two physical QDR channels -- one saturated channel is the
    bound), dram."""
    chans = snapshot.get("channels") or {}

    def util(name: str) -> float:
        return (chans.get(name) or {}).get("utilization", 0.0)

    return {
        "scratch": util("scratch"),
        "sram": round(max(util("sram0"), util("sram1")), 6),
        "dram": util("dram"),
    }


def bottleneck_verdict(snapshot: dict) -> dict:
    """One structured verdict for a run: what bounds this configuration.

    Decision order: a saturated memory channel wins (threads are
    plentiful, the channel is the serializing resource -- more MEs only
    deepen its queue); otherwise heavy empty-ring polling means the
    stage is starved of input; otherwise a mostly-executing engine is
    compute-bound; otherwise the engine is waiting on unsaturated
    memory latency, which more threads/MEs can hide."""
    agg = aggregate_attribution(snapshot)
    shares = attribution_shares(agg)
    util = channel_utilization(snapshot)
    binding = max(("scratch", "sram", "dram"), key=lambda c: util[c])
    dominant = max(WAIT_CATEGORIES, key=lambda c: shares[c])
    verdict = {
        "dominant_wait": dominant,
        "wait_share": shares[dominant],
        "channel": None,
        "channel_utilization": util[binding],
    }
    if util[binding] >= SATURATION_UTILIZATION:
        label = _CHANNEL_LABEL[binding]
        wait_share = shares[_CHANNEL_WAIT[binding]]
        verdict["kind"] = "memory-bound"
        verdict["channel"] = binding
        verdict["text"] = (
            "%d%% %s-wait — memory-bound on %s (%d%% channel occupancy); "
            "adding MEs won't help"
            % (round(wait_share * 100), label, label,
               round(util[binding] * 100)))
    elif shares["ring_empty"] >= STARVED_SHARE:
        verdict["kind"] = "input-starved"
        verdict["text"] = (
            "%d%% empty-ring polling — input-starved; offered load or the "
            "upstream stage is the limit"
            % round(shares["ring_empty"] * 100))
    elif shares["exec"] >= 0.5:
        verdict["kind"] = "compute-bound"
        verdict["text"] = (
            "%d%% executing — compute-bound; adding MEs should help"
            % round(shares["exec"] * 100))
    else:
        verdict["kind"] = "latency-bound"
        verdict["text"] = (
            "%d%% %s-wait with no saturated channel — latency-bound; "
            "more threads/MEs can hide it"
            % (round(shares[dominant] * 100), dominant))
    return verdict


def occupancy_cell(app: str, level: str, n_mes: int, rate_gbps: float,
                   snapshot: dict) -> dict:
    """One BENCH_occupancy.json cell: attribution + channels + verdict
    for a single (app, level, MEs) run. Deterministic and JSON-plain."""
    verdict = bottleneck_verdict(snapshot)
    agg = aggregate_attribution(snapshot)
    cell = {
        "app": app,
        "level": level,
        "n_mes": n_mes,
        "rate_gbps": round(rate_gbps, 3),
        "total_cycles": snapshot["total_cycles"],
        "attribution": agg,
        "shares": attribution_shares(agg),
        "channels": snapshot["channels"],
        "rings": snapshot["rings"],
        "threads": [rec for me in snapshot["mes"] for rec in me["threads"]],
        "verdict": verdict,
    }
    cell["verdict"]["text"] = "%s @%dME: %s" % (app, n_mes, verdict["text"])
    return cell
