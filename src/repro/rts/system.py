"""Whole-system execution: compile result + trace -> forwarding rate and
per-packet access profile on the simulated IXP2400.

This is the reproduction's stand-in for the paper's evaluation rig (an
IXP2400 board driven by an IXIA packet generator): packets are offered
at up to 3 Gbps of 64 B frames; after a warm-up window, the forwarding
rate is measured at Tx and memory accesses are normalized per forwarded
packet (Table 1's metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.baker.packetmodel import META_RX_PORT
from repro.cg.melayout import PROGRAMMABLE_MES
from repro.ixp.chip import IXP2400
from repro.ixp.counters import AccessProfile, Counters
from repro.ixp.memory import ME_HZ
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.obs import trace as obs_trace
from repro.profiler.trace import Trace
from repro.rts.loader import LoadLayout, load_system


@dataclass
class RunResult:
    forwarding_gbps: float
    packets_measured: int
    packets_out: int
    rx_offered: int
    rx_dropped: int
    sim_cycles: float
    access_profile: AccessProfile
    tx_payloads: List[bytes] = field(default_factory=list)
    layout: Optional[LoadLayout] = None
    me_utilization: float = 0.0
    # Rx drops by cause (their sum is rx_dropped).
    rx_dropped_freelist: int = 0
    rx_dropped_ring_full: int = 0
    # Per-ME accounting, in ME index order (the fast-path equivalence
    # suite asserts these match the reference interpreter bit for bit).
    me_executed_instrs: List[int] = field(default_factory=list)
    me_times: List[float] = field(default_factory=list)
    me_idle_times: List[float] = field(default_factory=list)
    # Stall-attribution snapshot (repro.obs.profile), present only when
    # a profiler was passed to run_on_simulator.
    occupancy: Optional[dict] = None

    def tx_signature(self) -> List[bytes]:
        return sorted(self.tx_payloads)


def run_on_simulator(
    result,
    trace: Trace,
    n_mes: int = PROGRAMMABLE_MES,
    warmup_packets: int = 100,
    measure_packets: int = 300,
    offered_gbps: float = 3.0,
    max_cycles: float = 40e6,
    tracer: Optional[obs_trace.PacketTracer] = None,
    trace_json: Optional[str] = None,
    dispatch: Optional[str] = None,
    timeseries=None,
    profiler=None,
) -> RunResult:
    """Load and run a compiled program; measure steady-state behavior.

    ``max_cycles`` is an absolute cap on the simulation clock shared by
    the warm-up and measurement phases (the run never simulates past
    it).

    Per-packet lifecycle tracing: pass a
    :class:`repro.obs.trace.PacketTracer` (or just set ``trace_json``
    and one that keeps every event is created) to record every packet's
    Rx->Tx journey in simulated cycles. ``trace_json`` writes Chrome
    trace-event JSON (open in Perfetto).

    ``dispatch`` selects nothing: every run is cycle-accurate on the one
    ME core. None and ``"fast"`` are accepted, anything else is a
    ``ValueError`` from :func:`repro.rts.loader.load_system`.

    ``timeseries`` attaches a
    :class:`repro.obs.timeseries.TimeseriesCollector` as the chip's
    window hook: per-window rate/latency/drop records over simulated
    time, closed by the run loop's boundary pull and finalized at the
    end of the run. Latencies and the tracer's drop causes come from
    ``tracer``; without one the windows carry Rx/Tx counts only.

    ``profiler`` attaches a :class:`repro.obs.profile.StallProfiler`
    to the chip: per-thread stall-cycle attribution and channel/ring
    queue statistics, snapshotted into ``RunResult.occupancy``.

    Every observer is pure observation (DESIGN.md 7.3): measured numbers
    are bit-identical with or without it.
    """
    if tracer is None and trace_json:
        tracer = obs_trace.PacketTracer(max_events=None)
    chip = IXP2400(n_programmable_mes=n_mes)
    layout = load_system(result, chip, n_mes=n_mes, dispatch=dispatch)

    rx = RxEngine(chip, trace, offered_gbps=offered_gbps)
    tx = TxEngine(chip, line_gbps=offered_gbps)
    chip.attach_traffic(rx, tx)
    chip.tracer = tracer
    if timeseries is not None:
        timeseries.attach(rx=rx, tx=tx, tracer=tracer)
        chip.window = timeseries
    if profiler is not None:
        profiler.attach(chip)
        if timeseries is not None:
            timeseries.add_source(profiler.window_source())

    target = warmup_packets + measure_packets
    # Phase 1: warm-up.
    chip.run(max_cycles, stop=lambda: tx.packets_out() >= warmup_packets,
             stop_check_interval=16)
    t0 = chip.now
    base_counts = chip.memory.counters.snapshot()
    packets0 = tx.packets_out()
    bytes0 = tx.bytes_out

    # Phase 2: measurement window.
    chip.run(max_cycles, stop=lambda: tx.packets_out() >= target,
             stop_check_interval=16)
    t1 = chip.now
    end_counts = chip.memory.counters.snapshot()
    packets1 = tx.packets_out()
    bytes1 = tx.bytes_out

    measured = packets1 - packets0
    elapsed_s = max((t1 - t0) / ME_HZ, 1e-12)
    gbps = (bytes1 - bytes0) * 8 / elapsed_s / 1e9 if measured > 0 else 0.0
    delta = Counters.delta(end_counts, base_counts)
    profile = AccessProfile.from_counters(delta, measured)

    busy = sum(me.time - me.idle_time for me in chip.mes)
    total = sum(max(me.time, 1e-9) for me in chip.mes)

    # Buffer/metadata recycling must never hit a full free ring: the
    # free rings are sized to hold the entire pool, so a failed put is
    # a lost handle (an accounting bug, not back-pressure).
    assert rx.leaked_meta == 0 and rx.leaked_buffers == 0, (
        "Rx leaked handles recycling into full free rings: meta=%d buf=%d"
        % (rx.leaked_meta, rx.leaked_buffers))
    assert tx.leaked_meta == 0 and tx.leaked_buffers == 0, (
        "Tx leaked handles recycling into full free rings: meta=%d buf=%d"
        % (tx.leaked_meta, tx.leaked_buffers))

    run = RunResult(
        forwarding_gbps=gbps,
        packets_measured=measured,
        packets_out=packets1,
        rx_offered=rx.sent,
        rx_dropped=rx.dropped,
        sim_cycles=chip.now,
        access_profile=profile,
        tx_payloads=[r.payload for r in tx.records],
        layout=layout,
        me_utilization=busy / total if total else 0.0,
        rx_dropped_freelist=rx.dropped_freelist,
        rx_dropped_ring_full=rx.dropped_ring_full,
        me_executed_instrs=[me.executed_instrs for me in chip.mes],
        me_times=[me.time for me in chip.mes],
        me_idle_times=[me.idle_time for me in chip.mes],
        occupancy=profiler.snapshot(chip) if profiler is not None else None,
    )

    if tracer is not None:
        tracer.finish(chip.now)
    if timeseries is not None:
        timeseries.finish(chip.now)

    if trace_json:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(trace_json, tracer.event_dicts(),
                           compile_spans=obs_trace.drain_compile_spans())
    chip.close()  # nothing reads the chip past this point
    return run


def comparison_meta_words(result) -> List[int]:
    """Indices of the metadata words a transmitted packet must carry as
    the reference's does: from ``META_RX_PORT`` up (words 0-2 are buffer
    geometry, identity rather than semantics), minus the user words PHR
    localized to temps (their slots are dead at an escape by
    construction)."""
    localized = set()
    if result.phr_result is not None:
        fields = result.checked.meta_fields
        localized = {fields[name].word_offset
                     for name in result.phr_result.localized_meta_fields}
    return [w for w in range(META_RX_PORT, result.mod.meta_words)
            if w not in localized]


def verify_against_reference(result, trace: Trace, packets: int = 60,
                             n_mes: int = 2) -> bool:
    """Differential oracle: the multiset of transmitted packets -- each
    one's payload and its compared metadata words
    (:func:`comparison_meta_words`) -- must match the functional
    interpreter's on the same finite trace.

    Blind to the final state of application tables, and to metadata put
    on a channel the XScale consumes except through what it then does
    (DESIGN.md section 10). Raises :class:`~repro.rts.loader.LoaderError`
    for a compile that cannot be loaded.
    """
    from repro.profiler.interpreter import reference_run

    finite = trace.repeated(packets)
    ref = reference_run(result.checked, finite)
    words = comparison_meta_words(result)

    chip = IXP2400(n_programmable_mes=n_mes)
    load_system(result, chip, n_mes=n_mes)
    rx = RxEngine(chip, finite, offered_gbps=1.0, max_packets=packets,
                  repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    expected = ref.profile.packets_out
    buf_free = chip.rings["ring.__buf_free"]
    pool = len(buf_free.items)

    def settled() -> bool:
        # Everything expected is out -- or every packet went in and every
        # buffer is back on the free ring, so nothing more can come out
        # (a miscompile that loses frames is a verdict, not a 100e6-cycle
        # wait).
        return tx.packets_out() >= expected or (
            rx.sent >= packets and len(buf_free.items) == pool)

    # Both limits are relative budgets from a fresh chip: a generous cap
    # for the run itself, then a short fixed drain window for stragglers
    # (XScale round trips). run_for makes the relative/absolute
    # distinction explicit -- chip.run() takes an absolute deadline.
    chip.run_for(100e6, stop=settled)
    chip.run_for(300_000)
    got = sorted((r.payload, tuple(r.meta[w - META_RX_PORT] for w in words))
                 for r in tx.records)
    chip.close()
    want = sorted((p.payload(), tuple(p.meta.get(w, 0) for w in words))
                  for p in ref.tx)
    return got == want
