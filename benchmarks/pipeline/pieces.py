"""The three calls every workload is made of -- compile one program,
run one steady-state cell, serve one app under churn -- each in two
forms behind one function: untraced, the program's own top-level entry
point under one outside timer; traced, the same public pieces that
entry point composes, with a span around each."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cg.assemble import generate_images
from repro.compiler import compile_baker, compile_ir
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.ixp.chip import IXP2400
from repro.ixp.counters import AccessProfile, Counters
from repro.ixp.memory import ME_HZ
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.obs import trace as obs_trace
from repro.obs.profile import (
    StallProfiler,
    aggregate_attribution,
    attribution_shares,
)
from repro.obs.timeseries import TimeseriesCollector, window_drops
from repro.obs.trace import PacketTracer
from repro.options import options_for
from repro.rts.loader import load_system
from repro.rts.system import RunResult, run_on_simulator
from repro.serve.churn import (
    ControlPlane,
    build_mutations,
    schedule_times,
    stale_tx_counts,
)
from repro.serve.harness import ServeConfig, build_app, run_service
from repro.serve.traffic import StreamingRxEngine, TrafficModel, TrafficSpec

from .harness import UNTIMED

#: ``compile_stage`` name -> the span (and per-layer metric) it feeds.
STAGE_SPAN = {
    "profile": "profiler.interp",
    "scalar": "opt.scalar",
    "aggregate": "aggregation.form",
    "pac": "opt.pac",
    "soar": "opt.soar",
    "phr": "opt.phr",
    "swc": "opt.swc",
    "verify": "ir.verify",
}

#: run_on_simulator's defaults, spelled out for the traced composition.
OFFERED_GBPS = 3.0
MAX_CYCLES = 40e6
STOP_CHECK_INTERVAL = 16


# -- compile ----------------------------------------------------------------------


def compile_app(source: str, level: str, trace, tr, op: str, clock):
    """``(CompileResult, reference seconds)`` for one Baker source -> ME
    images."""
    opts = options_for(level)
    if not tr.enabled:
        return clock.timed(compile_baker, source, opts, trace, codegen=True)

    def composed():
        with tr.span("bench.compile", op):
            with tr.span("baker.parse_check", op):
                checked = parse_and_check(source, "<baker>")
            with tr.span("baker.lower", op):
                mod = lower_program(checked)
            tr.count("baker.source_lines", source.count("\n") + 1)
            tr.count("ir.instrs_lowered", ir_size(mod))
            obs_trace.drain_compile_spans()
            with tr.span("compiler.ir", op) as ir_span:
                result = compile_ir(mod, checked, opts, trace)
            # The per-pass split comes from the program's own stage spans;
            # the outside timer just closed stays the authority on the total.
            for stage, _labels, s0, s1 in obs_trace.drain_compile_spans():
                tr.add(STAGE_SPAN[stage], s0, s1, ir_span, op)
            with tr.span("cg.codegen", op):
                generate_images(result)
        return result

    result, seconds = clock.timed(composed)
    tr.count("profiler.packets", len(trace.packets))
    tr.count("ir.instrs_final", ir_size(result.mod))
    if result.pac_result is not None:
        tr.count("opt.pac_combined", result.pac_result.combined_loads
                 + result.pac_result.combined_stores)
    if result.swc_result is not None:
        tr.count("opt.swc_cached", len(result.swc_result.cached_names()))
    tr.count("aggregation.me_aggregates", len(result.plan.me_aggregates))
    tr.count("cg.instrs_emitted", code_size(result))
    return result, seconds


def ir_size(mod) -> int:
    return sum(1 for fn in mod.functions.values() for _ in fn.all_instrs())


def code_size(result) -> int:
    return sum(len(image.insns) for image in result.images.values())


def listing(result) -> Tuple[list, list]:
    """The emitted instruction listing, for the determinism check, at two
    depths: (opcode, resolved branch target) per instruction, and the
    fully formatted instructions with their operands."""
    images = sorted(result.images.items())
    return ([(name, [(type(i).__name__, getattr(i, "resolved", None))
                     for i in image.insns]) for name, image in images],
            [(name, [repr(i) for i in image.insns])
             for name, image in images])


# -- one steady-state cell ----------------------------------------------------------


def run_cell(result, trace, n_mes: int, warmup: int, measure: int, tr,
             op: str, clock, profiler: Optional[StallProfiler] = None,
             ) -> Tuple[RunResult, float]:
    """``(RunResult, reference seconds)`` for one program at one ME count."""
    if not tr.enabled:
        return clock.timed(run_on_simulator, result, trace, n_mes=n_mes,
                           warmup_packets=warmup, measure_packets=measure,
                           dispatch="fast", profiler=profiler)

    def composed() -> RunResult:
        with tr.span("bench.cell", op):
            with tr.span("ixp.build", op):
                chip = IXP2400(n_programmable_mes=n_mes)
            with tr.span("rts.load", op):
                layout = load_system(result, chip, n_mes=n_mes,
                                     dispatch="fast")
            with tr.span("ixp.build", op):
                rx = RxEngine(chip, trace, offered_gbps=OFFERED_GBPS)
                tx = TxEngine(chip, line_gbps=OFFERED_GBPS)
                chip.attach_traffic(rx, tx)
                if profiler is not None:
                    profiler.attach(chip)
            with tr.span("ixp.predecode", op):
                for me in chip.mes:
                    me.image.predecoded(chip)
            target = warmup + measure
            with tr.span("ixp.run", op):
                chip.run(MAX_CYCLES, stop=lambda: tx.packets_out() >= warmup,
                         stop_check_interval=STOP_CHECK_INTERVAL)
                t_warm = chip.now
                base = chip.memory.counters.snapshot()
                packets0, bytes0 = tx.packets_out(), tx.bytes_out
                chip.run(MAX_CYCLES, stop=lambda: tx.packets_out() >= target,
                         stop_check_interval=STOP_CHECK_INTERVAL)
            measured = tx.packets_out() - packets0
            elapsed_s = max((chip.now - t_warm) / ME_HZ, 1e-12)
            delta = Counters.delta(chip.memory.counters.snapshot(), base)
            profile = AccessProfile.from_counters(delta, measured)
            occupancy = (profiler.snapshot(chip)
                         if profiler is not None else None)
            utilization = count_ixp(tr, chip, rx, profile, occupancy)
            return RunResult(
                forwarding_gbps=((tx.bytes_out - bytes0) * 8 / elapsed_s / 1e9
                                 if measured > 0 else 0.0),
                packets_measured=measured,
                packets_out=tx.packets_out(),
                rx_offered=rx.sent,
                rx_dropped=rx.dropped,
                sim_cycles=chip.now,
                access_profile=profile,
                layout=layout,
                me_utilization=utilization,
                rx_dropped_freelist=rx.dropped_freelist,
                rx_dropped_ring_full=rx.dropped_ring_full,
                me_executed_instrs=[me.executed_instrs for me in chip.mes],
                occupancy=occupancy,
            )

    return clock.timed(composed)


def count_ixp(tr, chip, rx, profile: AccessProfile,
              occupancy: Optional[dict]) -> float:
    """Per-layer ``ixp`` counters of one traced cell or service; returns
    the ME utilization as ``run_on_simulator`` computes it."""
    busy = sum(me.time - me.idle_time for me in chip.mes)
    utilization = busy / sum(max(me.time, 1e-9) for me in chip.mes)
    tr.count("cell.count")
    tr.count("ixp.instrs", sum(me.executed_instrs for me in chip.mes))
    tr.count("ixp.cycles", chip.now)
    tr.count("ixp.me_utilization_sum", utilization)
    tr.count("ixp.dram_per_pkt_sum", profile.pkt_dram)
    tr.count("ixp.sram_per_pkt_sum", profile.pkt_sram + profile.app_sram)
    tr.count("ixp.scratch_per_pkt_sum",
             profile.pkt_scratch + profile.app_scratch)
    tr.count("ixp.rx_drop_freelist", rx.dropped_freelist)
    tr.count("ixp.rx_drop_ring_full", rx.dropped_ring_full)
    if occupancy is not None:
        count_stalls(tr, occupancy)
    return utilization


def count_stalls(tr, snapshot: dict) -> None:
    shares = attribution_shares(aggregate_attribution(snapshot))
    tr.count("ixp.stall_cells")
    tr.count("ixp.stall_mem_share_sum", shares["mem_scratch"]
             + shares["mem_sram"] + shares["mem_dram"])
    tr.count("ixp.stall_ring_empty_share_sum", shares["ring_empty"])


def cell_failure(run: RunResult, measure: int) -> Optional[str]:
    """The Rx/Tx accounting gate: why this cell's result is wrong, or None.
    ``run_on_simulator`` polls its stop condition every 16 events, so a
    measurement window may open up to that many packets late."""
    if run.packets_measured < measure - STOP_CHECK_INTERVAL:
        return "measured %d of %d packets" % (run.packets_measured, measure)
    if run.rx_dropped != run.rx_dropped_freelist + run.rx_dropped_ring_full:
        return "rx_dropped %d != freelist %d + ring_full %d" % (
            run.rx_dropped, run.rx_dropped_freelist,
            run.rx_dropped_ring_full)
    if run.packets_out > run.rx_offered - run.rx_dropped:
        return "packets_out %d > offered %d - dropped %d" % (
            run.packets_out, run.rx_offered, run.rx_dropped)
    return None


# -- one service under churn --------------------------------------------------------


def serve_one(cfg: ServeConfig, tr, op: str, clock,
              ) -> Tuple[Dict[str, object], float]:
    """``(summary, reference seconds)`` for one ``run_service(cfg)``. The
    traced form follows ``run_service`` step for step."""
    if not tr.enabled:
        served, seconds = clock.timed(run_service, cfg)
        summary = dict(served.bench["summary"])
        summary["windows"] = len(served.collector.windows)
        return summary, seconds
    return clock.timed(_serve_composed, cfg, tr, op)


def _serve_composed(cfg: ServeConfig, tr, op: str) -> Dict[str, object]:
    with tr.span("serve.run", op):
        with tr.span("apps.build", op):
            app = build_app(cfg.app, cfg.table_seed)
        with tr.span("apps.make_trace", op):
            profile_trace = app.make_trace(cfg.profile_packets)
        result, _ = compile_app(app.source, cfg.level, profile_trace, tr, op,
                                UNTIMED)
        with tr.span("ixp.build", op):
            chip = IXP2400(n_programmable_mes=cfg.n_mes)
        with tr.span("rts.load", op):
            layout = load_system(result, chip, n_mes=cfg.n_mes)
        model = TrafficModel(app, TrafficSpec(seed=cfg.traffic_seed))
        rx = StreamingRxEngine(chip, model, offered_gbps=cfg.offered_gbps)
        tx = TxEngine(chip, line_gbps=cfg.line_gbps)
        chip.attach_traffic(rx, tx)
        tracer = PacketTracer(streaming=True)
        chip.tracer = tracer
        collector = TimeseriesCollector(cfg.window_cycles,
                                        exact_limit=cfg.exact_limit)
        collector.attach(rx=rx, tx=tx, tracer=tracer)
        chip.window = collector
        profiler = None
        if cfg.profile:
            profiler = StallProfiler().attach(chip)
            collector.add_source(profiler.window_source())
        control = ControlPlane(chip, layout, collector)
        for spec in cfg.churn:
            muts = build_mutations(cfg.app, app, spec, cfg.churn_seed)
            control.schedule(list(zip(
                schedule_times(spec, cfg.window_cycles, len(muts)), muts)))
        with tr.span("ixp.predecode", op):
            for me in chip.mes:
                me.image.predecoded(chip)
        with tr.span("ixp.run", op):
            chip.run(cfg.windows * cfg.window_cycles)
        with tr.span("obs.finish", op):
            tracer.finish(chip.now)
            collector.finish(chip.now)
            stale = stale_tx_counts(tx.records, control.applied)
    windows = collector.windows
    rates = [w["rate_gbps"] for w in windows]
    tr.count("serve.windows", len(windows))
    tr.count("serve.updates_applied", len(control.applied))
    count_ixp(tr, chip, rx,
              AccessProfile.from_counters(chip.memory.counters.snapshot(),
                                          tx.packets_out()),
              profiler.snapshot(chip) if profiler is not None else None)
    return {
        "mean_rate_gbps": round(sum(rates) / len(rates), 6),
        "latency": collector.cumulative.summary(),
        "drops": sum(window_drops(w) for w in windows),
        "rx_offered": rx.sent,
        "tx_packets": tx.packets_out(),
        "updates_applied": len(control.applied),
        "stale_tx_total": sum(stale),
        "windows": len(windows),
    }
