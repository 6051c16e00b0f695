"""The live-churn service harness: run a compiled app as a *service*.

The measurement harness in :mod:`repro.rts.system` answers "how fast is
this program" -- warm up, measure a fixed packet count, report one
number. This harness answers the operational question the paper's §5.2
delayed-update coherency raises but never measures: *what does a
control-plane update look like from the data plane?* It runs the chip
to a fixed cycle budget under an infinite deterministic traffic stream
(:mod:`repro.serve.traffic`) while the XScale-side control plane
mutates live table state (:mod:`repro.serve.churn`), and records the
whole run as per-window time series (:mod:`repro.obs.timeseries`).

Everything is seeded; a fixed configuration reproduces the bench JSON
and the timeline JSONL byte for byte (tests/test_serve.py, CI's
serve-smoke job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps import APP_CLASSES
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.rxtx import TxEngine
from repro.obs.timeseries import (
    TimeseriesCollector,
    update_impact,
    window_drops,
)
from repro.obs.trace import PacketTracer
from repro.options import options_for
from repro.rts.loader import load_system
from repro.serve.churn import (
    ChurnSpec,
    ControlPlane,
    build_mutations,
    schedule_times,
    stale_cycles,
    stale_tx_counts,
)
from repro.serve.traffic import StreamingRxEngine, TrafficModel, TrafficSpec
from repro.sweep.benchio import write_bench_json


@dataclass
class ServeConfig:
    """One deterministic service run: app + traffic + churn schedule."""

    app: str = "l3switch"
    level: str = "SWC"
    n_mes: int = 3
    windows: int = 50
    window_cycles: float = 40_000.0
    offered_gbps: float = 2.5
    line_gbps: float = 3.0
    churn: List[ChurnSpec] = field(default_factory=list)
    traffic_seed: int = 7
    table_seed: Optional[int] = None  # None -> the app's default tables
    churn_seed: int = 0
    impact_k: int = 2
    exact_limit: int = 256
    profile_packets: int = 200  # compile-time profiling trace length
    # Attach a stall-cycle attribution profiler (repro.obs.profile):
    # windows gain occ.* counter deltas (visible in the timeline dump)
    # and ServeResult.occupancy is filled. Pure observation -- the
    # simulation and the churn bench payload are bit-identical either
    # way (tests/test_profile.py).
    profile: bool = False


@dataclass
class ServeResult:
    config: ServeConfig
    collector: TimeseriesCollector
    bench: Dict[str, object]
    applied: List[object]       # (time, TableMutation) pairs, time order
    stale_tx: List[int]         # per applied update
    stale_cycles: List[float]   # per applied update: store -> last stale frame
    tracer: PacketTracer
    # occupancy_cell dict when cfg.profile was set, else None.
    occupancy: Optional[Dict[str, object]] = None


def build_app(name: str, table_seed: Optional[int] = None):
    """App instance for serving. ``mpls`` gets a 16-label config: the
    default 8 labels are all FTN push targets, which leaves no ILM entry
    whose outgoing label can serve as an unambiguous stale-traffic
    probe (see :func:`repro.apps.tables.mpls_label_mutations`)."""
    cls = APP_CLASSES[name]
    kwargs: Dict[str, object] = {}
    if table_seed is not None:
        kwargs["seed"] = table_seed
    if name == "mpls":
        kwargs["n_labels"] = 16
    return cls(**kwargs)


def run_service(cfg: ServeConfig,
                timeline_path: Optional[str] = None,
                bench_path: Optional[str] = None) -> ServeResult:
    """Compile, load, and serve ``cfg.windows`` windows of traffic while
    the scheduled churn plays out; optionally export the timeline JSONL
    and write the churn bench JSON."""
    if cfg.app not in APP_CLASSES:
        raise ValueError("unknown app %r" % cfg.app)
    app = build_app(cfg.app, cfg.table_seed)
    result = compile_baker(app.source, options_for(cfg.level),
                           app.make_trace(cfg.profile_packets))

    chip = IXP2400(n_programmable_mes=cfg.n_mes)
    layout = load_system(result, chip, n_mes=cfg.n_mes)

    model = TrafficModel(app, TrafficSpec(seed=cfg.traffic_seed))
    rx = StreamingRxEngine(chip, model, offered_gbps=cfg.offered_gbps)
    tx = TxEngine(chip, line_gbps=cfg.line_gbps)
    chip.attach_traffic(rx, tx)

    tracer = PacketTracer()
    chip.tracer = tracer
    collector = TimeseriesCollector(cfg.window_cycles,
                                    exact_limit=cfg.exact_limit)
    collector.attach(rx=rx, tx=tx, tracer=tracer)
    chip.window = collector

    profiler = None
    if cfg.profile:
        from repro.obs.profile import StallProfiler

        profiler = StallProfiler().attach(chip)
        collector.add_source(profiler.window_source())

    control = ControlPlane(chip, layout, collector)
    horizon = cfg.windows * cfg.window_cycles
    for spec in cfg.churn:
        muts = build_mutations(cfg.app, app, spec, cfg.churn_seed)
        times = schedule_times(spec, cfg.window_cycles, len(muts))
        timed = [(t, m) for t, m in zip(times, muts) if t < horizon]
        if len(timed) < len(muts):
            # Silently dropping updates would make "n=8" lie; land the
            # overflow in the final window instead of past the horizon.
            raise ValueError(
                "churn %s schedules updates past the run (%d of %d fit "
                "in %d windows); lower n/start/every or raise --windows"
                % (spec.to_string(), len(timed), len(muts), cfg.windows))
        control.schedule(timed)

    chip.run(horizon)
    tracer.finish(chip.now)
    collector.finish(chip.now)

    stale = stale_tx_counts(tx.records, control.applied)
    cycles = stale_cycles(tx.records, control.applied)
    # An update is annotated when it is applied; what it left behind is
    # known only now. Windows hold events in apply order, as `applied`.
    events = [ev for w in collector.windows for ev in w["events"]
              if ev["kind"] == "update"]
    for ev, n, c in zip(events, stale, cycles):
        ev.update(stale_tx=n, stale_cycles=c)
    bench = _bench_payload(cfg, collector, control, stale, cycles, rx, tx)

    if timeline_path:
        collector.dump_jsonl(timeline_path, header={
            "app": cfg.app, "level": cfg.level, "n_mes": cfg.n_mes,
            "churn": [s.to_string() for s in cfg.churn],
            "seeds": _seeds(cfg),
        })
    if bench_path:
        write_bench_json(bench_path, "churn", bench, kind="bench_churn")

    occupancy = None
    if profiler is not None:
        from repro.obs.profile import occupancy_cell

        mean_rate = bench["summary"]["mean_rate_gbps"]
        occupancy = occupancy_cell(cfg.app, cfg.level, cfg.n_mes,
                                   mean_rate, profiler.snapshot(chip))
    chip.close()  # nothing reads the chip past this point

    return ServeResult(config=cfg, collector=collector, bench=bench,
                       applied=list(control.applied), stale_tx=stale,
                       stale_cycles=cycles, tracer=tracer,
                       occupancy=occupancy)


def _seeds(cfg: ServeConfig) -> Dict[str, object]:
    return {"traffic": cfg.traffic_seed, "table": cfg.table_seed,
            "churn": cfg.churn_seed}


def _bench_payload(cfg: ServeConfig, collector: TimeseriesCollector,
                   control: ControlPlane, stale: List[int],
                   cycles: List[float], rx, tx) -> Dict[str, object]:
    windows = collector.windows
    rates = [w["rate_gbps"] for w in windows]
    mean_rate = round(sum(rates) / len(rates), 6) if rates else 0.0
    updates = [row for row in update_impact(windows, k=cfg.impact_k)
               if row.get("kind") == "update"]
    return {
        "app": cfg.app,
        "level": cfg.level,
        "n_mes": cfg.n_mes,
        "windows": cfg.windows,
        "window_cycles": cfg.window_cycles,
        "offered_gbps": cfg.offered_gbps,
        "seeds": _seeds(cfg),
        "churn": [s.to_string() for s in cfg.churn],
        "summary": {
            "mean_rate_gbps": mean_rate,
            "latency": collector.cumulative.summary(),
            "drops": sum(window_drops(w) for w in windows),
            "rx_offered": rx.sent,
            "tx_packets": tx.packets_out(),
            "updates_applied": len(control.applied),
            "stale_tx_total": sum(stale),
            "stale_cycles_max": max(cycles, default=0.0),
        },
        "timeline": {
            "rate_gbps": rates,
            "p50": [w["latency"]["p50"] for w in windows],
            "p95": [w["latency"]["p95"] for w in windows],
            "p99": [w["latency"]["p99"] for w in windows],
            "drops": [window_drops(w) for w in windows],
        },
        "updates": updates,
    }
