"""Command line of the benchmark: one workload per process.

    python3 benchmarks/pipeline/__main__.py --workload sim_steady
    python3 benchmarks/pipeline/__main__.py --workload sweep_grid --trace 1
    python3 benchmarks/pipeline/__main__.py --selfcheck

Prints every metric by name with its unit, then -- as the last line --
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from . import harness
from .harness import (
    DEFAULT_SEED,
    NOT_MEASURED,
    OUT_DIR,
    UNTRACED,
    Outcome,
    Tracer,
)

WORKLOADS = ("compile_cold", "sim_steady", "sweep_grid", "serve_churn")
#: Set-ups per run: setup_s is the median import (a child process each)
#: plus the median set-up body.
SETUP_REPS = 3
#: A traced round's spans must account for this share of its wall-clock.
COVERAGE = 0.95


def workload_class(name: str):
    """Import on demand: the workload modules import ``repro``."""
    from . import compile_cold, serve_churn, sim_steady, sweep_grid

    return {"compile_cold": compile_cold.CompileCold,
            "sim_steady": sim_steady.SimSteady,
            "sweep_grid": sweep_grid.SweepGrid,
            "serve_churn": serve_churn.ServeChurn}[name]


# -- the traced run -----------------------------------------------------------------


def per_layer_metrics(tr: Tracer, round_span: int, overhead_ratio: float,
                      ) -> Dict[str, float]:
    """Every per-layer metric from the traced set-up and round: ``*_s``
    is the self time of the spans of that name, counts were taken at the
    same boundaries. A layer the workload never enters reads 0."""
    own = tr.self_by_name()
    count = tr.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def c(name: str) -> float:
        return float(count.get(name, 0))

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    root = tr.spans[round_span]
    traced_wall = root.end - root.start
    glue = sum(t for name, t in tr.self_by_name(round_span).items()
               if name.startswith("bench."))
    return {
        "apps.build_s": s("apps.build"),
        "apps.make_trace_s": s("apps.make_trace"),
        "baker.parse_check_s": s("baker.parse_check"),
        "baker.lower_s": s("baker.lower"),
        "baker.source_lines_per_s": per(c("baker.source_lines"),
                                        s("baker.parse_check")),
        "ir.instrs_lowered": c("ir.instrs_lowered"),
        "ir.instrs_final": c("ir.instrs_final"),
        "ir.verify_s": s("ir.verify"),
        "profiler.interp_s": s("profiler.interp"),
        "profiler.pkts_per_s": per(c("profiler.packets"),
                                   s("profiler.interp")),
        "profiler.share_of_compile": per(s("profiler.interp"),
                                         tr.total_by_name("bench.compile")),
        "opt.scalar_s": s("opt.scalar"),
        "opt.pac_s": s("opt.pac"),
        "opt.soar_s": s("opt.soar"),
        "opt.phr_s": s("opt.phr"),
        "opt.swc_s": s("opt.swc"),
        "opt.pac_combined": c("opt.pac_combined"),
        "opt.swc_cached": c("opt.swc_cached"),
        "aggregation.form_s": s("aggregation.form"),
        "aggregation.me_aggregates": c("aggregation.me_aggregates"),
        "cg.codegen_s": s("cg.codegen"),
        "cg.instrs_emitted": c("cg.instrs_emitted"),
        "rts.load_s": s("rts.load"),
        "rts.load_share_of_cell": per(
            s("rts.load"), tr.total_by_name("bench.cell")
            + tr.total_by_name("serve.run")),
        "ixp.predecode_s": s("ixp.predecode"),
        "ixp.run_s": s("ixp.run"),
        "ixp.kinstr_per_s": per(c("ixp.instrs") / 1e3, s("ixp.run")),
        "ixp.host_us_per_kcycle": per(s("ixp.run") * 1e6,
                                      c("ixp.cycles") / 1e3),
        "ixp.me_utilization": per(c("ixp.me_utilization_sum"),
                                  c("cell.count")),
        "ixp.dram_per_pkt": per(c("ixp.dram_per_pkt_sum"), c("cell.count")),
        "ixp.sram_per_pkt": per(c("ixp.sram_per_pkt_sum"), c("cell.count")),
        "ixp.scratch_per_pkt": per(c("ixp.scratch_per_pkt_sum"),
                                   c("cell.count")),
        "ixp.rx_drop_freelist": c("ixp.rx_drop_freelist"),
        "ixp.rx_drop_ring_full": c("ixp.rx_drop_ring_full"),
        "ixp.stall_mem_share": per(c("ixp.stall_mem_share_sum"),
                                   c("ixp.stall_cells")),
        "ixp.stall_ring_empty_share": per(
            c("ixp.stall_ring_empty_share_sum"), c("ixp.stall_cells")),
        "sweep.job_s_p50": c("sweep.job_s_p50"),
        "sweep.cache_store_s": s("sweep.cache_store"),
        "sweep.cache_load_s": s("sweep.cache_load"),
        "sweep.cache_hit_ratio": per(c("sweep.cache_hits"), c("sweep.jobs")),
        "sweep.write_bench_s": s("sweep.write_bench"),
        "sweep.overhead_s": s("sweep.round") + s("sweep.job"),
        "serve.run_s": tr.total_by_name("serve.run"),
        "serve.windows_per_s": per(c("serve.windows"),
                                   tr.total_by_name("serve.run")),
        "serve.updates_applied": c("serve.updates_applied"),
        "obs.diff_s": s("obs.diff"),
        "obs.observer_overhead_ratio": c("obs.observer_overhead_ratio"),
        "obs.profiler_overhead_ratio": c("obs.profiler_overhead_ratio"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.span_gap_ratio": per(glue, traced_wall),
    }


def layer_shares(tr: Tracer, root: int) -> Dict[str, float]:
    """layer -> share of the root span's wall-clock spent in the layer's
    own code (span self time, grouped by the name's first component).
    The clock's own work (``calib.*``: kernels, collections) is left out
    of both sides, as it is left out of ``wall_s``."""
    own = tr.self_by_name(root)
    span = tr.spans[root]
    wall = span.end - span.start - sum(
        seconds for name, seconds in own.items() if name.startswith("calib."))
    shares: Dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.split(".")[0]
        if layer != "calib":
            shares[layer] = shares.get(layer, 0.0) + seconds / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def largest_gap(tr: Tracer, idx: int):
    """``(seconds, offset)`` of the longest stretch of span ``idx`` that
    no child span covers."""
    span = tr.spans[idx]
    kids = sorted((k for k in tr.spans if k.parent == idx),
                  key=lambda k: k.start)
    edges = [span.start] + [t for k in kids for t in (k.start, k.end)] \
        + [span.end]
    width, at = max((edges[i + 1] - edges[i], edges[i])
                    for i in range(0, len(edges), 2))
    return width, at - span.start


def check_coverage(tr: Tracer, round_span: int, gap_ratio: float) -> None:
    """The traced run's two consistency checks: the per-pass spans must
    add up to the outside timer around ``compile_ir``, and the layers'
    self times to the round's wall-clock. A shortfall is reported with
    the uncovered interval, never hidden."""
    own = tr.self_times()
    for idx, span in enumerate(tr.spans):
        wall = span.end - span.start
        if span.name == "compiler.ir" and own[idx] > (1 - COVERAGE) * wall:
            tr.warnings.append(
                "compiler.ir %s: compile_stage spans cover %.1f %% of the "
                "%.4f s outside timer; largest uncovered interval %.4f s at "
                "+%.4f s" % ((span.op, 100 * (1 - own[idx] / wall), wall)
                             + largest_gap(tr, idx)))
    if gap_ratio > 1 - COVERAGE:
        worst = max((i for i, s in enumerate(tr.spans)
                     if s.name.startswith("bench.")
                     and tr.inside(i, round_span)), key=lambda i: own[i])
        tr.warnings.append(
            "layer self times cover %.1f %% of the traced round; largest "
            "uncovered interval %.4f s at +%.4f s of %s %s"
            % ((100 * (1 - gap_ratio),) + largest_gap(tr, worst)
               + (tr.spans[worst].name, tr.spans[worst].op)))


# -- one run ------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    contract = harness.load_contract()
    harness.prepare_environment()
    harness.import_repro()
    cls = workload_class(name)
    workload = cls(seed, harness.RefClock(UNTRACED, cls.collect_before_ops))
    try:
        if not trace:
            clock = workload.clock
            imports = [clock.timed(harness.import_in_child)[1]
                       for _ in range(SETUP_REPS)]
            bodies = [clock.timed(workload.setup, UNTRACED)[1]
                      for _ in range(SETUP_REPS)]
            out = workload.run(seconds)
            out.metrics["setup_s"] = (statistics.median(imports)
                                      + statistics.median(bodies))
            out.metrics["peak_rss_mb"] = harness.peak_rss_mb()
            declared = contract["end_to_end"]
        else:
            workload.setup(UNTRACED)
            out = traced_run(workload, name, seed)
            declared = contract["per_layer"]
    finally:
        workload.close()
    return report(name, seed, seconds, trace, workload.why, out, declared)


def traced_run(workload, name: str, seed: int) -> Outcome:
    """One untraced round (the overhead base, and the reference every
    traced result must reproduce), then set-up and one round with spans."""
    out = workload.run(0.0)
    if "wall_s" not in out.metrics:
        return out
    from repro.obs import trace as obs_trace

    # The program's own compile-stage spans split compile_ir per pass.
    obs_trace.capture_compile_spans()
    tr = Tracer()
    workload.clock.close()
    workload.clock = harness.RefClock(tr, workload.collect_before_ops)
    with tr.span("bench.setup") as setup_span:
        workload.setup(tr)
    with tr.span("bench.round") as round_span:
        traced = workload.run_traced(tr)
    workload.probes(tr, traced)
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.notes.extend(n for n in traced.notes if n not in out.notes)
    out.metrics = per_layer_metrics(
        tr, round_span, traced.metrics["wall_s"] / out.metrics["wall_s"])
    check_coverage(tr, round_span, out.metrics["trace.span_gap_ratio"])
    shares = {"setup": layer_shares(tr, setup_span),
              "round": layer_shares(tr, round_span)}
    path = OUT_DIR / ("trace_%s.json" % name)
    tr.dump(path, {"workload": name, "seed": seed, "layer_shares": shares,
                   "metrics": out.metrics})
    out.notes.append("spans: %d, written to %s"
                     % (len(tr.spans), path.relative_to(harness.ROOT)))
    for phase, by_layer in shares.items():
        out.notes.append("layer shares of the traced %s: %s" % (
            phase, ", ".join("%s %.1f %%" % (layer, 100 * share)
                             for layer, share in by_layer.items())))
    out.notes.extend("WARNING: " + w for w in tr.warnings)
    return out


def report(name: str, seed: int, seconds: float, trace: bool, why: str,
           out: Outcome, declared: List[dict]) -> int:
    print("workload %s  seed %d%s  seconds %g  trace %d"
          % (name, seed,
             "" if seed == DEFAULT_SEED else " (default %d)" % DEFAULT_SEED,
             seconds, trace))
    print("why: %s" % why)
    for note in out.notes:
        print("  " + note)
    if not out.metrics:
        print("no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    for spec in declared:
        value = out.metrics.get(spec["name"])
        missing = value is None
        if missing:
            value = 0.0 if trace else NOT_MEASURED
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print("  %-30s %16.6f %-8s %s" % (
            spec["name"], value, spec["unit"],
            "n/a on this workload" if missing and not trace else ""))
    print("operations: %d attempted, %d failed" % (out.attempted, out.failed))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks.pipeline", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="drives the generated inputs (default %%(default)s; "
                         "%d is the held-out seed)" % harness.HELD_OUT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure whole rounds for about this long "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0,
                    help="1: one traced round, per-layer metrics")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload twice and compare the runs")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(harness.load_contract()["run_seconds"])
    if args.selfcheck:
        from .selfcheck import selfcheck

        return selfcheck(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --selfcheck is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))
