"""CLI: regenerate the paper's evaluation grid in one command.

Usage::

    python -m repro.sweep --apps l3switch,firewall,mpls --jobs 4

writes ``BENCH_fig13.json`` / ``BENCH_fig14.json`` / ``BENCH_fig15.json``
(rate curves + Table 1 access counts) at the repo root and prints a
per-figure summary. Each file is replaced whole
and holds exactly the cells this run measured, so a partial grid
(``--levels``, ``--me-counts``, ``--no-table1``) belongs in its own
``--out-dir``. ``--jobs 1`` and ``--jobs N`` output is bit-identical;
compare two runs with ``python -m repro.obs.diff`` (exit 2 on
regression).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs import trace as obs_trace
from repro.options import LEVEL_ORDER, parse_level
from repro.sweep.cache import CompileCache, repo_root
from repro.sweep.orchestrator import (
    ME_COUNTS,
    RATE_MEASURE,
    RATE_WARMUP,
    TABLE1_MEASURE,
    TRACE_PACKETS,
    TRACE_SEED,
    WorkerConfig,
    build_jobs,
    run_sweep,
)

DEFAULT_APPS = "l3switch,firewall,mpls"


def _csv(value: str):
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Regenerate the Figures 13-15 / Table 1 evaluation "
                    "sweep, process-parallel and compile-cached.")
    ap.add_argument("--apps", default=DEFAULT_APPS,
                    help="comma-separated apps (default: %(default)s)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes; 1 runs inline and is "
                         "bit-identical to N>1 (default: %(default)s)")
    ap.add_argument("--levels", default=",".join(LEVEL_ORDER),
                    help="comma-separated optimization levels "
                         "(default: %(default)s)")
    ap.add_argument("--me-counts", default=",".join(map(str, ME_COUNTS)),
                    help="comma-separated ME counts for the rate curves "
                         "(default: %(default)s)")
    ap.add_argument("--no-table1", action="store_true",
                    help="skip the Table 1 access-count runs")
    ap.add_argument("--warmup", type=int, default=RATE_WARMUP,
                    help="warm-up packets per rate run (default: "
                         "%(default)s)")
    ap.add_argument("--measure", type=int, default=RATE_MEASURE,
                    help="measured packets per rate run (default: "
                         "%(default)s)")
    ap.add_argument("--table1-measure", type=int, default=TABLE1_MEASURE,
                    help="measured packets per Table 1 run (default: "
                         "%(default)s)")
    ap.add_argument("--trace-packets", type=int, default=TRACE_PACKETS,
                    help="profiling-trace packets per compile (default: "
                         "%(default)s)")
    ap.add_argument("--trace-seed", type=int, default=TRACE_SEED,
                    help="profiling-trace seed (default: %(default)s)")
    ap.add_argument("--out-dir", default=None, metavar="DIR",
                    help="directory for BENCH_*.json (default: repo root)")
    ap.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="compile-artifact cache directory (default: "
                         "<repo>/.repro_cache/compile)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the on-disk compile cache")
    ap.add_argument("--analyze", action="store_true",
                    help="run the repro.analyze checks (layout, budget, "
                         "verify) on every distinct (app, level) "
                         "compile; exit 2 if any report has error "
                         "findings")
    ap.add_argument("--profile", action="store_true",
                    help="attach the stall-cycle attribution profiler "
                         "(repro.obs.profile) to every rate run and "
                         "write BENCH_occupancy.json; measured rates "
                         "are bit-identical either way")
    ap.add_argument("--packet-trace", action="store_true",
                    help="record a per-packet lifecycle trace of each "
                         "app's fully-optimized run at the highest ME "
                         "count and export it as Chrome trace-event JSON "
                         "(<out-dir>/<app>.trace.json; open in "
                         "https://ui.perfetto.dev); compile stages this "
                         "process runs itself (--jobs 1, cache miss) "
                         "share the timeline")
    args = ap.parse_args(argv)

    # Fail fast on a bad grid, naming the offending token -- not a
    # KeyError (or a hang) deep inside a spawned worker.
    from repro.apps import APP_CLASSES

    apps = _csv(args.apps)
    named = _csv(args.levels)
    levels = [parse_level(lv) for lv in named]
    bad = [a for a in apps if a not in APP_CLASSES]
    if bad:
        ap.error("unknown apps: %s (choose from %s)"
                 % (",".join(bad), ",".join(sorted(APP_CLASSES))))
    bad = [lv for lv, level in zip(named, levels) if level is None]
    if bad:
        ap.error("unknown levels: %s (choose from %s)"
                 % (",".join(bad), ",".join(LEVEL_ORDER)))
    try:
        me_counts = [int(n) for n in _csv(args.me_counts)]
    except ValueError:
        ap.error("--me-counts must be comma-separated integers, got %r"
                 % args.me_counts)
    bad = [n for n in me_counts if n < 1]
    if bad:
        ap.error("--me-counts values must be >= 1, got %s"
                 % ",".join(map(str, bad)))
    if args.jobs < 1:
        ap.error("--jobs must be >= 1, got %d" % args.jobs)
    for flag, floor in (("warmup", 0), ("measure", 1),
                        ("table1_measure", 1), ("trace_packets", 1)):
        if getattr(args, flag) < floor:
            ap.error("--%s must be >= %d, got %d"
                     % (flag.replace("_", "-"), floor, getattr(args, flag)))

    cache = CompileCache(args.cache_dir, enabled=not args.no_cache)
    out_dir = args.out_dir or repo_root()
    os.makedirs(out_dir, exist_ok=True)
    trace_sink = None
    if args.packet_trace:
        obs_trace.capture_compile_spans()
        trace_sink = lambda app: os.path.join(out_dir, app + ".trace.json")
    table1 = not args.no_table1
    jobs = build_jobs(apps, levels=levels, me_counts=me_counts,
                      table1=table1,
                      rate_warmup=args.warmup, rate_measure=args.measure,
                      table1_measure=args.table1_measure,
                      trace_sink=trace_sink)
    print("sweep: %d jobs (%s x %s x MEs %s%s), "
          "%d process%s, cache %s"
          % (len(jobs), ",".join(apps), ",".join(levels),
             ",".join(map(str, me_counts)),
             " + table1" if table1 else "",
             args.jobs, "" if args.jobs == 1 else "es",
             cache.cache_dir if cache.enabled else "OFF"))

    cfg = WorkerConfig(cache_dir=cache.cache_dir, use_cache=cache.enabled,
                       trace_packets=args.trace_packets,
                       trace_seed=args.trace_seed,
                       analyze=args.analyze,
                       profile=args.profile)
    sweep = run_sweep(jobs, n_procs=args.jobs, cache=cache, cfg=cfg)

    paths = sweep.write_bench_files(out_dir)
    paths += [job.trace_json for job in jobs if job.trace_json]

    for app in apps:
        series = sweep.series(app)
        if not series:
            continue
        print("\n%s: forwarding rate (Gbps) vs MEs %s"
              % (app, ",".join(map(str, me_counts))))
        for level in [lv for lv in LEVEL_ORDER if lv in series]:
            print("  %-5s %s" % (level,
                                 "  ".join("%6.2f" % r
                                           for r in series[level])))

    if args.profile:
        verdicts = [jr.occupancy["verdict"]["text"] for jr in sweep.jobs
                    if jr.occupancy is not None]
        if verdicts:
            print("\nbottleneck verdicts (full table: "
                  "python -m repro.obs.report bottleneck)")
            for text in verdicts:
                print("  %s" % text)

    print("\n%d jobs in %.1fs wall (%d process%s); compile cache: "
          "%d hit%s, %d compile%s"
          % (len(sweep.jobs), sweep.wall_s, sweep.n_procs,
             "" if sweep.n_procs == 1 else "es",
             cache.hits, "" if cache.hits == 1 else "s",
             cache.misses, "" if cache.misses == 1 else "s"))
    for path in paths:
        print("wrote %s" % path)
    if args.analyze:
        failures = sweep.analysis_failures()
        analyzed = {(jr.job.app, jr.job.level): jr.analysis
                    for jr in sweep.jobs if jr.analysis is not None}
        if analyzed:
            checks = next(iter(analyzed.values()))["passes"]
            print("analyze: checks run on each compile: %s"
                  % ", ".join(checks))
        if failures:
            print("analyze: %d of %d compiles FAILED validation:"
                  % (len(failures), len(analyzed)))
            for app, level, n_errors in failures:
                print("  %s/%s: %d error finding%s"
                      % (app, level, n_errors,
                         "" if n_errors == 1 else "s"))
            return 2
        print("analyze: all %d compiles validated clean" % len(analyzed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
