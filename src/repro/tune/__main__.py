"""CLI: tune one or more apps over the sweep grid.

Usage::

    python -m repro.tune --app mpls

measures CompilerOptions x SWC candidate sets/check periods x
``target_gbps`` x ME counts on the simulator, one run per surviving
cell, and writes a byte-reproducible ``BENCH_tune.json`` (plus a
per-app summary naming every pruned search region and its evidence).
Compare runs with ``python -m repro.obs.diff`` (kind ``bench_tune``,
exit 2 on regression).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.obs import ledger as obs_ledger
from repro.options import LEVEL_ORDER
from repro.sweep.cache import CompileCache, repo_root
from repro.sweep.orchestrator import (
    RATE_MEASURE,
    RATE_WARMUP,
    TRACE_PACKETS,
    TRACE_SEED,
)
from repro.tune.driver import run_tune
from repro.tune.report import render_text, write_bench
from repro.tune.space import (
    DEFAULT_CHECK_PERIODS,
    DEFAULT_LEVELS,
    DEFAULT_ME_COUNTS,
    DEFAULT_TARGETS,
    SearchSpace,
)


def _csv(value: str):
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Evidence-pruned autotuner: search compiler "
                    "configurations for the best forwarding rate, "
                    "one simulator measurement per surviving cell.")
    ap.add_argument("--app", action="append", dest="app_list",
                    metavar="APP",
                    help="app to tune (repeatable; default: mpls)")
    ap.add_argument("--apps", default=None, dest="apps_csv", metavar="A,B",
                    help="comma-separated apps (alternative to --app)")
    ap.add_argument("--levels", default=",".join(DEFAULT_LEVELS),
                    help="comma-separated optimization levels to search "
                         "(default: %(default)s)")
    ap.add_argument("--check-periods",
                    default=",".join(map(str, DEFAULT_CHECK_PERIODS)),
                    help="SWC check periods to search (default: "
                         "%(default)s)")
    ap.add_argument("--target-gbps",
                    default=",".join(map(str, DEFAULT_TARGETS)),
                    help="aggregation targets to search (default: "
                         "%(default)s)")
    ap.add_argument("--me-counts",
                    default=",".join(map(str, DEFAULT_ME_COUNTS)),
                    help="ME counts to search (default: %(default)s)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes; 1 runs inline and is "
                         "byte-identical to N>1 (default: %(default)s)")
    ap.add_argument("--warmup", type=int, default=RATE_WARMUP,
                    help="warm-up packets per run (default: "
                         "%(default)s)")
    ap.add_argument("--measure", type=int, default=RATE_MEASURE,
                    help="measured packets per run (default: "
                         "%(default)s)")
    ap.add_argument("--trace-packets", type=int, default=TRACE_PACKETS,
                    help="profiling-trace packets per compile (default: "
                         "%(default)s)")
    ap.add_argument("--trace-seed", type=int, default=TRACE_SEED,
                    help="profiling-trace seed (default: %(default)s)")
    ap.add_argument("--out-dir", default=None, metavar="DIR",
                    help="directory for BENCH_tune.json (default: repo "
                         "root)")
    ap.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="compile-artifact cache directory (default: "
                         "$REPRO_CACHE_DIR or <repo>/.repro_cache/compile)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the on-disk compile cache")
    ap.add_argument("--metrics-jsonl", default=None, metavar="PATH",
                    help="metrics output (appended under a run header; "
                         "default: benchmarks/results/metrics.jsonl)")
    args = ap.parse_args(argv)

    # Fail fast on a bad space, naming the offending token -- not a
    # KeyError (or a hang) deep inside a spawned worker.
    from repro.apps import APP_CLASSES

    apps = list(args.app_list or []) + _csv(args.apps_csv or "")
    if not apps:
        apps = ["mpls"]
    bad = [a for a in apps if a not in APP_CLASSES]
    if bad:
        ap.error("unknown apps: %s (choose from %s)"
                 % (",".join(bad), ",".join(sorted(APP_CLASSES))))
    levels = _csv(args.levels)
    bad = [lv for lv in levels if lv not in LEVEL_ORDER]
    if bad:
        ap.error("unknown levels: %s (choose from %s)"
                 % (",".join(bad), ",".join(LEVEL_ORDER)))
    try:
        me_counts = [int(n) for n in _csv(args.me_counts)]
        periods = [int(p) for p in _csv(args.check_periods)]
        targets = [float(t) for t in _csv(args.target_gbps)]
    except ValueError as exc:
        ap.error("bad numeric list: %s" % exc)
    bad = [n for n in me_counts if n < 1]
    if bad:
        ap.error("--me-counts values must be >= 1, got %s"
                 % ",".join(map(str, bad)))
    bad = [p for p in periods if p < 1]
    if bad:
        ap.error("--check-periods values must be >= 1, got %s"
                 % ",".join(map(str, bad)))
    if not me_counts:
        ap.error("--me-counts must name at least one ME count")
    if args.jobs < 1:
        ap.error("--jobs must be >= 1, got %d" % args.jobs)
    for flag, floor in (("warmup", 0), ("measure", 1),
                        ("trace_packets", 1)):
        if getattr(args, flag) < floor:
            ap.error("--%s must be >= %d, got %d"
                     % (flag.replace("_", "-"), floor, getattr(args, flag)))

    reg = obs.enable()
    obs_ledger.enable()  # pruning provenance rides on compile decisions
    cache = CompileCache(args.cache_dir, enabled=not args.no_cache)
    t0 = time.perf_counter()
    outcomes = []
    for app in apps:
        space = SearchSpace(app=app, levels=tuple(levels),
                            check_periods=tuple(sorted(set(periods))),
                            target_gbps=tuple(sorted(set(targets))),
                            me_counts=tuple(sorted(set(me_counts))))
        print("tune %s: levels %s, periods %s, targets %s, MEs %s, "
              "%d process%s"
              % (app, ",".join(levels),
                 ",".join(map(str, space.check_periods)),
                 ",".join(map(str, space.target_gbps)),
                 ",".join(map(str, space.me_counts)),
                 args.jobs, "" if args.jobs == 1 else "es"))
        outcome = run_tune(space, n_jobs=args.jobs, cache=cache,
                           trace_packets=args.trace_packets,
                           trace_seed=args.trace_seed,
                           warmup=args.warmup, measure=args.measure,
                           progress=lambda m: print("  " + m))
        outcomes.append(outcome)
        print(render_text(outcome))

    out_dir = args.out_dir or repo_root()
    os.makedirs(out_dir, exist_ok=True)
    path = write_bench(outcomes, out_dir)

    metrics_path = args.metrics_jsonl or os.path.join(
        repo_root(), "benchmarks", "results", "metrics.jsonl")
    run_id = "tune-%s-p%d" % (
        time.strftime("%Y%m%dT%H%M%S", time.gmtime()), os.getpid())
    reg.dump_jsonl(metrics_path, append=True,
                   header={"run": run_id, "source": "repro.tune",
                           "jobs": args.jobs, "apps": apps,
                           "levels": levels})

    print("\ntuned %d app%s in %.1fs wall; compile cache: %d hit%s, "
          "%d compile%s"
          % (len(apps), "" if len(apps) == 1 else "s",
             time.perf_counter() - t0,
             cache.hits, "" if cache.hits == 1 else "s",
             cache.misses, "" if cache.misses == 1 else "s"))
    print("wrote %s" % path)
    print("metrics: %s (run %s)" % (metrics_path, run_id))
    return 0


if __name__ == "__main__":
    sys.exit(main())
