"""CLI for the live-churn service harness.

Usage::

    python -m repro.serve --app l3switch --windows 50 \\
        --churn route-flap:n=6,start=8,every=6 \\
        --out BENCH_churn.json --timeline timeline.jsonl --report

Every run is fully determined by its flags: the same command line
produces byte-identical ``--out`` and ``--timeline`` files (CI's
serve-smoke job runs one twice and ``cmp``s them).
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APP_CLASSES
from repro.options import LEVEL_ORDER, parse_level
from repro.serve.churn import CHURN_KINDS, parse_churn_spec
from repro.serve.harness import ServeConfig, run_service


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve an app under streaming traffic while the "
                    "control plane mutates live table state; record the "
                    "run as windowed time series.")
    ap.add_argument("--app", default="l3switch",
                    choices=sorted(APP_CLASSES),
                    help="application to serve (default: %(default)s)")
    ap.add_argument("--level", default="SWC",
                    help="optimization level (default: %(default)s)")
    ap.add_argument("--mes", type=int, default=3,
                    help="programmable MEs (default: %(default)s)")
    ap.add_argument("--windows", type=int, default=50,
                    help="run length in windows (default: %(default)s)")
    ap.add_argument("--window-cycles", type=float, default=40_000.0,
                    help="window width in ME cycles (default: %(default)s)")
    ap.add_argument("--gbps", type=float, default=2.5,
                    help="offered load in Gbps (default: %(default)s)")
    ap.add_argument("--churn", action="append", default=[],
                    metavar="KIND[:n=N,start=W,every=E]",
                    help="churn schedule (repeatable); kinds: "
                         + ", ".join(sorted(CHURN_KINDS)))
    ap.add_argument("--seed", type=int, default=7,
                    help="traffic seed (default: %(default)s)")
    ap.add_argument("--table-seed", type=int, default=None,
                    help="table-generation seed (default: the app's own)")
    ap.add_argument("--churn-seed", type=int, default=0,
                    help="mutation-selection seed (default: %(default)s)")
    ap.add_argument("-k", "--impact-k", type=int, default=2,
                    help="impact windows before/after each update "
                         "(default: %(default)s)")
    ap.add_argument("--out", default=None, metavar="BENCH.json",
                    help="write the churn bench JSON to this file")
    ap.add_argument("--timeline", default=None, metavar="FILE.jsonl",
                    help="dump the per-window timeline JSONL here")
    ap.add_argument("--report", action="store_true",
                    help="print the timeline report after the run")
    ap.add_argument("--profile", action="store_true",
                    help="attach the stall-cycle attribution profiler: "
                         "timeline windows carry occ.* counter deltas "
                         "and a bottleneck verdict is printed; the "
                         "bench JSON is byte-identical either way")
    args = ap.parse_args(argv)

    # Fail fast, naming flag and value, before anything is compiled --
    # not a KeyError/ZeroDivisionError traceback (or a run that never
    # ends) from inside the harness.
    level = parse_level(args.level)
    if level is None:
        ap.error("--level: unknown level %r (choose from %s)"
                 % (args.level, ",".join(LEVEL_ORDER)))
    for flag, floor in (("mes", 1), ("windows", 1), ("impact_k", 0)):
        if getattr(args, flag) < floor:
            ap.error("--%s must be >= %d, got %d"
                     % (flag.replace("_", "-"), floor, getattr(args, flag)))
    if not args.gbps > 0:
        ap.error("--gbps must be > 0, got %g" % args.gbps)
    try:
        churn = [parse_churn_spec(text) for text in args.churn]
    except ValueError as exc:
        ap.error(str(exc))

    cfg = ServeConfig(
        app=args.app, level=level, n_mes=args.mes,
        windows=args.windows, window_cycles=args.window_cycles,
        offered_gbps=args.gbps, churn=churn, traffic_seed=args.seed,
        table_seed=args.table_seed, churn_seed=args.churn_seed,
        impact_k=args.impact_k, profile=args.profile)
    try:
        res = run_service(cfg, timeline_path=args.timeline,
                          bench_path=args.out)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    s = res.bench["summary"]
    print("served %s/%s on %d MEs: %d windows x %g cycles at %g Gbps "
          "offered" % (cfg.app, cfg.level, cfg.n_mes, cfg.windows,
                       cfg.window_cycles, cfg.offered_gbps))
    print("  rate=%.4f Gbps  tx=%d  drops=%g  p50=%g  p99=%g"
          % (s["mean_rate_gbps"], s["tx_packets"], s["drops"],
             s["latency"]["p50"], s["latency"]["p99"]))
    print("  updates applied=%d  stale tx after update=%d  "
          "(last one %g cycles after its store)"
          % (s["updates_applied"], s["stale_tx_total"],
             s["stale_cycles_max"]))
    if res.occupancy is not None:
        print("  bottleneck: %s" % res.occupancy["verdict"]["text"])
    if args.out:
        print("  bench -> %s" % args.out)
    if args.timeline:
        print("  timeline -> %s" % args.timeline)

    if args.report:
        from repro.obs.report import render_timeline

        header = res.collector.to_records()[0]
        header.update({"app": cfg.app, "level": cfg.level,
                       "n_mes": cfg.n_mes,
                       "churn": [c.to_string() for c in churn]})
        print()
        print(render_timeline(header, res.collector.windows,
                              k=args.impact_k))
    return 0


if __name__ == "__main__":
    sys.exit(main())
