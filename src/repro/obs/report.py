"""Render the repo's committed records as human-readable text.

Usage::

    python -m repro.obs.report explain compile_report.json
    python -m repro.obs.report timeline timeline.jsonl
    python -m repro.obs.report bottleneck BENCH_occupancy.json
    python -m repro.obs.report waterfall BENCH_fig13.json ... [--paper P]

The ``explain`` subcommand renders a ``compile_report.json`` written by
:mod:`repro.obs.ledger`: the plan, per-pass optimization results, IR
size after each stage, the hot Baker source lines, and every recorded
optimization decision with its reason and evidence.

The ``timeline`` subcommand renders a timeseries JSONL dump written by
:class:`repro.obs.timeseries.TimeseriesCollector` (e.g. by
``python -m repro.serve --timeline``): one row per window
(rate/p50/p95/p99/drops) with update markers, then the update-impact
table around each control-plane event.

The ``bottleneck`` subcommand renders a ``BENCH_occupancy.json``
written by ``python -m repro.sweep --profile`` (see
:mod:`repro.obs.profile`): per-(app, level) stall-cycle attribution
tables, one row per ME count, with each run's one-line bottleneck
verdict underneath -- the "why did the curve plateau?" view of the
Figure 13-15 rate data.

The ``waterfall`` subcommand renders ``BENCH_fig13/14/15.json`` level by
level: per app, Table 1's access columns with the change each cumulative
level brought, the rate at the largest ME count and, with ``--paper``,
the paper's totals and peak beside ours -- the "which pass owes the gap?"
view.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import OrderedDict
from typing import List, Optional, Tuple


def _table(lines: List[str], header: List[str], rows: List[List[str]],
           indent: str = "  ") -> None:
    if not rows:
        return
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(header)]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines.append(indent + fmt % tuple(header))
    for row in rows:
        lines.append(indent + fmt % tuple(row))


# -- explain: render a compile_report.json -------------------------------------------


def _fmt_evidence(ev: dict) -> str:
    return "  ".join("%s=%g" % (k, v) if isinstance(v, (int, float))
                     else "%s=%s" % (k, v)
                     for k, v in sorted(ev.items()))


def render_explain(report: dict, pass_filter: Optional[str] = None) -> str:
    lines: List[str] = []
    head = "compile report"
    if report.get("app"):
        head += "  app=%s" % report["app"]
    head += "  level=%s  (schema v%s)" % (report.get("level"),
                                          report.get("version"))
    lines.append(head)
    ir = report.get("ir") or {}
    plan = report.get("plan") or {}
    lines.append("ir: %d functions, %d blocks, %d instrs" % (
        ir.get("functions", 0), ir.get("blocks", 0), ir.get("instrs", 0)))
    if plan:
        lines.append("plan: %.0f pps estimated throughput" %
                     plan.get("throughput_pps", 0.0))
        rows = []
        for agg in plan.get("aggregates", []):
            rows.append([agg["name"], agg["target"],
                         "%d" % agg.get("me_count", 0),
                         "%.2f" % agg.get("cost", 0.0),
                         "%d" % agg.get("code_size_estimate", 0),
                         "%d" % len(agg.get("ppfs", []))])
        _table(lines, ["aggregate", "target", "MEs", "cost",
                       "est.size", "ppfs"], rows)
    images = report.get("images") or {}
    if images:
        lines.append("images:")
        rows = []
        for name, img in sorted(images.items()):
            rows.append([name, "%d" % img.get("code_size", 0),
                         "%d" % img.get("n_insns", 0),
                         "%d" % img.get("lm_stack_words", 0),
                         "%d" % img.get("sram_stack_words", 0)])
        _table(lines, ["image", "code_words", "insns", "lm_stack",
                       "sram_stack"], rows)
    opt = report.get("opt") or {}
    summary_bits = []
    if opt.get("pac"):
        p = opt["pac"]
        summary_bits.append("pac: %d loads->%d wide, %d stores->%d wide" % (
            p["combined_loads"], p["wide_loads"],
            p["combined_stores"], p["wide_stores"]))
    if opt.get("soar"):
        s = opt["soar"]
        summary_bits.append("soar: %d/%d accesses resolved (%.0f%%)" % (
            s["resolved_accesses"], s["total_accesses"],
            100 * s["resolution_rate"]))
    if opt.get("phr"):
        ph = opt["phr"]
        summary_bits.append("phr: %d encaps elided, %d meta localized, "
                            "%d syncs, packet state in registers in %d "
                            "functions (%d write-back sites)"
                            % (ph["elided_encaps"],
                               len(ph["localized_meta_fields"]),
                               ph["syncs_inserted"],
                               ph.get("state_functions", 0),
                               ph.get("state_writebacks", 0)))
    if opt.get("swc"):
        sw = opt["swc"]
        summary_bits.append("swc: %d cached, %d resident, %d rejected, "
                            "%d loads rewritten" % (
                                len(sw["cached"]), len(sw.get("resident", [])),
                                len(sw["rejected"]), sw["rewritten_loads"]))
    for bit in summary_bits:
        lines.append("  " + bit)
    lines.append("")

    stages = report.get("ir_stages") or []
    if stages:
        lines.append("IR size after each stage:")
        rows = []
        prev = None
        for st in stages:
            n = st.get("instrs", 0)
            rows.append([str(st.get("stage", "?")),
                         "%d" % st.get("functions", 0),
                         "%d" % st.get("blocks", 0), "%d" % n,
                         "" if prev is None else "%+d" % (n - prev)])
            prev = n
        _table(lines, ["stage", "functions", "blocks", "instrs", "delta"],
               rows)
        lines.append("")
    hot = report.get("hot_lines") or []
    if hot:
        total = sum(h.get("instrs", 0) for h in hot)
        lines.append("Hot Baker source lines (interpreted IR instrs, top %d):"
                     % min(10, len(hot)))
        rows = [["%d" % rank, str(h.get("src", "?")),
                 "%d" % h.get("instrs", 0),
                 "%.1f%%" % (100.0 * h.get("instrs", 0) / total
                             if total else 0.0)]
                for rank, h in enumerate(hot[:10], 1)]
        _table(lines, ["#", "source line", "instrs", "share"], rows)
        lines.append("")

    decisions = report.get("decisions") or []
    if pass_filter:
        decisions = [d for d in decisions if d.get("pass") == pass_filter]
    counts = report.get("decision_counts") or {}
    lines.append("decisions: %d recorded across %d passes%s" % (
        len(decisions), len(counts),
        "  (filtered to pass=%s)" % pass_filter if pass_filter else ""))
    by_pass: "OrderedDict[str, List[dict]]" = OrderedDict()
    for d in decisions:
        by_pass.setdefault(d.get("pass", "?"), []).append(d)
    for pass_name, ds in by_pass.items():
        lines.append("")
        lines.append("[%s]" % pass_name)
        for d in ds:
            line = "  %-18s %s" % (d.get("verdict", "?"),
                                   d.get("subject", "?"))
            if d.get("loc"):
                line += "  @%s" % d["loc"]
            lines.append(line)
            if d.get("reason"):
                lines.append("      why: %s" % d["reason"])
            if d.get("evidence"):
                lines.append("      %s" % _fmt_evidence(d["evidence"]))
    return "\n".join(lines)


def explain_main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report explain",
        description="Render a compile_report.json (see repro.obs.ledger) "
                    "as a human-readable decision log.")
    ap.add_argument("path", help="compile_report.json to explain")
    ap.add_argument("--pass", dest="pass_filter", default=None,
                    metavar="PASS",
                    help="show only decisions of one pass (e.g. swc)")
    args = ap.parse_args(argv)
    from repro.obs.diff import SystemExit2, load_file

    try:
        report = load_file(args.path, kind="compile_report")
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(render_explain(report, args.pass_filter))
    return 0


# -- timeline: render a timeseries JSONL dump ----------------------------------------


def render_timeline(header: dict, windows: List[dict], k: int = 2) -> str:
    """Per-window rate/latency/drop table with update markers, plus the
    update-impact section. Deterministic: a pure function of the file."""
    from repro.obs.timeseries import update_impact, window_drops

    lines: List[str] = []
    head = "timeline"
    for key in ("app", "level", "n_mes"):
        if header.get(key) is not None:
            head += "  %s=%s" % (key, header[key])
    lines.append(head)
    if header.get("churn"):
        lines.append("churn: " + "  ".join(str(c) for c in header["churn"]))
    lines.append("windows: %d x %g cycles (finished at %g)"
                 % (len(windows), header.get("window_cycles", 0),
                    header.get("finished_at") or 0))
    lat = header.get("latency_total") or {}
    if lat.get("count"):
        lines.append("latency overall (cycles): n=%d  p50=%g  p95=%g  "
                     "p99=%g  mean=%g  max=%g"
                     % (lat["count"], lat.get("p50", 0), lat.get("p95", 0),
                        lat.get("p99", 0), lat.get("mean", 0),
                        lat.get("max", 0)))
    lines.append("")

    rows = []
    for w in windows:
        wl = w.get("latency") or {}
        events = w.get("events") or []
        marks = ",".join(str(e.get("churn") or e.get("kind", "?"))
                         for e in events)
        if w.get("partial"):
            marks = (marks + " " if marks else "") + "(partial)"
        rows.append([
            "%d" % w.get("window", 0),
            "%.0f" % w.get("t_start", 0.0),
            "%.4f" % w.get("rate_gbps", 0.0),
            "%g" % wl.get("p50", 0), "%g" % wl.get("p95", 0),
            "%g" % wl.get("p99", 0), "%g" % window_drops(w),
            ("* " + marks) if events else marks,
        ])
    _table(lines, ["win", "t_start", "gbps", "p50", "p95", "p99",
                   "drops", "events"], rows)

    impact = update_impact(windows, k=k)
    if impact:
        lines.append("")
        lines.append("Update impact (mean over %d windows before/after):" % k)
        rows = []
        for r in impact:
            b, d, a = r["before"], r["during"], r["after"]
            rows.append([
                "%d" % r["window"],
                str(r.get("churn") or r.get("kind", "?")),
                str(r.get("target", "")),
                "%g" % b["p99"], "%g" % d["p99"], "%g" % a["p99"],
                "%+g" % r["delta_p99"],
                "%+.4f" % r["delta_rate_gbps"],
                "%+g" % r["delta_drops"],
                "%g" % r.get("stale_tx", 0),
                "%g" % r.get("stale_cycles", 0),
            ])
        _table(lines, ["win", "update", "target", "p99.before", "p99.during",
                       "p99.after", "d(p99)", "d(gbps)", "d(drops)",
                       "stale.tx", "stale.cycles"], rows)
    return "\n".join(lines)


def timeline_main(argv) -> int:
    from repro.obs.timeseries import load_timeseries

    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report timeline",
        description="Render a timeseries JSONL dump (written by "
                    "repro.obs.timeseries / python -m repro.serve) as a "
                    "per-window table with update-impact analysis.")
    ap.add_argument("path", help="timeline JSONL file")
    ap.add_argument("-k", type=int, default=2,
                    help="impact windows before/after each update "
                         "(default: %(default)s)")
    args = ap.parse_args(argv)
    if not os.path.exists(args.path):
        print("error: no timeline file at %s (write one with "
              "python -m repro.serve --timeline %s)" % (args.path, args.path),
              file=sys.stderr)
        return 1
    try:
        header, windows = load_timeseries(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print("error: cannot read timeline from %s: %s" % (args.path, exc),
              file=sys.stderr)
        return 1
    if not windows:
        print("error: %s holds no window records (is it a timeseries "
              "dump?)" % args.path, file=sys.stderr)
        return 1
    print(render_timeline(header, windows, k=args.k))
    return 0


# -- bottleneck: render a BENCH_occupancy.json ---------------------------------------


def render_bottleneck(bench: dict, app: Optional[str] = None,
                      level: Optional[str] = None,
                      mes: Optional[int] = None) -> str:
    """Attribution tables + verdicts from a BENCH_occupancy.json dict.
    Deterministic: a pure function of the file and the filters."""
    from repro.obs.profile import CATEGORIES
    from repro.options import LEVEL_ORDER

    cells = [c for c in (bench.get("cells") or {}).values()
             if (app is None or c.get("app") == app)
             and (level is None or c.get("level") == level)
             and (mes is None or c.get("n_mes") == mes)]
    if not cells:
        return "(no matching occupancy cells)"

    def level_rank(lv: str) -> Tuple[int, str]:
        try:
            return (LEVEL_ORDER.index(lv), lv)
        except ValueError:
            return (len(LEVEL_ORDER), lv)

    groups: "OrderedDict[Tuple, List[dict]]" = OrderedDict()
    for c in sorted(cells, key=lambda c: (c.get("app", ""),
                                          level_rank(c.get("level", "")),
                                          c.get("n_mes", 0))):
        groups.setdefault((c.get("app", "?"), c.get("level", "?")),
                          []).append(c)

    lines: List[str] = []
    for (capp, clevel), group in groups.items():
        lines.append("%s / %s -- stall-cycle attribution (%% of thread "
                     "cycles):" % (capp, clevel))
        rows = []
        for c in group:
            shares = c.get("shares") or {}
            rows.append(["%d" % c.get("n_mes", 0),
                         "%.2f" % c.get("rate_gbps", 0.0)]
                        + ["%.1f" % (100 * shares.get(cat, 0.0))
                           for cat in CATEGORIES]
                        + [str((c.get("verdict") or {}).get("kind", "?"))])
        _table(lines, ["MEs", "gbps"] + list(CATEGORIES) + ["verdict"],
               rows)
        for c in group:
            text = (c.get("verdict") or {}).get("text")
            if text:
                lines.append("  " + text)
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def bottleneck_main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report bottleneck",
        description="Render a BENCH_occupancy.json (written by "
                    "python -m repro.sweep --profile) as per-(app, "
                    "level) attribution tables with bottleneck "
                    "verdicts.")
    ap.add_argument("path", nargs="?", default="BENCH_occupancy.json",
                    help="occupancy bench file (default: %(default)s)")
    ap.add_argument("--app", default=None,
                    help="restrict to one app (e.g. mpls)")
    ap.add_argument("--level", default=None,
                    help="restrict to one optimization level (e.g. SWC)")
    ap.add_argument("--mes", type=int, default=None,
                    help="restrict to one ME count")
    args = ap.parse_args(argv)
    from repro.obs.diff import SystemExit2, load_file

    try:
        bench = load_file(args.path, kind="bench_occupancy")
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(render_bottleneck(bench, app=args.app, level=args.level,
                            mes=args.mes))
    return 0


# -- waterfall: BENCH_fig13/14/15.json along the level axis ---------------------------

_ACCESS_COLUMNS = OrderedDict([
    ("pkt_scratch", "pktScr"), ("pkt_sram", "pktSRAM"), ("pkt_dram", "pktDRAM"),
    ("app_scratch", "appScr"), ("app_sram", "appSRAM"), ("total", "total")])


def _signed(x: float, digits: int = 1) -> str:
    return "%+.*f" % (digits, round(x, digits) + 0.0)  # no "-0.0"


def render_waterfall(benches: List[dict], paper: Optional[dict] = None) -> str:
    """Per app, one row per Table-1 level: each access column with its
    change against the level above in parentheses, and the rate at the
    largest ME count. With ``paper`` (``table1_total`` / ``peak_gbps``)
    also the paper's total, ours minus it, and the peak rates."""
    from repro.options import LEVEL_ORDER

    paper = paper or {}
    lines: List[str] = []
    for bench in benches:
        app = bench.get("app", "?")
        mem = bench.get("mem_accesses") or {}
        rates = bench.get("rates") or {}
        totals = (paper.get("table1_total") or {}).get(app)
        header = ["level"] + list(_ACCESS_COLUMNS.values()) + ["Gbps"]
        if totals is not None:
            header += ["paper", "resid"]
        rows, prev, level = [], None, None
        for level in [lv for lv in LEVEL_ORDER if lv in mem]:
            row = [level]
            for col in _ACCESS_COLUMNS:
                value = mem[level].get(col, 0.0)
                row.append("%.1f" % value if prev is None else "%.1f (%s)" % (
                    value, _signed(value - prev.get(col, 0.0))))
            row.append("%.2f" % rates[level][-1] if rates.get(level) else "-")
            if totals is not None:
                ref = totals.get(level)
                row += ["-", "-"] if ref is None else [
                    "%.1f" % ref, _signed(mem[level].get("total", 0.0) - ref)]
            rows.append(row)
            prev = mem[level]
        lines.append("%s -- memory accesses per packet, level by level (change "
                     "from the row above); Gbps @%d MEs:"
                     % (app, max(bench.get("me_counts") or [0])))
        _table(lines, header, rows)
        peak = (paper.get("peak_gbps") or {}).get(app)
        if peak is not None and rates.get(level):
            ours = rates[level][-1]
            lines.append("  %s %.2f Gbps, paper peak ~%.1f (residual %s)"
                         % (level, ours, peak, _signed(ours - peak, 2)))
        lines.append("")
    return "\n".join(line.rstrip() for line in lines).rstrip("\n")


def waterfall_main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report waterfall",
        description="Render BENCH_fig13/14/15.json level by level: what each "
                    "cumulative level did to Table 1's accesses and the rate.")
    ap.add_argument("paths", nargs="+", help="bench files (kind=bench)")
    ap.add_argument("--paper", default=None, metavar="JSON",
                    help="paper values to show beside ours (the shape of "
                         "benchmarks/pipeline/paper_reference.json)")
    args = ap.parse_args(argv)
    from repro.obs.diff import _NUM, SystemExit2, _mismatch, load_file

    shape = {"table1_total": {str: {str: _NUM}}, "peak_gbps": {str: _NUM}}
    try:
        benches = [load_file(path, kind="bench") for path in args.paths]
        paper = None
        if args.paper is not None:
            try:
                with open(args.paper) as fh:
                    paper = json.load(fh)
                problem = _mismatch(paper, shape, "")
            except (OSError, json.JSONDecodeError) as exc:
                problem = str(exc)
            if problem:
                raise SystemExit2("cannot use %s: %s" % (args.paper, problem))
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(render_waterfall(benches, paper))
    return 0


_SUBCOMMANDS = {"explain": explain_main, "timeline": timeline_main,
                "bottleneck": bottleneck_main, "waterfall": waterfall_main}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    print("usage: python -m repro.obs.report {%s} ...\n(each takes --help)"
          % ",".join(_SUBCOMMANDS), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
