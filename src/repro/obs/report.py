"""Render a metrics JSONL dump as a human-readable text report.

Usage::

    python -m repro.obs.report [metrics.jsonl] [--only key=value ...]
    python -m repro.obs.report [metrics.jsonl] --json
    python -m repro.obs.report explain compile_report.json
    python -m repro.obs.report timeline timeline.jsonl
    python -m repro.obs.report bottleneck BENCH_occupancy.json
    python -m repro.obs.report waterfall BENCH_fig13.json ... [--paper P]

The input is whatever :meth:`repro.obs.MetricsRegistry.dump_jsonl`
wrote (benchmarks write ``benchmarks/results/metrics.jsonl``). Records
are grouped into *scopes* by their non-structural labels (e.g. the
``app``/``level`` a benchmark tagged), then rendered section by
section: compile stage timings, IR size per stage, opt-pass counters,
ring statistics, per-ME utilization, memory-channel load, Rx/Tx
accounting. ``--json`` emits the same per-scope data machine-readably.

The ``explain`` subcommand renders a ``compile_report.json`` written by
:mod:`repro.obs.ledger`: the plan, per-pass optimization results, and
every recorded optimization decision with its reason and evidence.

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
from typing import Dict, List, Optional, Tuple

#: Labels that select a row *within* a section rather than a scope.
STRUCTURAL_LABELS = {"stage", "ring", "me", "channel", "cause", "kind",
                     "engine", "passname", "aggregate", "stat", "src"}

#: Render compiler stages in pipeline order, not alphabetically.
STAGE_ORDER = ["frontend", "lower", "initial", "profile", "scalar",
               "aggregate", "pac", "soar", "phr", "swc", "verify",
               "codegen"]


def load_records(path: str) -> List[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def split_runs(records: List[dict]) -> List[dict]:
    """Resolve a (possibly) multi-run JSONL stream into plain metric
    records.

    Registry dumps appended to one file (``dump_jsonl(append=True,
    header=...)``) are delimited by ``run_header`` records. When a file
    holds more than one run, each metric record gains a ``run`` label
    (the header's ``run`` id, or a 1-based ordinal) so the scope
    grouping keeps runs apart instead of silently interleaving them;
    single-run files render exactly as before. Header records are
    consumed either way.
    """
    headers = [r for r in records if r.get("type") == "run_header"]
    multi = len(headers) > 1 or (headers and
                                 records[0].get("type") != "run_header")
    out: List[dict] = []
    run_id: Optional[str] = None
    ordinal = 0
    for rec in records:
        if rec.get("type") == "run_header":
            ordinal += 1
            run_id = str(rec.get("run") or "run%d" % ordinal)
            continue
        if multi:
            rec = dict(rec)
            labels = dict(rec.get("labels") or {})
            labels["run"] = run_id if run_id is not None else "run0"
            rec["labels"] = labels
        out.append(rec)
    return out


def _scope_key(rec: dict) -> Tuple:
    labels = rec.get("labels") or {}
    return tuple(sorted((k, v) for k, v in labels.items()
                        if k not in STRUCTURAL_LABELS))


def _slabel(rec: dict, key: str, default="") -> str:
    return str((rec.get("labels") or {}).get(key, default))


def _stage_order(recs: List[dict]):
    """Sort key for stage names: pipeline order for known stages, then
    unknown stages in the order they first appear in the records (never
    silently alphabetized into the middle of the pipeline)."""
    first_seen: Dict[str, int] = {}
    for r in recs:
        stage = (r.get("labels") or {}).get("stage")
        if stage is not None and stage not in STAGE_ORDER:
            first_seen.setdefault(str(stage), len(first_seen))

    def key(stage: str) -> Tuple[int, int, str]:
        try:
            return (0, STAGE_ORDER.index(stage), stage)
        except ValueError:
            return (1, first_seen.get(stage, len(first_seen)), stage)

    return key


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


def _pick(recs: List[dict], rtype: str, name: str) -> List[dict]:
    return [r for r in recs if r["type"] == rtype and r["name"] == name]


def _gauge_by(recs: List[dict], name: str, label: str) -> Dict[str, float]:
    return {_slabel(r, label): r["value"] for r in _pick(recs, "gauge", name)}


def _render_scope(recs: List[dict], lines: List[str]) -> None:
    stage_key = _stage_order(recs)

    # -- compile stage timings ---------------------------------------------------
    timers = _pick(recs, "timer", "compile.stage")
    if timers:
        lines.append("Compile stages (wall time):")
        rows = []
        total = 0.0
        for r in sorted(timers, key=lambda r: stage_key(_slabel(r, "stage"))):
            total += r["total_s"]
            rows.append([_slabel(r, "stage"), str(r["count"]),
                         "%.1f" % (r["total_s"] * 1e3)])
        rows.append(["TOTAL", "", "%.1f" % (total * 1e3)])
        _table(lines, ["stage", "calls", "ms"], rows)
        lines.append("")

    # -- IR size per stage -------------------------------------------------------
    fns = _gauge_by(recs, "compile.ir.functions", "stage")
    blocks = _gauge_by(recs, "compile.ir.blocks", "stage")
    instrs = _gauge_by(recs, "compile.ir.instrs", "stage")
    if instrs:
        lines.append("IR size after each stage:")
        rows = []
        prev = None
        for stage in sorted(instrs, key=stage_key):
            n = instrs[stage]
            delta = "" if prev is None else "%+d" % (n - prev)
            prev = n
            rows.append([stage, "%d" % fns.get(stage, 0),
                         "%d" % blocks.get(stage, 0), "%d" % n, delta])
        _table(lines, ["stage", "functions", "blocks", "instrs", "delta"], rows)
        lines.append("")

    # -- opt-pass counters -------------------------------------------------------
    opt = [r for r in recs if r["name"].startswith("opt.")
           and r["type"] in ("counter", "gauge")]
    if opt:
        lines.append("Optimization passes:")
        rows = []
        for r in sorted(opt, key=lambda r: (r["name"], _slabel(r, "passname"))):
            name = r["name"]
            extra = _slabel(r, "passname")
            if extra:
                name += "{%s}" % extra
            rows.append([name, "%g" % r["value"]])
        _table(lines, ["counter", "value"], rows)
        hist = _pick(recs, "histogram", "opt.scalar.iterations")
        for h in hist:
            lines.append("  scalar fixpoint: %d function runs, "
                         "%.1f iterations avg (max %g)"
                         % (h["count"], h["mean"], h["max"] or 0))
        lines.append("")

    # -- hot Baker source lines (functional-profiler attribution) ----------------
    hot = _pick(recs, "counter", "profile.line_instrs")
    if hot:
        hot.sort(key=lambda r: (-r["value"], _slabel(r, "src")))
        total_attr = sum(r["value"] for r in hot)
        lines.append("Hot Baker source lines (interpreted IR instrs, top %d):"
                     % min(10, len(hot)))
        rows = []
        for rank, r in enumerate(hot[:10], 1):
            share = r["value"] / total_attr if total_attr else 0.0
            rows.append(["%d" % rank, _slabel(r, "src"),
                         "%d" % r["value"], "%.1f%%" % (share * 100)])
        _table(lines, ["#", "source line", "instrs", "share"], rows)
        lines.append("")

    # -- ring statistics ---------------------------------------------------------
    caps = _gauge_by(recs, "sim.ring.capacity", "ring")
    if caps:
        depth = _gauge_by(recs, "sim.ring.depth", "ring")
        maxd = _gauge_by(recs, "sim.ring.max_depth", "ring")
        puts = _gauge_by(recs, "sim.ring.puts", "ring")
        gets = _gauge_by(recs, "sim.ring.gets", "ring")
        drops = _gauge_by(recs, "sim.ring.drops", "ring")
        empty = _gauge_by(recs, "sim.ring.empty_gets", "ring")
        occ = {_slabel(r, "ring"): r["summary"]
               for r in _pick(recs, "series", "sim.ring_depth")}
        lines.append("Rings (occupancy / drops):")
        rows = []
        for ring in sorted(caps):
            s = occ.get(ring)
            rows.append([
                ring, "%d" % caps[ring], "%d" % depth.get(ring, 0),
                "%d" % maxd.get(ring, 0), "%d" % puts.get(ring, 0),
                "%d" % gets.get(ring, 0), "%d" % drops.get(ring, 0),
                "%d" % empty.get(ring, 0),
                "%.1f" % s["mean"] if s else "-",
            ])
        _table(lines, ["ring", "cap", "depth", "max", "puts", "gets",
                       "drops", "empty_gets", "occ.mean"], rows)
        lines.append("")

    # -- per-ME utilization ------------------------------------------------------
    util = _gauge_by(recs, "sim.me.utilization", "me")
    if util:
        instrs_g = _gauge_by(recs, "sim.me.executed_instrs", "me")
        lines.append("Microengines:")
        rows = []
        for me in sorted(util, key=lambda m: int(m)):
            rows.append([me, "%.1f%%" % (util[me] * 100),
                         "%d" % instrs_g.get(me, 0)])
        _table(lines, ["me", "busy", "instrs"], rows)
        lines.append("")

    # -- memory channels ---------------------------------------------------------
    busy = _gauge_by(recs, "sim.mem.busy_cycles", "channel")
    if busy:
        mutil = _gauge_by(recs, "sim.mem.utilization", "channel")
        lines.append("Memory channels:")
        rows = []
        for ch in sorted(busy):
            u = mutil.get(ch)
            rows.append([ch, "%.0f" % busy[ch],
                         "%.1f%%" % (u * 100) if u is not None else "-"])
        _table(lines, ["channel", "busy_cycles", "util"], rows)
        lines.append("")

    # -- Rx/Tx accounting --------------------------------------------------------
    rx_offered = _pick(recs, "gauge", "sim.rx.offered")
    if rx_offered:
        drops = {(_slabel(r, "cause")): r["value"]
                 for r in _pick(recs, "gauge", "sim.rx.dropped")}
        tx_pkts = _pick(recs, "gauge", "sim.tx.packets")
        tx_bytes = _pick(recs, "gauge", "sim.tx.bytes")
        leaks = {(_slabel(r, "engine"), _slabel(r, "kind")): r["value"]
                 for r in _pick(recs, "gauge", "sim.leaks")}
        lines.append("Rx/Tx:")
        lines.append("  rx offered=%d  dropped[freelist_empty]=%d  "
                     "dropped[ring_full]=%d"
                     % (rx_offered[0]["value"],
                        drops.get("freelist_empty", 0),
                        drops.get("ring_full", 0)))
        if tx_pkts:
            lines.append("  tx packets=%d  bytes=%d"
                         % (tx_pkts[0]["value"],
                            tx_bytes[0]["value"] if tx_bytes else 0))
        if leaks:
            lines.append("  recycle leaks: "
                         + "  ".join("%s.%s=%d" % (e, k, v)
                                     for (e, k), v in sorted(leaks.items())))
        lines.append("")

    # -- per-packet latency (PacketTracer summary) -------------------------------
    lat = {_slabel(r, "stat"): r["value"]
           for r in _pick(recs, "gauge", "sim.pkt.latency_cycles")}
    if lat:
        lines.append("Packet latency (Rx arrival -> Tx, ME cycles):")
        lines.append("  n=%d  p50=%g  p95=%g  p99=%g  mean=%g  "
                     "min=%g  max=%g"
                     % (lat.get("count", 0), lat.get("p50", 0),
                        lat.get("p95", 0), lat.get("p99", 0),
                        lat.get("mean", 0), lat.get("min", 0),
                        lat.get("max", 0)))
        traced = _pick(recs, "gauge", "sim.pkt.traced")
        untraced = _pick(recs, "gauge", "sim.pkt.untraced")
        if traced:
            lines.append("  traced packets=%d  untraced=%d"
                         % (traced[0]["value"],
                            untraced[0]["value"] if untraced else 0))
        pkt_drops = {_slabel(r, "cause"): r["value"]
                     for r in _pick(recs, "gauge", "sim.pkt.drops")}
        if pkt_drops:
            lines.append("  drops: " + "  ".join(
                "%s=%d" % kv for kv in sorted(pkt_drops.items())))
        lines.append("")

    # -- anything else (loader layout, run summary gauges, ...) ------------------
    known_prefixes = ("compile.", "opt.", "sim.ring", "sim.me",
                      "sim.mem.", "sim.rx.", "sim.tx.", "sim.leaks",
                      "sim.pkt.", "profile.line_instrs")
    other = [r for r in recs
             if not r["name"].startswith(known_prefixes)
             and r["type"] in ("counter", "gauge", "timer")]
    if other:
        lines.append("Other:")
        rows = []
        for r in sorted(other, key=lambda r: r["name"]):
            labels = {k: v for k, v in (r.get("labels") or {}).items()
                      if k in STRUCTURAL_LABELS}
            name = r["name"]
            if labels:
                name += "{%s}" % ",".join(
                    "%s=%s" % kv for kv in sorted(labels.items()))
            if r["type"] == "timer":
                val = "%.1f ms / %d calls" % (r["total_s"] * 1e3, r["count"])
            else:
                val = "%g" % r["value"]
            rows.append([name, val])
        _table(lines, ["metric", "value"], rows)
        lines.append("")


def _scope_json(recs: List[dict]) -> dict:
    """The same data the rendered tables show, as one JSON-ready dict."""
    stage_key = _stage_order(recs)
    out: dict = {}

    timers = _pick(recs, "timer", "compile.stage")
    if timers:
        out["compile_stages"] = {
            _slabel(r, "stage"): {"calls": r["count"],
                                  "ms": round(r["total_s"] * 1e3, 3)}
            for r in timers
        }
    instrs = _gauge_by(recs, "compile.ir.instrs", "stage")
    if instrs:
        fns = _gauge_by(recs, "compile.ir.functions", "stage")
        blocks = _gauge_by(recs, "compile.ir.blocks", "stage")
        out["ir"] = {
            stage: {"functions": fns.get(stage, 0),
                    "blocks": blocks.get(stage, 0),
                    "instrs": instrs[stage]}
            for stage in sorted(instrs, key=stage_key)
        }
    opt = [r for r in recs if r["name"].startswith("opt.")
           and r["type"] in ("counter", "gauge")]
    if opt:
        counters = {}
        for r in opt:
            name = r["name"]
            extra = _slabel(r, "passname")
            if extra:
                name += "{%s}" % extra
            counters[name] = r["value"]
        out["opt"] = counters
    hot = _pick(recs, "counter", "profile.line_instrs")
    if hot:
        hot = sorted(hot, key=lambda r: (-r["value"], _slabel(r, "src")))
        out["hot_lines"] = [
            {"src": _slabel(r, "src"), "instrs": r["value"]} for r in hot
        ]
    caps = _gauge_by(recs, "sim.ring.capacity", "ring")
    if caps:
        fields = ["depth", "max_depth", "puts", "gets", "drops",
                  "empty_gets"]
        per = {f: _gauge_by(recs, "sim.ring.%s" % f, "ring") for f in fields}
        out["rings"] = {
            ring: dict({"capacity": caps[ring]},
                       **{f: per[f].get(ring, 0) for f in fields})
            for ring in sorted(caps)
        }
    util = _gauge_by(recs, "sim.me.utilization", "me")
    if util:
        instrs_g = _gauge_by(recs, "sim.me.executed_instrs", "me")
        out["mes"] = {
            me: {"utilization": util[me],
                 "executed_instrs": instrs_g.get(me, 0)}
            for me in sorted(util, key=lambda m: int(m))
        }
    busy = _gauge_by(recs, "sim.mem.busy_cycles", "channel")
    if busy:
        mutil = _gauge_by(recs, "sim.mem.utilization", "channel")
        out["mem_channels"] = {
            ch: {"busy_cycles": busy[ch], "utilization": mutil.get(ch)}
            for ch in sorted(busy)
        }
    rx_offered = _pick(recs, "gauge", "sim.rx.offered")
    if rx_offered:
        drops = {_slabel(r, "cause"): r["value"]
                 for r in _pick(recs, "gauge", "sim.rx.dropped")}
        tx_pkts = _pick(recs, "gauge", "sim.tx.packets")
        tx_bytes = _pick(recs, "gauge", "sim.tx.bytes")
        out["rx_tx"] = {
            "rx_offered": rx_offered[0]["value"],
            "rx_dropped": drops,
            "tx_packets": tx_pkts[0]["value"] if tx_pkts else 0,
            "tx_bytes": tx_bytes[0]["value"] if tx_bytes else 0,
        }
    lat = {_slabel(r, "stat"): r["value"]
           for r in _pick(recs, "gauge", "sim.pkt.latency_cycles")}
    if lat:
        out["latency_cycles"] = lat
    return out


def render_json(records: List[dict],
                only: Optional[Dict[str, str]] = None) -> dict:
    """Machine-readable counterpart of :func:`render`."""
    records = split_runs(records)
    scopes: "OrderedDict[Tuple, List[dict]]" = OrderedDict()
    for rec in records:
        if only:
            labels = rec.get("labels") or {}
            if any(str(labels.get(k)) != v for k, v in only.items()):
                continue
        scopes.setdefault(_scope_key(rec), []).append(rec)
    return {
        "kind": "metrics_report",
        "scopes": [
            {"labels": dict(key), "sections": _scope_json(scopes[key])}
            for key in sorted(scopes)
        ],
    }


def render(records: List[dict],
           only: Optional[Dict[str, str]] = None) -> str:
    records = split_runs(records)
    scopes: "OrderedDict[Tuple, List[dict]]" = OrderedDict()
    for rec in records:
        if only:
            labels = rec.get("labels") or {}
            if any(str(labels.get(k)) != v for k, v in only.items()):
                continue
        scopes.setdefault(_scope_key(rec), []).append(rec)

    lines: List[str] = []
    for key in sorted(scopes):
        header = " ".join("%s=%s" % kv for kv in key) or "(unlabelled)"
        lines.append("=" * 72)
        lines.append(header)
        lines.append("=" * 72)
        _render_scope(scopes[key], lines)
    if not lines:
        lines.append("(no matching records)")
    return "\n".join(lines)


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
        summary_bits.append("swc: %d cached, %d rejected, %d loads "
                            "rewritten" % (len(sw["cached"]),
                                           len(sw["rejected"]),
                                           sw["rewritten_loads"]))
    for bit in summary_bits:
        lines.append("  " + bit)
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
    if not decisions:
        lines.append("  (none -- was the report written with "
                     "REPRO_OBS_LEDGER=1 or python -m repro.obs.ledger?)")
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "waterfall":
        return waterfall_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "timeline":
        return timeline_main(argv[1:])
    if argv and argv[0] == "bottleneck":
        return bottleneck_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a metrics JSONL dump as text.")
    ap.add_argument("path", nargs="?",
                    default=os.environ.get("REPRO_OBS_JSONL",
                                           "benchmarks/results/metrics.jsonl"),
                    help="metrics JSONL file (default: %(default)s)")
    ap.add_argument("--only", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="restrict to records whose label KEY equals VALUE "
                         "(repeatable), e.g. --only app=l3switch")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as machine-readable JSON instead "
                         "of rendered tables")
    args = ap.parse_args(argv)
    only = {}
    for item in args.only:
        if "=" not in item:
            ap.error("--only expects KEY=VALUE, got %r" % item)
        k, _, v = item.partition("=")
        only[k] = v
    if not os.path.exists(args.path):
        print("error: no metrics file at %s (run a benchmark with "
              "REPRO_OBS=1, or pass metrics_jsonl= to run_on_simulator)"
              % args.path, file=sys.stderr)
        return 1
    try:
        records = load_records(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print("error: cannot read metrics from %s: %s" % (args.path, exc),
              file=sys.stderr)
        return 1
    if not records:
        print("error: metrics file %s is empty (nothing was recorded -- "
              "was the registry enabled?)" % args.path, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(render_json(records, only or None),
                         indent=2, sort_keys=True))
    else:
        print(render(records, only or None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
