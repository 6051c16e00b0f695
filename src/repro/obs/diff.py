"""Compare two compile reports or two benchmark runs; gate regressions.

Usage::

    python -m repro.obs.diff old_compile_report.json new_compile_report.json
    python -m repro.obs.diff old_BENCH_fig13.json new_BENCH_fig13.json \
        [--tolerance 0.05]

The file kind is auto-detected from the ``kind`` field written by
:mod:`repro.obs.ledger` (``compile_report``), ``python -m repro.sweep``
(``bench``), the serve harness (``bench_churn``), and the sweep's
stall-attribution profiler (``bench_occupancy``). A file whose ``kind``
is none of those is an error (exit :data:`EXIT_REGRESSION`), never
silently treated as an empty diff -- a typo'd or future-format file
must fail CI loudly.

* **compile report vs compile report** -- prints decision-count deltas
  per pass/verdict plus summary deltas (IR size, image code size,
  estimated throughput, per-pass optimization wins). Exits 0 unless
  ``--gate`` is given, in which case it exits 2 when the new report
  *regresses*: an image's code size grows beyond ``--tolerance``, SOAR's
  resolution rate drops, or a previously nonzero optimization win
  (PAC combines, SWC acceptances, PHR elisions) falls to zero.
* **bench vs bench** -- compares forwarding rates level by level and ME
  count by ME count (cells keyed by each file's own ``me_counts``);
  exits 2 when any new rate drops more than ``--tolerance``
  (fractional) below the old rate, or when a level, a cell or a
  Table-1 row of the old file is absent from the new one. This is the
  CI perf-regression gate.
* **churn bench vs churn bench** (``python -m repro.serve`` output) --
  gates the serve harness: mean forwarding rate must not drop and
  overall p99 latency must not grow beyond ``--tolerance``, and the
  number of applied control-plane updates must not change.
* **occupancy bench vs occupancy bench** (``python -m repro.sweep
  --profile`` output) -- gates the stall-cycle attribution: a cell's
  bottleneck verdict (kind or saturated channel) must not change, no
  cell may vanish, rates must not drop beyond ``--tolerance``
  (fractional), and no attribution share may shift beyond
  ``--tolerance`` (absolute).

Two identical files always diff clean and exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Exit code for a gated regression (1 is reserved for usage/IO errors).
EXIT_REGRESSION = 2


class SystemExit2(Exception):
    """IO/usage error carrying a message (exit code 1)."""


class UnknownKindError(SystemExit2):
    """A file this tool cannot gate: its ``kind`` is not one it
    understands, or its body does not have the shape that kind declares.
    Fatal at :data:`EXIT_REGRESSION` (not 1): CI pipelines feed this tool
    files they *believe* are gateable, so a format mismatch must read as
    a failed gate, never as a clean empty diff (or a traceback)."""


def load_file(path: str, kind: Optional[str] = None) -> dict:
    """Read a compile report or bench file of a known kind (``kind``,
    when the caller renders only one) whose body has the shape that kind
    declares (:data:`_SHAPES`) -- the one place these files are
    validated, shared with ``python -m repro.obs.report``."""
    if not os.path.exists(path):
        raise SystemExit2("no such file: %s" % path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2("cannot read %s: %s" % (path, exc))
    if not isinstance(data, dict) or "kind" not in data:
        raise SystemExit2(
            "%s has no 'kind' field -- not a compile report or bench file"
            % path)
    if data["kind"] not in KNOWN_KINDS:
        raise UnknownKindError(
            "%s has unknown kind %r (known: %s)"
            % (path, data["kind"], ", ".join(KNOWN_KINDS)))
    if kind is not None and data["kind"] != kind:
        raise SystemExit2("%s is not a %s file (kind=%r)"
                          % (path, kind, data["kind"]))
    problem = _mismatch(data, _SHAPES.get(data["kind"], {}), "")
    if not problem and data["kind"] == "bench":
        # A rate row is one cell per ME count: a row of any other length
        # cannot be keyed, whichever of the two the writer got wrong.
        n = len(data.get("me_counts") or [])
        problem = next(
            ("'rates[%s]' has %d entries for %d me_counts"
             % (level, len(row or []), n)
             for level, row in (data.get("rates") or {}).items()
             if len(row or []) != n), None)
    if problem:
        raise UnknownKindError("%s is a malformed %s file: %s"
                               % (path, data["kind"], problem))
    return data


# -- body shape, checked by load_file ---------------------------------------------------

_NUM = (int, float)
_TYPE_NAMES = {_NUM: "number", str: "string", object: "value"}

#: Per bench kind, the fields the differs and renderers dereference and
#: the type each must have: a dict is an object (the key ``str`` stands
#: for every key not named), ``[T]`` a list of T. Fields are read through
#: ``.get``, so an absent one is fine, as is a null where an object or
#: list is expected; a wrong *type* is not.
_SHAPES = {
    "bench": {"app": str, "rates": {str: [_NUM]},
              "mem_accesses": {str: {str: _NUM}}, "me_counts": [_NUM]},
    "bench_churn": {"summary": {
        "mean_rate_gbps": _NUM, "updates_applied": _NUM,
        "latency": {"p99": _NUM}}},
    "bench_occupancy": {"cells": {str: {
        "app": str, "level": str, "n_mes": _NUM, "rate_gbps": _NUM,
        "shares": {str: _NUM}, "verdict": {"text": str}}}},
}


def _mismatch(value, shape, path: str) -> Optional[str]:
    """Names the first field at or under ``value`` that does not match
    ``shape``; None when all do."""
    if isinstance(shape, dict):
        if value is None:
            return None
        if not isinstance(value, dict):
            return "'%s' is not an object" % path
        for key, v in value.items():
            sub = shape.get(key, shape.get(str))
            problem = sub and _mismatch(
                v, sub, "%s[%s]" % (path, key) if path else key)
            if problem:
                return problem
        return None
    if isinstance(shape, list):
        ok = value is None or (isinstance(value, list) and all(
            isinstance(v, shape[0]) for v in value))
        what = "list of %ss" % _TYPE_NAMES[shape[0]]
    else:
        ok, what = isinstance(value, shape), _TYPE_NAMES[shape]
    return None if ok else "'%s' is not a %s" % (path, what)


# -- compile report vs compile report -------------------------------------------------


def _count_table(report: dict) -> Dict[Tuple[str, str], int]:
    out: Dict[Tuple[str, str], int] = {}
    for pass_name, verdicts in (report.get("decision_counts") or {}).items():
        for verdict, n in verdicts.items():
            out[(pass_name, verdict)] = n
    return out


def _opt_wins(report: dict) -> Dict[str, float]:
    """The per-pass 'how much did it optimize' scalars used for gating."""
    opt = report.get("opt") or {}
    wins: Dict[str, float] = {}
    pac = opt.get("pac")
    if pac:
        for key in ("combined_loads", "combined_stores", "anchored_loads",
                    "combined_global_loads", "wide_global_loads"):
            wins["pac." + key] = pac.get(key, 0)
    soar = opt.get("soar")
    if soar:
        wins["soar.resolution_rate"] = soar.get("resolution_rate", 0.0)
    phr = opt.get("phr")
    if phr:
        wins["phr.elided_encaps"] = phr.get("elided_encaps", 0)
        wins["phr.localized_meta_fields"] = len(
            phr.get("localized_meta_fields", []))
        wins["phr.state_functions"] = phr.get("state_functions", 0)
    swc = opt.get("swc")
    if swc:
        wins["swc.cached"] = len(swc.get("cached", []))
        wins["swc.rewritten_loads"] = swc.get("rewritten_loads", 0)
    return wins


def diff_compile(old: dict, new: dict, tolerance: float,
                 gate: bool) -> Tuple[List[str], List[str]]:
    """(report_lines, regression_lines). Regressions are only *fatal*
    when gating, but they are always listed."""
    lines: List[str] = []
    regressions: List[str] = []

    lines.append("compile report diff: %s -> %s" % (
        old.get("level"), new.get("level")))

    # Decision-count deltas.
    oc, nc = _count_table(old), _count_table(new)
    keys = sorted(set(oc) | set(nc))
    changed = [(k, oc.get(k, 0), nc.get(k, 0)) for k in keys
               if oc.get(k, 0) != nc.get(k, 0)]
    if changed:
        lines.append("decision deltas:")
        for (pass_name, verdict), a, b in changed:
            lines.append("  %-14s %-18s %4d -> %-4d (%+d)" % (
                pass_name, verdict, a, b, b - a))
    else:
        lines.append("decision counts: identical "
                     "(%d decisions)" % len(new.get("decisions") or []))

    # Summary deltas.
    o_ir, n_ir = old.get("ir") or {}, new.get("ir") or {}
    if o_ir.get("instrs") != n_ir.get("instrs"):
        lines.append("ir instrs: %s -> %s" % (o_ir.get("instrs"),
                                              n_ir.get("instrs")))
    o_plan, n_plan = old.get("plan") or {}, new.get("plan") or {}
    o_tp = o_plan.get("throughput_pps", 0.0)
    n_tp = n_plan.get("throughput_pps", 0.0)
    if o_tp != n_tp:
        lines.append("estimated throughput: %.0f -> %.0f pps (%+.1f%%)" % (
            o_tp, n_tp, 100 * (n_tp - o_tp) / o_tp if o_tp else 0.0))

    o_imgs, n_imgs = old.get("images") or {}, new.get("images") or {}
    for name in sorted(set(o_imgs) | set(n_imgs)):
        a = (o_imgs.get(name) or {}).get("code_size")
        b = (n_imgs.get(name) or {}).get("code_size")
        if a is None and b is None:
            continue
        if a != b:
            lines.append("image %s code size: %s -> %s words" % (name, a, b))
        # Every edge of the lattice is gated: an image that appears,
        # vanishes, or grows from a zero/absent baseline is a layout
        # change CI must see, not a hole in the tolerance check.
        if a is None:
            regressions.append(
                "image %s newly appears (%s words)" % (name, b))
        elif b is None:
            regressions.append(
                "image %s vanished (was %s words)" % (name, a))
        elif not a and b:
            regressions.append(
                "image %s code size grew from zero baseline "
                "(0 -> %d words)" % (name, b))
        elif a and not b:
            regressions.append(
                "image %s code size fell to zero (was %d words)" % (name, a))
        elif b > a * (1 + tolerance):
            regressions.append(
                "image %s code size grew %.1f%% (%d -> %d words, "
                "tolerance %.0f%%)" % (name, 100 * (b - a) / a, a, b,
                                       100 * tolerance))

    ow, nw = _opt_wins(old), _opt_wins(new)
    for key in sorted(set(ow) | set(nw)):
        a, b = ow.get(key), nw.get(key)
        if a != b:
            lines.append("%s: %s -> %s" % (key, a, b))
        if a is None or b is None:
            # A pass ran in only one of the two compiles (different
            # levels): a delta, not a regression.
            continue
        if key == "soar.resolution_rate":
            if b < a - 1e-9:
                regressions.append(
                    "SOAR resolution rate dropped %.3f -> %.3f" % (a, b))
        elif a > 0 and b == 0:
            regressions.append("%s fell to zero (was %g)" % (key, a))

    return lines, regressions


# -- bench vs bench -------------------------------------------------------------------


def _gate_rate_drop(regressions: List[str], what: str, a: float, b: float,
                    tolerance: float, digits: int = 3,
                    unit: str = "") -> None:
    """Record "<what> dropped a -> b" when ``b`` fell more than
    ``tolerance`` (fractional) below a positive ``a``."""
    if a > 0 and b < a * (1 - tolerance):
        regressions.append(
            "%s dropped %.*f -> %.*f%s (-%.1f%%, tolerance %.0f%%)"
            % (what, digits, a, digits, b, unit, 100 * (a - b) / a,
               100 * tolerance))


def _gate_cycles_growth(regressions: List[str], what: str, a: float,
                        b: float, tolerance: float) -> None:
    """Record "<what> grew a -> b" when ``b`` rose more than
    ``tolerance`` (fractional) above ``a`` -- or appeared at all from a
    zero baseline, where no fraction applies (a service that served no
    stale frame must not start to, ungated)."""
    if a > 0 and b > a * (1 + tolerance):
        regressions.append(
            "%s grew %g -> %g cycles (+%.1f%%, tolerance %.0f%%)"
            % (what, a, b, 100 * (b - a) / a, 100 * tolerance))
    elif a <= 0 < b:
        regressions.append(
            "%s grew from a zero baseline to %g cycles" % (what, b))


def _rate_cells(bench: dict) -> Dict[str, Dict[int, float]]:
    """level -> {n_mes: rate}; ``load_file`` has checked that every row
    has one entry per ME count."""
    me_counts = bench.get("me_counts") or []
    return {level: dict(zip(me_counts, row or []))
            for level, row in (bench.get("rates") or {}).items()}


def diff_bench(old: dict, new: dict,
               tolerance: float) -> Tuple[List[str], List[str]]:
    """Gate BENCH_fig13/14/15.json: no rate may drop beyond
    ``tolerance``, and nothing the old file measured -- a level, one
    (level, ME count) cell, a Table-1 row -- may be missing from the new
    one (a gate that cannot see a cell must not pass it)."""
    lines: List[str] = []
    regressions: List[str] = []
    lines.append("bench diff: %s (%s)" % (new.get("figure", "?"),
                                          new.get("app", "?")))
    o_rates, n_rates = _rate_cells(old), _rate_cells(new)
    for level in sorted(set(o_rates) | set(n_rates)):
        a_row, b_row = o_rates.get(level), n_rates.get(level)
        if a_row is None:
            lines.append("  %s: only in new file" % level)
            continue
        if b_row is None:
            lines.append("  %s: vanished" % level)
            regressions.append("level %s vanished from the new file" % level)
            continue
        if a_row == b_row:
            continue
        lines.append("  %s: %s -> %s" % (level, old["rates"][level],
                                         new["rates"][level]))
        for mes, a in sorted(a_row.items()):
            if mes not in b_row:
                regressions.append("%s at %s MEs vanished from the new file"
                                   % (level, mes))
                continue
            _gate_rate_drop(regressions,
                            "%s at %s MEs: rate" % (level, mes), a,
                            b_row[mes], tolerance)
    if len(lines) == 1:
        lines.append("  rates identical")

    o_mem = old.get("mem_accesses") or {}
    n_mem = new.get("mem_accesses") or {}
    for level in sorted(set(o_mem) | set(n_mem)):
        if o_mem.get(level) != n_mem.get(level):
            lines.append("  mem_accesses[%s]: %s -> %s" % (
                level, o_mem.get(level), n_mem.get(level)))
        if level not in n_mem:
            regressions.append("mem_accesses[%s] vanished from the new file"
                               % level)
    return lines, regressions


# -- churn bench vs churn bench -------------------------------------------------------


def diff_churn(old: dict, new: dict,
               tolerance: float) -> Tuple[List[str], List[str]]:
    """Gate the serve harness's BENCH_churn.json: mean forwarding rate
    must not drop, overall p99 and the longest staleness after an update
    must not grow, and the run must keep applying (and observing the
    effect of) the same number of updates."""
    lines: List[str] = []
    regressions: List[str] = []
    lines.append("churn bench diff: %s/%s (%s windows)" % (
        new.get("app", "?"), new.get("level", "?"), new.get("windows", "?")))

    o_sum, n_sum = old.get("summary") or {}, new.get("summary") or {}
    a = o_sum.get("mean_rate_gbps", 0.0)
    b = n_sum.get("mean_rate_gbps", 0.0)
    if a != b:
        lines.append("  mean rate: %.4f -> %.4f Gbps" % (a, b))
    _gate_rate_drop(regressions, "mean rate", a, b, tolerance,
                    digits=4, unit=" Gbps")

    o_lat = o_sum.get("latency") or {}
    n_lat = n_sum.get("latency") or {}
    for what, a, b in (
            ("p99 latency", o_lat.get("p99", 0.0), n_lat.get("p99", 0.0)),
            ("longest staleness", o_sum.get("stale_cycles_max", 0.0),
             n_sum.get("stale_cycles_max", 0.0))):
        if a != b:
            lines.append("  %s: %g -> %g cycles" % (what, a, b))
        _gate_cycles_growth(regressions, what, a, b, tolerance)

    a = o_sum.get("updates_applied", 0)
    b = n_sum.get("updates_applied", 0)
    if a != b:
        lines.append("  updates applied: %d -> %d" % (a, b))
        regressions.append("updates applied changed %d -> %d (the churn "
                           "schedule is part of the benchmark)" % (a, b))
    for key in ("drops", "stale_tx_total"):
        if o_sum.get(key) != n_sum.get(key):
            lines.append("  %s: %s -> %s" % (key, o_sum.get(key),
                                             n_sum.get(key)))
    if len(lines) == 1:
        lines.append("  summaries identical")
    return lines, regressions


# -- occupancy bench vs occupancy bench -----------------------------------------------


def diff_occupancy(old: dict, new: dict,
                   tolerance: float) -> Tuple[List[str], List[str]]:
    """Gate the sweep's BENCH_occupancy.json (stall-cycle attribution):
    the *explanation* of each rate point is part of the benchmark, so a
    changed bottleneck verdict is a regression just like a dropped
    rate. ``tolerance`` is fractional for rates and absolute for
    attribution shares (a share is already a fraction of total
    cycles)."""
    lines: List[str] = []
    regressions: List[str] = []
    o_cells = old.get("cells") or {}
    n_cells = new.get("cells") or {}
    lines.append("occupancy bench diff: %d -> %d cells"
                 % (len(o_cells), len(n_cells)))

    changed = False
    for key in sorted(set(o_cells) | set(n_cells)):
        a, b = o_cells.get(key), n_cells.get(key)
        if a is None:
            lines.append("  %s: only in new file" % key)
            changed = True
            continue
        if b is None:
            lines.append("  %s: vanished" % key)
            regressions.append("cell %s vanished from the new file" % key)
            changed = True
            continue
        if a == b:
            continue
        changed = True

        ov, nv = a.get("verdict") or {}, b.get("verdict") or {}
        if (ov.get("kind"), ov.get("channel")) != (nv.get("kind"),
                                                   nv.get("channel")):
            lines.append("  %s: verdict %s/%s -> %s/%s" % (
                key, ov.get("kind"), ov.get("channel"),
                nv.get("kind"), nv.get("channel")))
            regressions.append(
                "%s: bottleneck verdict changed %s(%s) -> %s(%s)"
                % (key, ov.get("kind"), ov.get("channel"),
                   nv.get("kind"), nv.get("channel")))

        ra, rb = a.get("rate_gbps", 0.0), b.get("rate_gbps", 0.0)
        if ra != rb:
            lines.append("  %s: rate %.3f -> %.3f Gbps" % (key, ra, rb))
        _gate_rate_drop(regressions, "%s: rate" % key, ra, rb, tolerance,
                        unit=" Gbps")

        o_sh, n_sh = a.get("shares") or {}, b.get("shares") or {}
        for cat in sorted(set(o_sh) | set(n_sh)):
            sa, sb = o_sh.get(cat, 0.0), n_sh.get(cat, 0.0)
            if sa == sb:
                continue
            lines.append("  %s: share[%s] %.4f -> %.4f" % (key, cat,
                                                           sa, sb))
            if abs(sb - sa) > tolerance:
                regressions.append(
                    "%s: %s share shifted %.4f -> %.4f (|delta| %.4f > "
                    "tolerance %.4f)" % (key, cat, sa, sb,
                                         abs(sb - sa), tolerance))
    if not changed:
        lines.append("  cells identical")
    return lines, regressions


# -- CLI ------------------------------------------------------------------------------

#: Bench kind -> ``differ(old, new, tolerance) -> (lines, regressions)``.
BENCH_DIFFERS = {"bench": diff_bench, "bench_churn": diff_churn,
                 "bench_occupancy": diff_occupancy}

#: Every file format this tool knows how to diff.
KNOWN_KINDS = ("compile_report",) + tuple(BENCH_DIFFERS)


def run_diff(old_path: str, new_path: str, tolerance: float = 0.05,
             gate: Optional[bool] = None) -> Tuple[str, int]:
    """(rendered_text, exit_code). ``gate=None`` means auto: bench diffs
    always gate; compile diffs gate only when asked."""
    old, new = load_file(old_path), load_file(new_path)
    if old["kind"] != new["kind"]:
        raise SystemExit2("cannot diff %s against %s" % (old["kind"],
                                                         new["kind"]))
    kind = old["kind"]
    if kind == "compile_report":
        lines, regressions = diff_compile(old, new, tolerance,
                                          gate=bool(gate))
        fatal = bool(gate) and bool(regressions)
    else:  # load_file admits only compile reports and BENCH_DIFFERS kinds
        lines, regressions = BENCH_DIFFERS[kind](old, new, tolerance)
        fatal = bool(regressions) and gate is not False
    if regressions:
        lines.append("REGRESSIONS:")
        lines.extend("  " + r for r in regressions)
    else:
        lines.append("no regressions beyond tolerance")
    return "\n".join(lines), (EXIT_REGRESSION if fatal else 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff two compile reports or two BENCH_*.json runs; "
                    "exit %d on regressions beyond tolerance."
                    % EXIT_REGRESSION)
    ap.add_argument("old", help="baseline file")
    ap.add_argument("new", help="candidate file")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional drop before a rate/code-size "
                         "change counts as a regression (default: "
                         "%(default)s)")
    ap.add_argument("--gate", action="store_true",
                    help="for compile-report diffs: exit %d on regressions "
                         "(bench diffs always gate)" % EXIT_REGRESSION)
    args = ap.parse_args(argv)
    try:
        text, code = run_diff(args.old, args.new, args.tolerance,
                              gate=True if args.gate else None)
    except UnknownKindError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_REGRESSION
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
