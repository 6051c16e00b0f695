"""Compare two compile reports or two benchmark runs; gate regressions.

Usage::

    python -m repro.obs.diff old_compile_report.json new_compile_report.json
    python -m repro.obs.diff old_BENCH_fig13.json new_BENCH_fig13.json \
        [--tolerance 0.05]

The file kind is read from the ``kind`` field its writer put there
(:data:`KNOWN_KINDS`). Each kind is flattened to cells, ``{cell:
{metric: value}}`` (:data:`FLATTENERS`), and one walker
(:func:`diff_cells`) compares the old cells with the new ones: it prints
every metric that moved and applies the rule :data:`GATES` declares for
it. The policy, whole:

* A metric without a row in :data:`GATES` is printed and never gates.
* A cell, or a gated metric, that the old file had and the new one
  lacks is always a regression -- a gate that cannot see a cell must not
  pass it. Only ``opt.<pass>`` cells come and go freely: two levels run
  different passes.
* Bench kinds always gate (exit :data:`EXIT_REGRESSION`); compile
  reports list their regressions but exit 2 only under ``--gate``.

A file whose ``kind`` is unknown, or whose body does not have the shape
its kind declares, is an error at the same exit code, never a clean
empty diff or a traceback. Two identical files always diff clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fnmatch import fnmatchcase
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
    problem = _mismatch(data, _SHAPES[data["kind"]], "")
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
_TYPE_NAMES = {_NUM: "number", str: "string", dict: "object", object: "value"}

#: Per kind, the fields the flatteners and renderers dereference and the
#: type each must have: a dict is an object (the key ``str`` stands for
#: every key not named), ``[T]`` a list of T. Fields are read through
#: ``.get``, so an absent one is fine, as is a null where an object or
#: list is expected; a wrong *type* is not.
_SHAPES = {
    "compile_report": {
        "ir": {str: _NUM}, "plan": {"throughput_pps": _NUM,
                                    "aggregates": [dict]},
        "images": {str: dict.fromkeys(
            ("code_size", "n_insns", "lm_stack_words", "sram_stack_words"),
            _NUM)},
        "opt": {str: {str: object}, "pac": {str: _NUM},
                "soar": {"resolution_rate": _NUM, "resolved_accesses": _NUM,
                         "total_accesses": _NUM},
                "phr": {"localized_meta_fields": [str], "elided_encaps": _NUM,
                        "syncs_inserted": _NUM, "state_functions": _NUM,
                        "state_writebacks": _NUM},
                "swc": {"resident": [dict], "rejected": {str: object},
                        "rewritten_loads": _NUM}},
        "decisions": [dict], "decision_counts": {str: {str: _NUM}}},
    "bench": {"app": str, "rates": {str: [_NUM]},
              "mem_accesses": {str: {str: _NUM}}, "me_counts": [_NUM]},
    "bench_churn": {"summary": {
        "mean_rate_gbps": _NUM, "updates_applied": _NUM,
        "stale_cycles_max": _NUM, "latency": {"p99": _NUM}}},
    "bench_occupancy": {"cells": {str: {
        "app": str, "level": str, "n_mes": _NUM, "rate_gbps": _NUM,
        "shares": {str: _NUM}, "verdict": {"text": str}}}},
}

#: Every file format this tool knows how to diff.
KNOWN_KINDS = tuple(_SHAPES)


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


# -- file -> cells ----------------------------------------------------------------------

Cells = Dict[str, Dict[str, object]]


def _flat(obj: Optional[dict], prefix: str = "") -> Dict[str, object]:
    """A JSON object as ``{dotted.path: scalar}``; a list counts as its
    length (``swc.resident``), a null is absent."""
    out: Dict[str, object] = {}
    for key, v in (obj or {}).items():
        if isinstance(v, dict):
            out.update(_flat(v, prefix + key + "."))
        elif v is not None:
            out[prefix + key] = len(v) if isinstance(v, list) else v
    return out


def _bench_cells(bench: dict) -> Cells:
    """``LEVEL@n`` per rate point (``load_file`` has checked that every
    row has one entry per ME count), ``LEVEL table1`` per Table-1 row."""
    cells: Cells = {}
    me_counts = bench.get("me_counts") or []
    for level, row in (bench.get("rates") or {}).items():
        for n, rate in zip(me_counts, row or []):
            cells["%s@%s" % (level, n)] = {"rate_gbps": rate}
    for level, row in (bench.get("mem_accesses") or {}).items():
        cells["%s table1" % level] = _flat(row)
    return cells


def _churn_cells(bench: dict) -> Cells:
    return {"summary": _flat(bench.get("summary"))}


def _occupancy_cells(bench: dict) -> Cells:
    """One cell per rate point: the *explanation* of a rate is part of
    the benchmark, so the bottleneck verdict (kind and saturated
    channel) sits beside the rate and the attribution shares."""
    cells: Cells = {}
    for key, cell in (bench.get("cells") or {}).items():
        verdict = cell.get("verdict") or {}
        cells[key] = dict(
            _flat(cell.get("shares"), "share."),
            rate_gbps=cell.get("rate_gbps"),
            verdict="%s(%s)" % (verdict.get("kind"), verdict.get("channel")))
    return cells


def _compile_cells(report: dict) -> Cells:
    cells: Cells = {
        "decisions": _flat(report.get("decision_counts")),
        "summary": _flat({"ir": report.get("ir"), "throughput_pps": (
            report.get("plan") or {}).get("throughput_pps")})}
    for name, image in (report.get("images") or {}).items():
        cells["image %s" % name] = _flat(image)
    for name, section in (report.get("opt") or {}).items():
        if section:  # null: the pass did not run at this level
            cells["opt.%s" % name] = _flat(section)
    return cells


FLATTENERS = {"compile_report": _compile_cells, "bench": _bench_cells,
              "bench_churn": _churn_cells, "bench_occupancy": _occupancy_cells}


# -- the gate table ---------------------------------------------------------------------


def _drop(a, b, tol):
    if a > 0 and b < a * (1 - tol):
        return "dropped %s -> %s (-%.1f%%, tolerance %.0f%%)" % (
            a, b, 100 * (a - b) / a, 100 * tol)


def _grow(a, b, tol):
    if a > 0 and b > a * (1 + tol):
        return "grew %s -> %s (+%.1f%%, tolerance %.0f%%)" % (
            a, b, 100 * (b - a) / a, 100 * tol)
    if a <= 0 < b:  # no fraction applies: appearing at all is the change
        return "grew from a zero baseline to %s" % b


def _shift(a, b, tol):
    if abs(b - a) > tol:
        return "shifted %s -> %s (|delta| %.4f > tolerance %.4f)" % (
            a, b, abs(b - a), tol)


def _same(a, b, tol):
    if a != b:
        return "changed %s -> %s" % (a, b)


def _not_lower(a, b, tol):
    if b < a - 1e-9:
        return "dropped %s -> %s" % (a, b)


def _not_to_zero(a, b, tol):
    if a > 0 and b == 0:
        return "fell to zero (was %s)" % a


#: Rule name -> ``rule(old, new, tolerance)``: the regression text, or
#: None. ``tolerance`` is fractional for ``drop``/``grow`` and absolute
#: for ``shift`` (a share is already a fraction of total cycles).
RULES = {"drop": _drop, "grow": _grow, "shift": _shift, "same": _same,
         "not_lower": _not_lower, "not_to_zero": _not_to_zero}

#: What CI gates: ``(kind, cell, metric, rule)``, cell and metric as
#: ``fnmatch`` patterns. Everything else a flattener emits is printed
#: when it moves and never gates.
GATES = (
    ("bench", "*@*", "rate_gbps", "drop"),
    ("bench_churn", "summary", "mean_rate_gbps", "drop"),
    ("bench_churn", "summary", "latency.p99", "grow"),
    ("bench_churn", "summary", "stale_cycles_max", "grow"),
    # The churn schedule is part of the benchmark.
    ("bench_churn", "summary", "updates_applied", "same"),
    ("bench_occupancy", "*", "verdict", "same"),
    ("bench_occupancy", "*", "rate_gbps", "drop"),
    ("bench_occupancy", "*", "share.*", "shift"),
    # Every edge of an image's size is a layout change CI must see: it
    # appears (an absent baseline is a zero baseline under ``grow``),
    # vanishes, grows, or collapses to nothing.
    ("compile_report", "image *", "code_size", "grow"),
    ("compile_report", "image *", "code_size", "not_to_zero"),
    ("compile_report", "opt.soar", "resolution_rate", "not_lower"),
) + tuple(
    ("compile_report", "opt." + name, metric, "not_to_zero")
    for name, metrics in (
        ("pac", ("combined_loads", "combined_stores", "anchored_loads",
                 "combined_global_loads", "wide_global_loads")),
        ("phr", ("elided_encaps", "localized_meta_fields",
                 "state_functions")),
        ("swc", ("resident", "rewritten_loads")))
    for metric in metrics)


def diff_cells(kind: str, old: Cells, new: Cells,
               tolerance: float) -> Tuple[List[str], List[str]]:
    """(report_lines, regression_lines) for two flattened files of one
    kind. Regressions are always listed; whether they are fatal is
    :func:`run_diff`'s call."""
    lines: List[str] = []
    regressions: List[str] = []
    for cell in sorted(set(old) | set(new)):
        a_cell, b_cell = old.get(cell), new.get(cell)
        if b_cell is None:
            lines.append("  %s: vanished" % cell)
            if not cell.startswith("opt."):
                regressions.append("%s: vanished from the new file" % cell)
            continue
        if a_cell is None:
            lines.append("  %s: only in new file" % cell)
            a_cell = {}
        for metric in sorted(set(a_cell) | set(b_cell)):
            a, b = a_cell.get(metric), b_cell.get(metric)
            if a != b:
                lines.append("  %s: %s %s -> %s" % (
                    cell, metric, "-" if a is None else a,
                    "-" if b is None else b))
            for rule in (r for k, c, m, r in GATES if k == kind
                         and fnmatchcase(cell, c) and fnmatchcase(metric, m)):
                if b is None:
                    why = "vanished from the new file"
                elif a is None:
                    # New to the file: nothing to compare against, except
                    # that nothing may *appear* past a growth gate.
                    why = _grow(0, b, tolerance) if rule == "grow" else None
                else:
                    why = RULES[rule](a, b, tolerance)
                if why:
                    regressions.append("%s: %s %s" % (cell, metric, why))
    if not lines:
        lines.append("  cells identical")
    return lines, regressions


# -- CLI ------------------------------------------------------------------------------


def _label(data: dict) -> str:
    return " ".join(str(data[k]) for k in ("figure", "app", "level")
                    if data.get(k) is not None) or "?"


def run_diff(old_path: str, new_path: str, tolerance: float = 0.05,
             gate: Optional[bool] = None) -> Tuple[str, int]:
    """(rendered_text, exit_code). ``gate=None`` means auto: bench diffs
    always gate; compile diffs gate only when asked."""
    old, new = load_file(old_path), load_file(new_path)
    if old["kind"] != new["kind"]:
        raise SystemExit2("cannot diff %s against %s" % (old["kind"],
                                                         new["kind"]))
    kind = old["kind"]
    flatten = FLATTENERS[kind]
    lines, regressions = diff_cells(kind, flatten(old), flatten(new),
                                    tolerance)
    lines.insert(0, "%s diff: %s -> %s" % (kind, _label(old), _label(new)))
    if regressions:
        lines.append("REGRESSIONS:")
        lines.extend("  " + r for r in regressions)
    else:
        lines.append("no regressions beyond tolerance")
    fatal = bool(regressions) and (
        bool(gate) if kind == "compile_report" else gate is not False)
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
