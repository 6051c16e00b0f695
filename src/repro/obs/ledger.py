"""Compilation decision ledger: explainable optimization provenance.

Every optimization site in the compiler emits a structured
:class:`Decision` -- what pass looked at what subject, what it decided,
why, and the numeric evidence behind the choice (PAC group sizes, SWC
Equation-2 inputs, aggregation merge costs, register-allocator spills,
control-store budget fits...). The ledger answers "*why* did the
Figure 13 curve move" where the BENCH files only answer "*that* it
moved".

There is one compile mode: every compile collects its decisions
(:func:`collecting`) into ``result.decisions``, and recording is **pure
observation** -- it never feeds back into compilation (a compile whose
records go nowhere is bit-identical, proven in ``tests/test_ledger.py``).

Artifacts:

* :func:`compile_report` / :func:`write_compile_report` render a
  :class:`~repro.compiler.CompileResult` (which carries the decisions
  made while compiling it) into a deterministic, diffable
  ``compile_report.json``.
* ``python -m repro.obs.ledger --app l3switch --level SWC -o
  compile_report.json`` compiles an app and writes the report.
* ``python -m repro.obs.report explain compile_report.json`` renders a
  human-readable view; ``python -m repro.obs.diff A B`` compares two
  reports (or two ``BENCH_*.json`` runs) and gates regressions.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Report schema version (bump when the JSON layout changes shape).
REPORT_VERSION = 1


def loc_str(loc) -> Optional[str]:
    """Render a Baker :class:`~repro.baker.source.SourceLocation` as a
    stable ``file:line`` string (column dropped: it adds diff noise
    without adding provenance)."""
    if loc is None:
        return None
    return "%s:%d" % (loc.filename, loc.line)


def _norm(value):
    """Normalize one evidence value for deterministic JSON output."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    return value


@dataclass
class Decision:
    """One recorded optimization decision."""

    seq: int
    pass_name: str  # "pac", "soar", "swc", "aggregation", "regalloc", ...
    subject: str  # what was decided about (global, function, site, ...)
    verdict: str  # "accepted", "rejected", "merged", "spilled", ...
    reason: str = ""
    evidence: Dict[str, object] = field(default_factory=dict)
    loc: Optional[str] = None  # "file:line" of the driving source

    def to_record(self) -> Dict[str, object]:
        rec: Dict[str, object] = {
            "seq": self.seq,
            "pass": self.pass_name,
            "subject": self.subject,
            "verdict": self.verdict,
        }
        if self.reason:
            rec["reason"] = self.reason
        if self.evidence:
            rec["evidence"] = dict(self.evidence)
        if self.loc is not None:
            rec["loc"] = self.loc
        return rec


#: Where :func:`record` appends: the list of the innermost
#: :func:`collecting` block of this thread or task, or None.
_sink: ContextVar[Optional[List[Decision]]] = ContextVar("_sink", default=None)


@contextmanager
def collecting(into: List[Decision]) -> Iterator[List[Decision]]:
    """Append every :func:`record` made inside the block to ``into``
    (the compiler collects each compile into its ``result.decisions``;
    an inner block takes the records until it exits)."""
    token = _sink.set(into)
    try:
        yield into
    finally:
        _sink.reset(token)


def record(pass_name: str, subject: str, verdict: str, reason: str = "",
           loc: Optional[str] = None, **evidence) -> None:
    """One decision, numbered within its collection; made outside any
    :func:`collecting` block (a pass run on its own) it goes nowhere."""
    sink = _sink.get()
    if sink is None:
        return
    ev = {k: _norm(v) for k, v in sorted(evidence.items()) if v is not None}
    sink.append(Decision(len(sink), pass_name, subject, verdict, reason, ev,
                         loc))


def decision_counts(decisions: List[Decision]) -> Dict[str, Dict[str, int]]:
    """{pass: {verdict: count}} roll-up of a decision list."""
    counts: Dict[str, Dict[str, int]] = {}
    for d in decisions:
        counts.setdefault(d.pass_name, {}).setdefault(d.verdict, 0)
        counts[d.pass_name][d.verdict] += 1
    return counts


# -- compile report --------------------------------------------------------------


def ir_counts(mod) -> Tuple[int, int, int]:
    """(functions, blocks, instructions) for an IR module."""
    n_blocks = 0
    n_instrs = 0
    for fn in mod.functions.values():
        n_blocks += len(fn.blocks)
        for bb in fn.blocks:
            n_instrs += len(bb.instrs)
    return len(mod.functions), n_blocks, n_instrs


def _opt_section(result) -> Dict[str, object]:
    out: Dict[str, object] = {}
    pac = result.pac_result
    out["pac"] = None if pac is None else {
        "combined_loads": pac.combined_loads,
        "anchored_loads": pac.anchored_loads,
        "combined_stores": pac.combined_stores,
        "wide_loads": pac.wide_loads,
        "wide_stores": pac.wide_stores,
        "combined_global_loads": pac.combined_global_loads,
        "wide_global_loads": pac.wide_global_loads,
    }
    soar = result.soar_result
    out["soar"] = None if soar is None else {
        "resolved_accesses": soar.resolved_accesses,
        "total_accesses": soar.total_accesses,
        "resolution_rate": round(soar.resolution_rate, 6),
        "channel_values": {
            name: list(value)
            for name, value in sorted(soar.channel_values.items())
        },
    }
    phr = result.phr_result
    out["phr"] = None if phr is None else {
        "localized_meta_fields": sorted(phr.localized_meta_fields),
        "elided_encaps": phr.elided_encaps,
        "syncs_inserted": phr.syncs_inserted,
        "state_functions": phr.state_functions,
        "state_writebacks": phr.state_writebacks,
        "state_clean_sites": phr.state_clean_sites,
    }
    swc = result.swc_result
    out["swc"] = None if swc is None else {
        "resident": [
            {"name": r.name, "replica": r.replica, "words": r.words}
            for r in swc.resident
        ],
        "rejected": dict(sorted(swc.rejected.items())),
        "rewritten_loads": swc.rewritten_loads,
        "instrumented_stores": swc.instrumented_stores,
        "requested_check_period": swc.requested_check_period,
        "check_period": swc.check_period,
        "eq2_min_check_rate": swc.eq2_min_check_rate,
    }
    return out


def compile_report(result, app: Optional[str] = None) -> Dict[str, object]:
    """Deterministic, diffable JSON-ready view of one compilation:
    nothing in here depends on wall-clock time, object identity, or
    iteration order of unordered containers.
    """
    from dataclasses import asdict

    n_fns, n_blocks, n_instrs = ir_counts(result.mod)
    plan = result.plan
    aggregates = []
    for agg in sorted(plan.me_aggregates + plan.xscale_aggregates,
                      key=lambda a: a.name):
        aggregates.append({
            "name": agg.name,
            "target": agg.target,
            "ppfs": sorted(agg.ppfs),
            "me_count": agg.me_count,
            "cost": round(agg.cost, 4),
            "code_size_estimate": agg.code_size,
        })
    images = {}
    for name, image in sorted(result.images.items()):
        layout = image.stack_layout
        images[name] = {
            "code_size": image.code_size,
            "n_insns": len(image.insns),
            "functions": list(image.functions),
            "lm_stack_words": layout.lm_words_used if layout else 0,
            "sram_stack_words": layout.sram_words_used if layout else 0,
        }
    report: Dict[str, object] = {
        "kind": "compile_report",
        "version": REPORT_VERSION,
        "level": result.opts.name,
        "options": asdict(result.opts),
        "ir": {"functions": n_fns, "blocks": n_blocks, "instrs": n_instrs},
        # IR size after each mid-end stage, and the Baker source lines
        # the functional profiler spent its instructions on.
        "ir_stages": [dict(rec) for rec in result.ir_stages],
        "hot_lines": [{"src": src, "instrs": count}
                      for src, count in result.profile.hot_lines(32)],
        "plan": {
            "throughput_pps": round(plan.throughput_pps, 3),
            "aggregates": aggregates,
            "internal_channels": sorted(plan.internal_channels),
        },
        "fast_functions": sorted(result.fast_functions),
        "opt": _opt_section(result),
        "images": images,
        "decisions": [d.to_record() for d in result.decisions],
        "decision_counts": decision_counts(result.decisions),
    }
    if app is not None:
        report["app"] = app
    return report


def write_compile_report(result, path: str,
                         app: Optional[str] = None) -> str:
    """Write :func:`compile_report` as stable-keyed, indented JSON."""
    report = compile_report(result, app=app)
    d = os.path.dirname(os.path.abspath(path))
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- CLI: compile an app and write its report ------------------------------------


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.ledger",
        description="Compile a bundled app and write a diffable "
                    "compile_report.json of its decisions.")
    ap.add_argument("--app", default="l3switch",
                    help="bundled application (default: %(default)s)")
    ap.add_argument("--level", default="SWC",
                    help="cumulative optimization level "
                         "(BASE/O1/O2/PAC/SOAR/PHR/SWC; default: %(default)s)")
    ap.add_argument("-o", "--output", default="compile_report.json",
                    help="output path (default: %(default)s)")
    ap.add_argument("--packets", type=int, default=200,
                    help="profiling trace length (default: %(default)s)")
    ap.add_argument("--seed", type=int, default=5,
                    help="profiling trace seed (default: %(default)s)")
    args = ap.parse_args(argv)

    from repro.apps import APP_CLASSES, get_app
    from repro.compiler import compile_baker
    from repro.options import LEVEL_ORDER, options_for, parse_level

    # Fail fast, naming flag and value, before anything is compiled or
    # written (exit 2, like the sweep and serve CLIs).
    level = parse_level(args.level)
    if level is None:
        ap.error("unknown --level %r (choose from %s)"
                 % (args.level, "/".join(LEVEL_ORDER)))
    if args.app not in APP_CLASSES:
        ap.error("unknown --app %r (choose from %s)"
                 % (args.app, ", ".join(sorted(APP_CLASSES))))
    if args.packets < 1:
        # A report compiled from an empty profile explains nothing.
        ap.error("--packets must be >= 1, got %d" % args.packets)
    app = get_app(args.app)
    trace = app.make_trace(args.packets, seed=args.seed)
    result = compile_baker(app.source, options_for(level), trace)
    path = write_compile_report(result, args.output, app=args.app)
    print("%s: %d decisions across %d passes -> %s"
          % (args.app, len(result.decisions),
             len(decision_counts(result.decisions)), path))
    print("explain: python -m repro.obs.report explain %s" % path)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
