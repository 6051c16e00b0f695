"""Report layer for ``repro.tune``: the diffable ``BENCH_tune.json``
payload and the human summary.

The payload is **byte-reproducible**: every field is a simulation
output, a configuration identity, or recorded evidence -- never a
wall-clock time, a cache-hit flag, or a path. Repeated runs over the
same space therefore write identical bytes (CI double-runs ``cmp``),
and ``python -m repro.obs.diff`` gates regressions via the
``bench_tune`` kind.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.sweep.benchio import merge_bench_json
from repro.sweep.cache import repo_root
from repro.tune.driver import Cell, TuneOutcome


def _cell_record(cell: Cell) -> Dict[str, object]:
    overrides = {}
    for name, value in cell.config.overrides:
        overrides[name] = list(value) if isinstance(value, tuple) else value
    return {
        "config": cell.config.label(),
        "level": cell.config.level,
        "overrides": overrides,
        "target_gbps": cell.config.target_gbps,
        "n_mes": cell.n_mes,
        "gbps": round(cell.gbps, 3),
    }


def app_payload(outcome: TuneOutcome) -> Dict[str, object]:
    """One app's entry under the payload's ``apps`` key."""
    best = None
    if outcome.best is not None:
        best = _cell_record(outcome.best)
        best["baseline"] = outcome.baseline
        best["improvement_pct"] = outcome.improvement_pct()
    return {
        "space": outcome.space.describe(),
        "trials": [_cell_record(c) for c in outcome.cells],
        "pruned_regions": [p.to_record() for p in outcome.pruned],
        "best": best,
    }


def tune_payload(outcomes: List[TuneOutcome]) -> Dict[str, object]:
    return {"apps": {o.app: app_payload(o) for o in outcomes}}


def write_bench(outcomes: List[TuneOutcome],
                out_dir: Optional[str] = None) -> str:
    path = os.path.join(out_dir or repo_root(), "BENCH_tune.json")
    return merge_bench_json(path, "tune", tune_payload(outcomes),
                            kind="bench_tune")


def render_text(outcome: TuneOutcome) -> str:
    """The CLI's per-app summary block."""
    lines = ["%s: %d cells measured, %d regions pruned"
             % (outcome.app, len(outcome.cells), len(outcome.pruned))]
    for p in outcome.pruned:
        lines.append("  pruned [%s] %s (%d cells): %s"
                     % (p.rule, p.region, p.trials_skipped,
                        p.provenance.get("why", "")))
    best = outcome.best
    if best is None:
        lines.append("  no configuration measured")
        return "\n".join(lines)
    lines.append("  best: %s @%d MEs = %.3f Gbps"
                 % (best.config.label(), best.n_mes, best.gbps))
    if outcome.baseline:
        delta = outcome.improvement_pct()
        lines.append("  default %s @%d MEs = %.3f Gbps (%s) -> %+0.2f%%"
                     % (outcome.baseline["level"], outcome.baseline["n_mes"],
                        outcome.baseline["gbps"], outcome.baseline["source"],
                        delta if delta is not None else 0.0))
    else:
        lines.append("  no committed baseline to compare against")
    return "\n".join(lines)
