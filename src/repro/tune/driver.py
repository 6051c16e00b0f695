"""Deterministic search driver for ``repro.tune``.

Every rate the tuner sees is one cycle-accurate measurement at the
figures' windows (``run_sweep(..., profile=True)``); the protocol is
three steps with evidence pruning between them:

1. **seed** -- compile one representative SWC configuration per
   ``target_gbps`` (lowest check period; the compile cache makes this
   free when the grid reuses it). Its selection evidence drives the
   *period-beyond-clamp* rule before anything is simulated.
2. **measure generation 0** -- every surviving configuration, in
   ascending-ME waves with the stall profiler attached; the
   *memory-bound-mes* rule prunes the remaining waves of a
   configuration as verdicts arrive.
3. **refine** -- exclude variants of the best-measured SWC
   configuration, *noop-exclude*-pruned against its own selection
   evidence, then measured the same way (generation 1).

The winner is the best measured cell. Everything the driver emits is
deterministic: rates are simulation outputs, trial order is sort-key
order, pruning depends only on recorded evidence -- so ``--jobs 1`` and
``--jobs N`` produce byte-identical ``BENCH_tune.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.options import options_for
from repro.sweep.cache import CompileCache, repo_root
from repro.sweep.orchestrator import (
    FIG_BY_APP,
    RATE_MEASURE,
    RATE_WARMUP,
    TRACE_PACKETS,
    TRACE_SEED,
    SweepJob,
    WorkerConfig,
    run_sweep,
    swc_summary,
)
from repro.tune import pruner
from repro.tune.space import (
    SearchSpace,
    TrialConfig,
    base_trials,
    exclude_trials,
)


@dataclass
class Cell:
    """One measured (configuration, ME count) grid cell."""

    config: TrialConfig
    n_mes: int
    gbps: float

    def key(self) -> Tuple:
        return self.config.sort_key() + (self.n_mes,)


@dataclass
class TuneOutcome:
    """Everything one app's tuning run learned."""

    app: str
    space: SearchSpace
    cells: List[Cell] = field(default_factory=list)
    pruned: List[pruner.PrunedRegion] = field(default_factory=list)
    best: Optional[Cell] = None
    baseline: Optional[Dict] = None  # committed figure rate it must beat

    def improvement_pct(self) -> Optional[float]:
        if (self.best is None or not self.baseline
                or not self.baseline.get("gbps")):
            return None
        base = float(self.baseline["gbps"])
        return round(100.0 * (self.best.gbps - base) / base, 2)


def committed_baseline(app: str, n_mes: int,
                       out_dir: Optional[str] = None) -> Optional[Dict]:
    """The committed figure file's default-SWC rate at ``n_mes`` -- the
    number a tuned configuration has to beat."""
    figure = FIG_BY_APP.get(app, app)
    path = os.path.join(out_dir or repo_root(), "BENCH_%s.json" % figure)
    try:
        with open(path) as fh:
            data = json.load(fh)
        counts = list(data["me_counts"])
        rate = float(data["rates"]["SWC"][counts.index(n_mes)])
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None
    return {"level": "SWC", "n_mes": n_mes, "gbps": rate,
            "source": os.path.basename(path)}


def run_tune(space: SearchSpace, n_jobs: int = 1,
             cache: Optional[CompileCache] = None,
             cache_dir: Optional[str] = None,
             use_cache: Optional[bool] = None,
             trace_packets: int = TRACE_PACKETS,
             trace_seed: int = TRACE_SEED,
             warmup: int = RATE_WARMUP,
             measure: int = RATE_MEASURE,
             baseline_dir: Optional[str] = None,
             progress=None) -> TuneOutcome:
    """Search ``space`` and return the learned outcome (no files
    written; the CLI/report layer owns output)."""
    say = progress or (lambda msg: None)
    if cache is None:
        cache = CompileCache(cache_dir, enabled=use_cache)
    outcome = TuneOutcome(app=space.app, space=space)
    me_counts = sorted(set(space.me_counts))
    n_cells = len(me_counts)

    # -- step 1: seed compiles + period pruning ----------------------------------
    gen0 = base_trials(space)
    swc_level = next((lv for lv in space.levels if options_for(lv).swc), None)
    if swc_level is not None and space.check_periods:
        for target in sorted(set(space.target_gbps)):
            result, _trace, _hit = cache.get_or_compile(
                space.app, swc_level, trace_packets, trace_seed,
                overrides=(("swc_check_period", min(space.check_periods)),),
                target_gbps=target)
            summary = swc_summary(result)
            if summary is not None:
                family = [t for t in gen0
                          if t.level == swc_level and t.target_gbps == target]
                others = [t for t in gen0 if t not in family]
                kept, pruned = pruner.prune_clamped_periods(
                    family, summary, n_cells)
                outcome.pruned.extend(pruned)
                gen0 = sorted(others + kept, key=TrialConfig.sort_key)
    say("seed: %d generation-0 configurations (%d pruned)"
        % (len(gen0), len(outcome.pruned)))

    cfg = WorkerConfig(
        cache_dir=cache.cache_dir, use_cache=cache.enabled,
        trace_packets=trace_packets, trace_seed=trace_seed,
        obs=obs_metrics.get_registry().enabled,
        capture_spans=obs_trace.spans_armed(),
        ledger=obs_ledger.is_enabled(), profile=True)
    rates: Dict[Tuple, Dict[int, float]] = {}
    swc_of: Dict[Tuple, Optional[Dict]] = {}

    def measure_generation(configs: List[TrialConfig]) -> None:
        """Ascending-ME waves; each wave's occupancy verdicts prune the
        later waves of its configuration."""
        by_identity = {(c.level, c.overrides_or_none(), c.target_gbps): c
                       for c in configs}
        alive = {c.sort_key(): list(me_counts) for c in configs}
        occup: Dict[Tuple, Dict[int, Optional[Dict]]] = {}
        for n in me_counts:
            wave = [c for c in configs if n in alive[c.sort_key()]]
            if not wave:
                continue
            jobs = [SweepJob(space.app, c.level, "rate", n, warmup, measure,
                             overrides=c.overrides_or_none(),
                             target_gbps=c.target_gbps) for c in wave]
            for jr in run_sweep(jobs, n_procs=n_jobs, cache=cache,
                                cfg=cfg).jobs:
                c = by_identity[(jr.job.level, jr.job.overrides,
                                 jr.job.target_gbps)]
                rates.setdefault(c.sort_key(), {})[n] = jr.rate_gbps
                occup.setdefault(c.sort_key(), {})[n] = jr.occupancy
                swc_of[c.sort_key()] = jr.swc
                outcome.cells.append(Cell(c, n, jr.rate_gbps))
            for c in wave:
                alive[c.sort_key()], pruned = pruner.prune_memory_bound_mes(
                    c, alive[c.sort_key()], rates[c.sort_key()],
                    occup[c.sort_key()])
                outcome.pruned.extend(pruned)

    # -- step 2: measure generation 0 --------------------------------------------
    say("measure: %d configurations x MEs %s"
        % (len(gen0), ",".join(map(str, me_counts))))
    measure_generation(gen0)

    # -- step 3: refine the best SWC configuration with exclude variants ---------
    swc_gen0 = [c for c in gen0 if options_for(c.level).swc]
    if swc_gen0:
        best_swc = min(swc_gen0, key=lambda c: (
            -max(rates[c.sort_key()].values()), c.sort_key()))
        summary = swc_of[best_swc.sort_key()]
        if summary:
            gen1, pruned = pruner.prune_noop_excludes(
                exclude_trials(best_swc, summary), summary, n_cells)
            outcome.pruned.extend(pruned)
            say("refine: %s -> %d exclude variants (%d pruned as no-ops)"
                % (best_swc.label(), len(gen1), len(pruned)))
            measure_generation(gen1)

    # -- select the winner -------------------------------------------------------
    if outcome.cells:
        outcome.best = min(
            outcome.cells,
            key=lambda c: (-c.gbps, c.n_mes, c.config.sort_key()))
        outcome.baseline = committed_baseline(space.app, outcome.best.n_mes,
                                              baseline_dir)
    outcome.cells.sort(key=Cell.key)
    return outcome
