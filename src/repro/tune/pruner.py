"""Evidence pruning for the ``repro.tune`` search.

Every rule consumes *recorded* evidence -- SWC selection decisions
(``JobResult.swc``, the same facts the decision ledger records) or
occupancy-profiler verdicts -- and kills a search region before it
costs a compile or a simulation. Each kill is returned as a
:class:`PrunedRegion` carrying the provenance (which decision killed
it), which the report and ``BENCH_tune.json`` surface per trial.

Rules:

* **noop-exclude** -- an exclude variant whose every excluded global
  the SWC pass already *rejected* compiles to the identical artifact
  (exclusion only preempts selection, and selection already said no).
  Provenance: the rejection decision.
* **period-beyond-clamp** -- Equation-2 enforcement clamps any
  requested check period above ``floor(1 / eq2_min_check_rate)`` down
  to that bound, so all such periods compile identically: keep one,
  prune the rest. Provenance: the clamp decision fields.
* **memory-bound-mes** -- once a cycle-accurate cell is memory-bound
  on a *saturated* channel and adding the previous ME brought no rate
  gain, higher ME counts only deepen the queue: prune them.
  Provenance: the occupancy verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tune.space import TrialConfig

#: A channel this utilized is "saturated" for the memory-bound ME rule
#: (stricter than the profiler's 75% attribution threshold: rates can
#: still climb a little while the queue fills).
SATURATED_UTILIZATION = 0.95


@dataclass
class PrunedRegion:
    """One killed search region plus the evidence that killed it."""

    region: str  # human-readable subspace, e.g. "SWC[swc_exclude=x]"
    rule: str  # "noop-exclude" | "period-beyond-clamp" | "memory-bound-mes"
    trials_skipped: int  # grid cells never run
    provenance: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        return {"region": self.region, "rule": self.rule,
                "trials_skipped": self.trials_skipped,
                "provenance": dict(self.provenance)}


def prune_noop_excludes(
        trials: Sequence[TrialConfig], swc_summary: Dict, n_cells: int,
) -> Tuple[List[TrialConfig], List[PrunedRegion]]:
    """Split exclude variants into (worth running, provably no-ops).

    ``swc_summary`` is the parent configuration's selection evidence;
    ``n_cells`` is how many grid cells each configuration owns (the ME
    counts a kept trial would be measured at).
    """
    rejected: Dict[str, str] = dict(swc_summary.get("rejected", {}))
    kept: List[TrialConfig] = []
    pruned: List[PrunedRegion] = []
    for trial in trials:
        excl = trial.override_dict().get("swc_exclude", ())
        if excl and all(name in rejected for name in excl):
            pruned.append(PrunedRegion(
                region=trial.label(),
                rule="noop-exclude",
                trials_skipped=n_cells,
                provenance={
                    "pass": "swc",
                    "verdict": "rejected",
                    "decisions": {name: rejected[name] for name in excl},
                    "why": "excluding an already-rejected global cannot "
                           "change the compile",
                }))
        else:
            kept.append(trial)
    return kept, pruned


def prune_clamped_periods(
        trials: Sequence[TrialConfig], swc_summary: Dict, n_cells: int,
) -> Tuple[List[TrialConfig], List[PrunedRegion]]:
    """Collapse check periods beyond the Equation-2 clamp bound.

    ``swc_summary`` must come from a configuration in the same family
    (same level/excludes/target: candidate selection, hence the bound,
    does not depend on the period). When its evidence shows a positive
    ``eq2_min_check_rate``, every requested period above
    ``floor(1/rate)`` compiles to the same clamped artifact: the lowest
    such period is kept as the family representative, the rest pruned.
    """
    rate = float(swc_summary.get("eq2_min_check_rate") or 0.0)
    if rate <= 0.0:
        return list(trials), []
    bound = max(1, int(1.0 / rate))
    over = sorted(
        (t for t in trials
         if int(t.override_dict().get("swc_check_period", 0)) > bound),
        key=lambda t: int(t.override_dict()["swc_check_period"]))
    if len(over) <= 1:
        return list(trials), []
    keep_one, redundant = over[0], over[1:]
    dropped = set(id(t) for t in redundant)
    kept = [t for t in trials if id(t) not in dropped]
    pruned = [PrunedRegion(
        region=t.label(),
        rule="period-beyond-clamp",
        trials_skipped=n_cells,
        provenance={
            "pass": "swc",
            "subject": "check_period",
            "verdict": "clamped",
            "eq2_min_check_rate": rate,
            "max_effective_period": bound,
            "represented_by": keep_one.label(),
            "why": "every period above the Equation-2 bound clamps to "
                   "the same effective period",
        }) for t in redundant]
    return kept, pruned


def saturated_memory_bound(occupancy: Optional[Dict]) -> Optional[Dict]:
    """The binding-channel facts when an occupancy cell is memory-bound
    on a saturated channel, else None."""
    if not occupancy:
        return None
    verdict = occupancy.get("verdict", {})
    if verdict.get("kind") != "memory-bound":
        return None
    channel = verdict.get("channel")
    stats = occupancy.get("channels", {}).get(channel, {})
    util = float(stats.get("utilization", 0.0))
    if util < SATURATED_UTILIZATION:
        return None
    return {"channel": channel, "utilization": util,
            "verdict": verdict.get("text", "memory-bound")}


def prune_memory_bound_mes(
        config: TrialConfig,
        me_counts: Sequence[int],
        rates_by_me: Dict[int, float],
        occupancy_by_me: Dict[int, Optional[Dict]],
) -> Tuple[List[int], List[PrunedRegion]]:
    """ME counts still worth measuring for ``config``, given the
    cycle-accurate cells measured so far (ascending waves).

    A count is pruned when some lower count is memory-bound on a
    saturated channel *and* its rate did not improve on the count
    below it -- more engines then only lengthen the memory queue.
    """
    counts = sorted(me_counts)
    for i, n in enumerate(counts):
        if n not in rates_by_me:
            continue
        facts = saturated_memory_bound(occupancy_by_me.get(n))
        if facts is None:
            continue
        prev = counts[i - 1] if i > 0 else None
        if prev is not None and prev in rates_by_me \
                and rates_by_me[n] > rates_by_me[prev]:
            continue  # still scaling despite the saturated channel
        above = [m for m in counts if m > n]
        if not above:
            return counts, []
        kept = [m for m in counts if m <= n]
        pruned = [PrunedRegion(
            region="%s @%d..%d MEs" % (config.label(), above[0], above[-1]),
            rule="memory-bound-mes",
            trials_skipped=len(above),
            provenance=dict(facts, n_mes=n,
                            rate_gbps=rates_by_me[n],
                            prev_rate_gbps=(rates_by_me.get(prev)
                                            if prev is not None else None),
                            why="saturated memory channel with no rate "
                                "gain over the previous ME count"),
        )]
        return kept, pruned
    return counts, []
