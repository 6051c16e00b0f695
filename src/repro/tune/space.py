"""Search space for the ``repro.tune`` autotuner.

A *trial configuration* is one point in CompilerOptions space: a named
optimization level plus keyword overrides (SWC check period, SWC
candidate exclusions) and a compile-time aggregation ``target_gbps``.
Each configuration is evaluated at every ME count of the space, so one
configuration owns a *family* of grid cells.

The space is generated in two evidence-driven generations:

* **Generation 0** enumerates the declared axes: every level, every
  check period (for levels with SWC enabled), every ``target_gbps``.
* **Generation 1** refines the best generation-0 SWC configuration
  using the compiler's own selection evidence: one *exclude variant*
  per global the SWC pass considered. Excluding a *cached* global is a
  real trial (it frees CAM capacity for the remaining candidates);
  excluding a *rejected* global provably cannot change the compile, so
  the pruner kills that region before it costs a single simulation,
  citing the rejection decision as provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.options import options_for

#: Default axes: the two strongest paper levels, check periods around
#: the stock 16, the stock aggregation target, ME counts 1-4 (the
#: region where the figure curves still climb).
DEFAULT_LEVELS = ("PHR", "SWC")
DEFAULT_CHECK_PERIODS = (4, 16, 64)
DEFAULT_TARGETS = (2.5,)
DEFAULT_ME_COUNTS = (1, 2, 3, 4)


@dataclass(frozen=True)
class TrialConfig:
    """One point in CompilerOptions space (identity, not results)."""

    level: str
    #: Sorted (field, value) pairs applied over the level's options --
    #: the same shape :class:`repro.sweep.orchestrator.SweepJob` carries.
    overrides: Tuple[Tuple[str, object], ...] = ()
    target_gbps: float = 2.5

    def overrides_or_none(self) -> Optional[Tuple]:
        return self.overrides or None

    def override_dict(self) -> Dict[str, object]:
        return dict(self.overrides)

    def label(self) -> str:
        """Stable human/report key, e.g. ``SWC[swc_check_period=64]``."""
        parts = []
        for name, value in self.overrides:
            if name == "swc_exclude":
                value = "+".join(value)
            parts.append("%s=%s" % (name, value))
        out = self.level
        if parts:
            out += "[%s]" % ",".join(parts)
        if self.target_gbps != 2.5:
            out += "@%.3gGbps" % self.target_gbps
        return out

    def sort_key(self) -> Tuple:
        return (self.level, repr(self.overrides), self.target_gbps)


@dataclass(frozen=True)
class SearchSpace:
    """The declared axes of one app's tuning run."""

    app: str
    levels: Tuple[str, ...] = DEFAULT_LEVELS
    check_periods: Tuple[int, ...] = DEFAULT_CHECK_PERIODS
    target_gbps: Tuple[float, ...] = DEFAULT_TARGETS
    me_counts: Tuple[int, ...] = DEFAULT_ME_COUNTS

    def describe(self) -> Dict[str, object]:
        return {
            "levels": list(self.levels),
            "check_periods": list(self.check_periods),
            "target_gbps": list(self.target_gbps),
            "me_counts": list(self.me_counts),
        }


def base_trials(space: SearchSpace) -> List[TrialConfig]:
    """Generation 0: the declared axes, in deterministic order."""
    trials: List[TrialConfig] = []
    for target in space.target_gbps:
        for level in space.levels:
            if options_for(level).swc:
                for period in space.check_periods:
                    trials.append(TrialConfig(
                        level,
                        (("swc_check_period", period),),
                        target))
            else:
                trials.append(TrialConfig(level, (), target))
    trials.sort(key=TrialConfig.sort_key)
    return trials


def exclude_trials(base: TrialConfig,
                   swc_summary: Dict) -> List[TrialConfig]:
    """Generation 1: one exclude variant of ``base`` per global the SWC
    pass considered (cached or rejected), per its selection evidence
    (``JobResult.swc``). The pruner decides which variants are no-ops.
    """
    names = sorted(set(swc_summary.get("cached", []))
                   | set(swc_summary.get("rejected", {})))
    variants: List[TrialConfig] = []
    for name in names:
        overrides = dict(base.overrides)
        overrides["swc_exclude"] = (name,)
        variants.append(TrialConfig(
            base.level,
            tuple(sorted(overrides.items())),
            base.target_gbps))
    return variants
