"""``serve_churn``: compiled apps as services under control-plane churn."""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List

from repro.serve.churn import ChurnSpec
from repro.serve.harness import ServeConfig

from .harness import (
    APPS,
    DEFAULT_SEED,
    UNTRACED,
    Outcome,
    Workload,
    geomean,
    whole_rounds,
)
from .pieces import serve_one

CHURN_KIND = {"l3switch": "route-flap", "firewall": "fw-toggle",
              "mpls": "mpls-relabel"}
WINDOWS = 60
UPDATES = 6
#: Traffic and churn draw from the repo's canonical seed whatever --seed
#: says, so this workload is the same experiment at every seed: the serve
#: traffic model's Zipf head makes capacity a function of which flow
#: happens to be hottest, and across seeds drop_share spreads ~80 % and
#: stale_tx ~45 % of their medians (README, "Seeds").
SERVE_SEED = DEFAULT_SEED
#: The app served twice more, observers on and off, for
#: obs.observer_overhead_ratio.
OBSERVED_APP = "l3switch"

#: What a rerun of one service (another round, the traced composition)
#: must reproduce exactly.
_SIMULATED = ("mean_rate_gbps", "latency", "drops", "rx_offered",
              "tx_packets", "updates_applied", "stale_tx_total", "windows")


class ServeChurn(Workload):
    name = "serve_churn"
    why = ("the same ixp core used differently: Zipf/IMIX/burst traffic, "
           "a cycle budget, XScale stores to live SWC-cached tables, and "
           "all three observer families attached; firewall is overloaded "
           "(drops), the other two are not (latency)")

    def __init__(self, seed: int, clock) -> None:
        super().__init__(seed, clock)
        self.configs: List[ServeConfig] = []
        self.first: Dict[str, dict] = {}

    def setup(self, tr) -> None:
        self.configs = [
            ServeConfig(app=app, level="SWC", n_mes=3, windows=WINDOWS,
                        offered_gbps=2.5, profile=True,
                        churn=[ChurnSpec(CHURN_KIND[app], UPDATES, 8, 8)],
                        traffic_seed=SERVE_SEED, churn_seed=SERVE_SEED)
            for app in APPS]

    def _serve(self, cfg: ServeConfig, tr, out: Outcome):
        """One service = ``cfg.windows`` operations: ``(summary, seconds)``,
        or None if they failed (the run raised, a window record is
        missing, an update was not applied, or it did not repeat)."""
        out.attempted += cfg.windows
        try:
            summary, seconds = serve_one(cfg, tr, cfg.app, self.clock)
        except Exception as exc:  # any service failure fails its windows
            out.fail(cfg.windows, "%s: service raised %r" % (cfg.app, exc))
            return None
        simulated = {key: summary[key] for key in _SIMULATED}
        why = None
        if summary["windows"] != cfg.windows:
            why = "%d of %d window records" % (summary["windows"],
                                               cfg.windows)
        elif summary["updates_applied"] != UPDATES:
            why = "%d of %d updates applied" % (summary["updates_applied"],
                                                UPDATES)
        elif self.first.setdefault(cfg.app, simulated) != simulated:
            why = "simulated result differs from the service's first run"
        if why is not None:
            out.fail(cfg.windows, "%s: %s" % (cfg.app, why))
            return None
        return summary, seconds

    def _round(self, tr, out: Outcome) -> float:
        timed = 0.0
        for cfg in self.configs:
            done = self._serve(cfg, tr, out)
            if done is not None:
                timed += done[1]
        return timed

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        walls = whole_rounds(seconds, lambda: self._round(UNTRACED, out))
        served = list(self.first.values())
        if not served:
            return out
        out.notes.append("%d services x %d rounds; latencies per app: %s; %s"
                         % (len(served), len(walls),
                            ", ".join("%d" % s["latency"]["count"]
                                      for s in served), self.clock.speed()))
        out.metrics = {
            "wall_s": statistics.median(walls),
            "fwd_gbps_geomean": geomean(
                [s["mean_rate_gbps"] for s in served]),
            "lat_cycles_p50": geomean([s["latency"]["p50"] for s in served]),
            "lat_cycles_p99": geomean([s["latency"]["p99"] for s in served]),
            "drop_share": (sum(s["drops"] for s in served)
                           / sum(s["rx_offered"] for s in served)),
            "stale_tx": float(sum(s["stale_tx_total"] for s in served)),
        }
        return out

    def run_traced(self, tr) -> Outcome:
        out = Outcome()
        out.metrics["wall_s"] = self._round(tr, out)
        return out

    def probes(self, tr, out: Outcome) -> None:
        # What the observers cost: one service with the stall profiler's
        # window source attached and without, both through run_service.
        cfg = next(c for c in self.configs if c.app == OBSERVED_APP)
        observed = self._serve(cfg, UNTRACED, out)
        bare = self._serve(dataclasses.replace(cfg, profile=False),
                           UNTRACED, out)
        if observed is not None and bare is not None:
            tr.count("obs.observer_overhead_ratio", observed[1] / bare[1])
