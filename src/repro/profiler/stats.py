"""Profile data collected by the functional profiler (paper section 4.1).

The aggregation pass consumes PPF execution costs and CC utilizations;
the SWC candidate selector consumes global-data access statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple


@dataclass
class GlobalStats:
    """Access statistics for one global variable."""

    loads: int = 0
    stores: int = 0


@dataclass
class ProfileData:
    """Whole-program profile over one trace."""

    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    # Per-PPF (qualified name):
    ppf_invocations: Counter = field(default_factory=Counter)
    ppf_instrs: Counter = field(default_factory=Counter)  # executed IR instrs
    # Per-channel (qualified name): number of puts.
    channel_puts: Counter = field(default_factory=Counter)
    # Per-global (qualified name):
    global_stats: Dict[str, GlobalStats] = field(default_factory=dict)
    # Per-function total invocation counts (incl. support funcs).
    func_invocations: Counter = field(default_factory=Counter)
    # Per-source-line interpreted IR instruction counts, keyed by
    # (filename, 1-based line): the hot-path attribution the compile
    # report renders as a top-N table.
    line_instrs: Counter = field(default_factory=Counter)

    def gstat(self, name: str) -> GlobalStats:
        if name not in self.global_stats:
            self.global_stats[name] = GlobalStats()
        return self.global_stats[name]

    # -- derived quantities used by aggregation --------------------------------

    def ppf_weight(self, ppf: str) -> float:
        """Total executed instructions attributed to the PPF, normalized
        per input packet -- the execution-frequency-weighted cost."""
        if self.packets_in == 0:
            return 0.0
        return self.ppf_instrs.get(ppf, 0) / self.packets_in

    def channel_utilization(self, channel: str) -> float:
        """Puts per input packet (the paper's CC utilization)."""
        if self.packets_in == 0:
            return 0.0
        return self.channel_puts.get(channel, 0) / self.packets_in

    def invocation_rate(self, ppf: str) -> float:
        """PPF invocations per input packet."""
        if self.packets_in == 0:
            return 0.0
        return self.ppf_invocations.get(ppf, 0) / self.packets_in

    def hot_lines(self, n: int = 10) -> "list[Tuple[str, int]]":
        """Top-``n`` Baker source lines by interpreted IR instruction
        count, as ("file:line", count) pairs (hottest first; equal counts
        in source order, so the ranking does not depend on the order in
        which the interpreter happened to charge the lines)."""
        ranked = sorted(self.line_instrs.items(),
                        key=lambda item: (-item[1], item[0]))
        return [("%s:%d" % key, count) for key, count in ranked[:n]]
