"""Access and packet accounting for the evaluation (Table 1 metrics)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cg.isa import CAT_APP, CAT_PACKET, SPACES

#: Every (space, category) an access is counted under, in slot order.
KEYS = tuple((space, cat) for space in SPACES for cat in (CAT_PACKET, CAT_APP))
#: (space, category) -> its slot in :attr:`Counters.n_accesses`.
SLOT = {key: i for i, key in enumerate(KEYS)}


class Counters:
    """Counts memory accesses by (space, category).

    The counts live in one slot list indexed by :data:`SLOT`, so an
    access resolved at decode time costs one list increment.
    ``accesses`` is a :class:`Counter` view holding the keys bumped so
    far. ``snapshot()``/``delta()`` support measuring only the
    steady-state window (after warm-up), which is how Table 1's
    per-packet numbers and the figures' forwarding rates are produced.
    """

    def __init__(self):
        self.n_accesses = [0] * len(KEYS)

    @property
    def accesses(self) -> Counter:
        return Counter({key: n for key, n in zip(KEYS, self.n_accesses)
                        if n})

    def snapshot(self) -> Dict:
        return {"accesses": self.accesses}

    @staticmethod
    def delta(after: Dict, before: Dict) -> Dict:
        return {"accesses": after["accesses"] - before["accesses"]}


@dataclass
class AccessProfile:
    """Per-packet dynamic memory accesses, in Table 1's columns."""

    pkt_scratch: float = 0.0
    pkt_sram: float = 0.0
    pkt_dram: float = 0.0
    app_scratch: float = 0.0
    app_sram: float = 0.0

    @property
    def total(self) -> float:
        return (self.pkt_scratch + self.pkt_sram + self.pkt_dram
                + self.app_scratch + self.app_sram)

    @staticmethod
    def from_counters(delta: Dict, packets: int) -> "AccessProfile":
        if packets <= 0:
            return AccessProfile()
        acc = delta["accesses"]
        return AccessProfile(
            pkt_scratch=acc[("scratch", "pkt")] / packets,
            pkt_sram=acc[("sram", "pkt")] / packets,
            pkt_dram=acc[("dram", "pkt")] / packets,
            app_scratch=acc[("scratch", "app")] / packets,
            app_sram=acc[("sram", "app")] / packets,
        )

    def row(self) -> Tuple[float, float, float, float, float, float]:
        return (self.pkt_scratch, self.pkt_sram, self.pkt_dram,
                self.app_scratch, self.app_sram, self.total)
