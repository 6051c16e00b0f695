"""Control-plane churn: scheduled live table mutations on a running chip.

A :class:`ChurnSpec` (parsed from the CLI's ``--churn`` syntax)
describes *when* updates happen, in window coordinates; the
deterministic mutation helpers in :mod:`repro.apps.tables` describe
*what* each update writes. :class:`ControlPlane` applies them on the
simulated XScale path: the store goes through ``chip.xscale.globals``,
the :class:`~repro.profiler.interpreter.GlobalMemory` compiled control
code uses, followed by what every writer owes a global SWC keeps
resident (§5.2, :func:`repro.opt.swc.publish_store`) -- so each ME keeps
serving its Local Memory copy until its own periodic check refreshes
it. That delayed-coherency window is what the serve harness measures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.tables import (
    TableMutation,
    firewall_rule_mutations,
    mpls_label_mutations,
    route_flap_mutations,
)
from repro.opt.swc import publish_store

#: churn kind -> the app whose tables it mutates.
CHURN_KINDS = {
    "route-flap": "l3switch",
    "fw-toggle": "firewall",
    "mpls-relabel": "mpls",
}


@dataclass
class ChurnSpec:
    """``kind:n=<count>,start=<window>,every=<windows>`` -- ``count``
    updates, the first in window ``start``, then one every ``every``
    windows (each applied mid-window)."""

    kind: str
    count: int = 4
    start: int = 4
    every: int = 4

    def to_string(self) -> str:
        return "%s:n=%d,start=%d,every=%d" % (self.kind, self.count,
                                              self.start, self.every)


def parse_churn_spec(text: str) -> ChurnSpec:
    kind, _, rest = text.partition(":")
    if kind not in CHURN_KINDS:
        raise ValueError("unknown churn kind %r (choose from %s)"
                         % (kind, ", ".join(sorted(CHURN_KINDS))))
    spec = ChurnSpec(kind)
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key == "n":
                spec.count = int(value)
            elif key == "start":
                spec.start = int(value)
            elif key == "every":
                spec.every = max(1, int(value))
            else:
                raise ValueError("unknown churn option %r in %r"
                                 % (key, text))
    if spec.count < 1 or spec.start < 0:
        raise ValueError("churn spec %r needs n >= 1 and start >= 0" % text)
    return spec


def build_mutations(app_name: str, app, spec: ChurnSpec,
                    seed: int) -> List[TableMutation]:
    """The spec's mutation sequence against this app's tables."""
    if CHURN_KINDS[spec.kind] != app_name:
        raise ValueError("churn kind %r mutates %s tables, not %s"
                         % (spec.kind, CHURN_KINDS[spec.kind], app_name))
    if spec.kind == "route-flap":
        return route_flap_mutations(app.routes, spec.count, seed=seed)
    if spec.kind == "fw-toggle":
        return firewall_rule_mutations(app.config, spec.count, seed=seed)
    return mpls_label_mutations(app.config, spec.count, seed=seed)


def schedule_times(spec: ChurnSpec, window_cycles: float,
                   count: int) -> List[float]:
    """Mid-window apply times for the first ``count`` updates."""
    return [(spec.start + j * spec.every + 0.5) * window_cycles
            for j in range(count)]


class ControlPlane:
    """Applies scheduled mutations to live chip memory, XScale-style."""

    def __init__(self, chip, layout, collector=None):
        self.chip = chip
        self.layout = layout
        self.collector = collector
        self.globals = chip.xscale.globals
        self.applied: List[Tuple[float, TableMutation]] = []
        if collector is not None:
            collector.add_source(self._update_totals)

    def _update_totals(self) -> Dict[str, int]:
        """Updates applied so far, per churn kind (a collector source)."""
        return Counter("updates{kind=%s}" % mut.kind
                       for _, mut in self.applied)

    def schedule(self, timed: List[Tuple[float, TableMutation]]) -> None:
        for t, mut in timed:
            self.chip.schedule(t, self._action(mut))

    def _action(self, mut: TableMutation):
        def apply_update():
            self.apply(mut)
            return None

        return apply_update

    def apply(self, mut: TableMutation) -> None:
        chip = self.chip
        current = self.globals.load(mut.target, mut.offset, mut.width)
        if current != mut.old_value:
            raise RuntimeError(
                "control-plane update %s expected %#x in memory, found %#x "
                "(table layout drift?)" % (mut.describe(), mut.old_value,
                                           current))
        self.globals.store(mut.target, mut.offset, mut.new_value, mut.width)
        swc_flagged = publish_store(self.globals, mut.target)
        self.applied.append((chip.now, mut))
        if self.collector is not None:
            self.collector.annotate(
                chip.now, "update", churn=mut.kind,
                target="%s[%d]" % (mut.target, mut.index),
                swc_flagged=swc_flagged)


# -- stale-traffic probes ---------------------------------------------------------

ETH_TYPE_MPLS = 0x8847


def _stale_tx_times(tx_records,
                    applied: List[Tuple[float, TableMutation]]
                    ) -> List[List[float]]:
    """Per update, the Tx times of the frames after it that still carry
    the value it retired."""
    out: List[List[float]] = []
    for t_apply, mut in applied:
        times: List[float] = []
        mac = mut.probe.get("stale_dst_mac")
        label = mut.probe.get("stale_mpls_label")
        if mac is not None:
            needle = mac.to_bytes(6, "big")
            times = [r.time for r in tx_records
                     if r.time > t_apply and r.payload[:6] == needle]
        elif label is not None:
            for r in tx_records:
                if r.time <= t_apply or len(r.payload) < 18:
                    continue
                if r.payload[12:14] != ETH_TYPE_MPLS.to_bytes(2, "big"):
                    continue
                if int.from_bytes(r.payload[14:18], "big") >> 12 == label:
                    times.append(r.time)
        out.append(times)
    return out


def stale_tx_counts(tx_records,
                    applied: List[Tuple[float, TableMutation]]
                    ) -> List[int]:
    """Per-update count of Tx frames that carry a *retired* value after
    the update was applied.

    ``route-flap`` retires a destination MAC, ``mpls-relabel`` retires
    an outgoing label; both are drawn from reserved ranges so a late
    match is provably stale data-plane state (the SWC coherency
    window). Updates without a stale probe (``fw-toggle``) count 0.
    """
    return [len(times) for times in _stale_tx_times(tx_records, applied)]


def stale_cycles(tx_records,
                 applied: List[Tuple[float, TableMutation]]) -> List[float]:
    """Per update, the cycles from the store to the last frame carrying
    the retired value (0 when none did). This is what §5.2 bounds --
    check period x packet time per ME, plus the latency of frames
    already in flight -- where the frame count of
    :func:`stale_tx_counts` also depends on how much traffic rides the
    updated entry."""
    return [round(max(times) - t_apply, 3) if times else 0.0
            for (t_apply, _), times in zip(
                applied, _stale_tx_times(tx_records, applied))]
