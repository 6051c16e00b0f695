"""Simulator-side observability: periodic time-series sampling plus
end-of-run summary recording.

The sampler is *pulled* by :meth:`repro.ixp.chip.IXP2400.run` between
event dispatches (DESIGN.md 7.3), so enabled and disabled runs stay
bit-identical (tested by ``tests/test_obs.py``).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

#: Default sampling period, in ME cycles (~33 us of simulated time).
SAMPLE_INTERVAL_CYCLES = 20_000.0


class SimSampler:
    """Samples ring occupancy and per-ME utilization over simulated time.

    Attach with ``chip.sampler = SimSampler(chip, registry)``; the chip
    calls :meth:`tick` once per elapsed ``next_t`` mark (looping to
    catch up after sparse event periods), passing the mark time itself
    so the series stays on a regular grid. Catch-up samples timestamp
    the *current* chip state at the missed mark -- an explicit
    approximation that beats silently skipping grid points.
    """

    def __init__(self, chip, registry: MetricsRegistry,
                 interval_cycles: float = SAMPLE_INTERVAL_CYCLES):
        self.chip = chip
        self.registry = registry
        self.interval = interval_cycles
        self.next_t = 0.0

    def tick(self, now: float) -> None:
        self.next_t = now + self.interval
        reg = self.registry
        chip = self.chip
        for name, ring in chip.rings.rings.items():
            reg.series("sim.ring_depth", ring=name).sample(now, len(ring.items))
        for me in chip.mes:
            if me.time > 0:
                util = (me.time - me.idle_time) / me.time
            else:
                util = 0.0
            reg.series("sim.me_util", me=me.index).sample(now, round(util, 4))


def record_run_summary(reg: MetricsRegistry, chip, rx, tx) -> None:
    """Record final ring / ME / memory-channel / Rx / Tx accounting after
    a simulation finishes. Reads only always-on counters kept by the
    simulator itself, so it works whether or not a sampler ran."""
    for name, ring in chip.rings.rings.items():
        reg.gauge("sim.ring.capacity", ring=name).set(ring.capacity)
        reg.gauge("sim.ring.depth", ring=name).set(len(ring.items))
        reg.gauge("sim.ring.max_depth", ring=name).set(ring.max_depth)
        reg.gauge("sim.ring.puts", ring=name).set(ring.puts)
        reg.gauge("sim.ring.gets", ring=name).set(ring.gets)
        reg.gauge("sim.ring.drops", ring=name).set(ring.drops)
        reg.gauge("sim.ring.empty_gets", ring=name).set(ring.empty_gets)

    for me in chip.mes:
        busy = me.time - me.idle_time
        util = busy / me.time if me.time > 0 else 0.0
        reg.gauge("sim.me.utilization", me=me.index).set(round(util, 6))
        reg.gauge("sim.me.executed_instrs", me=me.index).set(me.executed_instrs)

    for cname, channel in chip.memory.channels.items():
        reg.gauge("sim.mem.busy_cycles", channel=cname).set(
            round(channel.busy_time, 3))
        if chip.now > 0:
            reg.gauge("sim.mem.utilization", channel=cname).set(
                round(channel.busy_time / chip.now, 6))

    if rx is not None:
        reg.gauge("sim.rx.offered").set(rx.sent)
        reg.gauge("sim.rx.dropped", cause="freelist_empty").set(
            rx.dropped_freelist)
        reg.gauge("sim.rx.dropped", cause="ring_full").set(
            rx.dropped_ring_full)
        reg.gauge("sim.leaks", engine="rx", kind="buffer").set(rx.leaked_buffers)
        reg.gauge("sim.leaks", engine="rx", kind="meta").set(rx.leaked_meta)
    if tx is not None:
        reg.gauge("sim.tx.packets").set(tx.packets_out())
        reg.gauge("sim.tx.bytes").set(tx.bytes_out)
        reg.gauge("sim.leaks", engine="tx", kind="buffer").set(tx.leaked_buffers)
        reg.gauge("sim.leaks", engine="tx", kind="meta").set(tx.leaked_meta)

    reg.gauge("sim.cycles").set(chip.now)
