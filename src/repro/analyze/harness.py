"""Compiled-side effect replay for translation validation.

Loads one compile onto a minimal chip (one programmable ME, fast
dispatch, XScale service disabled after boot inits) and replays the
reference capture's roots one at a time: inject the packet exactly the
way the Rx engine would, run until the image has produced as many
externally visible events as the reference expects (plus a drain window
to catch *extra* events), and record each event at the moment the ME
puts it on a ring -- the same at-put-time snapshot discipline the
reference capture uses.

Ring instrumentation: every ring except the image's own input rings and
the buffer free list gets its ``put`` wrapped per-instance --

* channel rings (``tx``, XScale inputs, other external channels) record
  a ``("put", channel, payload, meta)`` event read back from simulated
  SRAM/DRAM;
* ``__meta_free`` records ``("drop",)`` (packet lowering recycles the
  metadata handle last, so one ``__meta_free`` put == one drop);
* image input rings stay unwrapped: a put there (e.g. l3switch's
  ``err_cc`` self-loop) is re-dispatched by the image itself before
  quiescence, not an external effect.

Between roots the monitors are disarmed and all output/input rings are
drained with their packets recycled to the free pools, so ring capacity
and pool size never bound how many roots can be replayed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analyze.capture import CaptureRoot
from repro.baker.packetmodel import META_BUF_ADDR
from repro.ixp.chip import IXP2400
from repro.ixp.packets import (
    SimMeta, alloc_packet, free_packet, is_buffer, read_packet, write_packet,
)
from repro.rts.loader import load_system

#: per-root simulation budget (ME cycles); generous, only reached when
#: the image genuinely fails to produce the expected events.
RUN_CAP_CYCLES = 2_000_000.0
#: post-quiescence window to catch events beyond the expected count.
DRAIN_CYCLES = 25_000.0


class HarnessError(Exception):
    pass


class ImageHarness:
    """Replays capture roots against one compiled ME image."""

    def __init__(self, result, agg_name: str, cmp_words: Tuple[int, ...],
                 run_cap: float = RUN_CAP_CYCLES,
                 drain: float = DRAIN_CYCLES):
        self.result = result
        self.agg_name = agg_name
        self.cmp_words = cmp_words
        self.run_cap = run_cap
        self.drain = drain
        self.timeouts = 0

        self.chip = IXP2400(n_programmable_mes=1)
        load_system(result, self.chip, n_mes=1)
        # The globals hold their post-boot image; from here on the
        # control processor stays silent so only the image under test
        # touches packets (the reference capture mirrors this).
        self.chip.xscale.service = lambda now: 0.0

        image = result.images[agg_name]
        self._input_rings = [self.chip.rings["ring." + c]
                             for c in sorted(self.input_channels(image))]
        self._meta_free = self.chip.rings["ring.__meta_free"]
        self._buf_free = self.chip.rings["ring.__buf_free"]

        self._armed = False
        self._observed = 0
        self._events: List[tuple] = []
        self._output_rings = []
        input_names = {r.name for r in self._input_rings}
        for name in sorted(self.chip.rings.rings):
            ring = self.chip.rings.rings[name]
            if name in input_names or name == "ring.rx" \
                    or name == "ring.__buf_free":
                continue
            if name == "ring.__meta_free":
                self._wrap_put(ring, drop=True)
            else:
                self._wrap_put(ring, drop=False)
                self._output_rings.append(ring)

    @staticmethod
    def input_channels(image) -> List[str]:
        return [ring_sym[len("ring."):] for ring_sym, _ in image.inputs]

    # -- instrumentation ----------------------------------------------------------

    def _wrap_put(self, ring, drop: bool) -> None:
        orig = ring.put

        def put(value, _orig=orig, _drop=drop, _ring=ring):
            ok = _orig(value)
            if ok and self._armed:
                if _drop:
                    self._events.append(("drop",))
                else:
                    self._events.append(self._snapshot_put(_ring.name, value))
                self._observed += 1
            return ok

        ring.put = put

    def _snapshot_put(self, ring_name: str, handle: int) -> tuple:
        # Corrupt geometry reads as a marker payload: itself a divergence.
        words, payload = read_packet(self.chip.memory, handle,
                                     self.chip.meta_words)
        meta = tuple(words[w] for w in self.cmp_words)
        return ("put", ring_name[len("ring."):], payload, meta)

    # -- replay -------------------------------------------------------------------

    def replay_root(self, root: CaptureRoot) -> List[tuple]:
        self._events = []
        self._observed = 0
        self._inject(root)
        expected = len(root.effects)
        self._armed = True
        try:
            if expected:
                before = self.chip.now
                self.chip.run_for(
                    self.run_cap,
                    stop=lambda: self._observed >= expected)
                if self._observed < expected \
                        and self.chip.now - before >= self.run_cap:
                    self.timeouts += 1
            self.chip.run_for(self.drain)
        finally:
            self._armed = False
        self._recycle()
        return self._events

    def _inject(self, root: CaptureRoot) -> None:
        got = alloc_packet(self._meta_free, self._buf_free)
        if got is None:
            raise HarnessError("packet pool exhausted in harness")
        meta, buf = got
        write_packet(self.chip, meta, buf, root.payload, root.rx_port)
        ring = self.chip.rings.get("ring." + root.channel)
        if ring is None:
            raise HarnessError("no input ring for channel %r" % root.channel)
        if not ring.put(meta):
            raise HarnessError("input ring %s full" % ring.name)

    def _recycle(self) -> None:
        """Return every packet parked on an output (or leftover input)
        ring to the free pools, monitors disarmed."""
        mem = self.chip.memory
        for ring in self._output_rings + self._input_rings:
            while ring.items:
                handle = ring.get()
                buf = SimMeta(mem, handle)[META_BUF_ADDR]
                free_packet(self._meta_free, self._buf_free, handle,
                            buf if is_buffer(mem, buf) else 0)
