"""Streaming traffic generation for the live-churn service harness.

The run-to-completion benchmarks replay a fixed finite trace; a
long-running service needs an *infinite* deterministic packet stream
with service-like structure:

* **zipf flow popularity** -- a seeded population of per-app flows
  (built with the application's own trace generator, so every packet
  is valid for its data plane) drawn with a zipf rank distribution:
  a few hot flows dominate, a long tail keeps tables busy;
* **IMIX frame sizes** -- the classic 64/576/1500-byte 7:4:1 mix,
  applied by padding the flow's frame (Ethernet padding past the IP
  total length, which every app ignores);
* **seeded bursts** -- short spans injected at a pace multiplier below
  1.0 (above the offered rate), stressing rings and the drop path at
  deterministic points.

Everything is driven by one ``random.Random(seed)``, so a fixed seed
reproduces the byte-exact packet sequence.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.ixp.rxtx import RxEngine
from repro.profiler.trace import Trace, TracePacket

#: IMIX frame sizes and draw weights (7:4:1).
IMIX_SIZES = (64, 576, 1500)
IMIX_WEIGHTS = (7, 4, 1)


@dataclass
class TrafficSpec:
    """Knobs of the streaming generator (all deterministic under
    ``seed``)."""

    seed: int = 7
    n_flows: int = 256
    zipf_s: float = 1.1      # zipf exponent over flow ranks
    imix: bool = True
    burst_len: int = 32      # packets per burst
    burst_gap: int = 400     # mean packets between burst starts
    burst_pace: float = 0.25  # pace multiplier inside a burst (<1 = faster)


class TrafficModel:
    """Infinite deterministic (packet, pace) stream for one app."""

    def __init__(self, app, spec: TrafficSpec):
        self.spec = spec
        # The app's own generator yields a valid flow population (with
        # its natural mix of control/error packets); zipf ranks it.
        self.flows: List[TracePacket] = list(
            app.make_trace(spec.n_flows, seed=spec.seed).packets)
        if not self.flows:
            raise ValueError("app produced an empty flow population")
        weights = [1.0 / (rank + 1) ** spec.zipf_s
                   for rank in range(len(self.flows))]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self._rng = random.Random(spec.seed + 1)
        self._burst_left = 0

    def _pick_flow(self) -> TracePacket:
        r = self._rng.random()
        return self.flows[bisect.bisect_left(self._cdf, r)]

    def _pick_size(self, minimum: int) -> int:
        r = self._rng.random() * sum(IMIX_WEIGHTS)
        acc = 0.0
        for size, w in zip(IMIX_SIZES, IMIX_WEIGHTS):
            acc += w
            if r < acc:
                return max(size, minimum)
        return max(IMIX_SIZES[-1], minimum)

    def next_packet(self) -> Tuple[TracePacket, float]:
        """(packet, pace multiplier) for the next injection."""
        tp = self._pick_flow()
        if self.spec.imix:
            size = self._pick_size(len(tp.data))
            if size > len(tp.data):
                tp = TracePacket(tp.data + bytes(size - len(tp.data)),
                                 tp.rx_port)
        if self._burst_left > 0:
            self._burst_left -= 1
            pace = self.spec.burst_pace
        elif (self.spec.burst_gap > 0
              and self._rng.random() < 1.0 / self.spec.burst_gap):
            self._burst_left = self.spec.burst_len - 1
            pace = self.spec.burst_pace
        else:
            pace = 1.0
        return tp, pace


class StreamingRxEngine(RxEngine):
    """RxEngine fed by a :class:`TrafficModel` instead of a finite
    trace: injection never exhausts, and each packet's inter-arrival
    gap is the line-rate interval scaled by the model's pace."""

    def __init__(self, chip, model: TrafficModel,
                 offered_gbps: float = 2.5):
        super().__init__(chip, Trace(), offered_gbps=offered_gbps)
        self.model = model

    def inject_next(self):
        tp, pace = self.model.next_packet()
        self.sent += 1
        self._deliver(tp)
        return self.interval_cycles(len(tp.data)) * pace
