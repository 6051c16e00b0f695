"""Scratch rings: the hardware-assisted FIFOs used for CCs and free lists."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional


class Ring:
    """A scratch-memory ring of 32-bit words. ``get`` on empty returns 0
    (the hardware's convention, which is why packet handles are never
    placed at address 0)."""

    def __init__(self, name: str, capacity: int = 256):
        self.name = name
        self.capacity = capacity
        self.items: Deque[int] = deque()
        self.puts = 0
        self.gets = 0
        self.drops = 0  # rejected puts (ring full)
        self.empty_gets = 0  # gets that returned 0 (ring empty)
        self.max_depth = 0  # occupancy high watermark
        # Occupancy summed after every operation (rejected puts and empty
        # gets included): mean depth is depth_sum over the operation count.
        self.depth_sum = 0

    def put(self, value: int) -> bool:
        if len(self.items) >= self.capacity:
            self.drops += 1
            self.depth_sum += len(self.items)
            return False
        self.items.append(value & 0xFFFFFFFF)
        self.puts += 1
        depth = len(self.items)
        if depth > self.max_depth:
            self.max_depth = depth
        self.depth_sum += depth
        return True

    def get(self) -> int:
        if not self.items:
            self.empty_gets += 1
            return 0
        self.gets += 1
        value = self.items.popleft()
        self.depth_sum += len(self.items)
        return value

    def cycle(self) -> None:
        """A ``get`` and then a ``put`` of the value it returned, in one
        step: the head moves to the tail, and the counters, depth sum and
        watermark read as the two operations leave them. The caller
        makes sure both would succeed (``0 < len <= capacity``)."""
        n = len(self.items)
        self.items.rotate(-1)
        self.gets += 1
        self.puts += 1
        self.depth_sum += 2 * n - 1
        if n > self.max_depth:
            self.max_depth = n

    def __len__(self) -> int:
        return len(self.items)


class RingSet:
    def __init__(self):
        self.rings: Dict[str, Ring] = {}

    def create(self, name: str, capacity: int = 256) -> Ring:
        ring = Ring(name, capacity)
        self.rings[name] = ring
        return ring

    def __getitem__(self, name: str) -> Ring:
        return self.rings[name]

    def get(self, name: str) -> Optional[Ring]:
        return self.rings.get(name)
