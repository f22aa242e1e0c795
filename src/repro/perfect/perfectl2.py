"""PerfectL2: the unimplementable lower bound from Figure 6.

Every L1 miss hits an infinite, globally shared L2 cache with zero
coherence cost.  Coherence is maintained "by magic": stores update a
single global image and instantly invalidate every other L1's copy, with
no messages and no latency.  Only the L1 hit/miss behaviour and the fixed
L1->L2 round trip remain.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Set

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId
from repro.cpu.ops import Load, Rmw, Store, is_write
from repro.memory.cache import CacheArray
from repro.memory.dram import MemoryImage
from repro.sim.kernel import Simulator


@dataclasses.dataclass
class _PerfectEntry:
    """L1 copy under magic coherence: just a presence marker."""

    present: bool = True


class PerfectGlobalL2:
    """The shared infinite L2: one global image plus magic invalidation."""

    def __init__(self) -> None:
        self.image = MemoryImage()
        self._copies: Dict[int, Set["PerfectL1Controller"]] = {}

    def note_copy(self, addr: int, l1: "PerfectL1Controller") -> None:
        self._copies.setdefault(addr, set()).add(l1)

    def write(self, addr: int, value: int, writer: "PerfectL1Controller") -> None:
        self.image.write(addr, value)
        # Sorted by NodeId so magic invalidations land in a reproducible
        # order (raw set order is hash-randomized per process).
        for l1 in sorted(self._copies.get(addr, set()), key=lambda c: c.node):
            if l1 is not writer:
                l1.magic_invalidate(addr)
                self._copies[addr].discard(l1)


class PerfectL1Controller:
    """L1 cache whose misses always hit the perfect shared L2."""

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        params: SystemParams,
        stats: Stats,
        global_l2: PerfectGlobalL2,
    ):
        self.node = node
        self.sim = sim
        self.params = params
        self.stats = stats
        self.global_l2 = global_l2
        self.array = CacheArray(params.l1_size, params.l1_assoc, params.block_size, str(node))
        # L1 lookup + on-chip link + L2 bank access + link back.
        self.miss_latency_ps = (
            params.l1_latency_ps
            + 2 * params.intra_link_latency_ps
            + params.l2_latency_ps
        )

    def access(self, op, done: Callable[[int], None]) -> None:
        addr = self.params.block_of(op.addr)
        hit = self.array.lookup(addr) is not None
        latency = self.params.l1_latency_ps if hit else self.miss_latency_ps
        self.stats.bump("l1.hits" if hit else "l1.misses")
        self.sim.call_after(latency, self._complete, (op, addr, done))

    def _complete(self, pack) -> None:
        op, addr, done = pack
        if self.array.lookup(addr) is None:
            self.array.allocate(addr, _PerfectEntry())
        self.global_l2.note_copy(addr, self)
        old = self.global_l2.image.read(addr)
        if isinstance(op, Store):
            self.global_l2.write(addr, op.value, self)
        elif isinstance(op, Rmw):
            self.global_l2.write(addr, op.fn(old), self)
        done(old)

    def magic_invalidate(self, addr: int) -> None:
        self.array.deallocate(addr)
