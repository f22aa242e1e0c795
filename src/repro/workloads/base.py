"""Workload interface.

A workload builds one generator per processor (see
:mod:`repro.cpu.thread` for the yield protocol) plus the address layout
it needs.  Workloads allocate addresses in distinct blocks via
:class:`BlockAllocator` so that false sharing only happens when a
workload asks for it.
"""

from __future__ import annotations

from typing import Generator, List

from repro.common.params import SystemParams


class BlockAllocator:
    """Hands out addresses in distinct cache blocks."""

    def __init__(self, params: SystemParams, base: int = 0x1000_0000):
        self.params = params
        self._next = base

    def block(self) -> int:
        """A fresh block-aligned address."""
        addr = self._next
        self._next += self.params.block_size
        return addr

    def blocks(self, n: int) -> List[int]:
        """``n`` fresh block-aligned addresses, in order."""
        start, step = self._next, self.params.block_size
        self._next = start + n * step
        return list(range(start, self._next, step))


class Workload:
    """Base class: subclasses implement :meth:`generators`."""

    name = "workload"

    def __init__(self, params: SystemParams, seed: int = 0):
        self.params = params
        self.seed = seed
        self.alloc = BlockAllocator(params)

    def generators(self) -> List[Generator]:
        """One generator per processor, in processor order."""
        raise NotImplementedError
