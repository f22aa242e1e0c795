"""Logical snooping bus for Single-CMP systems (paper Section 1).

The paper contrasts M-CMP coherence with "conceptually straightforward"
S-CMP designs that keep caches coherent with a traditional snooping
protocol over a logical bus.  This module provides that bus: a totally
ordered broadcast medium with arbitration.

Model: requestors enqueue transactions; the bus grants them FIFO.  A
granted transaction occupies the bus for an arbitration + snoop window,
during which every attached snooper sees it *in the same order* — the
total order is what makes snooping protocols simple.  Data responses use
a separate (unordered) data path with its own latency.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List

from repro.common.types import ns
from repro.sim.kernel import Simulator


class BusTransaction:
    """One address-bus transaction (request kind + block + requestor)."""

    __slots__ = ("kind", "addr", "requestor", "payload")

    def __init__(self, kind: str, addr: int, requestor, payload=None):
        self.kind = kind  # "GETS" | "GETX" | "UPGRADE" | "WB"
        self.addr = addr
        self.requestor = requestor
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bus({self.kind} @{self.addr:#x} by {self.requestor})"


class LogicalBus:
    """Totally ordered broadcast with FIFO arbitration."""

    def __init__(self, sim: Simulator, occupancy_ns: float = 10.0,
                 arbitration_ns: float = 4.0):
        self.sim = sim
        self.occupancy_ps = ns(occupancy_ns)
        self.arbitration_ps = ns(arbitration_ns)
        self._snoopers: List[Callable[[BusTransaction], None]] = []
        self._queue: deque = deque()
        self._busy = False
        self.transactions = 0

    def attach(self, snooper: Callable[[BusTransaction], None]) -> None:
        """Register a snoop callback (sees every transaction, in order)."""
        self._snoopers.append(snooper)

    def request(self, txn: BusTransaction) -> None:
        """Queue a transaction for the bus."""
        self._queue.append(txn)
        if not self._busy:
            self._grant_next(None)

    def _grant_next(self, _) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        txn = self._queue.popleft()
        self.sim.call_after(self.arbitration_ps, self._broadcast, txn)

    def _broadcast(self, txn: BusTransaction) -> None:
        self.transactions += 1
        for snooper in self._snoopers:
            snooper(txn)
        self.sim.call_after(self.occupancy_ps, self._grant_next, None)
