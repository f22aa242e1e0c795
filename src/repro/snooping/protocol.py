"""MOESI bus-snooping protocol for Single-CMP systems.

The paper's Section 1 baseline for S-CMPs: every L1 snoops a logical bus
(total order), a shared L2 sits below the bus, memory below that.  The
bus's total order is what keeps this protocol simple — no directories, no
transient-state explosion, no persistent requests: exactly the contrast
the paper draws before diving into the M-CMP problem.

Implementation notes: the synchronous snoop is modelled by a single
:class:`SnoopCoordinator` attached to the bus.  For each ordered
transaction it updates every cache's state in one step (that is what
"same order at every snooper" buys), picks the data source
(owning L1 -> cache-to-cache; else L2; else DRAM), and schedules the data
delivery.  Races reduce to one case: a queued upgrade whose block gets
invalidated by an earlier foreign GETX is promoted to a full GETX —
the classic snooping upgrade race.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, ns
from repro.cpu.ops import Fetch, Load, Rmw, Store, is_write
from repro.memory.cache import CacheArray
from repro.memory.dram import MemoryImage
from repro.sim.kernel import Simulator
from repro.snooping.bus import BusTransaction, LogicalBus

M, O, E, S, I = "M", "O", "E", "S", "I"


@dataclasses.dataclass
class SnoopEntry:
    state: str
    value: int = 0


@dataclasses.dataclass
class Pending:
    """One outstanding miss/upgrade at an L1."""

    op: object
    done: Callable[[int], None]
    kind: str  # "GETS" | "GETX" | "UPGRADE"
    txn: BusTransaction
    ordered: bool = False
    result: Optional[int] = None


@dataclasses.dataclass
class L2Line:
    value: int
    dirty: bool = False


class SnoopL1Controller:
    """One L1 cache snooping the bus."""

    def __init__(self, node: NodeId, sim: Simulator, params: SystemParams,
                 stats: Stats, coordinator: "SnoopCoordinator"):
        self.node = node
        self.sim = sim
        self.params = params
        self.stats = stats
        self.coordinator = coordinator
        self.array: CacheArray = CacheArray(
            params.l1_size, params.l1_assoc, params.block_size, str(node)
        )
        self._pending: Dict[int, Pending] = {}

    # -- processor side --------------------------------------------------
    def access(self, op, done: Callable[[int], None]) -> None:
        addr = self.params.block_of(op.addr)
        self.sim.schedule(self.params.l1_latency_ps, self._attempt, op, addr, done)

    def _attempt(self, op, addr: int, done) -> None:
        entry = self.array.lookup(addr)
        write = is_write(op)
        if entry is not None and (entry.state in (M, E) if write else entry.state != I):
            self.stats.bump("l1.hits")
            done(self._perform(op, entry))
            return
        self.stats.bump("l1.misses")
        if write and entry is not None and entry.state in (S, O):
            kind = "UPGRADE"
        else:
            kind = "GETX" if write else "GETS"
        txn = BusTransaction(kind, addr, self.node)
        self._pending[addr] = Pending(op=op, done=done, kind=kind, txn=txn)
        self.coordinator.bus.request(txn)

    def _perform(self, op, entry: SnoopEntry) -> int:
        old = entry.value
        if isinstance(op, Store):
            entry.value = op.value
        elif isinstance(op, Rmw):
            entry.value = op.fn(old)
        else:
            return old
        entry.state = M
        return old

    # -- coordinator side (synchronous snoop actions) ---------------------
    def entry(self, addr: int) -> Optional[SnoopEntry]:
        return self.array.peek(addr)

    def install(self, addr: int, state: str, value: int) -> None:
        entry = self.array.lookup(addr)
        if entry is None:
            entry = SnoopEntry(state=state, value=value)
            victim = self.array.allocate(addr, entry,
                                         evictable=lambda a, e: a not in self._pending)
            if victim is not None:
                self.coordinator.writeback(self.node, *victim)
        entry.state = state
        entry.value = value

    def complete(self, addr: int) -> None:
        """Perform the pending operation and resume the processor.

        The coordinator serializes transactions per block, so by the time
        this fires the entry's state/data reflect exactly this
        transaction's grant — the operation is atomic here."""
        pending = self._pending.pop(addr)
        entry = self.array.lookup(addr)
        result = self._perform(pending.op, entry)
        pending.done(result)

    def pending_for(self, addr: int) -> Optional[Pending]:
        return self._pending.get(addr)


class SnoopCoordinator:
    """The synchronous snoop: applies each ordered transaction everywhere."""

    def __init__(self, sim: Simulator, params: SystemParams, stats: Stats):
        if params.num_chips != 1:
            raise ConfigError(
                "SnoopingSCMP is a Single-CMP protocol (num_chips must be 1); "
                "use TokenCMP or DirectoryCMP for M-CMP systems"
            )
        self.sim = sim
        self.params = params
        self.stats = stats
        self.bus = LogicalBus(sim)
        self.bus.attach(self._snoop)
        self.l1s: Dict[NodeId, SnoopL1Controller] = {}
        self._block_queues: Dict[int, list] = {}  # per-block conflict retry
        self.l2 = CacheArray(
            params.l2_bank_size * params.l2_banks_per_chip,
            params.l2_assoc, params.block_size, "snoop-l2",
        )
        self.image = MemoryImage()
        # Data-path latencies.
        self.c2c_ps = params.l1_latency_ps + 2 * params.intra_link_latency_ps
        self.l2_ps = params.l2_latency_ps + 2 * params.intra_link_latency_ps
        self.mem_ps = (
            params.mem_ctrl_latency_ps + params.dram_latency_ps
            + 2 * params.mem_link_latency_ps
        )

    def add_l1(self, l1: SnoopL1Controller) -> None:
        self.l1s[l1.node] = l1

    # ------------------------------------------------------------------
    def _snoop(self, txn: BusTransaction) -> None:
        """Bus-order entry point for every transaction."""
        self.stats.bump("bus.transactions")
        self._process(txn)

    def _process(self, txn: BusTransaction) -> None:
        if txn.kind == "WB":
            self._absorb_writeback(txn)
            return
        # Per-block serialization: a transaction hitting a block with
        # another transaction still in flight waits and retries when it
        # completes — the snoop-stall/retry of real buses.  Within a block
        # everything is therefore atomic at completion time.
        if txn.addr in self._block_queues:
            self._block_queues[txn.addr].append(txn)
            self.stats.bump("bus.conflict_retries")
            return
        requestor = self.l1s[txn.requestor]
        pending = requestor.pending_for(txn.addr)
        if pending is None or pending.txn is not txn:
            return  # stale (e.g. an upgrade that was already satisfied)
        pending.ordered = True
        self._block_queues[txn.addr] = []
        kind = txn.kind
        if kind == "UPGRADE":
            entry = requestor.entry(txn.addr)
            if entry is None or entry.state not in (S, O):
                kind = "GETX"  # lost the copy while queued: full fetch
        if kind == "UPGRADE":
            self._apply_getx_invalidation(txn, keep=requestor)
            requestor.entry(txn.addr).state = M
            self.sim.schedule(self.bus.occupancy_ps, self._finish, requestor, txn.addr)
            return
        source_ps, value = self._find_data(txn, requestor)
        if kind == "GETX":
            self._apply_getx_invalidation(txn, keep=requestor)
            grant = M
        else:
            grant = self._apply_gets_downgrade(txn, requestor)
        requestor.install(txn.addr, grant, value)
        self.sim.schedule(source_ps, self._finish, requestor, txn.addr)

    def _finish(self, requestor: SnoopL1Controller, addr: int) -> None:
        requestor.complete(addr)
        deferred = self._block_queues.pop(addr, [])
        for txn in deferred:
            self._process(txn)  # first re-claims the block; rest re-queue

    def _absorb_writeback(self, txn: BusTransaction) -> None:
        """L2 absorbs an evicted line — unless it is stale (the evictor
        lost the block to a transaction that raced ahead of the WB)."""
        if txn.addr in self._block_queues:
            self.stats.bump("bus.stale_writebacks")
            return
        for l1 in self.l1s.values():
            entry = l1.entry(txn.addr)
            if entry is not None and entry.state in (M, O, E):
                self.stats.bump("bus.stale_writebacks")
                return
        value, dirty = txn.payload
        line = self.l2.lookup(txn.addr)
        if line is None:
            victim = self.l2.allocate(txn.addr, L2Line(value, dirty))
            if victim is not None:
                self._l2_evict(*victim)
        else:
            line.value = value
            line.dirty = line.dirty or dirty

    # ------------------------------------------------------------------
    def _find_data(self, txn, requestor):
        """Pick the data source: owning L1, then L2, then memory."""
        for l1 in self.l1s.values():
            if l1 is requestor:
                continue
            entry = l1.entry(txn.addr)
            if entry is not None and entry.state in (M, O, E):
                self.stats.bump("bus.cache_to_cache")
                return self.c2c_ps, entry.value
        line = self.l2.lookup(txn.addr)
        if line is not None:
            self.stats.bump("bus.l2_hits")
            return self.l2_ps, line.value
        self.stats.bump("bus.memory_fetches")
        value = self.image.read(txn.addr)
        self.l2.allocate(txn.addr, L2Line(value, dirty=False))
        return self.mem_ps, value

    def _apply_getx_invalidation(self, txn, keep: SnoopL1Controller) -> None:
        for l1 in self.l1s.values():
            if l1 is keep:
                continue
            entry = l1.entry(txn.addr)
            if entry is not None and entry.state != I:
                if entry.state in (M, O):
                    # Dirty copy dies: its value was just sourced (GETX) or
                    # is being overwritten (UPGRADE implies keep had O/S of
                    # the same value).
                    pass
                l1.array.deallocate(txn.addr)
            # The classic upgrade race: a queued upgrade loses its copy and
            # must become a full GETX when it reaches the bus.
            foreign = l1.pending_for(txn.addr)
            if foreign is not None and not foreign.ordered and foreign.kind == "UPGRADE":
                foreign.kind = "GETX"
                foreign.txn.kind = "GETX"
        line = self.l2.lookup(txn.addr)
        if line is not None:
            self.l2.deallocate(txn.addr)

    def _apply_gets_downgrade(self, txn, requestor) -> str:
        sharers = False
        for l1 in self.l1s.values():
            if l1 is requestor:
                continue
            entry = l1.entry(txn.addr)
            if entry is not None and entry.state != I:
                sharers = True
                if entry.state == M:
                    entry.state = O
                elif entry.state == E:
                    entry.state = S
        if self.l2.lookup(txn.addr) is not None and not sharers:
            return E if not sharers else S
        return S if sharers else E

    # ------------------------------------------------------------------
    def writeback(self, node: NodeId, addr: int, entry: SnoopEntry) -> None:
        if entry.state in (M, O, E):
            self.stats.bump("l1.dirty_evictions")
            self.bus.request(BusTransaction(
                "WB", addr, node, payload=(entry.value, entry.state in (M, O))
            ))

    def _l2_evict(self, addr: int, line: L2Line) -> None:
        if line.dirty:
            self.image.write(addr, line.value)

    # ------------------------------------------------------------------
    def coherent_value(self, addr: int) -> int:
        for l1 in self.l1s.values():
            entry = l1.entry(addr)
            if entry is not None and entry.state in (M, O, E):
                return entry.value
        line = self.l2.peek(addr)
        if line is not None and line.dirty:
            return line.value
        return self.image.read(addr)
