"""Persistent-request machinery (Section 3.2): the starvation-avoidance
half of the correctness substrate.

Two activation mechanisms are provided:

* **Arbiter-based** (:class:`Arbiter`): the original TokenB scheme
  extended to M-CMPs.  A starving cache sends its persistent request to
  the block's home arbiter (co-located with the memory controller).  The
  arbiter fair-queues requests and activates them one at a time by
  broadcasting an activate message to *every* cache; deactivation requires
  an indirection back through the arbiter before the next request starts.

* **Distributed activation** (:class:`PersistentTable` alone): each
  processor broadcasts its own persistent request; every cache remembers
  all of them in a small table (one entry per processor) and forwards
  tokens to the highest-*fixed*-priority request for each block.  When the
  winner deactivates, the next request is already active everywhere, so
  contended blocks hand off directly processor-to-processor.  A FutureBus
  style *marking* rule prevents a deactivating processor from re-issuing
  and starving lower-priority waiters: on its own deactivation it marks
  all table entries for the block, and it may issue a new persistent
  request for that block only once those marked entries have deactivated.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.sim.kernel import Simulator

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_PERSIST_REQ = MsgType.PERSIST_REQ
_PERSIST_DEACTIVATE = MsgType.PERSIST_DEACTIVATE


@dataclasses.dataclass
class PersistentEntry:
    """One remembered persistent request."""

    proc: int
    requestor: NodeId  # the L1D cache tokens must be forwarded to
    addr: int
    read: bool  # persistent read (leave each cache one token)?
    prio: int  # fixed priority: smaller wins
    marked: bool = False


class PersistentTable:
    """Per-cache table of remembered persistent requests.

    Holds at most one entry per processor (each processor initiates at
    most one persistent request at a time).  ``active_for`` returns the
    entry tokens must be forwarded to: the highest-priority request for
    that block.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, PersistentEntry] = {}

    def insert(self, entry: PersistentEntry) -> None:
        """Remember ``entry`` (at most one per processor).

        Re-inserting an entry for the same (processor, block) — a
        duplicated or re-broadcast activate — must not lose the ``marked``
        bit: the FutureBus marking rule's bookkeeping survives redundant
        delivery, otherwise a duplicate could let a deactivating processor
        re-issue early and starve lower-priority waiters.
        """
        prev = self._entries.get(entry.proc)
        if prev is not None and prev.addr == entry.addr:
            entry.marked = entry.marked or prev.marked
        self._entries[entry.proc] = entry

    def remove(self, proc: int, addr: int) -> Optional[PersistentEntry]:
        """Remove ``proc``'s request *for this block*.

        The address check matters: deactivations for different blocks
        travel from different arbiters (or along different broadcast
        trees), so a late deactivate for an old request must not clobber
        the processor's newer request for another block.
        """
        entry = self._entries.get(proc)
        if entry is None or entry.addr != addr:
            return None
        return self._entries.pop(proc)

    def active_for(self, addr: int) -> Optional[PersistentEntry]:
        best: Optional[PersistentEntry] = None
        for entry in self._entries.values():
            if entry.addr == addr and (best is None or entry.prio < best.prio):
                best = entry
        return best

    def mark_all_for(self, addr: int) -> None:
        """The local processor deactivated: mark the current wave."""
        for entry in self._entries.values():
            if entry.addr == addr:
                entry.marked = True

    def has_marked_for(self, addr: int) -> bool:
        return any(e.addr == addr and e.marked for e in self._entries.values())

    def entries_for(self, addr: int) -> List[PersistentEntry]:
        return [e for e in self._entries.values() if e.addr == addr]

    def __len__(self) -> int:
        return len(self._entries)


class Arbiter:
    """Home arbiter for arbiter-based activation (one per memory controller).

    Activates at most one persistent request at a time (fair FIFO over all
    blocks homed at this controller — the serialization that makes
    TokenCMP-arb0 fragile under contention, especially when hot blocks
    share an arbiter).
    """

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        net: Network,
        params: SystemParams,
        stats: Stats,
    ):
        self.node = node
        self.sim = sim
        self.net = net
        self.params = params
        self.stats = stats
        self._queue: Deque[Message] = deque()
        self._active: Optional[Message] = None
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, params.mem_ctrl_latency_ps, self._process)

    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Network entry point: model the lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self.sim.schedule(self.params.mem_ctrl_latency_ps, self._process, msg)

    def _process(self, msg: Message) -> None:
        if msg.mtype is _PERSIST_REQ:
            self._queue.append(msg)
            self.stats.bump("arb.queued")
            self._maybe_activate()
        elif msg.mtype is _PERSIST_DEACTIVATE:
            self._deactivate(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"arbiter got unexpected message {msg}")

    def _maybe_activate(self) -> None:
        if self._active is not None or not self._queue:
            return
        self._active = self._queue.popleft()
        self.stats.bump("arb.activations")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.persist_activate(
                self.node, self._active.addr,
                requestor=self._active.requestor,
                prio=self._active.prio, scheme="arb",
            )
        self._broadcast(MsgType.PERSIST_ACTIVATE, self._active)

    def _deactivate(self, msg: Message) -> None:
        active = self._active
        if active is not None and active.requestor == msg.requestor and active.addr == msg.addr:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.persist_deactivate(
                    self.node, active.addr, requestor=active.requestor, scheme="arb"
                )
            self._broadcast(MsgType.PERSIST_DEACTIVATE, active)
            self._active = None
            self._maybe_activate()
            return
        # The requestor may have been satisfied by stray transient-response
        # tokens while its request was still queued: drop it from the queue.
        for queued in list(self._queue):
            if queued.requestor == msg.requestor and queued.addr == msg.addr:
                self._queue.remove(queued)
                self.stats.bump("arb.cancelled_in_queue")
                return
        # A deactivate for a request that is neither active nor queued is a
        # legal race (Section 3.2), not a protocol bug: the request already
        # retired and this copy was duplicated or delayed in the network.
        # Count it and drop it.
        self.stats.bump("arb.spurious_deactivates")

    def _broadcast(self, mtype: MsgType, req: Message) -> None:
        addr = req.addr
        destinations = self.params.token_holders(addr) + [self.params.home_mem(addr)]
        for dst in destinations:
            self.net.send(
                Message(
                    mtype=mtype,
                    src=self.node,
                    dst=dst,
                    addr=addr,
                    requestor=req.requestor,
                    prio=req.prio,
                    read=req.read,
                    extra=req.extra,  # processor id
                )
            )


def persistent_read_share(tokens: int, owner: bool) -> int:
    """Tokens a cache must give up for an active persistent **read**.

    All but one token (Section 3.2).  A cache holding only the owner token
    gives it up (with data) rather than starving the reader — see
    DESIGN.md, "Owner-token handoff on persistent reads".
    """
    if tokens == 0:
        return 0
    if tokens == 1:
        return 1 if owner else 0
    return tokens - 1
