"""L1 cache controller for DirectoryCMP (hierarchical MOESI directory).

All L1 misses go to the block's home L2 bank on the same chip, which
serializes them through the intra-CMP directory.  The L1 responds to
forwarded requests, invalidations and recalls at any time — including
while it has its own transaction outstanding or is mid-writeback — which
is what keeps the two directory levels deadlock-free.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, classify_source
from repro.cpu.ops import Load, Rmw, Store, is_write
from repro.directory.states import E, EvictBuf, GRANT_M, GRANT_S, GRANT_STATE, L1Entry, L1Tx, M, O
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.memory.cache import CacheArray
from repro.sim.kernel import Simulator

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_DIR_DATA = MsgType.DIR_DATA
_DIR_ACK = MsgType.DIR_ACK
_DIR_FWD_GETS = MsgType.DIR_FWD_GETS
_DIR_FWD_GETX = MsgType.DIR_FWD_GETX
_DIR_INV = MsgType.DIR_INV
_DIR_RECALL = MsgType.DIR_RECALL
_DIR_WB_GRANT = MsgType.DIR_WB_GRANT


class DirL1Controller:
    """One L1 data cache in DirectoryCMP."""

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        net: Network,
        params: SystemParams,
        stats: Stats,
        cfg,
        array: CacheArray,
    ):
        self.node = node
        self.sim = sim
        self.net = net
        self.params = params
        self.stats = stats
        self.cfg = cfg
        self.array = array
        self._tx: Dict[int, L1Tx] = {}
        self._evicting: Dict[int, EvictBuf] = {}
        self._deferred: Dict[int, list] = {}  # msgs parked on the hold window
        self._home: Dict[int, NodeId] = {}  # block -> home L2 bank on this chip
        self._banks: Dict[NodeId, NodeId] = {}
        # Hot-path bindings, resolved once instead of per message.
        self._latency_ps = params.l1_latency_ps
        self._call_after = sim.call_after
        self._process_cb = self._process
        self._attempt_cb = self._attempt
        self._counters = stats.counters  # defaultdict: bare += per bump
        self._miss_latency = stats.summaries["l1.miss_latency_ps"]
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, self._latency_ps, self._process_cb)

    # ------------------------------------------------------------------
    def _home_l2(self, addr: int) -> NodeId:
        bank = self._home.get(addr)
        if bank is None:
            bank = self.params.l2_bank(addr, self.node.chip)
            # Interned: every block of a bank shares one NodeId, so the
            # memo costs only its dict slots.
            bank = self._home[addr] = self._banks.setdefault(bank, bank)
        return bank

    def _send(self, mtype: MsgType, dst: NodeId, addr: int, **kw) -> None:
        self.net.send(Message(mtype=mtype, src=self.node, dst=dst, addr=addr, **kw))

    # ------------------------------------------------------------------
    # Processor interface.
    # ------------------------------------------------------------------
    def access(self, op, done: Callable[[int], None]) -> None:
        addr = self.params.block_of(op.addr)
        # Recyclable single-arg event (call_after): the op/addr/done pack
        # rides in one tuple instead of an Event handle with an args tuple.
        self._call_after(self._latency_ps, self._attempt_cb, (op, addr, done))

    def _attempt(self, pack) -> None:
        op, addr, done = pack
        entry = self.array.lookup(addr)
        write = is_write(op)
        if entry is not None and (entry.state in (M, E) if write else True):
            self._counters["l1.hits"] += 1
            done(self._perform(op, entry))
            return
        self._counters["l1.misses"] += 1
        tx = L1Tx(op=op, addr=addr, done=done, start_ps=self.sim.now, is_write=write)
        self._tx[addr] = tx
        self._send(
            MsgType.DIR_GETX if write else MsgType.DIR_GETS,
            self._home_l2(addr),
            addr,
            requestor=self.node,
        )

    def _perform(self, op, entry: L1Entry) -> int:
        old = entry.value
        if isinstance(op, Store):
            entry.value = op.value
        elif isinstance(op, Rmw):
            entry.value = op.fn(old)
        else:
            return old
        entry.state = M
        entry.dirty = True
        if self.cfg.response_delay:
            # Same Rajwar-style delay as the token protocols (Section 3.2
            # notes all evaluated protocols implement it): an atomic arms a
            # bounded hold; a later plain store (the release) disarms it.
            if isinstance(op, Rmw):
                entry.hold_until = max(
                    entry.hold_until, self.sim.now + self.params.response_delay_ps
                )
            else:
                entry.hold_until = self.sim.now
                self._flush_deferred(self.params.block_of(op.addr))
        return old

    # ------------------------------------------------------------------
    # Message handling.
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Network entry point: model the lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self._call_after(self._latency_ps, self._process_cb, msg)

    def _process(self, msg: Message) -> None:
        t = msg.mtype
        if t is _DIR_DATA:
            self._on_data(msg)
        elif t is _DIR_ACK:
            self._on_ack(msg)
        elif t in (_DIR_FWD_GETS, _DIR_FWD_GETX, _DIR_INV, _DIR_RECALL):
            self._on_demand(msg)
        elif t is _DIR_WB_GRANT:
            self._on_wb_grant(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.node}: unexpected message {msg}")

    # ------------------------------------------------------------------
    # Completing our own transaction.
    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        tx = self._tx.get(msg.addr)
        assert tx is not None, f"{self.node}: data grant with no transaction ({msg})"
        tx.data_source = classify_source(msg.src, self.node.chip)
        tx.data = msg.data
        tx.granted = msg.extra
        tx.dirty = msg.dirty
        tx.acks_expected = msg.acks
        self._try_complete(msg.addr)

    def _on_ack(self, msg: Message) -> None:
        tx = self._tx.get(msg.addr)
        assert tx is not None, f"{self.node}: stray ack ({msg})"
        tx.acks_received += 1
        self._try_complete(msg.addr)

    def _try_complete(self, addr: int) -> None:
        tx = self._tx.get(addr)
        if tx is None or tx.granted is None:
            return
        if tx.acks_received < (tx.acks_expected or 0):
            return
        del self._tx[addr]
        state = GRANT_STATE[tx.granted]
        entry = self.array.lookup(addr)
        if entry is None:
            entry = L1Entry(state=state)
            victim = self.array.allocate(addr, entry, evictable=self._evictable)
            if victim is not None:
                self._evict(*victim)
        entry.state = state
        entry.value = tx.data
        entry.dirty = tx.dirty
        result = self._perform(tx.op, entry)
        self._miss_latency.add(self.sim.now - tx.start_ps)
        self._counters[f"miss.src.{tx.data_source or 'unknown'}"] += 1
        self._send(MsgType.DIR_UNBLOCK, self._home_l2(addr), addr, requestor=self.node)
        tx.done(result)

    def _evictable(self, addr: int, entry: L1Entry) -> bool:
        return addr not in self._tx and addr not in self._evicting

    # ------------------------------------------------------------------
    # Serving forwarded requests, invalidations and recalls.
    # ------------------------------------------------------------------
    def _on_demand(self, msg: Message) -> None:
        addr = msg.addr
        entry = self.array.peek(addr)
        if entry is not None and entry.hold_until > self.sim.now and msg.requestor != self.node:
            self._defer(addr, entry.hold_until, msg)
            return
        buf = self._evicting.get(addr)
        t = msg.mtype

        if t is MsgType.DIR_INV:
            if entry is not None:
                self.array.deallocate(addr)
            if buf is not None:
                buf.cancelled = True
            self._send(MsgType.DIR_ACK, msg.requestor, addr)
            return

        if t is MsgType.DIR_FWD_GETX:
            # We are (or were) the local owner: hand data + M to requestor.
            value, dirty = self._surrender(addr, entry, buf)
            self._send(
                MsgType.DIR_DATA, msg.requestor, addr,
                data=value, dirty=dirty, acks=msg.acks, extra=GRANT_M,
            )
            return

        if t is MsgType.DIR_FWD_GETS:
            if msg.extra == "migrate":
                value, dirty = self._surrender(addr, entry, buf)
                self._send(
                    MsgType.DIR_DATA, msg.requestor, addr,
                    data=value, dirty=dirty, acks=0, extra=GRANT_M,
                )
                self.stats.bump("dir.migratory_transfers")
            else:
                src = entry if entry is not None else buf
                assert src is not None, f"{self.node}: fwd-gets but no data @{addr:#x}"
                if entry is not None and entry.state in (M, E):
                    entry.state = O  # others now share: E may no longer upgrade
                self._send(
                    MsgType.DIR_DATA, msg.requestor, addr,
                    data=src.value, dirty=src.dirty, acks=0, extra=GRANT_S,
                )
            return

        if t is MsgType.DIR_RECALL:
            self._on_recall(msg, entry, buf)
            return

    def _defer(self, addr: int, when_ps: int, msg: Message) -> None:
        """Park a demand message until the hold window ends (or is disarmed)."""
        holder = self._deferred.setdefault(addr, [])
        record = []

        def _fire() -> None:
            holder.remove(record[0])
            self._process(msg)

        event = self.sim.schedule_at(when_ps, _fire)
        record.append((event, msg))
        holder.append(record[0])

    def _flush_deferred(self, addr: int) -> None:
        """The hold was disarmed (lock release): serve parked messages now."""
        for event, msg in self._deferred.pop(addr, []):
            event.cancel()
            self._process(msg)

    def _surrender(self, addr: int, entry, buf):
        """Give up the block entirely (forwarded GETX or migratory GETS)."""
        if entry is not None:
            value, dirty = entry.value, entry.dirty
            self.array.deallocate(addr)
        else:
            assert buf is not None, f"{self.node}: surrender without data @{addr:#x}"
            value, dirty = buf.value, buf.dirty
        if buf is not None:
            buf.cancelled = True
        return value, dirty

    def _on_recall(self, msg: Message, entry, buf) -> None:
        """The home L2 needs our copy: for eviction (inv) or an external
        read (copy).  Responses are tagged 'recall' so the L2 routes them
        to its recall bookkeeping rather than treating them as writebacks.
        """
        addr = msg.addr
        if msg.extra == "copy":
            src = entry if entry is not None else buf
            assert src is not None, f"{self.node}: recall-copy but no data @{addr:#x}"
            if entry is not None and entry.state in (M, E):
                entry.state = O
            self._send(
                MsgType.DIR_WB_DATA, msg.src, addr,
                data=src.value, dirty=src.dirty, extra="recall", requestor=self.node,
            )
            return
        # Full recall: invalidate, returning data if we own it.
        owned = False
        value = dirty = None
        if entry is not None:
            # E holds the only valid copy (clean): it must supply data too.
            owned = entry.state in (M, O, E)
            value, dirty = entry.value, entry.dirty
            self.array.deallocate(addr)
        elif buf is not None and not buf.cancelled:
            owned = True
            value, dirty = buf.value, buf.dirty
        if buf is not None:
            buf.cancelled = True
        if owned:
            self._send(
                MsgType.DIR_WB_DATA, msg.src, addr,
                data=value, dirty=dirty, extra="recall", requestor=self.node,
            )
        else:
            self._send(
                MsgType.DIR_WB_TOKEN, msg.src, addr, extra="recall", requestor=self.node
            )

    # ------------------------------------------------------------------
    # Three-phase writebacks.
    # ------------------------------------------------------------------
    def _evict(self, addr: int, entry: L1Entry) -> None:
        if entry.state in (M, O, E):
            self.stats.bump("l1.dirty_evictions")
            self._evicting[addr] = EvictBuf(entry.value, entry.dirty, entry.state)
            # Messages parked on the hold window must not outlive the
            # entry: serve them from the eviction buffer now.
            self._flush_deferred(addr)
            self._send(MsgType.DIR_WB_REQ, self._home_l2(addr), addr, requestor=self.node)
        else:
            self.stats.bump("l1.clean_evictions")
            self._send(
                MsgType.DIR_WB_TOKEN, self._home_l2(addr), addr,
                extra="notice", requestor=self.node,
            )

    def _on_wb_grant(self, msg: Message) -> None:
        buf = self._evicting.pop(msg.addr, None)
        assert buf is not None, f"{self.node}: WB grant without eviction ({msg})"
        if buf.cancelled:
            self._send(
                MsgType.DIR_WB_TOKEN, self._home_l2(msg.addr), msg.addr,
                extra="cancelled", requestor=self.node,
            )
        else:
            self._send(
                MsgType.DIR_WB_DATA, self._home_l2(msg.addr), msg.addr,
                data=buf.value, dirty=buf.dirty, requestor=self.node,
            )
