"""Intra-CMP directory at each L2 bank (DirectoryCMP, Section 2).

The bank is simultaneously:

* a shared cache holding data for its chip;
* the **intra-CMP directory**: per-block record of the chip-level
  permission (``gstate``), the owning local L1 (if any) and local sharers;
* the chip's agent to the **inter-CMP directory**: local misses that the
  chip cannot satisfy become chip-level GETS/GETX requests, and forwarded
  requests / invalidations from other chips are serviced here by recalling
  or invalidating local L1 copies.

Local transactions are serialized per block with a busy bit and a FIFO
queue.  Requests arriving from the inter-CMP directory are *never* queued
behind local work — they are serviced immediately from current state —
which (together with the inter directory's own per-block serialization)
is what keeps the hierarchy deadlock-free.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.directory.states import E, GRANT_E, GRANT_M, GRANT_S, GRANT_STATE, L2Line, M, O, S
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.memory.cache import CacheArray
from repro.sim.kernel import Simulator

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_DIR_GETS = MsgType.DIR_GETS
_DIR_GETX = MsgType.DIR_GETX
_DIR_UNBLOCK = MsgType.DIR_UNBLOCK
_DIR_DATA = MsgType.DIR_DATA
_DIR_ACK = MsgType.DIR_ACK
_DIR_FWD_GETS = MsgType.DIR_FWD_GETS
_DIR_FWD_GETX = MsgType.DIR_FWD_GETX
_DIR_INV = MsgType.DIR_INV
_DIR_WB_REQ = MsgType.DIR_WB_REQ
_DIR_WB_DATA = MsgType.DIR_WB_DATA
_DIR_WB_TOKEN = MsgType.DIR_WB_TOKEN
_DIR_WB_GRANT = MsgType.DIR_WB_GRANT


@dataclasses.dataclass
class PendingGlobal:
    """A chip-level request in flight to the inter-CMP directory."""

    kind: str  # "GETS" | "GETX"
    proc: NodeId  # the local L1 that will receive the final grant
    data: Optional[int] = None
    granted: Optional[str] = None
    dirty: bool = False
    acks_expected: Optional[int] = None
    acks_received: int = 0


@dataclasses.dataclass
class ExtTx:
    """A forwarded request from the inter-CMP directory being serviced —
    or a recall-based L2 eviction ("evict"), which gathers local copies
    exactly the same way before writing the line back."""

    kind: str  # "fwdx" | "fwds" | "inv" | "evict"
    requestor: Optional[NodeId]  # remote L2 (None for evictions)
    carry_acks: int  # ack count to embed in the data response
    need: int  # local responses still outstanding
    grant: str = GRANT_M
    data: Optional[int] = None
    dirty: bool = False
    gstate: str = "I"  # chip state at eviction start (evict kind)


@dataclasses.dataclass
class ChipEvictBuf:
    """Chip-level three-phase writeback in progress."""

    value: int
    dirty: bool
    gstate: str
    cancelled: bool = False


class IntraDirL2Controller:
    """One L2 bank with its intra-CMP directory."""

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
        self.chip: int = node.chip
        self.sim = sim
        self.net = net
        self.params = params
        self.stats = stats
        self.cfg = cfg
        self.array = array
        self._ext: Dict[int, ExtTx] = {}
        self._ext_deferred: Dict[int, list] = {}  # forwards parked on evictions
        self._evicting: Dict[int, ChipEvictBuf] = {}
        # Hot-path bindings, resolved once instead of per message.
        self._latency_ps = params.l2_latency_ps
        self._call_after = sim.call_after
        self._process_cb = self._process
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, self._latency_ps, self._process_cb)

    # ------------------------------------------------------------------
    def occupancy(self) -> Tuple[int, int, int]:
        """(L2 lines, outstanding external tx, evicting) — telemetry."""
        return len(self.array), len(self._ext), len(self._evicting)

    def _home_mem(self, addr: int) -> NodeId:
        return self.params.home_mem(addr)

    def _send(self, mtype: MsgType, dst: NodeId, addr: int, **kw) -> None:
        self.net.send(Message(mtype=mtype, src=self.node, dst=dst, addr=addr, **kw))

    def handle(self, msg: Message) -> None:
        """Network entry point: model the lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self._call_after(self._latency_ps, self._process_cb, msg)

    def _process(self, msg: Message) -> None:
        t = msg.mtype
        if t in (_DIR_GETS, _DIR_GETX):
            if msg.src.chip == self.chip and msg.src.kind in (NodeKind.L1D, NodeKind.L1I):
                self._on_local_request(msg)
            else:  # pragma: no cover - defensive
                raise ValueError(f"{self.node}: chip-level request routed here: {msg}")
        elif t is _DIR_UNBLOCK:
            self._on_local_unblock(msg)
        elif t is _DIR_DATA:
            self._on_global_data(msg)
        elif t is _DIR_ACK:
            self._on_ack(msg)
        elif t in (_DIR_FWD_GETS, _DIR_FWD_GETX, _DIR_INV):
            self._on_external(msg)
        elif t in (_DIR_WB_REQ, _DIR_WB_DATA, _DIR_WB_TOKEN):
            self._on_writeback(msg)
        elif t is _DIR_WB_GRANT:
            self._on_chip_wb_grant(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.node}: unexpected message {msg}")

    # ------------------------------------------------------------------
    # Line management.
    # ------------------------------------------------------------------
    def _line(self, addr: int, create: bool = False) -> Optional[L2Line]:
        line = self.array.lookup(addr)
        if line is None and create:
            line = L2Line()
            try:
                victim = self.array.allocate(addr, line, evictable=self._evictable)
            except ConfigError:
                # No copy-free victim: recall a quiescent line's L1 copies
                # (inclusion recall), freeing its slot for the allocation.
                self._recall_evict_some_line(addr)
                victim = self.array.allocate(addr, line, evictable=self._evictable)
            if victim is not None:
                self._evict_line(*victim)
        return line

    def _recall_evict_some_line(self, addr: int) -> None:
        """Evict a non-busy line that still has local L1 copies."""
        for vaddr, vline in self.array.entries_in_set(addr):
            if (
                vline.evictable()
                and vaddr not in self._ext
                and vaddr not in self._evicting
            ):
                self.array.deallocate(vaddr)
                self._start_recall_eviction(vaddr, vline)
                return
        raise ConfigError(f"{self.node}: set for {addr:#x} fully in transaction")

    def _start_recall_eviction(self, addr: int, line: L2Line) -> None:
        """Gather the line's L1 copies, then write the line back."""
        self.stats.bump("l2.recall_evictions")
        targets = set(line.sharers)
        owner = line.owner_l1
        if owner is not None:
            targets.discard(owner)
        ext = ExtTx(
            kind="evict",
            requestor=None,
            carry_acks=0,
            need=len(targets) + (1 if owner is not None else 0),
            data=line.value if line.l2_data else None,
            dirty=line.dirty,
            gstate=line.gstate,
        )
        assert ext.need > 0, "recall eviction of a line without copies"
        self._ext[addr] = ext
        if owner is not None:
            self._send(MsgType.DIR_RECALL, owner, addr, extra="inv")
        # Sorted fan-out: NodeId hashes are randomized per process, so raw
        # set order would reorder invalidations (and thus the event stream).
        for l1 in sorted(targets):
            self._send(MsgType.DIR_INV, l1, addr, requestor=self.node)

    def _evictable(self, addr: int, line: L2Line) -> bool:
        # Only lines with no transaction and no local L1 copies are victim
        # candidates, so L2 evictions never need an inclusion-recall dance.
        return (
            line.evictable()
            and line.owner_l1 is None
            and not line.sharers
            and addr not in self._ext
            and addr not in self._evicting
        )

    def _drop_line_if_idle(self, addr: int, line: L2Line) -> None:
        if not line.busy and line.pending is None and line.gstate == "I":
            if line.owner_l1 is None and not line.sharers and not line.queue:
                self.array.deallocate(addr)

    def _evict_line(self, addr: int, line: L2Line) -> None:
        assert line.owner_l1 is None and not line.sharers and not line.busy
        if line.gstate in (M, O, E):
            self.stats.bump("l2.dirty_evictions")
            self._evicting[addr] = ChipEvictBuf(line.value, line.dirty, line.gstate)
            self._send(MsgType.DIR_WB_REQ, self._home_mem(addr), addr, requestor=self.node)
        elif line.gstate == S:
            self.stats.bump("l2.clean_evictions")
            self._send(
                MsgType.DIR_WB_TOKEN, self._home_mem(addr), addr,
                extra="notice", requestor=self.node,
            )

    # ------------------------------------------------------------------
    # Local L1 requests.
    # ------------------------------------------------------------------
    def _on_local_request(self, msg: Message) -> None:
        try:
            line = self._line(msg.addr, create=True)
        except ConfigError:
            # Every way of the set is mid-transaction (e.g. the victims'
            # L1 copies are still being written back).  A real controller
            # stalls the request; retry shortly.
            self.stats.bump("l2.alloc_stalls")
            self._call_after(self._latency_ps * 2, self._on_local_request, msg)
            return
        if line.busy:
            line.queue.append(msg)
            self.stats.bump("l2.deferred_requests")
            return
        self._start_local(msg, line)

    def _start_local(self, msg: Message, line: L2Line) -> None:
        addr = msg.addr
        p = msg.requestor
        if msg.mtype is MsgType.DIR_GETS:
            if line.gstate != "I" and line.has_local_data:
                line.busy = True
                self._grant_read_locally(addr, line, p)
            else:
                self._go_global(addr, line, "GETS", p)
        else:  # GETX
            if line.gstate in (E, M):
                line.busy = True
                self._grant_write_locally(addr, line, p)
            else:
                self._go_global(addr, line, "GETX", p)

    def _grant_read_locally(self, addr: int, line: L2Line, p: NodeId) -> None:
        if line.owner_l1 is not None:
            migrate = (
                self.cfg.migratory and line.owner_state == M and line.owner_l1 != p
            )
            self._send(
                MsgType.DIR_FWD_GETS, line.owner_l1, addr,
                requestor=p, extra="migrate" if migrate else "share",
            )
            if migrate:
                line.owner_l1 = p
                line.owner_state = M
            else:
                line.owner_state = O
                line.sharers.add(p)
        else:
            exclusive = (
                line.gstate in (E, M) and not line.sharers and line.owner_l1 is None
            )
            if exclusive and self.cfg.migratory and line.gstate == M and line.dirty:
                grant = GRANT_M  # migratory: give the dirty block away whole
            elif exclusive:
                grant = GRANT_E
            else:
                grant = GRANT_S
            self._send(
                MsgType.DIR_DATA, p, addr,
                data=line.value, dirty=line.dirty if grant == GRANT_M else False,
                acks=0, extra=grant,
            )
            if grant in (GRANT_M, GRANT_E):
                line.owner_l1 = p
                line.owner_state = M
                line.l2_data = False
                line.dirty = False
            else:
                line.sharers.add(p)

    def _grant_write_locally(self, addr: int, line: L2Line, p: NodeId) -> None:
        invs = line.sharers - {p}
        for sharer in sorted(invs):
            self._send(MsgType.DIR_INV, sharer, addr, requestor=p)
        if line.owner_l1 is not None:
            # Forward to the owner (possibly p itself after a stale record).
            self._send(
                MsgType.DIR_FWD_GETX, line.owner_l1, addr, requestor=p, acks=len(invs)
            )
        else:
            self._send(
                MsgType.DIR_DATA, p, addr,
                data=line.value, dirty=line.dirty, acks=len(invs), extra=GRANT_M,
            )
            line.l2_data = False
            line.dirty = False
        line.owner_l1 = p
        line.owner_state = M
        line.sharers = set()

    def _go_global(self, addr: int, line: L2Line, kind: str, p: NodeId) -> None:
        line.busy = True
        line.pending = PendingGlobal(kind=kind, proc=p)
        self.stats.bump("l2.global_requests")
        self._send(
            MsgType.DIR_GETS if kind == "GETS" else MsgType.DIR_GETX,
            self._home_mem(addr),
            addr,
            requestor=self.node,
        )

    def _on_local_unblock(self, msg: Message) -> None:
        line = self.array.lookup(msg.addr)
        assert line is not None and line.busy, f"{self.node}: stray unblock {msg}"
        line.busy = False
        self._drain_queue(msg.addr, line)

    def _drain_queue(self, addr: int, line: L2Line) -> None:
        if line.busy or line.pending is not None:
            return
        if line.queue:
            nxt = line.queue.pop(0)
            if nxt.mtype in (MsgType.DIR_GETS, MsgType.DIR_GETX):
                self._start_local(nxt, line)
            elif nxt.mtype is MsgType.DIR_WB_REQ:
                self._start_l1_writeback(nxt, line)
            else:
                # A deferred external request: service it, then keep
                # draining (external service never sets the busy bit).
                self._on_external(nxt)
                self._drain_queue(addr, line)
        else:
            self._drop_line_if_idle(addr, line)

    # ------------------------------------------------------------------
    # Completion of a chip-level (global) request.
    # ------------------------------------------------------------------
    def _on_global_data(self, msg: Message) -> None:
        line = self.array.lookup(msg.addr)
        assert line is not None and line.pending is not None, f"stray global data {msg}"
        pend = line.pending
        pend.data = msg.data
        pend.granted = msg.extra
        pend.dirty = msg.dirty
        pend.acks_expected = msg.acks
        self._try_complete_global(msg.addr, line)

    def _on_ack(self, msg: Message) -> None:
        # Chip-level acks (from remote L2s) feed the pending transaction;
        # local L1 acks feed an external-invalidation transaction.
        if msg.src.chip != self.chip:
            line = self.array.lookup(msg.addr)
            assert line is not None and line.pending is not None, f"stray ack {msg}"
            line.pending.acks_received += 1
            self._try_complete_global(msg.addr, line)
        else:
            self._ext_response(msg.addr, data=None, dirty=False)

    def _try_complete_global(self, addr: int, line: L2Line) -> None:
        pend = line.pending
        if pend is None or pend.granted is None:
            return
        if pend.acks_received < (pend.acks_expected or 0):
            return
        line.pending = None
        line.value = pend.data
        line.dirty = pend.dirty
        line.l2_data = True
        old_gstate = line.gstate
        line.gstate = GRANT_STATE[pend.granted]
        tracer = self.sim.tracer
        if tracer is not None and line.gstate != old_gstate:
            tracer.dir_transition(
                self.node, addr, old=old_gstate, new=line.gstate,
                cause=f"global:{pend.granted}",
            )
        self._send(
            MsgType.DIR_UNBLOCK, self._home_mem(addr), addr,
            requestor=self.node, extra=pend.granted,
        )
        # Now grant locally; the line stays busy until the L1 unblocks.
        if pend.kind == "GETS":
            self._grant_read_locally(addr, line, pend.proc)
        else:
            self._grant_write_locally(addr, line, pend.proc)

    # ------------------------------------------------------------------
    # Requests forwarded from the inter-CMP directory (never queued).
    # ------------------------------------------------------------------
    def _on_external(self, msg: Message) -> None:
        addr = msg.addr
        buf = self._evicting.get(addr)
        if buf is not None:
            self._external_on_evict_buffer(msg, buf)
            return
        ext = self._ext.get(addr)
        if ext is not None and ext.kind == "evict":
            # A recall-based eviction is gathering this line's L1 copies;
            # serve the forwarded request from the buffer once it forms.
            self._ext_deferred.setdefault(addr, []).append(msg)
            return
        line = self.array.lookup(addr)
        if line is not None and line.busy and line.pending is None:
            # A purely local transaction is mid-grant: defer the external
            # request behind it (it completes via local messages only, so
            # this cannot deadlock).  When we are instead *waiting on the
            # inter directory* (pending set), we must service the external
            # request immediately — queueing it would deadlock the levels.
            line.queue.append(msg)
            return
        t = msg.mtype

        if t is MsgType.DIR_INV:
            self._ext_invalidate(addr, line, msg.requestor)
            return

        assert line is not None, f"{self.node}: forwarded request but no line ({msg})"

        if t is MsgType.DIR_FWD_GETX:
            self._ext_take_all(addr, line, msg.requestor, msg.acks, GRANT_M)
            return

        # FWD_GETS: migratory hand-off of a modified block, else share a copy.
        if self.cfg.migratory and line.gstate == M and (
            line.dirty or (line.owner_l1 is not None and line.owner_state == M)
        ):
            self.stats.bump("dir.chip_migratory")
            self._ext_take_all(addr, line, msg.requestor, 0, GRANT_M)
            return
        if line.l2_data:
            self._send(
                MsgType.DIR_DATA, msg.requestor, addr,
                data=line.value, dirty=False, acks=0, extra=GRANT_S,
            )
            line.gstate = O if line.gstate in (M, E, O) else S
            return
        assert line.owner_l1 is not None, f"{self.node}: no data for fwd-gets @{addr:#x}"
        self._ext[addr] = ExtTx(
            kind="fwds", requestor=msg.requestor, carry_acks=0, need=1, grant=GRANT_S
        )
        self._send(MsgType.DIR_RECALL, line.owner_l1, addr, extra="copy")

    def _ext_invalidate(self, addr: int, line: Optional[L2Line], ack_to: NodeId) -> None:
        """Chip-level invalidation: wipe L2 + local sharers, then ack."""
        if line is None:
            self._send(MsgType.DIR_ACK, ack_to, addr)
            return
        targets = set(line.sharers)
        if line.owner_l1 is not None:
            targets.add(line.owner_l1)  # defensive: INV normally has no owner
        tracer = self.sim.tracer
        if tracer is not None and line.gstate != "I":
            tracer.dir_transition(
                self.node, addr, old=line.gstate, new="I", cause="ext-inv"
            )
        line.sharers = set()
        line.owner_l1 = None
        line.gstate = "I"
        line.l2_data = False
        line.dirty = False
        if not targets:
            self._send(MsgType.DIR_ACK, ack_to, addr)
            self._drop_line_if_idle(addr, line)
            return
        self._ext[addr] = ExtTx(
            kind="inv", requestor=ack_to, carry_acks=0, need=len(targets)
        )
        # Sorted fan-out: NodeId hashes are randomized per process, so raw
        # set order would reorder invalidations (and thus the event stream).
        for l1 in sorted(targets):
            self._send(MsgType.DIR_INV, l1, addr, requestor=self.node)

    def _ext_take_all(
        self, addr: int, line: L2Line, requestor: NodeId, carry_acks: int, grant: str
    ) -> None:
        """Hand the whole block to another chip (GETX or migratory GETS)."""
        targets = set(line.sharers)
        owner = line.owner_l1
        if owner is not None:
            targets.discard(owner)
        ext = ExtTx(
            kind="fwdx",
            requestor=requestor,
            carry_acks=carry_acks,
            need=len(targets) + (1 if owner is not None else 0),
            grant=grant,
            data=line.value if line.l2_data else None,
            dirty=line.dirty,
        )
        tracer = self.sim.tracer
        if tracer is not None and line.gstate != "I":
            tracer.dir_transition(
                self.node, addr, old=line.gstate, new="I", cause="ext-take-all"
            )
        line.sharers = set()
        line.owner_l1 = None
        line.gstate = "I"
        line.l2_data = False
        line.dirty = False
        if ext.need == 0:
            assert ext.data is not None, f"{self.node}: take-all without data @{addr:#x}"
            self._finish_ext(addr, ext)
            self._drop_line_if_idle(addr, line)
            return
        self._ext[addr] = ext
        if owner is not None:
            self._send(MsgType.DIR_RECALL, owner, addr, extra="inv")
        # Sorted fan-out: NodeId hashes are randomized per process, so raw
        # set order would reorder invalidations (and thus the event stream).
        for l1 in sorted(targets):
            self._send(MsgType.DIR_INV, l1, addr, requestor=self.node)

    def _ext_response(self, addr: int, data: Optional[int], dirty: bool) -> None:
        """A local L1 answered a recall/inv belonging to an external tx."""
        ext = self._ext.get(addr)
        assert ext is not None, f"{self.node}: unmatched local response @{addr:#x}"
        if data is not None:
            ext.data = data
            ext.dirty = ext.dirty or dirty
        ext.need -= 1
        if ext.need == 0:
            del self._ext[addr]
            self._finish_ext(addr, ext)

    def _finish_ext(self, addr: int, ext: ExtTx) -> None:
        if ext.kind == "evict":
            # Local copies gathered: now write the line back to the home.
            if ext.gstate in (M, O, E) or ext.dirty:
                assert ext.data is not None, f"{self.node}: evict without data"
                self._evicting[addr] = ChipEvictBuf(ext.data, ext.dirty, ext.gstate)
                self.stats.bump("l2.dirty_evictions")
                self._send(
                    MsgType.DIR_WB_REQ, self._home_mem(addr), addr, requestor=self.node
                )
            else:
                self.stats.bump("l2.clean_evictions")
                self._send(
                    MsgType.DIR_WB_TOKEN, self._home_mem(addr), addr,
                    extra="notice", requestor=self.node,
                )
            for deferred in self._ext_deferred.pop(addr, []):
                self._on_external(deferred)
            return
        if ext.kind == "inv":
            self._send(MsgType.DIR_ACK, ext.requestor, addr)
            return
        if ext.kind == "fwds":
            line = self.array.lookup(addr)
            assert line is not None
            line.l2_data = True
            line.value = ext.data
            line.dirty = ext.dirty
            line.owner_state = O
            line.gstate = O
            self._send(
                MsgType.DIR_DATA, ext.requestor, addr,
                data=ext.data, dirty=False, acks=0, extra=GRANT_S,
            )
            return
        # fwdx / migratory hand-off.
        self._send(
            MsgType.DIR_DATA, ext.requestor, addr,
            data=ext.data, dirty=ext.dirty, acks=ext.carry_acks, extra=ext.grant,
        )

    # ------------------------------------------------------------------
    # Writebacks: local L1 three-phase, plus our own chip-level eviction.
    # ------------------------------------------------------------------
    def _on_writeback(self, msg: Message) -> None:
        t = msg.mtype
        if t is MsgType.DIR_WB_REQ:
            line = self.array.lookup(msg.addr)
            assert line is not None, f"{self.node}: WB request for unknown line {msg}"
            if line.busy:
                line.queue.append(msg)
            else:
                self._start_l1_writeback(msg, line)
            return
        if msg.extra == "recall":
            # Response to a recall we issued for an external transaction.
            self._ext_response(
                msg.addr,
                data=msg.data if t is MsgType.DIR_WB_DATA else None,
                dirty=msg.dirty,
            )
            return
        if t is MsgType.DIR_WB_TOKEN and msg.extra == "notice":
            line = self.array.lookup(msg.addr)
            if line is not None:
                line.sharers.discard(msg.requestor)
            return
        # Phase 3 of a local L1 writeback (data, or cancelled).
        line = self.array.lookup(msg.addr)
        assert line is not None and line.busy, f"{self.node}: stray WB data {msg}"
        if t is MsgType.DIR_WB_DATA:
            if line.owner_l1 == msg.requestor:
                line.owner_l1 = None
            line.l2_data = True
            line.value = msg.data
            line.dirty = line.dirty or msg.dirty
        else:  # cancelled: ownership moved while the WB was in flight
            if line.owner_l1 == msg.requestor:
                line.owner_l1 = None
            line.sharers.discard(msg.requestor)
        line.busy = False
        self._drain_queue(msg.addr, line)

    def _start_l1_writeback(self, msg: Message, line: L2Line) -> None:
        line.busy = True
        self._send(MsgType.DIR_WB_GRANT, msg.requestor, msg.addr)

    def _on_chip_wb_grant(self, msg: Message) -> None:
        buf = self._evicting.pop(msg.addr, None)
        assert buf is not None, f"{self.node}: chip WB grant without eviction {msg}"
        if buf.cancelled:
            self._send(
                MsgType.DIR_WB_TOKEN, self._home_mem(msg.addr), msg.addr,
                extra="cancelled", requestor=self.node,
            )
        else:
            self._send(
                MsgType.DIR_WB_DATA, self._home_mem(msg.addr), msg.addr,
                data=buf.value, dirty=buf.dirty, requestor=self.node,
            )

    def _external_on_evict_buffer(self, msg: Message, buf: ChipEvictBuf) -> None:
        """Serve forwarded requests from a line mid-chip-writeback."""
        t = msg.mtype
        if t is MsgType.DIR_INV:
            buf.cancelled = True
            self._send(MsgType.DIR_ACK, msg.requestor, msg.addr)
        elif t is MsgType.DIR_FWD_GETX:
            buf.cancelled = True
            self._send(
                MsgType.DIR_DATA, msg.requestor, msg.addr,
                data=buf.value, dirty=buf.dirty, acks=msg.acks, extra=GRANT_M,
            )
        else:  # FWD_GETS: share a copy; the writeback still proceeds.
            self._send(
                MsgType.DIR_DATA, msg.requestor, msg.addr,
                data=buf.value, dirty=False, acks=0, extra=GRANT_S,
            )
